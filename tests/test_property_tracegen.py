"""Differential property test: the packed-word emitter against the
request walk it replaced.

The oracle below is the previous generator's ``trace_compiled`` walk,
kept verbatim: five generator frames and one :class:`Request` per
request, packed afterwards with ``PackedTrace.from_requests``.
Hypothesis draws nests the workload registry never builds — one to
three loops with triangular and empty ranges, subscript coefficients
-2..2 with offsets, refs at every depth before and after the inner
loop, reads and writes, array shapes that are not multiples of 8 —
and compiles them for both logical dimensionalities over both
layouts.  The emitter must produce the oracle's exact words, or raise
an :class:`AddressError` where the oracle does.
"""

from __future__ import annotations

from typing import Dict, Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import AddressError
from repro.common.types import (
    PACKED_ADDR_LIMIT,
    PACKED_REF_LIMIT,
    AccessWidth,
    PackedTrace,
    Request,
    line_id_of,
)
from repro.sw.layout import Layout, LinearLayout, TiledLayout
from repro.sw.program import Affine, ArrayDecl, ArrayRef, Loop, LoopNest, Program
from repro.sw.tracegen import generate_packed_trace
from repro.sw.vectorizer import (
    CompiledNest,
    CompiledProgram,
    CompiledRef,
    VECTOR_LANES,
    VecClass,
    compile_program,
)

# -- The oracle: the previous request walk, verbatim ---------------------------


def trace_compiled(compiled: CompiledProgram,
                   layout: Layout) -> Iterator[Request]:
    """Requests for an already-compiled program."""
    for cnest in compiled.nests:
        yield from _walk_nest(cnest, layout)


def _walk_nest(cnest: CompiledNest, layout: Layout) -> Iterator[Request]:
    yield from _walk_level(cnest, layout, level=0, env={})


def _walk_level(cnest: CompiledNest, layout: Layout, level: int,
                env: Dict[str, int]) -> Iterator[Request]:
    loops = cnest.nest.loops
    loop = loops[level]
    low = loop.lower.evaluate(env)
    high = loop.upper.evaluate(env)
    innermost = level == len(loops) - 1
    depth = level + 1
    if innermost:
        yield from _walk_innermost(cnest, layout, env, loop.var, low, high)
        return
    before = cnest.refs_at(depth, "before")
    after = cnest.refs_at(depth, "after")
    for value in range(low, high):
        env[loop.var] = value
        for cref in before:
            yield from _emit_scalar(cref, layout, env)
        yield from _walk_level(cnest, layout, level + 1, env)
        for cref in after:
            yield from _emit_scalar(cref, layout, env)
    env.pop(loop.var, None)


def _walk_innermost(cnest: CompiledNest, layout: Layout,
                    env: Dict[str, int], var: str, low: int,
                    high: int) -> Iterator[Request]:
    refs = cnest.innermost_refs()
    if not cnest.vectorized:
        for value in range(low, high):
            env[var] = value
            for cref in refs:
                yield from _emit_scalar(cref, layout, env)
        env.pop(var, None)
        return
    value = low
    while value + VECTOR_LANES <= high:
        env[var] = value
        for cref in refs:
            if cref.vec_class is VecClass.VECTOR:
                yield from _emit_vector(cref, layout, env, var)
            elif cref.vec_class is VecClass.SCALAR_HOISTED:
                yield from _emit_scalar(cref, layout, env)
            else:
                yield from _emit_serial(cref, layout, env, var)
        value += VECTOR_LANES
    # Loop tail: plain scalar iterations.
    for tail in range(value, high):
        env[var] = tail
        for cref in refs:
            yield from _emit_scalar(cref, layout, env)
    env.pop(var, None)


def _emit_scalar(cref: CompiledRef, layout: Layout,
                 env: Dict[str, int]) -> Iterator[Request]:
    addr = layout.address_of(cref.ref.array.name,
                             cref.ref.row.evaluate(env),
                             cref.ref.col.evaluate(env))
    yield Request(addr, cref.direction.orientation, AccessWidth.SCALAR,
                  cref.ref.is_write, cref.ref_id)


def _emit_serial(cref: CompiledRef, layout: Layout, env: Dict[str, int],
                 var: str) -> Iterator[Request]:
    base = env[var]
    for lane in range(VECTOR_LANES):
        env[var] = base + lane
        yield from _emit_scalar(cref, layout, env)
    env[var] = base


def _emit_vector(cref: CompiledRef, layout: Layout, env: Dict[str, int],
                 var: str) -> Iterator[Request]:
    """One request per oriented line the 8-lane group touches."""
    name = cref.ref.array.name
    orientation = cref.direction.orientation
    first = layout.address_of(name, cref.ref.row.evaluate(env),
                              cref.ref.col.evaluate(env))
    base = env[var]
    env[var] = base + VECTOR_LANES - 1
    last = layout.address_of(name, cref.ref.row.evaluate(env),
                             cref.ref.col.evaluate(env))
    env[var] = base
    yield Request(first, orientation, AccessWidth.VECTOR,
                  cref.ref.is_write, cref.ref_id)
    if line_id_of(last, orientation) != line_id_of(first, orientation):
        # Misaligned group: the tail lanes live in the next line.
        yield Request(last, orientation, AccessWidth.VECTOR,
                      cref.ref.is_write, cref.ref_id)


def oracle(program: Program, logical_dims: int, layout: Layout):
    compiled = compile_program(program, logical_dims)
    return PackedTrace.from_requests(trace_compiled(compiled, layout))


def outcome(build):
    """The trace's words, or the name of the error it raised."""
    try:
        return build().words.tolist()
    except (AddressError, ValueError) as exc:
        return type(exc).__name__


LAYOUTS = {"linear": LinearLayout, "tiled": TiledLayout}
VARS = ("a", "b", "c")

coeffs = st.integers(min_value=-2, max_value=2)


def slack(outside):
    """Added to the tightest in-bounds offset or extent; -1 steps one
    element outside the array, so such draws must raise AddressError."""
    return st.integers(min_value=-1 if outside else 0, max_value=4)


def _points(loops, depth, env=None):
    """Every binding of the first ``depth`` loop variables."""
    env = env or {}
    if not depth:
        yield dict(env)
        return
    loop = loops[0]
    for value in range(loop.lower.evaluate(env),
                       loop.upper.evaluate(env)):
        env[loop.var] = value
        yield from _points(loops[1:], depth - 1, env)
    env.pop(loop.var, None)


@st.composite
def loop_nests(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    loops = []
    for level in range(depth):
        outer = VARS[:level]
        widest = 20 if level == depth - 1 else 4
        lower = Affine(tuple((name, 1) for name in outer
                             if draw(st.booleans())),
                       draw(st.integers(min_value=-2, max_value=3)))
        # Triangular (upper moves with an outer variable) and empty
        # (upper at or below lower) ranges included.
        step = Affine(tuple((name, coeff) for name in outer
                            if (coeff := draw(st.integers(-1, 1)))),
                      draw(st.integers(min_value=-1, max_value=widest)))
        loops.append(Loop(VARS[level], lower, lower + step))
    return loops


@st.composite
def subscript(draw, loops, depth, outside):
    """An affine subscript over the variables bound at ``depth``,
    offset so it starts near 0 over the iteration space; returns it
    with its largest value (None when the ref never executes)."""
    terms = tuple((name, coeff) for name in VARS[:depth]
                  if (coeff := draw(coeffs)))
    values = [Affine(terms).evaluate(env)
              for env in _points(loops, depth)]
    if not values:
        return Affine(terms, draw(st.integers(-2, 8))), None
    const = draw(slack(outside)) - min(values)
    return Affine(terms, const), max(values) + const


@st.composite
def programs(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    # One draw in four may step outside an array somewhere.
    outside = draw(st.integers(min_value=0, max_value=3)) == 0
    extents = [[1, 1] for _ in range(count)]
    nests = []
    for index in range(draw(st.integers(min_value=1, max_value=2))):
        loops = draw(loop_nests())
        specs = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            at = draw(st.integers(min_value=1, max_value=len(loops)))
            array = draw(st.integers(min_value=0, max_value=count - 1))
            row, top_row = draw(subscript(loops, at, outside))
            col, top_col = draw(subscript(loops, at, outside))
            for axis, top in enumerate((top_row, top_col)):
                if top is not None:
                    extents[array][axis] = max(extents[array][axis],
                                               top + 1)
            specs.append((array, row, col, draw(st.booleans()), at,
                          draw(st.sampled_from(("before", "after")))))
        nests.append((loops, specs))
    arrays = [ArrayDecl(f"A{k}", max(1, rows + draw(slack(outside))),
                        max(1, cols + draw(slack(outside))))
              for k, (rows, cols) in enumerate(extents)]
    return Program("p", arrays, [
        LoopNest(f"n{index}", loops,
                 [ArrayRef(arrays[array], row, col, write, at, when)
                  for array, row, col, write, at, when in specs])
        for index, (loops, specs) in enumerate(nests)])


def _program(arrays, loops, refs):
    return Program("p", arrays, [LoopNest("n", loops, refs)])


_A = ArrayDecl("A", 13, 13)
#: Hand-picked shapes: a -1 unit stride straddling lines, a tail-only
#: loop, an empty inner range under a triangular bound, and a diagonal
#: ref whose groups always straddle.
EXAMPLES = [
    _program([_A], [Loop.over("a", 13)],
             [ArrayRef(_A, Affine.constant(3), Affine.of("a", -1, 12))]),
    _program([_A], [Loop.over("a", 5)],
             [ArrayRef(_A, Affine.of("a"), Affine.constant(0))]),
    _program([_A], [Loop.over("a", 3),
                    Loop.bounded("b", Affine.of("a"), 1)],
             [ArrayRef(_A, Affine.of("a"), Affine.of("b"), depth=2),
              ArrayRef(_A, Affine.of("a"), Affine.constant(0), True, 1,
                       "after")]),
    _program([_A], [Loop.over("a", 12)],
             [ArrayRef(_A, Affine.of("a"), Affine.of("a"))]),
]


@settings(max_examples=300, deadline=None)
@given(programs(), st.sampled_from(sorted(LAYOUTS)),
       st.sampled_from((1, 2)))
@example(EXAMPLES[0], "tiled", 2)
@example(EXAMPLES[0], "linear", 2)
@example(EXAMPLES[1], "tiled", 2)
@example(EXAMPLES[2], "linear", 1)
@example(EXAMPLES[3], "tiled", 2)
def test_emitter_matches_request_walk(program, layout_name, logical_dims):
    layout = LAYOUTS[layout_name](program.arrays)
    want = outcome(lambda: oracle(program, logical_dims, layout))
    got = outcome(lambda: generate_packed_trace(program, logical_dims,
                                                layout))
    assert got == want


class TestPackLimits:
    """The emitter raises where ``pack_request`` raised, and only there."""

    @pytest.mark.parametrize("layout_cls", (LinearLayout, TiledLayout))
    def test_address_limit(self, layout_cls):
        huge = ArrayDecl("H", 1 << 23, 1 << 23)
        layout = layout_cls([huge])
        assert layout.footprint_bytes() > PACKED_ADDR_LIMIT
        low = _program([huge], [Loop.over("a", 20)],
                       [ArrayRef(huge, Affine.constant(0), Affine.of("a"))])
        assert generate_packed_trace(low, 2, layout) == \
            oracle(low, 2, layout)
        high = _program([huge], [Loop.over("a", 20)],
                        [ArrayRef(huge, Affine.constant((1 << 23) - 1),
                                  Affine.of("a"))])
        for build in (generate_packed_trace, oracle):
            with pytest.raises(ValueError, match="not packable"):
                build(high, 2, layout)

    def test_ref_id_limit_fires_on_first_emission(self):
        a = ArrayDecl("A", 8, 8)
        crowd = [ArrayRef(a, Affine.constant(0), Affine.constant(0))
                 ] * PACKED_REF_LIMIT
        quiet = LoopNest("quiet", [Loop.over("a", 0)], crowd)
        late = [ArrayRef(a, Affine.constant(0), Affine.of("a"))]
        layout = TiledLayout([a])
        # Ref id 65536 never executes: nothing to pack, nothing raised.
        silent = Program("p", [a], [
            quiet, LoopNest("late", [Loop.over("a", 0)], late)])
        assert len(generate_packed_trace(silent, 2, layout)) == 0
        loud = Program("p", [a], [
            quiet, LoopNest("late", [Loop.over("a", 8)], late)])
        for build in (generate_packed_trace, oracle):
            with pytest.raises(ValueError, match="does not fit"):
                build(loud, 2, layout)
