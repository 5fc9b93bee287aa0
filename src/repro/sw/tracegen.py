"""Trace generation: emit a compiled kernel's packed request words.

This is where the compiler model meets the architecture model: every
static reference's orientation annotation and vectorization class (paper
Section V) become the per-request ``orientation`` / ``width`` bits the
ISA extension would carry (paper Section IV-B, "Application to ISA").

Vectorized nests are strip-mined by 8; a VECTOR ref emits one request
per oriented line its lane group touches (one when aligned, two when the
group straddles a line boundary, as in the +/-1-offset Sobel taps); a
SCALAR_HOISTED ref emits one scalar request per group; SCALAR_SERIAL
emits one per lane.  Loop tails and non-vectorized nests emit scalars.

One emitter walks each nest and appends packed words (the
:mod:`repro.common.types` layout) straight into one ``array('Q')``.
Outer loops run in Python, one iteration at a time.  On entering an
innermost loop the emitter folds each ref's row and column subscripts
into ``base + coeff * x``, checks their range once at the loop's two
endpoints (an affine subscript is monotone in ``x``), and from then on
every per-group column of words is an arithmetic progression: a shift
of 8 lanes moves a subscript by a multiple of 8, hence the word by a
fixed stride in either layout (:class:`~repro.sw.layout.ArrayAddressing`).
The group part of the loop is thus ``zip`` over ``range`` objects,
extended into the buffer in C; only the sub-8 tail is emitted per word.
Whether a VECTOR ref's groups straddle two lines is decided once per
loop: every group starts at the same in-line offset.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, Iterator, List, Optional

from ..common.types import (
    LINE_WORD_BITS,
    PACKED_ADDR_LIMIT,
    PACKED_ADDR_SHIFT,
    PACKED_REF_LIMIT,
    WORD_BYTES,
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
    pack_request,
    packed_flags,
)
from ..common.errors import AddressError
from .layout import ArrayAddressing, Layout, make_layout
from .program import Affine, Program
from .vectorizer import (
    CompiledNest,
    CompiledRef,
    VECTOR_LANES,
    VecClass,
    compile_program,
)


def generate_packed_trace(program: Program, logical_dims: int = 2,
                          layout: Optional[Layout] = None) -> PackedTrace:
    """The packed trace of a whole program, compiled for ``logical_dims``.

    This is the trace representation the simulator replays and the
    trace store persists: one 64-bit word per request.  The layout
    defaults to the one matching the logical dimensionality (the paper
    always pairs them); passing a mismatched layout reproduces the ~2x
    slowdown experiment of Section IV-C Design 0.

    Raises:
        AddressError: a reference leaves its array (or names an array
            the layout does not map).
        ValueError: a request is not packable — a ref id outside the
            16-bit field or an address at or above
            :data:`~repro.common.types.PACKED_ADDR_LIMIT`.
    """
    compiled = compile_program(program, logical_dims)
    if layout is None:
        layout = make_layout(program.arrays, logical_dims)
    words = array("Q")
    try:
        for cnest in compiled.nests:
            _emit_nest(words, cnest, layout)
    except OverflowError:
        # A word past 64 bits carries an address at or above the limit.
        raise ValueError(
            f"trace address not packable (word-aligned, "
            f"< {PACKED_ADDR_LIMIT:#x})") from None
    return PackedTrace(words)


def generate_trace(program: Program, logical_dims: int = 2,
                   layout: Optional[Layout] = None) -> Iterator[Request]:
    """The requests of :func:`generate_packed_trace`, decoded.

    The trace is materialized first; this is a decoded view of the
    packed words, not a lazy walk.
    """
    return iter(generate_packed_trace(program, logical_dims, layout))


class _Ref:
    """One compiled reference, prepared for emission in one nest.

    ``row`` and ``col`` are the subscripts without the innermost
    variable's term, whose coefficients are ``ci`` and ``cj`` (0 for
    refs above the innermost loop, which are emitted one at a time).
    ``lanes`` is how many scalar columns the ref adds per 8-lane group
    (1 hoisted, 8 serial), or 0 for a VECTOR ref.
    """

    __slots__ = ("cref", "name", "row", "col", "ci", "cj", "place",
                 "flags", "vflags", "lanes", "line_mask", "stride")

    def __init__(self, cref: CompiledRef, layout: Layout,
                 var: Optional[str]) -> None:
        ref = cref.ref
        self.cref = cref
        self.name = ref.array.name
        self.row = _without(ref.row, var)
        self.col = _without(ref.col, var)
        self.ci = ref.row.coeff(var) if var else 0
        self.cj = ref.col.coeff(var) if var else 0
        try:
            self.place = layout.addressing(self.name)
        except AddressError:
            # Raised when the ref first executes: an empty shape fails
            # every range check.
            self.place = _UNMAPPED
        orientation = cref.direction.orientation
        self.flags = packed_flags(orientation, AccessWidth.SCALAR,
                                  ref.is_write, cref.ref_id)
        self.vflags = packed_flags(orientation, AccessWidth.VECTOR,
                                   ref.is_write, cref.ref_id)
        self.lanes = _LANES[cref.vec_class]
        # Word-index bits outside the line: two words share a line
        # exactly when they differ in none of them.
        self.line_mask = ~LINE_WORD_BITS[orientation]
        # Packed-word delta per 8-lane step of the innermost variable.
        self.stride = (self.ci * self.place.row_block
                       + self.cj * self.place.col_block) << PACKED_ADDR_SHIFT

    def check(self, layout: Layout, i: int, j: int) -> None:
        """Raise what packing ``(i, j)`` raises; nothing if it packs."""
        place = self.place
        if not (0 <= i < place.rows and 0 <= j < place.cols):
            layout.address_of(self.name, i, j)  # raises AddressError
        cref = self.cref
        if cref.ref_id >= PACKED_REF_LIMIT:
            pack_request(Request(place.word(i, j) * WORD_BYTES,
                                 cref.direction.orientation,
                                 AccessWidth.SCALAR, cref.ref.is_write,
                                 cref.ref_id))


_LANES = {VecClass.VECTOR: 0, VecClass.SCALAR_HOISTED: 1,
          VecClass.SCALAR_SERIAL: VECTOR_LANES}
_UNMAPPED = ArrayAddressing(0, 0, 0, 0, 0, 0, 0)


def _without(expr: Affine, var: Optional[str]) -> Affine:
    """``expr`` without its ``var`` term."""
    if var is None or not expr.coeff(var):
        return expr
    return Affine(tuple((name, coeff) for name, coeff in expr.coeffs
                        if name != var), expr.const)


def _column(word: int, flags: int, stride: int, count: int):
    """``count`` packed words, the first addressing ``word`` with
    ``flags``, each next one ``stride`` further."""
    start = (word << PACKED_ADDR_SHIFT) | flags
    if stride:
        return range(start, start + stride * count, stride)
    return repeat(start, count)


def _emit_nest(out: array, cnest: CompiledNest, layout: Layout) -> None:
    loops = cnest.nest.loops
    last = len(loops) - 1
    inner = [_Ref(cref, layout, loops[last].var)
             for cref in cnest.innermost_refs()]
    before = [[_Ref(cref, layout, None)
               for cref in cnest.refs_at(depth, "before")]
              for depth in range(1, last + 1)]
    after = [[_Ref(cref, layout, None)
              for cref in cnest.refs_at(depth, "after")]
             for depth in range(1, last + 1)]
    emit_inner = _emit_groups if cnest.vectorized else _emit_scalars
    env: Dict[str, int] = {}

    def scalar(refs: List[_Ref]) -> None:
        for ref in refs:
            i = ref.row.evaluate(env)
            j = ref.col.evaluate(env)
            ref.check(layout, i, j)
            out.append((ref.place.word(i, j) << PACKED_ADDR_SHIFT)
                       | ref.flags)

    def level(index: int) -> None:
        loop = loops[index]
        low = loop.lower.evaluate(env)
        high = loop.upper.evaluate(env)
        if index == last:
            if high > low:
                emit_inner(out, inner, layout, env, low, high)
            return
        var = loop.var
        first, then = before[index], after[index]
        for value in range(low, high):
            env[var] = value
            if first:
                scalar(first)
            level(index + 1)
            if then:
                scalar(then)
        env.pop(var, None)

    level(0)


def _fold(refs: List[_Ref], layout: Layout, env: Dict[str, int],
          low: int, high: int):
    """Each ref's ``(ref, i0, j0)`` for one innermost loop instance,
    after checking its range at ``x = low`` and ``x = high - 1``."""
    folded = []
    end = high - 1
    for ref in refs:
        i0 = ref.row.evaluate(env)
        j0 = ref.col.evaluate(env)
        ci = ref.ci
        cj = ref.cj
        rows = ref.place.rows
        cols = ref.place.cols
        if not (0 <= i0 + ci * low < rows and 0 <= i0 + ci * end < rows
                and 0 <= j0 + cj * low < cols
                and 0 <= j0 + cj * end < cols) \
                or ref.cref.ref_id >= PACKED_REF_LIMIT:
            ref.check(layout, i0 + ci * low, j0 + cj * low)
            ref.check(layout, i0 + ci * end, j0 + cj * end)
        folded.append((ref, i0, j0))
    return folded


def _emit_tail(out: array, folded, start: int, high: int) -> None:
    """Scalar words for ``x`` in ``[start, high)``, refs in order."""
    for x in range(start, high):
        for ref, i0, j0 in folded:
            out.append((ref.place.word(i0 + ref.ci * x, j0 + ref.cj * x)
                        << PACKED_ADDR_SHIFT) | ref.flags)


def _emit_scalars(out: array, refs: List[_Ref], layout: Layout,
                  env: Dict[str, int], low: int, high: int) -> None:
    """A non-vectorized innermost loop: one scalar per ref per ``x``.

    Whole chunks of 8 iterations go out as ``8 * len(refs)`` columns
    (lane-major, refs in order within a lane), one word per chunk.
    """
    folded = _fold(refs, layout, env, low, high)
    chunks = (high - low) >> 3
    if chunks:
        columns = []
        for x in range(low, low + VECTOR_LANES):
            for ref, i0, j0 in folded:
                word = ref.place.word(i0 + ref.ci * x, j0 + ref.cj * x)
                columns.append(_column(word, ref.flags, ref.stride, chunks))
        out.extend(chain.from_iterable(zip(*columns)))
    _emit_tail(out, folded, low + (chunks << 3), high)


def _emit_groups(out: array, refs: List[_Ref], layout: Layout,
                 env: Dict[str, int], low: int, high: int) -> None:
    """A vectorized innermost loop: 8-lane groups, then a scalar tail."""
    folded = _fold(refs, layout, env, low, high)
    groups = (high - low) >> 3
    if groups:
        columns = []
        end = low + VECTOR_LANES - 1
        for ref, i0, j0 in folded:
            word = ref.place.word
            ci = ref.ci
            cj = ref.cj
            lanes = ref.lanes
            if lanes:
                for x in range(low, low + lanes):
                    columns.append(_column(word(i0 + ci * x, j0 + cj * x),
                                           ref.flags, ref.stride, groups))
                continue
            first = word(i0 + ci * low, j0 + cj * low)
            columns.append(_column(first, ref.vflags, ref.stride, groups))
            last = word(i0 + ci * end, j0 + cj * end)
            if (first ^ last) & ref.line_mask:
                # Misaligned groups: the tail lanes live in the next
                # line, in every group alike.
                columns.append(_column(last, ref.vflags, ref.stride,
                                       groups))
        out.extend(chain.from_iterable(zip(*columns)))
    _emit_tail(out, folded, low + (groups << 3), high)


@dataclass
class TraceMix:
    """Access-type distribution by data volume (paper Fig. 10)."""

    row_scalar: int = 0
    row_vector: int = 0
    col_scalar: int = 0
    col_vector: int = 0

    @property
    def total(self) -> int:
        return (self.row_scalar + self.row_vector
                + self.col_scalar + self.col_vector)

    def fractions(self) -> Dict[str, float]:
        total = self.total or 1
        return {
            "row_scalar": self.row_scalar / total,
            "row_vector": self.row_vector / total,
            "col_scalar": self.col_scalar / total,
            "col_vector": self.col_vector / total,
        }

    @property
    def column_fraction(self) -> float:
        total = self.total or 1
        return (self.col_scalar + self.col_vector) / total


#: A packed word's width (bit 17) and orientation (bit 18): the two
#: bits that fix its Fig. 10 class.
_MIX_MASK = packed_flags(Orientation.COLUMN, AccessWidth.VECTOR, False, 0)


def trace_mix(trace: PackedTrace) -> TraceMix:
    """Tally a packed trace into the four Fig. 10 categories, by bytes.

    The words are counted on their width and orientation bits, never
    decoded: a scalar access moves one word (8 bytes), a vector access
    a whole line (64).
    """
    counts = Counter(map(_MIX_MASK.__and__, trace.words))

    def volume(orientation: Orientation, width: AccessWidth) -> int:
        per = 64 if width is AccessWidth.VECTOR else 8
        return per * counts[packed_flags(orientation, width, False, 0)]

    return TraceMix(
        row_scalar=volume(Orientation.ROW, AccessWidth.SCALAR),
        row_vector=volume(Orientation.ROW, AccessWidth.VECTOR),
        col_scalar=volume(Orientation.COLUMN, AccessWidth.SCALAR),
        col_vector=volume(Orientation.COLUMN, AccessWidth.VECTOR))


def trace_length(program: Program, logical_dims: int = 2) -> int:
    """Number of requests a program generates (for sizing runs)."""
    return len(generate_packed_trace(program, logical_dims))
