"""The structure-of-arrays cache kernels (PR-4/PR-7 acceptance).

Covers the fused flat-store replay path: coverage dispatch
(:func:`repro.core.kernels.supports` and the ``kernel_disabled`` pin;
``run`` choosing the kernel at every trace length is in
tests/test_vector.py with the retired engine's cases), three-way
bit-identity between the object path over request objects, the object
path over the packed trace, and ``run_kernel`` — on registry workloads
and on synthetic edge-case traces (full-hit and single-row runs, wide
miss streams, saturated sets, a miss-heavy small-L1 hierarchy,
cold-cache sharded epochs), including the 2P2L family (dense and
sparse block fill, duplicate-copy coherence) and dynamic orientation
prediction — occupancy-sampled runs (samples, cycles, stats and the
final LRU sets) on every covered design, a hypothesis differential
fuzz of generated walks against the object path on every covered
design, explicit-program runs (custom layout, tiling, legacy
compilation) against the object path, the flat-store replacement
edge cases (eviction order, every kernel set mirroring the object
level's ``LruSet`` order), the packed presence/dirty block-word
round-trips, and the numpy / pure-Python predecode equivalence.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cache.cache_2p2l import (
    BlockState,
    Cache2P2L,
    pack_block_word,
    unpack_block_word,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CpuConfig, MemoryConfig, SystemConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatRegistry
from repro.common.types import (
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
)
from repro.core import kernels
from repro.core.cpu import TraceDrivenCpu
from repro.core.simulator import (
    OccupancySample,
    run_simulation,
    run_trace,
    trace_cache_info,
)
from repro.core.system import _l1, _llc_sram, make_system
from repro.sw.layout import TiledLayout
from repro.sw.tiling import tile_program
from repro.sw.tracegen import generate_packed_trace, generate_trace
from repro.workloads.registry import build_workload

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as some
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the env
    HAVE_HYPOTHESIS = False

#: Designs the fused kernel covers (a physically 1-D L1, optionally a
#: 2P2L last level and dynamic orientation, LRU) and the ones that must
#: replay on the object path (a physically 2-D L1 needs per-request
#: block-state bookkeeping the flat stores do not model at L1).
COVERED = ("1P1L", "1P2L", "1P2L_SameSet", "1P2L_Dyn", "2P2L",
           "2P2L_Dense", "2P2L_SlowWrite")
UNCOVERED = ("2P2L_L1",)


def _hierarchy(design, replacement="lru"):
    system = make_system(design, 1.0)
    return system, CacheHierarchy(system, StatRegistry(), replacement)


class TestSupports:
    @pytest.mark.parametrize("design", COVERED)
    def test_covered_designs(self, design):
        _, hierarchy = _hierarchy(design)
        assert kernels.supports(hierarchy)

    @pytest.mark.parametrize("design", UNCOVERED)
    def test_uncovered_designs_fall_back(self, design):
        _, hierarchy = _hierarchy(design)
        assert not kernels.supports(hierarchy)

    def test_non_lru_replacement_falls_back(self):
        _, hierarchy = _hierarchy("1P2L", replacement="fifo")
        assert not kernels.supports(hierarchy)

    def test_kernel_disabled_pin(self):
        _, hierarchy = _hierarchy("1P2L")
        assert kernels.supports(hierarchy)
        with kernels.kernel_disabled():
            assert not kernels.supports(hierarchy)
        assert kernels.supports(hierarchy)

    def test_kernel_disabled_restores_on_exception(self):
        # A failing test body inside the pin must not leak the pin
        # into the rest of the process.
        prior = kernels.KERNEL_ENABLED
        with pytest.raises(RuntimeError, match="boom"):
            with kernels.kernel_disabled():
                assert not kernels.KERNEL_ENABLED
                raise RuntimeError("boom")
        assert kernels.KERNEL_ENABLED == prior

    def test_kernel_disabled_nests(self):
        # Each block restores what *it* saw, so nesting is safe.
        with kernels.kernel_disabled():
            with kernels.kernel_disabled():
                assert not kernels.KERNEL_ENABLED
            assert not kernels.KERNEL_ENABLED
        assert kernels.KERNEL_ENABLED

    def test_kernel_disabled_rejects_reentry(self):
        cm = kernels.kernel_disabled()
        with cm:
            with pytest.raises(RuntimeError, match="entered twice"):
                cm.__enter__()
        assert kernels.KERNEL_ENABLED

    def test_kernel_disabled_restores_on_gc(self):
        # Belt-and-braces: an abandoned, entered context restores the
        # pin when collected (e.g. a generator-holding test that never
        # reached __exit__).
        cm = kernels.kernel_disabled()
        cm.__enter__()
        assert not kernels.KERNEL_ENABLED
        del cm
        assert kernels.KERNEL_ENABLED

    def test_sampled_run_replays_on_kernel(self, monkeypatch):
        # cpu.run hands a sampled packed trace to run_kernel, which
        # calls the sampler between stride-long spans.
        calls = []
        original = TraceDrivenCpu.run_kernel

        def spy(self, *args):
            calls.append(args[1:])
            return original(self, *args)

        monkeypatch.setattr(TraceDrivenCpu, "run_kernel", spy)
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        stats = StatRegistry()
        cpu = TraceDrivenCpu(system.cpu,
                             CacheHierarchy(system, stats), stats)
        samples = []
        cpu.run(packed, sampler=lambda ops, now: samples.append(ops),
                sample_every=256)
        assert len(calls) == 1 and calls[0][1] == 256
        assert samples == list(range(256, len(packed) + 1, 256))


def _row_vector(tile, row):
    """A vector read of row line ``row`` in ``tile`` (see decoder.py)."""
    return Request(addr=((tile << 6) | (row << 3)) << 3,
                   orientation=Orientation.ROW,
                   width=AccessWidth.VECTOR,
                   is_write=False, ref_id=0)


#: A stock 4KB L1 over a 256KB SRAM second level (512 sets x 8 ways):
#: a working set of a few thousand tiles misses the L1 on every access
#: and is served by the second level.
SMALL_L1 = "L1_4K-L2_256K"


def _system(design):
    if design == SMALL_L1:
        return SystemConfig(
            levels=[_l1(2), _llc_sram(256 * 1024, 2, "different_set",
                                      name="L2")],
            memory=MemoryConfig(), cpu=CpuConfig())
    return make_system(design, 1.0)


def _wide_misses(n, tiles=3584):
    """Row-0 vector reads cycling ``tiles`` distinct tiles."""
    return [_row_vector(i % tiles, 0) for i in range(n)]


def _full_hit_run():
    """Vector reads cycling one tile's 8 rows: all hits after warmup."""
    return [[_row_vector(0, i & 7) for i in range(12_288)]]


def _single_row_runs():
    """Hot-tile hits alternating with striding misses."""
    reqs = []
    for i in range(2048):
        reqs.append(_row_vector(0, i & 7))
        reqs.append(_row_vector(16 + (i % 512), i & 7))
    return [reqs]


def _mixed_hit_miss():
    """64-request runs of hot-set hits alternating with miss runs."""
    return [[_row_vector(i & 7, (i >> 3) & 7) if (i >> 6) & 1
             else _row_vector(64 + (i % 3072), 0)
             for i in range(16_384)]]


def _sharded_epochs():
    """Both halves of a miss stream, each replayed from a cold cache."""
    reqs = _wide_misses(32_768)
    return [reqs[:16_384], reqs[16_384:]]


#: Synthetic identity cases: name -> (design, epochs builder).  Each
#: builder returns one request list per cold-cache replay.
EDGE_CASES = {
    "full-hit-run": ("1P2L", _full_hit_run),
    "single-row-runs": ("1P2L", _single_row_runs),
    "mixed-hit-miss": (SMALL_L1, _mixed_hit_miss),
    # A long wide-miss stream over 4096 tiles, exactly the second
    # level's 4096 lines: every second-level set fills to its
    # associativity, and after the first pass every L1 miss hits
    # there without an eviction (the boundary saturated-sets crosses).
    "age-limit": (SMALL_L1,
                  lambda: [_wide_misses(16_384, tiles=4096)]),
    # 4608 tiles over 4096 second-level lines: every set evicts.
    "saturated-sets": (SMALL_L1,
                       lambda: [_wide_misses(16_384, tiles=4608)]),
    "l2-served-misses": (SMALL_L1, lambda: [_wide_misses(16_384)]),
    "sharded-epochs": (SMALL_L1, _sharded_epochs),
}

IDENTITY_CASES = [
    pytest.param(design, workload, id=f"{workload}-{design}")
    for workload in ("sobel", "htap1", "sgemm") for design in COVERED
] + [
    pytest.param(design, name, id=f"{name}-{design}")
    for name, (design, _) in EDGE_CASES.items()
]


#: Occupancy-sampling strides: one leaving a partial last span on
#: sgemm's small trace, every op of a short synthetic trace, and one
#: longer than any small trace (no samples at all).
SAMPLING_STRIDES = [
    pytest.param(1000, id="partial-last-span"),
    pytest.param(1, id="every-op"),
    pytest.param(1 << 20, id="longer-than-trace"),
]


def _short_mixed_trace(dims):
    """200 requests over 24 tiles: scalar and vector reads and writes
    under four static refs, alternating row and column on a 2-D
    design."""
    orients = (Orientation.ROW, Orientation.COLUMN)[:dims]
    reqs = []
    for i in range(200):
        orient = orients[i % dims]
        tile, r, c = (i * 7) % 24, (i >> 1) & 7, (i * 3) & 7
        if i % 3 == 0:  # a whole line: row r or column c
            width = AccessWidth.VECTOR
            addr = _word(r, 0, tile) if orient is Orientation.ROW \
                else _word(0, c, tile)
        else:
            width, addr = AccessWidth.SCALAR, _word(r, c, tile)
        reqs.append(Request(addr=addr, orientation=orient, width=width,
                            is_write=i % 5 == 0, ref_id=i % 4))
    return reqs


def _object_entry(level, key):
    """An object level's state for resident ``key``: the dirty mask,
    or a 2P2L block's (presence, dirty) words."""
    if isinstance(level, Cache2P2L):
        block = level.block_state(key)
        return block.presence_word(), block.dirty_word()
    return level._frames[key]


def _store_sets(store):
    """A flat store's LRU sets as ``[(key, state), ...]`` lists, oldest
    first, after checking its bookkeeping: no set exceeds its
    associativity, ``slot_of`` maps exactly the keys of the sets, each
    to its own set, and ``tile_count`` (1P2L) is a recount of the
    resident lines per (tile, orientation)."""
    contents = []
    owner = {}
    for lru in store.sets:
        assert len(lru) <= store.assoc
        for key in lru:
            owner[key] = lru
        if isinstance(store, kernels._Kernel2P2L):
            contents.append([(tile, (word & 0xFFFF, word >> 16))
                             for tile, word in lru.items()])
        else:
            contents.append(list(lru.items()))
    assert store.slot_of.keys() == owner.keys()
    assert all(store.slot_of[key] is lru for key, lru in owner.items())
    if isinstance(store, kernels._Kernel2L):
        assert store.tile_count == dict(Counter(key >> 3
                                                for key in owner))
    return contents


def _lru_sets(cpu, hierarchy):
    """Every level's LRU sets, oldest key first, with each key's state:
    from the kernel's flat stores after a kernel replay, else from the
    object levels' ``LruSet`` order."""
    if cpu._engine is not None:
        return [_store_sets(store) for store in cpu._engine.levels]
    return [[[(key, _object_entry(level, key)) for key in lru.keys()]
             for lru in level._sets]
            for level in hierarchy.levels]


def _sampled_run(design, stride, requests=None):
    """Cycles, final flat stats, ``(occupancy sample, flat stats)`` at
    every sample and the final LRU sets (:func:`_lru_sets`) of a
    sampled replay: sgemm small, or ``requests`` packed, sampled the
    way ``run_simulation`` wires its sampler."""
    system = make_system(design, 1.0)
    trace = generate_packed_trace(build_workload("sgemm", "small"),
                                  system.logical_dims) \
        if requests is None else PackedTrace.from_requests(requests)
    stats = StatRegistry()
    hierarchy = CacheHierarchy(system, stats)
    cpu = TraceDrivenCpu(system.cpu, hierarchy, stats)
    samples = []

    def sampler(ops, now):
        samples.append((OccupancySample(ops, now,
                                        cpu.occupancy_by_level()),
                        stats.flat()))

    cycles = cpu.run(trace, sampler=sampler, sample_every=stride)
    return cycles, stats.flat(), samples, _lru_sets(cpu, hierarchy)


class TestKernelParity:
    @pytest.mark.parametrize("stride", SAMPLING_STRIDES)
    @pytest.mark.parametrize("design", COVERED)
    def test_sampled_bit_identity(self, design, stride):
        """A sampled kernel replay equals the object path
        (``kernel_disabled``) in cycles, flat stats, the final LRU
        sets and every occupancy sample: ops, cycles, per-level counts
        and level order, and the flat stats a sampler reads at that
        point (the L1 hit, miss, probe, tracked-miss and demand
        counters move span by span, as the object path's move request
        by request)."""
        dims = make_system(design, 1.0).logical_dims
        requests = _short_mixed_trace(dims) if stride == 1 else None
        via_kernel = _sampled_run(design, stride, requests)
        with kernels.kernel_disabled():
            oracle = _sampled_run(design, stride, requests)
        assert via_kernel == oracle
        samples = [sample for sample, _ in via_kernel[2]]
        assert [list(s.by_level) for s in samples] \
            == [list(s.by_level) for s, _ in oracle[2]]
        ops = oracle[1]["cpu.ops"]
        assert [s.ops for s in samples] \
            == list(range(stride, ops + 1, stride))
        if samples:
            hits = [flat.get("cache.L1.hits", 0)
                    for _, flat in via_kernel[2]]
            assert hits == sorted(hits) and hits[-1] > 0
        if stride == 1000:
            assert ops % stride, "the last span must be partial"

    @pytest.mark.parametrize("design,workload", IDENTITY_CASES)
    def test_three_way_bit_identity(self, design, workload):
        """The object path over request objects, the object path over
        the packed trace, and run_kernel agree exactly, on registry
        workloads and on synthetic edge-case traces."""
        if workload in EDGE_CASES:
            epochs = EDGE_CASES[workload][1]()
        else:
            program = build_workload(workload, "small")
            epochs = [list(generate_trace(program,
                                          _system(design).logical_dims))]
        for objects in epochs:
            packed = PackedTrace.from_requests(objects)
            via_objects = run_trace(_system(design), objects, name="t")
            with kernels.kernel_disabled():
                via_packed = run_trace(_system(design), packed,
                                       name="t")
            via_kernel = run_trace(_system(design), packed, name="t")
            assert via_kernel.cycles == via_objects.cycles
            assert via_kernel.ops == via_objects.ops == len(objects)
            assert via_kernel.stats.flat() == via_objects.stats.flat()
            assert via_kernel.stats.flat() == via_packed.stats.flat()


class TestReplacementEdgeCases:
    def test_lru_eviction_order_and_tie_break(self):
        """The ``OrderedDict`` sets reproduce exact LRU order.

        Fill one L1 set, touch the oldest line (now MRU), then force
        two evictions; which lines survive pins down the victim choice
        (the set's oldest key, as in the insertion-ordered LruSet).
        """
        system = make_system("1P1L", 1.0)
        l1_cfg = system.levels[0]
        assoc, stride = l1_cfg.assoc, l1_cfg.num_sets
        # Tiles ``k * stride`` all map their row 0 to L1 set 0.
        tiles = [k * stride for k in range(assoc + 1)]
        reqs = [_row_vector(t, 0) for t in tiles[:assoc]]
        reqs.append(_row_vector(tiles[0], 0))   # touch A -> MRU
        reqs.append(_row_vector(tiles[-1], 0))  # miss: evicts B
        reqs.append(_row_vector(tiles[1], 0))   # B again: miss, evicts C
        reqs.append(_row_vector(tiles[0], 0))   # A survived: hit
        packed = PackedTrace.from_requests(reqs)

        via_kernel = run_trace(make_system("1P1L", 1.0), packed,
                               name="t")
        with kernels.kernel_disabled():
            reference = run_trace(make_system("1P1L", 1.0), packed,
                                  name="t")
        assert via_kernel.stats.flat() == reference.stats.flat()
        flat = via_kernel.stats.flat()
        assert flat["cache.L1.hits"] == 2
        assert flat["cache.L1.misses"] == assoc + 2
        assert flat["cache.L1.evictions"] == 2

    def test_orientation_bits_preserved_across_evictions(self):
        """Every kernel set mirrors the object level's ``LruSet``.

        sgemm small on every covered design, on the kernel and on the
        object path: each kernel set holds the object set's keys
        (oriented line ids, or 2P2L tiles, which carry the
        orientation) in the same LRU order with the same dirty and
        presence state, ``slot_of`` is exactly the union of the sets,
        no set exceeds its associativity, and ``tile_count`` is a
        recount (:func:`_store_sets`).  Same-set mode, where rows and
        columns share sets and evictions keep replacing one
        orientation with the other, must leave both live in the L1.
        """
        for design in COVERED:
            via_kernel = _sampled_run(design, 0)
            with kernels.kernel_disabled():
                oracle = _sampled_run(design, 0)
            assert via_kernel == oracle, design
            assert via_kernel[1]["cache.L1.evictions"] > 0
            if design == "1P2L_SameSet":
                l1_sets = via_kernel[3][0]
                assert {(line >> 3) & 1 for lru in l1_sets
                        for line, _ in lru} == {0, 1}


def _layout_mismatch_point():
    """An MDA-tiled layout under a row-major 1P1L system."""
    program = build_workload("sgemm", "small")
    return "1P1L", program, TiledLayout(program.arrays), None


def _future_tiling_point():
    """A loop-tiled program on the default layout."""
    program = tile_program(build_workload("sgemm", "small"),
                           {"i": 16, "j": 16, "k": 16})
    return "1P2L", program, None, None


def _dynamic_orientation_point():
    """A legacy (1-D compiled) trace over the tiled layout, with
    orientation prediction on."""
    program = build_workload("sgemm", "small")
    return "1P2L_Dyn", program, TiledLayout(program.arrays), 1


class TestExplicitPrograms:
    """``run_simulation(program=...)`` generates a packed trace (one
    counted walk) and replays it on the fast path, bit-identical to
    the object path over the same walk."""

    @pytest.mark.parametrize("point", [
        _layout_mismatch_point, _future_tiling_point,
        _dynamic_orientation_point,
    ], ids=["layout_mismatch", "future_tiling", "dynamic_orientation"])
    def test_matches_object_path(self, point):
        design, program, layout, compile_dims = point()
        system = make_system(design, 1.0)
        dims = compile_dims or system.logical_dims
        generated = trace_cache_info()["generated"]
        via_run = run_simulation(system, program=program, layout=layout,
                                 compile_dims=compile_dims)
        assert trace_cache_info()["generated"] == generated + 1
        oracle = run_trace(make_system(design, 1.0),
                           generate_trace(program, dims, layout))
        assert via_run.cycles == oracle.cycles
        assert via_run.ops == oracle.ops
        assert via_run.stats.flat() == oracle.stats.flat()


def _word(r, c, tile=0):
    """Byte address of tile cell (r, c) (see decoder.py)."""
    return ((tile << 6) | (r << 3) | c) << 3


def _scalar(addr, orientation, is_write=False, ref_id=0):
    return Request(addr=addr, orientation=orientation,
                   width=AccessWidth.SCALAR, is_write=is_write,
                   ref_id=ref_id)


class TestKernel2P2L:
    """The 2P2L family on the kernel path (PR-7 tentpole)."""

    def _three_way(self, design, reqs):
        packed = PackedTrace.from_requests(reqs)
        via_objects = run_trace(make_system(design, 1.0), list(reqs),
                                name="t")
        with kernels.kernel_disabled():
            via_packed = run_trace(make_system(design, 1.0), packed,
                                   name="t")
        via_kernel = run_trace(make_system(design, 1.0), packed,
                               name="t")
        assert via_kernel.cycles == via_objects.cycles
        assert via_kernel.stats.flat() == via_objects.stats.flat()
        assert via_packed.cycles == via_objects.cycles
        assert via_packed.stats.flat() == via_objects.stats.flat()
        return via_objects.stats.flat()

    def test_duplicate_coherence_counters(self):
        """Duplicate evictions and cleans stay bit-identical.

        The trace forces both Fig. 9 transitions in the 1P2L levels
        above the 2P2L last level: a scalar write to a word resident
        in both orientations (Clean -> Invalid, ``duplicate_evictions``)
        and a vector-read fill crossing a dirty perpendicular line
        (Modified -> Clean, ``duplicate_cleans``).
        """
        R, C = Orientation.ROW, Orientation.COLUMN
        reqs = [
            _scalar(_word(0, 0), R),                  # row 0 resident
            _scalar(_word(1, 0), C),                  # col 0 resident
            _scalar(_word(0, 0), R, is_write=True),   # dup eviction
            _scalar(_word(2, 1), C, is_write=True),   # dirty col 1
            _row_vector(0, 2),                        # fill cleans it
        ]
        flat = self._three_way("2P2L", reqs)
        assert flat["cache.L1.duplicate_evictions"] == 1
        assert flat["cache.L1.duplicate_cleans"] == 1

    @pytest.mark.parametrize("design,key", [
        ("2P2L", "partial_block_hits"),
        ("2P2L_Dense", "dense_fill_lines"),
    ])
    def test_fill_mode_counters_exercised(self, design, key):
        """Sparse fills take partial-block hits; dense fills stream
        whole blocks — each mode's signature counter must fire (and
        match the object path bit for bit) on a real workload."""
        system = make_system(design, 1.0)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        via_kernel = run_trace(make_system(design, 1.0), packed,
                               name="t")
        with kernels.kernel_disabled():
            reference = run_trace(make_system(design, 1.0), packed,
                                  name="t")
        assert via_kernel.stats.flat() == reference.stats.flat()
        llc = system.levels[-1].name
        assert via_kernel.stats.flat()[f"cache.{llc}.{key}"] > 0

    def test_block_words_mirror_object_state(self):
        """The kernel's packed presence/dirty words reproduce the
        object path's per-block masks block for block after a
        replay."""
        system = make_system("2P2L", 1.0)
        stats = StatRegistry()
        hierarchy = CacheHierarchy(system, stats)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        engine = kernels.KernelEngine(hierarchy)
        engine.replay(packed, system.cpu, stats.group("cpu"))
        store = engine.levels[-1]
        assert isinstance(store, kernels._Kernel2P2L)

        ref_stats = StatRegistry()
        ref_hierarchy = CacheHierarchy(make_system("2P2L", 1.0),
                                       ref_stats)
        with kernels.kernel_disabled():
            cpu = TraceDrivenCpu(system.cpu, ref_hierarchy, ref_stats)
            cpu.run(packed)
        blocks = ref_hierarchy.levels[-1]._blocks
        assert blocks, "the workload must leave resident blocks"
        assert set(blocks) == set(store.slot_of)
        for tile, state in blocks.items():
            word = store.slot_of[tile][tile]
            assert word & 0xFFFF == state.presence_word()
            assert word >> 16 == state.dirty_word()


def _walk_trace(walks, steps, tiles=32):
    """Interleaved word walks for the differential fuzz.

    ``walks`` holds ``(ref, orientation, tile, row, column, row step,
    column step)`` tuples; a row step of 1 walks down a column, a
    column step of 1 along a row, and a walk that runs off its tile
    moves on to the next of ``tiles`` tiles (32 tiles hold 512 lines:
    pressure on every level).  Each ``(skip, kind)`` step moves a
    cursor ``skip`` walks on (0 stays, 1 is round robin), advances
    that walk by one word and issues a request of ``kind``
    (``is_write | vector << 1``) there; a vector covers the walk's
    static line through the word.
    """
    taken = [0] * len(walks)
    reqs = []
    index = 0
    for skip, kind in steps:
        index = (index + skip) % len(walks)
        ref, orient, tile, r, c, dr, dc = walks[index]
        k = taken[index]
        taken[index] = k + 1
        r, c = r + k * dr, c + k * dc
        tile = (tile + (r >> 3) + (c >> 3)) % tiles
        r, c = r & 7, c & 7
        if kind & 2:
            width = AccessWidth.VECTOR
            addr = _word(r, 0, tile) if orient is Orientation.ROW \
                else _word(0, c, tile)
        else:
            width, addr = AccessWidth.SCALAR, _word(r, c, tile)
        reqs.append(Request(addr=addr, orientation=orient, width=width,
                            is_write=bool(kind & 1), ref_id=ref))
    return reqs


#: 100 column walks under row preference, visited round robin twice,
#: four requests a visit (read, read, write, read: the third predicts
#: COLUMN and overrides): 136 FIFO evictions wrap the predictor's slot
#: cursor twice, and every evicted ref re-enters cold.
_FIFO_WRAP = _walk_trace(
    [(ref, Orientation.ROW, ref % 32, 0, ref % 8, 1, 0)
     for ref in range(100)],
    [(1, 0), (0, 0), (0, 1), (0, 0)] * 200)

#: Row walks under column preference (overrides toward ROW), with
#: scalar writes and column-vector reads and writes through the walked
#: words.
_ROW_WALKS = _walk_trace(
    [(ref, Orientation.COLUMN, 3 * ref, ref, 0, 0, 1)
     for ref in range(4)],
    [(1, 0), (0, 0), (0, 2), (0, 1), (0, 0), (0, 3), (0, 1)] * 12)


#: 640 requests: eight column walks under row preference, twelve tiles
#: apart over 96 tiles, visited round robin with a scalar write, a
#: scalar read, a vector write and a vector read in turn.  Every step
#: touches a fresh row line, so every level of every fuzzed design
#: evicts dirty victims (``test_walk_example_evicts_dirty_everywhere``).
_DIRTY_EVICTIONS = _walk_trace(
    [(ref, Orientation.ROW, 12 * ref, 0, ref % 8, 1, 0)
     for ref in range(8)],
    [(1, 1), (1, 0), (1, 3), (1, 2)] * 160, tiles=96)


if HAVE_HYPOTHESIS:
    @some.composite
    def _walk_traces(draw, orientations=(Orientation.ROW,
                                         Orientation.COLUMN),
                     tiles=some.just(32), max_length=400):
        """Up to 100 walks with distinct refs from twice the 64-entry
        predictor table's range, under ``orientations``, stepped in a
        drawn order (at most ``max_length`` steps) over a drawn number
        of ``tiles``; scalar reads are half the requests."""
        count = draw(some.integers(1, 100))
        refs = draw(some.lists(some.integers(0, 127), min_size=count,
                               max_size=count, unique=True))
        span = draw(tiles)
        walks = [(ref,) + draw(some.tuples(
            some.sampled_from(orientations),
            some.integers(0, span - 1), some.integers(0, 7),
            some.integers(0, 7), some.integers(0, 1),
            some.integers(0, 1))) for ref in refs]
        length = draw(some.integers(1, max_length))
        steps = draw(some.lists(some.tuples(
            some.integers(0, 3), some.sampled_from((0, 0, 0, 1, 2, 3))),
            min_size=length, max_size=length))
        return _walk_trace(walks, steps, span)


def _assert_matches_object_path(design, requests, stride):
    """The kernel equals the object path (``kernel_disabled``) on
    ``requests``, unsampled and sampled every ``stride`` requests:
    cycles, final flat stats, every (occupancy sample, flat stats)
    pair and the final LRU sets (:func:`_lru_sets`)."""
    for every in (0, stride):
        via_kernel = _sampled_run(design, every, requests)
        with kernels.kernel_disabled():
            oracle = _sampled_run(design, every, requests)
        assert via_kernel == oracle


class TestDynamicOrientation:
    """The flat orientation-predictor mirror (PR-7 tentpole)."""

    def _two_way(self, reqs):
        packed = PackedTrace.from_requests(reqs)
        via_objects = run_trace(make_system("1P2L_Dyn", 1.0),
                                list(reqs), name="t")
        via_kernel = run_trace(make_system("1P2L_Dyn", 1.0), packed,
                               name="t")
        assert via_kernel.cycles == via_objects.cycles
        assert via_kernel.stats.flat() == via_objects.stats.flat()
        return via_objects.stats.flat()

    def test_phase_relearning(self):
        """A column-walk phase overrides the static row preference;
        the following row-walk phase decays through the neutral band
        (static fallbacks) and re-learns ROW — counters bit-identical
        to the object predictor throughout."""
        R = Orientation.ROW
        reqs = [_scalar(_word(i % 8, 0), R, ref_id=7)
                for i in range(24)]
        reqs += [_scalar(_word(0, i % 8), R, ref_id=7)
                 for i in range(24)]
        flat = self._two_way(reqs)
        assert flat["cache.L1.orientation.overrides"] > 0
        assert flat["cache.L1.orientation.static_fallbacks"] > 0
        assert flat["cache.L1.orientation.predictions"] > 0

    def test_table_fifo_eviction(self):
        """More live references than table entries: the flat mirror
        must reproduce the object table's FIFO eviction order (and
        the resulting re-learning churn) exactly."""
        R = Orientation.ROW
        reqs = []
        for ref in range(100):
            for i in range(2):
                reqs.append(_scalar(_word(i, ref % 8, tile=ref % 4),
                                    R, ref_id=ref))
        flat = self._two_way(reqs)
        assert flat["cache.L1.orientation.table_evictions"] > 0

    if HAVE_HYPOTHESIS:
        @settings(max_examples=40, deadline=None)
        @given(requests=_walk_traces(), stride=some.integers(1, 64))
        @example(requests=_FIFO_WRAP, stride=7)
        @example(requests=_ROW_WALKS, stride=1)
        def test_matches_object_path_on_generated_traces(self, requests,
                                                         stride):
            """The kernel equals the object path on generated walks
            (:func:`_assert_matches_object_path`), the predictor's
            counters included."""
            _assert_matches_object_path("1P2L_Dyn", requests, stride)


#: The statically oriented 2-D designs the differential fuzz replays
#: (1P2L_Dyn has its own in TestDynamicOrientation, 1P1L takes row
#: walks only).
FUZZED_2D = ("1P2L", "1P2L_SameSet", "2P2L", "2P2L_Dense")


class TestGeneratedTraces:
    """Differential fuzz of the kernel against the object path on
    generated walks over up to 96 tiles, on each covered design's
    default hierarchy: enough distinct lines that every level evicts
    dirty victims."""

    @pytest.mark.parametrize("design", ("1P1L",) + FUZZED_2D)
    def test_walk_example_evicts_dirty_everywhere(self, design):
        """The fuzz's ``_DIRTY_EVICTIONS`` example evicts lines, and
        writes dirty ones back, at every level."""
        flat = _sampled_run(design, 0, _DIRTY_EVICTIONS)[1]
        for level in ("L1", "L2", "L3"):
            assert flat[f"cache.{level}.evictions"] > 0
            assert flat[f"cache.{level}.writebacks_out"] > 0

    if HAVE_HYPOTHESIS:
        @settings(max_examples=25, deadline=None)
        @given(requests=_walk_traces(orientations=(Orientation.ROW,),
                                     tiles=some.integers(8, 96),
                                     max_length=640),
               stride=some.integers(1, 64))
        @example(requests=_FIFO_WRAP, stride=7)
        @example(requests=_DIRTY_EVICTIONS, stride=50)
        def test_1p1l_row_walks_match_object_path(self, requests,
                                                  stride):
            """1P1L, whose traces hold row-preference requests only."""
            _assert_matches_object_path("1P1L", requests, stride)

        @pytest.mark.parametrize("design", FUZZED_2D)
        @settings(max_examples=25, deadline=None)
        @given(requests=_walk_traces(tiles=some.integers(8, 96),
                                     max_length=640),
               stride=some.integers(1, 64))
        @example(requests=_FIFO_WRAP, stride=7)
        @example(requests=_ROW_WALKS, stride=1)
        @example(requests=_DIRTY_EVICTIONS, stride=50)
        def test_2d_walks_match_object_path(self, design, requests,
                                            stride):
            """The statically oriented 2-D designs, both preferences."""
            _assert_matches_object_path(design, requests, stride)


class TestPackedBlockWords:
    """Packed presence/dirty block words (cache_2p2l helpers)."""

    def test_known_packing(self):
        assert pack_block_word(0, 0) == 0
        assert pack_block_word(0xFF, 0) == 0x00FF
        assert pack_block_word(0, 0xFF) == 0xFF00
        assert unpack_block_word(0xA55A) == (0x5A, 0xA5)

    def test_bit_layout_matches_line_ids(self):
        # Bit ``line & 15``: rows (orientation 0) in the low byte,
        # columns (orientation 1) in the high byte.
        word = pack_block_word(1 << 3, 1 << 5)
        assert word & (1 << 3)        # row index 3
        assert word & (1 << (8 + 5))  # column index 5

    if HAVE_HYPOTHESIS:
        @settings(max_examples=200, deadline=None)
        @given(some.integers(0, 0xFF), some.integers(0, 0xFF))
        def test_pack_round_trip(self, rows, cols):
            word = pack_block_word(rows, cols)
            assert 0 <= word < (1 << 16)
            assert unpack_block_word(word) == (rows, cols)

        @settings(max_examples=200, deadline=None)
        @given(some.integers(0, 0xFFFF), some.integers(0, 0xFFFF))
        def test_block_state_round_trip(self, presence, dirty):
            state = BlockState.from_words(presence, dirty)
            assert state.presence_word() == presence
            assert state.dirty_word() == dirty


class TestPredecode:
    @pytest.mark.skipif(kernels._np is None, reason="numpy not present")
    def test_numpy_and_fallback_agree(self, monkeypatch):
        program = build_workload("sobel", "small")
        packed_2d = generate_packed_trace(program, 2)
        packed_1d = generate_packed_trace(program, 1)
        with_np_2l = kernels._predecode_2l(packed_2d.words)
        with_np_1l = kernels._predecode_1l(packed_1d.words)
        monkeypatch.setattr(kernels, "_np", None)
        assert kernels._predecode_2l(packed_2d.words) == with_np_2l
        assert kernels._predecode_1l(packed_1d.words) == with_np_1l

    def test_1l_rejects_column_lines(self, monkeypatch):
        column = Request(addr=0, orientation=Orientation.COLUMN,
                         width=AccessWidth.VECTOR, is_write=False,
                         ref_id=0)
        words = PackedTrace.from_requests([column]).words
        if kernels._np is not None:
            with pytest.raises(SimulationError):
                kernels._predecode_1l(words)
        monkeypatch.setattr(kernels, "_np", None)
        with pytest.raises(SimulationError):
            kernels._predecode_1l(words)
