"""The structure-of-arrays cache kernels (PR-4/PR-7 acceptance).

Covers the fused flat-store replay path: coverage dispatch
(:func:`repro.core.kernels.supports` and the ``kernel_disabled`` pin;
``run`` choosing the kernel at every trace length is in
tests/test_vector.py with the retired engine's cases), three-way
bit-identity between the object path, ``run_packed``, and
``run_kernel`` — on registry workloads and on synthetic edge-case
traces (full-hit and single-row runs, LRU stamp saturation, saturated
sets, a miss-heavy small-L1 hierarchy, cold-cache sharded epochs),
including the 2P2L family (dense and sparse block fill, duplicate-copy
coherence) and dynamic orientation prediction — explicit-program runs
(custom layout, tiling, legacy compilation) against the object path,
the flat-store replacement edge cases (LRU age saturation and
compaction, eviction tie-breaking, orientation-bit preservation across
evictions in same-set mode), the packed presence/dirty block-word
round-trips, and the numpy / pure-Python predecode equivalence.
"""

from __future__ import annotations

import pytest

from repro.cache.cache_2p2l import (
    BlockState,
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
    ShardPlan,
)
from repro.core import kernels
from repro.core.cpu import TraceDrivenCpu
from repro.core.simulator import (
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
    from hypothesis import given, settings
    from hypothesis import strategies as some
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the env
    HAVE_HYPOTHESIS = False

#: Designs the fused kernel covers (a physically 1-D L1, optionally a
#: 2P2L last level and dynamic orientation, LRU) and the ones that must
#: fall back to run_packed (a physically 2-D L1 needs per-request
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

    def test_sampler_falls_back_to_packed(self):
        # Occupancy sampling needs per-request callbacks the fused
        # loop elides; cpu.run must route sampled runs to run_packed
        # (observable: the kernel path never invokes the sampler).
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        stats = StatRegistry()
        cpu = TraceDrivenCpu(system.cpu,
                             CacheHierarchy(system, stats), stats)
        samples = []
        cpu.run(packed, sampler=lambda ops, now: samples.append(ops),
                sample_every=256)
        assert samples


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
    """Each epoch of a 2-way ShardPlan, replayed from a cold cache."""
    reqs = _wide_misses(32_768)
    plan = ShardPlan.plan(len(reqs), 2)
    return [reqs[begin:end]
            for begin, end in zip(plan.bounds, plan.bounds[1:])]


#: Synthetic identity cases: name -> (design, epochs builder, AGE_LIMIT
#: override or None).  Each builder returns one request list per
#: cold-cache replay.
EDGE_CASES = {
    "full-hit-run": ("1P2L", _full_hit_run, None),
    "single-row-runs": ("1P2L", _single_row_runs, None),
    "mixed-hit-miss": (SMALL_L1, _mixed_hit_miss, None),
    # Both levels' stamps saturate: a dozen compactions per replay.
    "age-limit": (SMALL_L1, lambda: [_wide_misses(16_384)], 5_000),
    # 4608 tiles over 4096 second-level lines: every set evicts.
    "saturated-sets": (SMALL_L1,
                       lambda: [_wide_misses(16_384, tiles=4608)],
                       None),
    "l2-served-misses": (SMALL_L1, lambda: [_wide_misses(16_384)],
                         None),
    "sharded-epochs": (SMALL_L1, _sharded_epochs, None),
}

IDENTITY_CASES = [
    pytest.param(design, workload, id=f"{workload}-{design}")
    for workload in ("sobel", "htap1", "sgemm") for design in COVERED
] + [
    pytest.param(design, name, id=f"{name}-{design}")
    for name, (design, _, _) in EDGE_CASES.items()
]


class TestKernelParity:
    @pytest.mark.parametrize("design,workload", IDENTITY_CASES)
    def test_three_way_bit_identity(self, design, workload,
                                    monkeypatch):
        """Object path, run_packed, and run_kernel agree exactly, on
        registry workloads and on synthetic edge-case traces."""
        if workload in EDGE_CASES:
            _, build, age_limit = EDGE_CASES[workload]
            if age_limit is not None:
                monkeypatch.setattr(kernels, "AGE_LIMIT", age_limit)
            epochs = build()
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

    @pytest.mark.parametrize("design", COVERED)
    def test_age_saturation_compacts_and_preserves_order(
            self, monkeypatch, design):
        """Hitting AGE_LIMIT mid-run must not disturb LRU order.

        Shrinking the limit forces many in-place compactions over a
        real workload; the run must stay bit-identical to the object
        path, whose LruSet never saturates.
        """
        compactions = []
        original = kernels._FlatStore._compact_ages

        def counting(store):
            compactions.append(store.level_index)
            original(store)

        monkeypatch.setattr(kernels, "AGE_LIMIT", 300)
        monkeypatch.setattr(kernels._FlatStore, "_compact_ages",
                            counting)
        system = make_system(design, 1.0)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        via_kernel = run_trace(make_system(design, 1.0), packed,
                               name="t")
        assert compactions, "AGE_LIMIT=300 must force compactions"
        with kernels.kernel_disabled():
            reference = run_trace(make_system(design, 1.0), packed,
                                  name="t")
        assert via_kernel.cycles == reference.cycles
        assert via_kernel.stats.flat() == reference.stats.flat()


class TestReplacementEdgeCases:
    def test_lru_eviction_order_and_tie_break(self):
        """The single victim scan reproduces exact LRU order.

        Fill one L1 set, touch the oldest line (now MRU), then force
        two evictions; which lines survive pins down the victim choice
        (a first-minimal tie-break over the flat set scan, matching
        the insertion-ordered LruSet).
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
        """Same-set mode: meta orientation always mirrors the tag.

        Rows and columns share sets under the same-set mapping, so
        evictions constantly replace one orientation with the other;
        every valid slot's orientation bit (meta bit 1) must track the
        installed tag's orientation bit, and ``slot_of`` must stay a
        perfect inverse of the tag array.
        """
        system = make_system("1P2L_SameSet", 1.0)
        stats = StatRegistry()
        hierarchy = CacheHierarchy(system, stats)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        engine = kernels.KernelEngine(hierarchy)
        engine.replay(packed, system.cpu, stats.group("cpu"))

        assert stats.flat()["cache.L1.evictions"] > 0
        l1_orients = set()
        for store in engine.levels:
            if not isinstance(store, kernels._Kernel2L):
                continue
            valid = 0
            for slot, meta in enumerate(store.meta):
                if not meta & 1:
                    continue
                valid += 1
                line = store.tags[slot]
                assert (meta >> 1) & 1 == (line >> 3) & 1
                assert store.slot_of[line] == slot
                if store is engine.levels[0]:
                    l1_orients.add((line >> 3) & 1)
            assert valid == len(store.slot_of)
        # The check is only meaningful if both orientations are live.
        assert l1_orients == {0, 1}


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
        object path's per-block masks slot for slot after a replay."""
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
            slot = store.slot_of[tile]
            assert store.present[slot] == state.presence_word()
            assert store.dirty[slot] == state.dirty_word()


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
