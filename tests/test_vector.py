"""The retired vector engine's cases, replayed on the path that replaced it.

The batched vector engine is gone: ``TraceDrivenCpu.run`` sends every
packed trace the fused flat-store kernel covers to ``run_kernel``, at
any length and miss rate, and ``TraceDrivenCpu.run_vector`` survives
only as an alias of ``run_kernel`` (``perfbench/worker.py --trace``
wraps engine methods by name).  This suite keeps the vector suite's
cases and checks them against the kernel: every design the engine
covered dispatches to the kernel (with or without numpy), short and
long traces alike, and the engine's identity traces — registry
workloads through the ``run_vector`` alias, full-hit and single-row
runs, a miss-dominated stream, and on a 4KB L1 over a 256KB second
level: served misses, mixed hit/miss runs, saturated sets and
cold-cache sharded epochs — replay bit-identically to the object
path.
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CpuConfig, MemoryConfig, SystemConfig
from repro.common.stats import StatRegistry
from repro.common.types import (
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
)
from repro.core import kernels
from repro.core.cpu import TraceDrivenCpu
from repro.core.simulator import run_trace
from repro.core.system import _l1, _llc_sram, make_system
from repro.sw.tracegen import generate_packed_trace, generate_trace
from repro.workloads.registry import build_workload

#: Designs the vector engine covered, the kernel-only design it
#: refused (dynamic orientation), and the design the kernel does not
#: cover (a physically 2-D L1), which replays on the object path.
COVERED = ("1P1L", "1P2L", "1P2L_SameSet", "2P2L", "2P2L_Dense",
           "2P2L_SlowWrite")
KERNEL_ONLY = ("1P2L_Dyn",)
UNCOVERED = ("2P2L_L1",)

#: The vector engine's classification chunk; the trace lengths below
#: keep the multiples of it the engine's window cases were built on.
CHUNK = 4096


def _row_vector(tile, row):
    """A vector read of row line ``row`` in ``tile`` (see decoder.py)."""
    return Request(addr=((tile << 6) | (row << 3)) << 3,
                   orientation=Orientation.ROW,
                   width=AccessWidth.VECTOR,
                   is_write=False, ref_id=0)


def _hot_trace(n):
    """Vector reads cycling one tile's 8 row lines: hits after warmup."""
    return [_row_vector(0, i & 7) for i in range(n)]


def _column_walk(n):
    """Row-preference scalar reads walking down tile 0's column 0 under
    one ref: a dynamic predictor learns COLUMN and overrides them."""
    return [Request(addr=((i & 7) << 3) << 3, orientation=Orientation.ROW,
                    width=AccessWidth.SCALAR, is_write=False, ref_id=0)
            for i in range(n)]


def _miss_trace(n):
    """Vector reads striding distinct tiles: miss-dominated."""
    return [_row_vector(i % 4096, i & 7) for i in range(n)]


def _miss_system():
    """Two-level system whose 256KB SRAM second level (512 sets x 8
    ways) holds a multi-thousand-tile working set: every access is an
    L1 miss served by the second level."""
    return SystemConfig(
        levels=[_l1(2),
                _llc_sram(256 * 1024, 2, "different_set", name="L2")],
        memory=MemoryConfig(), cpu=CpuConfig())


def _wide_miss_trace(n, tiles=3584):
    """Row-0 vector reads cycling ``tiles`` distinct tiles."""
    return [_row_vector(i % tiles, 0) for i in range(n)]


def _cpu(system):
    stats = StatRegistry()
    return TraceDrivenCpu(system.cpu, CacheHierarchy(system, stats),
                          stats), stats


@pytest.fixture
def engines(monkeypatch):
    """Names of the engine methods ``run`` hands packed traces to."""
    chosen = []
    for name in ("run_kernel", "run_packed"):
        original = getattr(TraceDrivenCpu, name)

        def spy(self, *args, _name=name, _original=original):
            chosen.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(TraceDrivenCpu, name, spy)
    return chosen


def _identity(system_factory, requests):
    """Replay ``requests`` on the object path and, packed, through
    ``run``; both must agree exactly.  Returns the packed result."""
    via_objects = run_trace(system_factory(), requests, name="t")
    via_run = run_trace(system_factory(),
                        PackedTrace.from_requests(requests), name="t")
    assert via_run.cycles == via_objects.cycles
    assert via_run.ops == via_objects.ops == len(requests)
    assert via_run.stats.flat() == via_objects.stats.flat()
    return via_run


def _design(design):
    return lambda: make_system(design, 1.0)


class TestSupports:
    @pytest.mark.parametrize("design", COVERED)
    def test_covered_designs(self, design, engines):
        """Every design the vector engine covered replays on the
        kernel."""
        cpu, _ = _cpu(make_system(design, 1.0))
        cpu.run(PackedTrace.from_requests(_hot_trace(64)))
        assert engines == ["run_kernel"]

    @pytest.mark.parametrize("design", KERNEL_ONLY)
    def test_kernel_only_designs_stay_scalar(self, design, engines,
                                             monkeypatch):
        # Dynamic orientation trains its predictor on every scalar
        # access in program order: a pass over the span rewrites the
        # overridden requests, and the 2-D span loop replays them.
        calls = []
        original = kernels._replay_2l_span

        def counting(engine, packed, start, stop, *args):
            calls.append(stop - start)
            return original(engine, packed, start, stop, *args)

        monkeypatch.setattr(kernels, "_replay_2l_span", counting)
        cpu, stats = _cpu(make_system(design, 1.0))
        cpu.run(PackedTrace.from_requests(_column_walk(64)))
        assert engines == ["run_kernel"]
        assert calls == [64]
        flat = stats.flat()
        assert flat["cache.L1.orientation.static_fallbacks"] \
            + flat["cache.L1.orientation.predictions"] == 64
        assert flat["cache.L1.orientation.overrides"] > 0

    @pytest.mark.parametrize("design", UNCOVERED)
    def test_kernel_uncovered_designs_fall_back(self, design, engines):
        # The object loop inside ``run`` replays it: no engine method.
        cpu, _ = _cpu(make_system(design, 1.0))
        cpu.run(PackedTrace.from_requests(_hot_trace(64)))
        assert engines == []

    def test_numpy_absent_falls_back(self, engines, monkeypatch):
        """Without numpy the kernel predecodes in pure Python; the
        dispatch does not change."""
        monkeypatch.setattr(kernels, "_np", None)
        cpu, _ = _cpu(make_system("1P2L", 1.0))
        cpu.run(PackedTrace.from_requests(_hot_trace(64)))
        assert engines == ["run_kernel"]


class TestVectorParity:
    @pytest.mark.parametrize("design", COVERED)
    @pytest.mark.parametrize("workload", ["sobel", "htap1", "sgemm"])
    def test_three_way_bit_identity(self, design, workload):
        """Object path, ``run``, and the ``run_vector`` alias agree
        exactly."""
        system = make_system(design, 1.0)
        dims = system.logical_dims
        program = build_workload(workload, "small")
        objects = list(generate_trace(program, dims))
        packed = generate_packed_trace(program, dims)

        via_objects = run_trace(make_system(design, 1.0), objects,
                                name="t")
        via_run = run_trace(make_system(design, 1.0), packed, name="t")
        cpu, alias_stats = _cpu(make_system(design, 1.0))
        alias_cycles = cpu.run_vector(packed)
        assert via_run.cycles == via_objects.cycles == alias_cycles
        assert via_run.ops == via_objects.ops
        assert via_run.stats.flat() == via_objects.stats.flat()
        assert alias_stats.flat() == via_objects.stats.flat()

    def test_numpy_absent_run_matches_vector_run(self, monkeypatch):
        """Without numpy, ``run`` gives the stats ``run_vector`` gives
        with it."""
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        cpu, alias_stats = _cpu(make_system("1P2L", 1.0))
        alias_cycles = cpu.run_vector(packed)
        monkeypatch.setattr(kernels, "_np", None)
        via_fallback = run_trace(make_system("1P2L", 1.0), packed,
                                 name="t")
        assert via_fallback.cycles == alias_cycles
        assert via_fallback.stats.flat() == alias_stats.flat()

    def test_hot_trace_full_window_identity(self):
        """A hit-dense trace of three whole chunks replays
        identically."""
        result = _identity(_design("1P2L"), _hot_trace(3 * CHUNK))
        # Sanity: the trace really is hit-dense after the 8-line warmup.
        assert result.stats.flat()["cache.L1.hits"] >= 3 * CHUNK - 8

    def test_miss_trace_identity_no_demotion_guard(self, engines):
        """A miss-dominated trace stays on the kernel bit-exactly: no
        miss-rate guard picks the engine."""
        _identity(_design("1P2L"), _miss_trace(6 * CHUNK + 7))
        assert engines == ["run_kernel"]

    def test_single_row_windows_identity(self):
        """Alternating hit/miss rows replay identically."""
        reqs = []
        for i in range(2048):
            reqs.append(_row_vector(0, i & 7))       # hot tile: hit
            reqs.append(_row_vector(16 + (i % 512), i & 7))  # stride
        _identity(_design("1P2L"), reqs)

    def test_cpu_dispatches_vector_for_covered_design(self, monkeypatch):
        """``run`` replays a covered design on the kernel engine, the
        engine the ``run_vector`` alias names."""
        assert TraceDrivenCpu.run_vector is TraceDrivenCpu.run_kernel
        calls = []
        original = kernels.KernelEngine.replay

        def counting(self, trace, *args):
            calls.append(len(trace))
            return original(self, trace, *args)

        monkeypatch.setattr(kernels.KernelEngine, "replay", counting)
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        cpu, _ = _cpu(system)
        cpu.run(packed)
        assert calls == [len(packed)]

    def test_cpu_keeps_short_traces_on_the_kernel(self, engines):
        """``run`` replays a covered packed trace on ``run_kernel``
        below, at, and above 8,192 requests (the trace-length floor
        the retired vector engine used to claim)."""
        lengths = [1, 8_191, 8_192, 24_576]
        for length in lengths:
            cpu, _ = _cpu(make_system("1P2L", 1.0))
            cpu.run(PackedTrace.from_requests(_hot_trace(length)))
        assert engines == ["run_kernel"] * len(lengths)


class TestMissPath:
    """The vector engine's miss-path traces on a 4KB L1 over a 256KB
    second level."""

    def test_uniform_window_fast_path_identity(self):
        """A pure L1-miss/L2-hit stream replays identically."""
        result = _identity(_miss_system, _wide_miss_trace(4 * CHUNK))
        flat = result.stats.flat()
        assert flat["cache.L1.misses"] >= 4 * CHUNK - 8

    def test_mixed_hit_miss_windows_identity(self):
        """64-request runs of resident hits alternating with miss
        runs."""
        reqs = []
        for i in range(4 * CHUNK):
            if (i >> 6) & 1:
                reqs.append(_row_vector(i & 7, (i >> 3) & 7))  # hot set
            else:
                reqs.append(_row_vector(64 + (i % 3072), 0))   # stride
        _identity(_miss_system, reqs)

    def test_all_sets_saturated_identity(self):
        """More distinct tiles than the second level holds: every set
        is full, so each fill evicts a victim."""
        # 512 sets x 8 ways = 4096 lines; 4608 tiles thrash every set.
        _identity(_miss_system,
                  _wide_miss_trace(4 * CHUNK, tiles=4608))

    def test_cold_cache_sharded_epochs_no_demotion(self, engines):
        """Both halves of a miss stream, each replayed from a cold
        cache, stay on the kernel and bit-identical to the object
        path."""
        reqs = _wide_miss_trace(8 * CHUNK)
        for epoch in (reqs[:4 * CHUNK], reqs[4 * CHUNK:]):
            _identity(_miss_system, epoch)
        assert engines == ["run_kernel"] * 2
