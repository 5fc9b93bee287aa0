"""Bench: the experiment engine — hot loop, replay loops, run cache.

Measures (1) raw requests/second of the default engine path (whatever
``TraceDrivenCpu.run`` dispatches to), (2) the packed replay loop
(``TraceDrivenCpu.run_packed``, pinned via ``kernels.kernel_disabled``),
(3) the fused flat-store kernel (``TraceDrivenCpu.run_kernel``, the
default for every covered design), gated at >= 2x the packed loop on
the same host, (4) the kernel replay with the die-stacked tier below
the LLC, (5) the sharded (cold-cache-epoch) replay under a 2-worker
pool versus serial, and (6) the end-to-end wall time of a two-figure
sweep (Figs. 11 and 12 restricted to two workloads) under ``--jobs 2``
versus ``--jobs 1``, cold and warm persistent cache.  Emits
``BENCH_engine.json`` next to the other benchmark artifacts;
``check_bench_regression.py`` compares a fresh artifact against the
committed one in CI.

The container may expose a single core, so the parallel sweep and
sharded-replay timings only run (and assert) when more than one core
is available; on a single core the artifact records
``"skipped_single_core"`` instead of a misleading ~1.0 ratio.  The
warm-cache rerun must be near-instant and fully cache-served
regardless of core count.
"""

import json
import os
import time

from repro.common.config import apply_overrides
from repro.common.types import AccessWidth, Orientation, PackedTrace, \
    Request
from repro.core import kernels
from repro.core.simulator import clear_trace_cache, run_simulation, \
    run_trace
from repro.core.system import make_system
from repro.experiments.plans import plan_fig11, plan_fig12
from repro.experiments.runner import ExperimentRunner, RunKey, \
    simulate_run_key

from conftest import run_once

WORKLOADS = ["sgemm", "sobel"]
ARTIFACT = os.path.join(os.path.dirname(__file__), "..",
                        "BENCH_engine.json")

#: Length of the synthetic miss-heavy trace the tier bench replays.
MISS_TRACE_LEN = 1 << 18

#: Distinct tiles the miss-heavy trace cycles through (row 0 of each:
#: a 1.75MB working set of 512-byte tiles).
MISS_TILE_COUNT = 3584


def _miss_trace(n=MISS_TRACE_LEN):
    """Vector reads cycling MISS_TILE_COUNT distinct tiles' row 0."""
    return PackedTrace.from_requests(
        [Request(addr=(i % MISS_TILE_COUNT) << 9,
                 orientation=Orientation.ROW,
                 width=AccessWidth.VECTOR, is_write=False, ref_id=0)
         for i in range(n)])


def _sweep_keys():
    keys = plan_fig11(workloads=WORKLOADS, size="small")
    keys += plan_fig12(workloads=WORKLOADS, size="small")
    return list(dict.fromkeys(keys))


def _timed_prefetch(jobs, cache_dir=None):
    runner = ExperimentRunner(jobs=jobs, cache_dir=cache_dir)
    started = time.perf_counter()
    simulated = runner.prefetch(_sweep_keys())
    return time.perf_counter() - started, simulated, runner


def test_hot_loop_requests_per_second(benchmark):
    system = make_system("1P2L", 1.0)
    # Warm the trace cache so the bench times the request loop, not
    # trace generation.
    clear_trace_cache()
    warmup = run_simulation(system, workload="sgemm", size="small")

    result = run_once(benchmark, run_simulation, system,
                      workload="sgemm", size="small")
    assert result.cycles == warmup.cycles
    seconds = benchmark.stats["mean"]
    rps = result.ops / seconds
    print(f"\nhot loop: {result.ops} requests in {seconds:.3f}s "
          f"= {rps:,.0f} req/s")
    _merge_artifact({"hot_loop_requests_per_sec": round(rps)})
    # Floor well below current throughput (~500k+ req/s observed);
    # trips only if the hot path regresses badly.
    assert rps > 50_000


def test_packed_loop_requests_per_second(benchmark):
    """The packed replay loop clears 1.5x the PR-1 hot-loop baseline.

    Pinned to ``TraceDrivenCpu.run_packed`` via ``kernel_disabled`` —
    without the pin, ``run_simulation`` on a covered design would
    silently measure the fused kernel instead.  The container's timing
    is noisy (single shared core), so the loop runs several rounds and
    the best one stands in for steady-state throughput; the mean of a
    single round can swing ~20% on an otherwise idle machine.
    """
    system = make_system("1P2L", 1.0)
    # Warm the trace memo so the rounds time replay, not generation.
    clear_trace_cache()

    def packed_run():
        with kernels.kernel_disabled():
            return run_simulation(system, workload="sgemm",
                                  size="small")

    warmup = packed_run()
    result = benchmark.pedantic(packed_run, rounds=9, iterations=1)
    assert result.cycles == warmup.cycles
    seconds = benchmark.stats["min"]
    rps = result.ops / seconds
    print(f"\npacked loop: {result.ops} requests in {seconds:.3f}s "
          f"(best of 9) = {rps:,.0f} req/s")
    _merge_artifact({"packed_loop_requests_per_sec": round(rps)})
    # Acceptance floor: 1.5x the PR-1 object-path baseline of
    # 88,364 req/s recorded in BENCH_engine.json.
    assert rps >= 1.5 * 88_364


def test_kernel_loop_requests_per_second(benchmark):
    """The fused flat-store kernel clears 2x the packed replay loop.

    ``run_simulation`` on 1P2L dispatches to
    ``TraceDrivenCpu.run_kernel``; the rate is gated against the packed
    number the previous test just recorded on the same host (the PR-4
    acceptance bar).  Results stay bit-identical: the run must
    reproduce the pinned packed run's cycle count exactly.
    """
    system = make_system("1P2L", 1.0)
    clear_trace_cache()
    with kernels.kernel_disabled():
        reference = run_simulation(system, workload="sgemm",
                                   size="small")
    assert kernels.KERNEL_ENABLED

    def kernel_run():
        return run_simulation(system, workload="sgemm", size="small")

    result = benchmark.pedantic(kernel_run, rounds=9, iterations=1)
    assert result.cycles == reference.cycles
    seconds = benchmark.stats["min"]
    rps = result.ops / seconds
    packed_rps = _read_artifact().get("packed_loop_requests_per_sec")
    ratio = rps / packed_rps if packed_rps else None
    note = f" = {ratio:.2f}x packed" if ratio else ""
    print(f"\nkernel loop: {result.ops} requests in {seconds:.3f}s "
          f"(best of 9) = {rps:,.0f} req/s{note}")
    _merge_artifact({"kernel_loop_requests_per_sec": round(rps)})
    # Acceptance: >= 2x the packed loop measured on the same host (the
    # artifact was just rewritten by the packed bench above).  Absolute
    # floor as a backstop when the packed bench did not run.
    if packed_rps:
        assert rps >= 2.0 * packed_rps
    assert rps >= 3.0 * 88_364


def test_kernel_2p2l_requests_per_second(benchmark):
    """The 2P2L kernel replay clears 1.8x the packed loop (PR-7 bar).

    The 2P2L design runs a dual-ported last level with duplicate-copy
    coherence and packed presence words — the family this PR moved off
    the packed interpreter.  Both loops replay the same sgemm trace on
    the same host: the packed loop pinned via ``kernel_disabled`` (best
    of 3), the fused kernel as dispatched (rounds of 9).  Results must
    stay bit-identical between the two engines.
    """
    system = make_system("2P2L", 1.0)
    clear_trace_cache()

    packed_best = None
    with kernels.kernel_disabled():
        reference = run_simulation(system, workload="sgemm",
                                   size="small")
        for _ in range(3):
            started = time.perf_counter()
            check = run_simulation(system, workload="sgemm",
                                   size="small")
            elapsed = time.perf_counter() - started
            packed_best = elapsed if packed_best is None \
                else min(packed_best, elapsed)
    assert check.cycles == reference.cycles

    def kernel_run():
        return run_simulation(system, workload="sgemm", size="small")

    result = benchmark.pedantic(kernel_run, rounds=9, iterations=1)
    assert result.cycles == reference.cycles
    seconds = benchmark.stats["min"]
    rps = result.ops / seconds
    packed_rps = result.ops / packed_best
    ratio = rps / packed_rps
    print(f"\n2P2L kernel loop: {result.ops} requests in {seconds:.3f}s "
          f"(best of 9) = {rps:,.0f} req/s "
          f"({ratio:.2f}x same-trace packed {packed_rps:,.0f} req/s)")
    _merge_artifact({
        "kernel_2p2l_requests_per_sec": round(rps),
        "kernel_2p2l_packed_requests_per_sec": round(packed_rps),
    })
    # PR-7 acceptance: the 2P2L kernel replay must clear 1.8x the
    # packed loop on the same trace and host.
    assert rps >= 1.8 * packed_rps


def test_tier_replay_requests_per_second(benchmark):
    """Replay throughput with the die-stacked tier below the LLC.

    The miss trace's 1.75MB working set overflows the scaled LLC, so
    below-LLC traffic flows through the hybrid tier: the flat half
    absorbs the low tiles, the cache half sees the rest through the
    TDRAM probe + RBLA install path.  One untimed replay checks that
    the trace reaches the tier and that the timed rounds reproduce it
    exactly; the recorded throughput is gated by
    ``check_bench_regression.py`` so the tier hook on the replay hot
    path cannot silently decay.
    """
    overrides = {"tier.mode": "hybrid",
                 "tier.size_bytes": 2 * 1024 * 1024,
                 "tier.cache_fraction": 0.5}
    system = apply_overrides(make_system("1P2L", 1.0), overrides)
    packed = _miss_trace()

    reference = run_trace(system, packed, name="tierloop")
    tier_stats = {name: value
                  for name, value in reference.stats.flat().items()
                  if name.startswith("tier.")}
    assert tier_stats.get("tier.fetches", 0) > 0, \
        "the bench trace must actually reach the tier"

    result = benchmark.pedantic(run_trace, args=(system, packed),
                                kwargs={"name": "tierloop"},
                                rounds=5, iterations=1)
    assert result.cycles == reference.cycles
    assert result.stats.flat() == reference.stats.flat()
    seconds = benchmark.stats["min"]
    rps = result.ops / seconds
    print(f"\ntier replay: {result.ops} requests in {seconds:.3f}s "
          f"(best of 5) = {rps:,.0f} req/s "
          f"({tier_stats['tier.fetches']} tier fetches, "
          f"{tier_stats['tier.flat_hits']} flat hits, "
          f"{tier_stats['tier.hits']} cache hits)")
    _merge_artifact({"tier_replay_requests_per_sec": round(rps)})


def test_sharded_replay_speedup():
    """Sharded (cold-cache epoch) replay: pool vs serial, bit-checked.

    Replays the same 2-epoch plan serially and under a forced
    2-worker pool; the merged statistics must agree bit for bit on any
    host.  The wall-clock speedup is only recorded when more than one
    core is available — on a single core the artifact keeps the
    ``"skipped_single_core"`` sentinel rather than a ~1.0 ratio.
    """
    cpu_count = os.cpu_count() or 1
    key = RunKey("1P2L", "sgemm", "small", 1.0, False, "default", 0,
                 (), 2)

    serial_best = None
    for _ in range(3):
        started = time.perf_counter()
        serial = simulate_run_key(key)
        elapsed = time.perf_counter() - started
        serial_best = elapsed if serial_best is None \
            else min(serial_best, elapsed)

    runner = ExperimentRunner(jobs=2, shards=2)
    started = time.perf_counter()
    runner.prefetch([key], jobs=2)
    pool_seconds = time.perf_counter() - started
    pooled = runner.run(key.design, key.workload, key.size,
                        key.llc_mb)
    assert pooled.cycles == serial.cycles
    assert pooled.stats.flat() == serial.stats.flat()

    if cpu_count > 1:
        speedup_field = round(serial_best / pool_seconds, 3)
        note = f"x{speedup_field} over serial {serial_best:.3f}s"
    else:
        speedup_field = "skipped_single_core"
        note = f"1 core (serial {serial_best:.3f}s)"
    print(f"\nsharded replay: 2 epochs, pool {pool_seconds:.3f}s, "
          f"{note}")
    _merge_artifact({"sharded_replay_speedup": speedup_field})


def test_two_figure_sweep_parallel_vs_sequential(benchmark, tmp_path):
    cache_dir = str(tmp_path / ".runcache")
    cpu_count = os.cpu_count() or 1

    seq_seconds, seq_simulated, seq_runner = _timed_prefetch(jobs=1)
    if cpu_count > 1:
        par_seconds, par_simulated, par_runner = _timed_prefetch(
            jobs=2, cache_dir=cache_dir)
    else:
        # A 2-job sweep on one core just time-slices the same CPU:
        # skip the parallel timing entirely and populate the
        # persistent cache sequentially for the warm-rerun check.
        par_seconds = None
        _, par_simulated, par_runner = _timed_prefetch(
            jobs=1, cache_dir=cache_dir)
    assert seq_simulated == par_simulated

    # Bit-identical statistics between the two paths.
    for key in _sweep_keys():
        seq = seq_runner.run(key.design, key.workload, key.size,
                             key.llc_mb)
        par = par_runner.run(key.design, key.workload, key.size,
                             key.llc_mb)
        assert seq.cycles == par.cycles
        assert seq.stats.flat() == par.stats.flat()

    # Warm persistent cache: second invocation is served from disk.
    def warm():
        warm_runner = ExperimentRunner(jobs=2, cache_dir=cache_dir)
        warm_runner.prefetch(_sweep_keys())
        return warm_runner

    warm_runner = run_once(benchmark, warm)
    info = warm_runner.cache_info()
    assert info.misses == 0
    assert info.hit_fraction() == 1.0
    warm_seconds = benchmark.stats["mean"]

    # A parallel speedup is only meaningful with more than one core:
    # on a single core the 2-job timing was skipped above, and the
    # artifact records the sentinel ``"skipped_single_core"`` instead
    # of a misleading ~1.0 ratio (or an ambiguous null).
    if cpu_count > 1:
        speedup = seq_seconds / par_seconds if par_seconds else 0.0
        speedup_field = round(speedup, 3)
        jobs2_field = round(par_seconds, 3)
        par_note = f"jobs=2 {par_seconds:.2f}s (x{speedup:.2f})"
    else:
        speedup_field = "skipped_single_core"
        jobs2_field = "skipped_single_core"
        par_note = "jobs=2 skipped (1 core)"
    print(f"\nsweep ({seq_simulated} points): jobs=1 {seq_seconds:.2f}s,"
          f" {par_note},"
          f" warm cache {warm_seconds:.3f}s")
    _merge_artifact({
        "sweep_points": seq_simulated,
        "sweep_seconds_jobs1": round(seq_seconds, 3),
        "sweep_seconds_jobs2": jobs2_field,
        "sweep_parallel_speedup": speedup_field,
        "warm_cache_seconds": round(warm_seconds, 3),
        "warm_cache_hit_fraction": info.hit_fraction(),
        "cpu_count": cpu_count,
    })
    if cpu_count > 1:
        # Two workers on two real cores should beat sequential by a
        # comfortable margin even with fork overhead.
        assert speedup > 1.1
    # The warm rerun skips every simulation; it must beat the cold
    # sequential sweep by a wide margin on any machine.
    assert warm_seconds < seq_seconds / 2


def _read_artifact():
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT) as handle:
            try:
                return json.load(handle)
            except json.JSONDecodeError:
                pass
    return {}


def _merge_artifact(fields):
    data = _read_artifact()
    data.update(fields)
    with open(ARTIFACT, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
