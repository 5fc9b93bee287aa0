"""The parallel experiment engine and persistent run cache.

Covers the ISSUE acceptance criteria: ``--jobs N`` produces
bit-identical statistics to the sequential path, the persistent cache
round-trips results across runner instances and invalidates when the
configuration changes, and the runner's hit/miss introspection and
``clear()`` behave.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro.common.config import CacheLevelConfig, MemoryConfig
from repro.core.simulator import (
    clear_trace_cache,
    configure_trace_store,
    hold_traces,
    run_simulation,
    trace_cache_info,
)
from repro.core.system import make_system
from repro.experiments import plans
from repro.experiments.runner import (
    CACHE_FORMAT_VERSION,
    ExperimentRunner,
    RunCache,
    RunKey,
    cache_key,
    config_fingerprint,
    simulate_run_key,
    system_for_key,
    trace_key_for,
)
from repro.experiments.supervisor import Supervisor
from repro.sw.tracestore import TraceStore

GRID = tuple(RunKey(design, workload, "small", 1.0, False, "default", 0)
             for design in ("1P1L", "1P2L")
             for workload in ("sobel", "htap1"))


def _run(runner: ExperimentRunner, key: RunKey):
    return runner.run(key.design, key.workload, key.size, key.llc_mb,
                      resident=key.resident, memory=key.memory,
                      sample_every=key.sample_every)


def _supervise(runner: ExperimentRunner, keys) -> int:
    """Fill the runner's memo the way every CLI path does; returns the
    number of points simulated."""
    return Supervisor(runner, handle_signals=False) \
        .supervise(keys).simulated


class TestParallelParity:
    def test_jobs4_matches_sequential_stats(self):
        sequential = ExperimentRunner()
        expected = {key: _run(sequential, key) for key in GRID}

        parallel = ExperimentRunner(jobs=4)
        assert _supervise(parallel, GRID) == len(GRID)
        for key in GRID:
            got = _run(parallel, key)
            want = expected[key]
            assert got.cycles == want.cycles
            assert got.ops == want.ops
            assert got.stats.flat() == want.stats.flat()

    def test_prefetch_fills_memo(self):
        runner = ExperimentRunner(jobs=2)
        _supervise(runner, GRID)
        assert runner.runs_completed == len(GRID)
        before = runner.cache_info()
        _run(runner, GRID[0])
        after = runner.cache_info()
        assert after.memory_hits == before.memory_hits + 1
        assert after.misses == before.misses

    def test_prefetch_dedupes_repeated_keys(self):
        runner = ExperimentRunner(jobs=2)
        assert _supervise(runner, list(GRID) * 3) == len(GRID)

    def test_prefetch_sequential_path_identical(self):
        par = ExperimentRunner(jobs=4)
        _supervise(par, GRID)
        seq = ExperimentRunner(jobs=1)
        _supervise(seq, GRID)
        for key in GRID:
            assert _run(par, key).cycles == _run(seq, key).cycles


class TestPersistentCache:
    def test_round_trip_across_runners(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        first = ExperimentRunner(cache_dir=cache_dir)
        results = {key: _run(first, key) for key in GRID}
        assert first.cache_info().misses == len(GRID)
        assert len(first.run_cache) == len(GRID)

        second = ExperimentRunner(cache_dir=cache_dir)
        _supervise(second, GRID)
        info = second.cache_info()
        assert info.misses == 0
        assert info.disk_hits == len(GRID)
        assert info.hit_fraction() == 1.0
        for key in GRID:
            got = _run(second, key)
            assert got.cycles == results[key].cycles
            assert got.stats.flat() == results[key].stats.flat()

    def test_refresh_resimulates(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        key = GRID[0]
        _run(ExperimentRunner(cache_dir=cache_dir), key)
        fresh = ExperimentRunner(cache_dir=cache_dir, refresh=True)
        _run(fresh, key)
        assert fresh.cache_info().misses == 1
        assert fresh.cache_info().disk_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        key = GRID[0]
        runner = ExperimentRunner(cache_dir=cache_dir)
        _run(runner, key)
        path = runner.run_cache.path_for(key)
        # Two corruption flavors: raw bytes raise UnpicklingError,
        # text like "garbage\n" parses as a protocol-0 pickle and
        # raises ValueError from int().  Both must read as misses.
        for garbage in (b"not a pickle", b"garbage\n"):
            with open(path, "wb") as handle:
                handle.write(garbage)
            again = ExperimentRunner(cache_dir=cache_dir)
            _run(again, key)
            assert again.cache_info().misses == 1

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        key = GRID[0]
        runner = ExperimentRunner(cache_dir=cache_dir)
        result = _run(runner, key)
        path = runner.run_cache.path_for(key)
        with open(path, "wb") as handle:
            pickle.dump({"format": CACHE_FORMAT_VERSION + 1,
                         "result": result}, handle)
        assert RunCache(cache_dir).load(key) is None

    def test_no_cache_dir_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner()
        _run(runner, GRID[0])
        assert runner.run_cache is None
        assert os.listdir(tmp_path) == []

    def test_store_is_atomic_no_tmp_left_behind(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        runner = ExperimentRunner(cache_dir=cache_dir)
        _run(runner, GRID[0])
        assert all(name.endswith(".pkl")
                   for name in os.listdir(cache_dir)
                   if name != ".lock")


class TestCacheKey:
    def test_stable_across_calls(self):
        key = GRID[0]
        assert cache_key(key) == cache_key(key)

    def test_default_key_identity_is_pinned(self):
        # Literal identities of a default key, so run-cache and trace-
        # store entries written before a RunKey field was added stay
        # hits: new fields must be elided at their defaults.
        key = RunKey("1P2L", "sobel", "small", 1.0, False, "default", 0)
        assert cache_key(key) == "150c998e6c60098d1fc47a23d41c4938"
        assert TraceStore("root").path_for("sobel", "small", 2) \
            .endswith("sobel-small-2d.v1.mdat")

    def test_trace_variant_changes_key(self):
        base = GRID[0]
        legacy = dataclasses.replace(base, trace="legacy")
        assert cache_key(base) != cache_key(legacy)
        assert cache_key(dataclasses.replace(base, trace="")) \
            == cache_key(base)

    def test_distinct_per_run_key(self):
        seen = {cache_key(key) for key in GRID}
        assert len(seen) == len(GRID)

    def test_memory_variant_changes_key(self):
        base = GRID[0]
        fast = dataclasses.replace(base, memory="fast")
        assert cache_key(base) != cache_key(fast)

    @pytest.mark.parametrize("field, value", [
        ("design", "1P1L"),
        ("workload", "htap1"),
        ("size", "large"),
        ("llc_mb", 2.0),
        ("resident", True),
        ("memory", "fast"),
        ("sample_every", 64),
        ("overrides", (("cpu.mlp_window", 8),)),
        ("trace", "legacy"),
    ])
    def test_every_field_changes_key(self, field, value):
        # A field left out of the hash would let two different points
        # share one run-cache entry.
        base = RunKey("1P2L", "sobel", "small", 1.0, False, "default", 0)
        assert cache_key(dataclasses.replace(base, **{field: value})) \
            != cache_key(base)

    def test_run_key_fields_are_pinned(self):
        # Keys are built positionally across the planners, the service
        # and the journal; a new field goes last with an elided default.
        assert [field.name for field in dataclasses.fields(RunKey)] == [
            "design", "workload", "size", "llc_mb", "resident", "memory",
            "sample_every", "overrides", "trace"]

    def test_fingerprint_changes_with_memory_config(self):
        system = make_system("1P2L", 1.0)
        slower = dataclasses.replace(
            system,
            memory=dataclasses.replace(system.memory,
                                       activate_cycles=99))
        assert config_fingerprint(system) != config_fingerprint(slower)

    def test_fingerprint_changes_with_cache_level_config(self):
        system = make_system("1P2L", 1.0)
        levels = list(system.levels)
        levels[0] = dataclasses.replace(
            levels[0], tag_latency=levels[0].tag_latency + 1)
        slower = dataclasses.replace(system, levels=tuple(levels))
        assert config_fingerprint(system) != config_fingerprint(slower)

    def test_fingerprint_covers_every_level_field(self):
        # A sentinel change to any CacheLevelConfig field must
        # invalidate; spot-check a latency field too.
        system = make_system("1P1L", 1.0)
        levels = list(system.levels)
        levels[-1] = dataclasses.replace(levels[-1],
                                         data_latency=levels[-1]
                                         .data_latency + 7)
        changed = dataclasses.replace(system, levels=tuple(levels))
        assert config_fingerprint(system) != config_fingerprint(changed)


class TestIntrospection:
    def test_counts_by_source(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        runner = ExperimentRunner(cache_dir=cache_dir)
        key = GRID[0]
        _run(runner, key)          # miss
        _run(runner, key)          # memo hit
        other = ExperimentRunner(cache_dir=cache_dir)
        _run(other, key)           # disk hit
        assert runner.cache_info().misses == 1
        assert runner.cache_info().memory_hits == 1
        assert other.cache_info().disk_hits == 1
        assert "simulated" in runner.cache_info().describe()

    def test_clear_resets_memo_and_stats(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        runner = ExperimentRunner(cache_dir=cache_dir)
        _run(runner, GRID[0])
        runner.clear()
        assert runner.runs_completed == 0
        assert runner.cache_info().requests == 0
        assert len(runner.run_cache) == 1  # disk untouched
        _run(runner, GRID[0])
        assert runner.cache_info().disk_hits == 1

    def test_clear_disk_removes_entries(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        runner = ExperimentRunner(cache_dir=cache_dir)
        _run(runner, GRID[0])
        runner.clear(disk=True)
        assert len(runner.run_cache) == 0
        _run(runner, GRID[0])
        assert runner.cache_info().misses == 1


class TestPlans:
    def test_plans_cover_every_figure_key(self):
        # Replaying a figure's run loop against a supervised runner
        # must be pure memo hits — the plan is exactly the loop.
        from repro.experiments.fig13 import run_fig13
        runner = ExperimentRunner()
        _supervise(runner, plans.plan_fig13(workloads=["sobel", "htap1"]))
        before = runner.cache_info()
        run_fig13(runner, workloads=["sobel", "htap1"])
        after = runner.cache_info()
        assert after.misses == before.misses

    def test_plan_for_dedupes_across_figures(self):
        fig11 = plans.plan_for(["fig11"])
        both = plans.plan_for(["fig11", "fig12"])
        # Fig. 11's 1 MB points are a subset of Fig. 12's sweep.
        assert set(fig11) <= set(both)
        assert len(both) == len(plans.plan_for(["fig12"]))

    def test_plan_for_unknown_names_skipped(self):
        assert plans.plan_for(["table1", "fig10"]) == []

    def test_planned_key_simulates_like_runner(self):
        key = GRID[1]
        direct = simulate_run_key(key)
        via_runner = _run(ExperimentRunner(), key)
        assert direct.cycles == via_runner.cycles
        assert direct.stats.flat() == via_runner.stats.flat()

    def test_system_for_key_resident(self):
        key = RunKey("1P2L", "sobel", "small", 1.0, True, "default", 0)
        assert system_for_key(key).name.endswith("resident")


class TestReplayKey:
    """simulate_run_key replays the whole trace once, exactly as a
    direct run_simulation on the same system does."""

    @pytest.mark.parametrize("key", [
        RunKey("1P1L", "sobel", "small", 1.0, False, "default", 0),
        RunKey("1P2L", "sgemm", "small", 1.0, False, "default", 0),
        RunKey("2P2L", "htap1", "small", 2.0, False, "default", 0),
        RunKey("1P2L", "sobel", "small", 1.0, False, "default", 64),
        RunKey("1P2L", "sgemm", "small", 1.0, False, "default", 0, (),
               "legacy"),
    ], ids=["1P1L", "1P2L", "2P2L-llc2", "sampled", "legacy-trace"])
    def test_matches_direct_replay(self, key):
        got = simulate_run_key(key)
        want = run_simulation(make_system(key.design, key.llc_mb),
                              workload=key.workload, size=key.size,
                              sample_every=key.sample_every,
                              variant=key.trace)
        assert got.cycles == want.cycles
        assert got.ops == want.ops
        assert got.stats.flat() == want.stats.flat()
        assert got.samples == want.samples


class TestTraceCache:
    def test_trace_reused_across_designs(self):
        clear_trace_cache()
        run_simulation(make_system("1P1L", 1.0), workload="sobel",
                       size="small")
        run_simulation(make_system("1P1L", 1.0), workload="sobel",
                       size="small")
        info = trace_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        clear_trace_cache()
        assert trace_cache_info() == {"hits": 0, "misses": 0,
                                      "entries": 0, "store_hits": 0,
                                      "store_misses": 0,
                                      "corrupt_quarantined": 0,
                                      "generated": 0}

    def test_explicit_layout_bypasses_cache(self):
        from repro.sw.layout import make_layout
        from repro.workloads.registry import build_workload
        clear_trace_cache()
        program = build_workload("sobel", "small")
        layout = make_layout(program.arrays, 1)
        run_simulation(make_system("1P1L", 1.0), workload="sobel",
                       size="small", layout=layout)
        assert trace_cache_info()["entries"] == 0

    def test_cached_and_uncached_traces_identical(self):
        clear_trace_cache()
        first = run_simulation(make_system("1P2L", 1.0),
                               workload="htap1", size="small")
        second = run_simulation(make_system("1P2L", 1.0),
                                workload="htap1", size="small")
        assert trace_cache_info()["hits"] == 1
        assert first.cycles == second.cycles
        assert first.stats.flat() == second.stats.flat()

    def test_hold_traces_keeps_every_key_resident(self, monkeypatch):
        from repro.core import simulator
        monkeypatch.setattr(simulator, "_TRACE_CACHE_MAX", 1)
        clear_trace_cache()
        keys = [trace_key_for(key) for key in GRID]
        distinct = len(dict.fromkeys(keys))
        with hold_traces(keys):
            assert simulator._TRACE_CACHE_MAX == distinct
            assert trace_cache_info()["entries"] == distinct
            for key in GRID:
                simulate_run_key(key)
            # Every replay inside the block was a memo hit.
            assert trace_cache_info()["misses"] == distinct
        assert simulator._TRACE_CACHE_MAX == 1
        assert trace_cache_info()["entries"] == 1

    def test_hold_traces_materializes_each_key_once(self):
        clear_trace_cache()
        first, second = (trace_key_for(key) for key in GRID[:3:2])
        assert first != second
        with hold_traces([first, first, second, first]):
            pass
        info = trace_cache_info()
        assert info["misses"] == 2
        assert info["entries"] == 2

    def test_hold_traces_restores_bound_on_error(self, monkeypatch):
        from repro.core import simulator
        monkeypatch.setattr(simulator, "_TRACE_CACHE_MAX", 1)
        clear_trace_cache()
        keys = [trace_key_for(key) for key in GRID]
        with pytest.raises(RuntimeError, match="sweep died"):
            with hold_traces(keys):
                raise RuntimeError("sweep died")
        assert simulator._TRACE_CACHE_MAX == 1
        assert trace_cache_info()["entries"] == 1


def _traces_only_in_parent(monkeypatch):
    """Make generating a trace or reading one from the store raise in
    any process but this one.

    Patched before the supervisor forks its pool, so a worker that did
    not inherit its trace from the parent's memo fails its run, and the
    strict sweep raises.
    """
    from repro.core import simulator
    parent = os.getpid()

    def parent_only(original, what):
        def guarded(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"pool worker {what} a trace")
            return original(*args, **kwargs)
        return guarded

    monkeypatch.setattr(simulator, "_generate",
                        parent_only(simulator._generate, "generated"))
    monkeypatch.setattr(TraceStore, "load",
                        parent_only(TraceStore.load, "re-read"))


class TestTraceProcessTree:
    """A parallel sweep generates each trace at most once per tree."""

    def teardown_method(self):
        configure_trace_store(None)
        clear_trace_cache()

    def test_cold_parallel_sweep_generates_each_trace_once(
            self, tmp_path, monkeypatch):
        clear_trace_cache()
        trace_dir = str(tmp_path / ".tracecache")
        runner = ExperimentRunner(jobs=2, trace_dir=trace_dir)
        distinct = len(dict.fromkeys(trace_key_for(key)
                                     for key in GRID))
        _traces_only_in_parent(monkeypatch)
        assert _supervise(runner, GRID) == len(GRID)

        # The parent materialized every distinct (workload, size, dims)
        # trace exactly once, before forking: each was a store miss
        # (cold store) followed by a kernel walk.
        parent = trace_cache_info()
        assert parent["generated"] == distinct
        assert parent["store_misses"] == distinct
        assert parent["store_hits"] == 0
        # ... and persisted each to the store.
        assert len(TraceStore(trace_dir)) == distinct

        # Forked workers inherited the packed buffers copy-on-write:
        # every replay was a memo hit — no worker regenerated or even
        # re-read a trace from disk (either would have failed the
        # sweep above).

    def test_traces_beyond_the_memo_bound_survive_until_fork(
            self, tmp_path, monkeypatch):
        from repro.core import simulator
        monkeypatch.setattr(simulator, "_TRACE_CACHE_MAX", 2)
        clear_trace_cache()
        runner = ExperimentRunner(jobs=2,
                                  trace_dir=str(tmp_path / ".tracecache"))
        distinct = len(dict.fromkeys(trace_key_for(key)
                                     for key in GRID))
        assert distinct > simulator._TRACE_CACHE_MAX
        _traces_only_in_parent(monkeypatch)
        assert _supervise(runner, GRID) == len(GRID)
        # Every worker replayed an inherited trace: none was evicted
        # before the fork and re-read from the store or re-walked.
        assert trace_cache_info()["generated"] == distinct
        # The bound holds again once the pool is done.
        assert simulator._TRACE_CACHE_MAX == 2
        assert trace_cache_info()["entries"] <= 2

    def test_warm_store_serves_new_process_tree(self, tmp_path):
        trace_dir = str(tmp_path / ".tracecache")
        clear_trace_cache()
        first = ExperimentRunner(jobs=2, trace_dir=trace_dir)
        _supervise(first, GRID)
        distinct = len(dict.fromkeys(trace_key_for(key)
                                     for key in GRID))

        # A later cold process (fresh memo, warm store) loads every
        # trace from disk instead of walking kernels again.
        clear_trace_cache()
        second = ExperimentRunner(jobs=2, trace_dir=trace_dir,
                                  cache_dir=None)
        assert _supervise(second, GRID) == len(GRID)
        info = trace_cache_info()
        assert info["generated"] == 0
        assert info["store_hits"] == distinct


class TestMemoryVariants:
    def test_unknown_variant_raises(self):
        from repro.experiments.runner import memory_config
        with pytest.raises(ValueError):
            memory_config("warp")

    def test_fast_variant_differs(self):
        from repro.experiments.runner import memory_config
        assert memory_config("fast") != memory_config("default")
        assert isinstance(memory_config("default"), MemoryConfig)

    def test_level_config_type_still_fingerprinted(self):
        # Guard against CacheLevelConfig silently dropping out of the
        # asdict payload (e.g. if levels became opaque objects).
        system = make_system("1P2L", 1.0)
        blob = dataclasses.asdict(system)
        assert isinstance(system.levels[0], CacheLevelConfig)
        assert "levels" in blob and blob["levels"]
