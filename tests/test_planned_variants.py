"""Planned trace variants: layout_mismatch, future_tiling and
dynamic_orientation through the plan, the run cache and the trace store.

A ``RunKey`` names its trace in ``trace``; the planned replay of every
key the three planners emit must match the explicit-program call the
experiments made before they were planned, bit for bit, and a warm
runner must regenerate all three without simulating or walking a trace.
"""

from __future__ import annotations

import pytest

from repro.core.simulator import (
    TRACE_VARIANTS,
    clear_trace_cache,
    configure_trace_store,
    ensure_trace,
    run_simulation,
    trace_cache_info,
)
from repro.experiments import plans
from repro.experiments.dynamic_orientation import run_dynamic_orientation
from repro.experiments.future_tiling import run_future_tiling
from repro.experiments.layout_mismatch import run_layout_mismatch
from repro.experiments.runner import (
    RUNCACHE_DIRNAME,
    ExperimentRunner,
    RunKey,
    system_for_key,
    trace_key_for,
)
from repro.sw.layout import TiledLayout
from repro.sw.tiling import tile_program
from repro.sw.tracestore import TRACECACHE_DIRNAME, TraceStore
from repro.workloads.registry import build_workload

EXPERIMENTS = {
    "layout_mismatch": run_layout_mismatch,
    "future_tiling": run_future_tiling,
    "dynamic_orientation": run_dynamic_orientation,
}

KEYS = list(dict.fromkeys(key for name in EXPERIMENTS
                          for key in plans.PLANNERS[name](size="small")))


def _explicit(key: RunKey):
    """The explicit-program call the experiment made for ``key``."""
    system = system_for_key(key)
    program = build_workload(key.workload, key.size)
    if key.trace == "legacy":
        return run_simulation(system, program=program,
                              layout=TiledLayout(program.arrays),
                              compile_dims=1)
    if key.trace == "tiled16":
        program = tile_program(program, {"i": 16, "j": 16, "k": 16})
    return run_simulation(system, program=program)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold regeneration of the three experiments at small size
    through a cached runner: (outdir, runner, reports).  The runner
    simulated every planned key once, through ``simulate_run_key``."""
    outdir = tmp_path_factory.mktemp("variants")
    clear_trace_cache()
    runner = ExperimentRunner(
        cache_dir=str(outdir / RUNCACHE_DIRNAME),
        trace_dir=str(outdir / TRACECACHE_DIRNAME))
    reports = {name: run(runner, size="small").report()
               for name, run in EXPERIMENTS.items()}
    assert runner.cache_info().misses == len(KEYS)
    yield outdir, runner, reports
    configure_trace_store(None)
    clear_trace_cache()


class TestVariantTable:
    def test_closed_table(self):
        assert set(TRACE_VARIANTS) == {"", "legacy", "tiled16"}
        with pytest.raises(ValueError, match="unknown trace variant"):
            ensure_trace("sgemm", "small", 1, "tiled8")

    def test_legacy_compiles_one_dimensional_on_every_design(self):
        keys = [RunKey(design, "sobel", "small", 1.0, False, "default",
                       0, trace="legacy")
                for design in ("1P1L", "1P2L", "1P2L_Dyn")]
        assert {trace_key_for(key) for key in keys} \
            == {("sobel", "small", 1, "legacy")}

    def test_legacy_refuses_another_dimensionality(self):
        with pytest.raises(ValueError, match="compiles for 1-D"):
            ensure_trace("sobel", "small", 2, "legacy")

    def test_variant_excludes_explicit_program(self):
        from repro.core.system import make_system
        with pytest.raises(ValueError, match="variant="):
            run_simulation(make_system("1P1L", 1.0),
                           program=build_workload("sobel", "small"),
                           variant="legacy")

    def test_store_names_variants_apart(self):
        store = TraceStore("root")
        assert store.path_for("sobel", "small", 1, "legacy") \
            .endswith("sobel-small-1d-legacy.v1.mdat")
        assert store.path_for("sobel", "small", 1, "") \
            == store.path_for("sobel", "small", 1)


class TestPlannedMatchesExplicit:
    @pytest.mark.parametrize(
        "key", KEYS,
        ids=[f"{k.design}-{k.workload}-{k.trace or 'default'}"
             for k in KEYS])
    def test_planned_replay_matches_explicit_program(self, cold, key):
        _, runner, _ = cold
        planned = runner.lookup(key)
        explicit = _explicit(key)
        assert planned.cycles == explicit.cycles
        assert planned.stats.flat() == explicit.stats.flat()

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_report_identical_without_runner(self, cold, name):
        _, _, reports = cold
        assert EXPERIMENTS[name](size="small").report() == reports[name]


class TestWarmRegeneration:
    def test_warm_runner_simulates_and_walks_nothing(self, cold):
        outdir, _, reports = cold
        clear_trace_cache()
        runner = ExperimentRunner(
            cache_dir=str(outdir / RUNCACHE_DIRNAME),
            trace_dir=str(outdir / TRACECACHE_DIRNAME))
        for name, run in EXPERIMENTS.items():
            assert run(runner, size="small").report() == reports[name]
        assert runner.cache_info().misses == 0
        assert runner.cache_info().disk_hits == len(KEYS)
        assert trace_cache_info()["generated"] == 0

    def test_store_holds_each_distinct_trace_once(self, cold):
        outdir, _, _ = cold
        distinct = dict.fromkeys(trace_key_for(key) for key in KEYS)
        assert len(TraceStore(str(outdir / TRACECACHE_DIRNAME))) \
            == len(distinct)
