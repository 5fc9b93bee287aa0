"""Integration tests for the experiment modules (miniature runs)."""

import pytest

from repro.experiments import (
    ExperimentRunner,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_layout_mismatch,
    run_table1,
)

WORKLOADS = ["sobel", "htap1"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestRunnerCaching:
    def test_memoizes_identical_points(self):
        runner = ExperimentRunner()
        a = runner.run("1P2L", "sobel", "small")
        b = runner.run("1P2L", "sobel", "small")
        assert a is b
        assert runner.runs_completed == 1

    def test_distinct_points_not_shared(self):
        runner = ExperimentRunner()
        a = runner.run("1P2L", "sobel", "small", llc_mb=1.0)
        b = runner.run("1P2L", "sobel", "small", llc_mb=2.0)
        assert a is not b

    def test_unknown_memory_variant_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner().run("1P2L", "sobel", memory="warp")


class TestTable1:
    def test_report_lists_scaled_setup(self):
        report = run_table1().report()
        assert "L1 D-cache" in report
        assert "FRFCFS-WQF" in report
        assert "4KB" in report


class TestFig10:
    def test_structure_and_claims(self):
        result = run_fig10(workloads=WORKLOADS, sizes=["small"])
        assert result.column_fraction("sobel", "small") == 1.0
        assert 0 < result.average_column_fraction("small") <= 1.0
        assert "col_total" in result.report()


class TestFig11(object):
    def test_hit_rates_normalized(self, runner):
        result = run_fig11(runner, workloads=WORKLOADS, size="small")
        for workload in WORKLOADS:
            assert 0 <= result.baseline[workload] <= 1
        assert result.average_normalized("1P2L") > 0
        assert "1P2L (norm)" in result.report()


class TestFig12:
    def test_two_llc_points(self, runner):
        result = run_fig12(runner, workloads=WORKLOADS,
                           llc_points=(1.0, 4.0), size="small")
        for llc in (1.0, 4.0):
            for design in ("1P2L", "2P2L"):
                value = result.average_normalized(llc, design)
                assert value > 0
        assert "LLC = 1.0 MB" in result.report()

    def test_reduction_percent_consistent(self, runner):
        result = run_fig12(runner, workloads=WORKLOADS,
                           llc_points=(1.0,), size="small")
        norm = result.average_normalized(1.0, "1P2L")
        red = result.average_reduction_percent(1.0, "1P2L")
        assert red == pytest.approx(100 * (1 - norm))


class TestFig13:
    def test_resident_runs(self, runner):
        result = run_fig13(runner, workloads=WORKLOADS)
        for design in ("1P2L", "2P2L"):
            assert result.average_normalized(design) > 0
        assert "average" in result.report()


class TestFig14:
    def test_traffic_reduction_on_htap1(self, runner):
        result = run_fig14(runner, workloads=["htap1"], size="small")
        assert result.normalized_accesses("1P2L", "htap1") < 1.0
        assert result.normalized_bytes("1P2L", "htap1") < 1.0
        assert "1P2L acc" in result.report()


class TestFig15:
    def test_plan_and_run_generate_each_trace_once(self):
        """The stride comes from the memoized trace the replay uses:
        planning fig15 and then running it walks each sampled trace
        at most once."""
        from repro.core.simulator import clear_trace_cache, \
            configure_trace_store, trace_cache_info
        from repro.experiments.plans import plan_fig15
        configure_trace_store(None)
        clear_trace_cache()
        keys = plan_fig15(size="small")
        assert [k.workload for k in keys] == ["sgemm", "ssyrk"]
        assert trace_cache_info()["generated"] == 2
        runner = ExperimentRunner()
        run_fig15(runner, size="small")
        assert trace_cache_info()["generated"] == 2
        assert runner.cache_info().misses == len(keys)
        # The report's points are the planned points, stride included.
        assert all(runner.lookup(key) is not None for key in keys)

    def test_occupancy_series_collected(self):
        result = run_fig15(ExperimentRunner(), workloads=["ssyrk"],
                           size="small", samples=10)
        series = result.series["ssyrk"]
        assert "L1" in series
        assert len(series["L1"].points) >= 5
        assert "column occupancy" in result.report()

    def test_ssyrk_occupancy_rises_then_falls(self):
        """The paper's Fig. 15 ssyrk shape: a column-heavy product nest
        followed by a row-wise pass."""
        result = run_fig15(ExperimentRunner(), workloads=["ssyrk"],
                           size="small", samples=20)
        llc = result.series["ssyrk"]["L3"]
        assert llc.peak() > 0
        assert llc.final() < llc.peak()


class TestFig16:
    def test_slow_write_gap_small(self, runner):
        result = run_fig16(runner, workloads=WORKLOADS, size="small")
        gap = result.asymmetry_gap()
        assert abs(gap) < 0.2  # "slightly worse", not catastrophic
        assert "slow-write penalty" in result.report()


class TestFig17:
    def test_fast_memory_variants(self, runner):
        result = run_fig17(runner, workloads=["sobel"], size="small")
        # 1P2L-fast must beat 1P2L on the same workload (faster memory).
        assert result.cycles["1P2L-fast"]["sobel"] <= \
            result.cycles["1P2L"]["sobel"]
        # MDA caching on slow memory still beats 1P1L on fast memory
        # for the column-affine kernel (the paper's key Fig. 17 claim).
        assert result.normalized_cycles("1P2L", "sobel") < 1.0
        assert "1P2L-fast" in result.report()


class TestLayoutMismatch:
    def test_mismatch_measured_and_reported(self):
        """The experiment measures the 1P1L-on-2-D-layout ratio.  At
        this model's scale the tiled layout degenerates to software
        cache-blocking, so the ratio is merely required to be positive
        and different from 1 (the deviation from the paper's ~2x is
        documented in EXPERIMENTS.md)."""
        result = run_layout_mismatch(workloads=["sgemm"], size="small")
        ratio = result.slowdown("sgemm")
        assert ratio > 0
        assert ratio != pytest.approx(1.0, abs=1e-3)
        assert "slowdown" in result.report()
