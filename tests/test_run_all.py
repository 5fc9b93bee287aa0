"""Integration test for the run-everything driver (light subset)."""

import json
import os

from repro.experiments.run_all import run_all


class TestRunAll:
    def test_selected_experiments_produce_artifacts(self, tmp_path):
        outdir = str(tmp_path / "results")
        summary = run_all(outdir, only=("table1", "fig10"),
                          verbose=False)
        assert set(summary) == {"table1", "fig10"}
        assert os.path.exists(os.path.join(outdir, "table1.txt"))
        assert os.path.exists(os.path.join(outdir, "fig10.txt"))
        with open(os.path.join(outdir, "summary.json")) as handle:
            loaded = json.load(handle)
        assert loaded["fig10"]["avg_column_fraction_large"] > 0
        assert "seconds" in loaded["table1"]

    def test_reports_are_nonempty_text(self, tmp_path):
        outdir = str(tmp_path / "results")
        run_all(outdir, only=("table1",), verbose=False)
        with open(os.path.join(outdir, "table1.txt")) as handle:
            assert "L1 D-cache" in handle.read()

    def test_every_experiment_is_registered(self):
        from repro.experiments.run_all import _experiments
        from repro.experiments.runner import ExperimentRunner
        names = set(_experiments(ExperimentRunner()))
        expected = {"table1", "fig10", "fig11", "fig12", "fig13",
                    "fig14", "fig15", "fig16", "fig17",
                    "layout_mismatch", "future_tiling", "energy",
                    "dynamic_orientation", "multiprogram",
                    "tier_modes"}
        assert names == expected

    def test_every_experiment_is_planned_or_named_unplanned(self):
        from repro.experiments.plans import PLANNERS, UNPLANNED
        from repro.experiments.run_all import _experiments
        names = set(_experiments(None))
        assert not set(PLANNERS) & set(UNPLANNED)
        assert set(PLANNERS) | set(UNPLANNED) == names
        assert set(UNPLANNED) == {"table1", "fig10", "multiprogram"}


class TestKernelCoverage:
    def test_coverage_report_classifies_every_planned_config(self):
        from repro.experiments.run_all import coverage_report
        report = coverage_report()
        assert report, "figure plans must yield configurations"
        assert set(report.values()) <= {"kernel", "object"}
        # Flagship and baseline designs both replay on the kernel, and
        # so do sampled points.
        assert report["1P2L|mem=default|resident=0|sampled=0"] \
            == "kernel"
        assert report["1P1L|mem=default|resident=0|sampled=0"] \
            == "kernel"
        assert report["1P2L|mem=default|resident=0|sampled=1"] \
            == "kernel"
        # dynamic_orientation's predictor design is planned too.
        assert report["1P2L_Dyn|mem=default|resident=0|sampled=0"] \
            == "kernel"

    def test_coverage_matches_committed_baseline(self):
        """The live plan's dispatch equals the committed baseline.

        A mismatch here means a change moved a figure config between
        replay engines: regenerate the baseline deliberately with
        ``python -m repro.experiments.run_all --dry-run --quiet``.
        """
        from repro.experiments.run_all import coverage_report
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks",
                            "kernel_coverage_baseline.json")
        with open(path) as handle:
            baseline = json.load(handle)
        assert coverage_report() == baseline

    def test_dry_run_cli_prints_json(self, capsys):
        from repro.experiments.run_all import main
        main(["--dry-run", "--quiet"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["1P2L|mem=default|resident=0|sampled=0"] \
            == "kernel"

    def test_dry_run_summary_names_unplanned_experiments(self, capsys):
        from repro.experiments.run_all import main
        main(["--dry-run"])
        captured = capsys.readouterr()
        assert isinstance(json.loads(captured.out), dict)
        summary = captured.err
        assert "table1 (simulates nothing)" in summary
        assert "fig10 (simulates nothing)" in summary
        assert "multiprogram (runs the multicore object path)" in summary
        main(["--dry-run", "results", "fig11"])
        assert "unplanned: none" in capsys.readouterr().err

    def test_checker_passes_against_baseline(self, capsys):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_kernel_coverage",
            os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "check_kernel_coverage.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main(["check_kernel_coverage.py"]) == 0

    def test_checker_fails_on_dekernelized_config(self):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_kernel_coverage",
            os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "check_kernel_coverage.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        baseline = {"cfg": "kernel", "gone": "kernel"}
        current = {"cfg": "object", "other": "kernel"}
        failures = module.check(baseline, current)
        assert len(failures) == 2
        assert any("now object" in f for f in failures)
        assert any("no longer planned" in f for f in failures)
        # Upgrades and new configs pass.
        assert module.check({"cfg": "object"}, {"cfg": "kernel"}) == []
