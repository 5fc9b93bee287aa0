"""Unit tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "1P2L", "sobel"])
        assert args.size == "small"
        assert args.llc == 1.0

    def test_run_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "5P5L", "sobel"])

    def test_sweep_parses(self):
        args = build_parser().parse_args(
            ["sweep", "htap1", "--llc", "2.0"])
        assert args.llc == 2.0


class TestCommands:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "1P2L" in out
        assert "sgemm" in out

    def test_run_prints_result(self, capsys):
        assert main(["run", "1P2L", "htap1"]) == 0
        out = capsys.readouterr().out
        assert "htap1" in out
        assert "memory bytes" in out

    def test_run_with_stats_dump(self, capsys):
        assert main(["run", "1P2L", "htap1", "--stats"]) == 0
        assert "[cache.L1]" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "L1 D-cache" in capsys.readouterr().out

    def test_sweep_prints_all_designs(self, capsys):
        assert main(["sweep", "htap1"]) == 0
        out = capsys.readouterr().out
        assert "2P2L_Dense" in out


class TestProfileFlag:
    def test_experiment_parser_accepts_profile(self):
        args = build_parser().parse_args(
            ["experiment", "fig12", "--profile"])
        assert args.profile
        args = build_parser().parse_args(["experiment", "fig12"])
        assert not args.profile

    def test_figure_cli_accepts_profile(self):
        import argparse
        from repro.experiments.plans import add_engine_arguments
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        assert parser.parse_args(["--profile"]).profile
        assert not parser.parse_args([]).profile

    def test_profiled_context_writes_pstats(self, tmp_path):
        import io
        import pstats
        from repro.common.profile_util import profiled

        out = io.StringIO()
        outdir = tmp_path / "results"
        with profiled(str(outdir), stream=out):
            sum(range(1000))
        dump = outdir / "profile.pstats"
        assert dump.is_file()
        pstats.Stats(str(dump))  # the dump is loadable
        text = out.getvalue()
        assert "cumulative" in text
        assert str(dump) in text

    def test_profiled_disabled_is_inert(self, tmp_path):
        from repro.common.profile_util import profiled
        outdir = tmp_path / "results"
        with profiled(str(outdir), enabled=False):
            pass
        assert not outdir.exists()

    def test_experiment_profile_end_to_end(self, tmp_path, capsys):
        outdir = tmp_path / "results"
        assert main(["experiment", "table1", "--profile",
                     "--outdir", str(outdir)]) == 0
        captured = capsys.readouterr()
        assert "L1 D-cache" in captured.out
        assert (outdir / "profile.pstats").is_file()
        assert "profile.pstats" in captured.err

    def test_maybe_profile_worker_inert_without_env(self, monkeypatch):
        from repro.common import profile_util
        monkeypatch.delenv(profile_util.PROFILE_DIR_ENV,
                           raising=False)
        monkeypatch.setattr(profile_util, "_worker_profiler", None)
        with profile_util.maybe_profile_worker():
            pass
        assert profile_util._worker_profiler is None

    def test_worker_dumps_merge_into_profile(self, tmp_path,
                                             monkeypatch):
        """--profile --jobs N: worker-side simulation work shows up.

        Simulates a pool worker in-process: a ``maybe_profile_worker``
        block under the exported env var dumps per-worker stats, and
        the enclosing ``profiled`` block merges them into the final
        ``profile.pstats``.
        """
        import io
        import pstats
        from repro.common import profile_util
        from repro.experiments.runner import simulate_run_key
        from repro.experiments.runner import RunKey

        monkeypatch.setattr(profile_util, "_worker_profiler", None)
        out = io.StringIO()
        outdir = tmp_path / "results"
        with profile_util.profiled(str(outdir), stream=out):
            # What _supervised_entry does inside a forked worker.
            with profile_util.maybe_profile_worker():
                simulate_run_key(RunKey("1P2L", "sobel", "small", 1.0,
                                        False, "default", 0))
        workers = list(outdir.glob("profile.worker-*.pstats"))
        assert workers, "worker block must dump per-worker stats"
        assert "(+1 worker profiles)" in out.getvalue()
        stats = pstats.Stats(str(outdir / "profile.pstats"))
        merged_functions = {func for _, func in
                            zip(range(10 ** 6), stats.stats)}
        assert any("simulate_run_key" in str(func)
                   for func in merged_functions)

    def test_stale_worker_dumps_removed_on_entry(self, tmp_path,
                                                 monkeypatch):
        from repro.common import profile_util
        monkeypatch.setattr(profile_util, "_worker_profiler", None)
        outdir = tmp_path / "results"
        outdir.mkdir()
        stale = outdir / "profile.worker-99999.pstats"
        stale.write_bytes(b"junk from a previous run")
        import io
        with profile_util.profiled(str(outdir), stream=io.StringIO()):
            pass
        assert not stale.exists()


class TestJournalCommand:
    def _write_journal(self, outdir, suite="fig10"):
        from repro.experiments.runner import RunKey
        from repro.experiments.supervisor import RunJournal
        journal = RunJournal.for_suite(str(outdir), suite)
        done = RunKey("1P1L", "sobel", "small", 1.0, False,
                      "default", 0)
        failed = RunKey("1P2L", "sobel", "small", 1.0, False,
                        "default", 0)
        journal.record_event("sweep_start", total=2)
        journal.record_run(done, "ck-done", "running", attempt=1)
        journal.record_run(done, "ck-done", "done", attempt=1)
        journal.record_run(failed, "ck-fail", "running", attempt=1)
        journal.record_run(failed, "ck-fail", "failed", attempt=1,
                           error="WorkerCrash: injected", final=True)
        journal.record_event("sweep_interrupted", signal=2)
        journal.close()
        return journal

    def test_journal_parses(self):
        args = build_parser().parse_args(
            ["journal", "fig10", "--outdir", "x", "--limit", "5"])
        assert args.command == "journal"
        assert args.suite == "fig10"
        assert args.limit == 5

    def test_journal_suite_optional(self):
        args = build_parser().parse_args(["journal"])
        assert args.suite is None

    def test_missing_journal_dir_exits_2(self, tmp_path, capsys):
        assert main(["journal", "--outdir", str(tmp_path)]) == 2
        assert "no journals" in capsys.readouterr().err

    def test_missing_suite_exits_2(self, tmp_path, capsys):
        self._write_journal(tmp_path)
        assert main(["journal", "fig99",
                     "--outdir", str(tmp_path)]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_lists_suites_with_counts(self, tmp_path, capsys):
        self._write_journal(tmp_path, "fig10")
        self._write_journal(tmp_path, "run_all")
        assert main(["journal", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig10:" in out
        assert "run_all:" in out
        assert "1 done" in out
        assert "[interrupted]" in out

    def test_suite_detail_shows_failed_runs(self, tmp_path, capsys):
        self._write_journal(tmp_path)
        assert main(["journal", "fig10",
                     "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "INTERRUPTED" in out
        assert "1P2L/sobel/small" in out
        assert "WorkerCrash: injected" in out
        assert "attempt 1" in out

    def test_experiment_flags_parse(self):
        args = build_parser().parse_args(
            ["experiment", "fig10", "--resume", "--max-retries", "5",
             "--run-timeout", "30", "--inject-faults",
             "worker_crash:0.1,seed:3"])
        assert args.resume is True
        assert args.max_retries == 5
        assert args.run_timeout == 30.0
        assert args.inject_faults == "worker_crash:0.1,seed:3"


def _figure_cli(argv):
    from repro.experiments.plans import figure_runner
    figure_runner("fig13", argv)


def _run_all_cli(argv):
    from repro.experiments.run_all import main as run_all_main
    run_all_main(argv)


class TestRetiredFlags:
    @pytest.mark.parametrize("parse", [
        lambda argv: build_parser().parse_args(["experiment", "fig13"]
                                               + argv),
        _figure_cli,
        _run_all_cli,
    ], ids=["repro-experiment", "figure-cli", "run_all"])
    def test_shards_flag_is_rejected(self, parse, tmp_path, capsys):
        # Whole-trace replay is the only mode: a script still passing
        # --shards fails at parse time, before it writes anything,
        # instead of running something other than it asked for.
        with pytest.raises(SystemExit) as excinfo:
            parse(["--shards", "2", "--outdir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
