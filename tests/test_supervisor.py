"""The fault-tolerant experiment supervisor.

Covers the ISSUE acceptance criteria: the lifecycle journal
round-trips and survives arbitrary truncation, transient failures are
retried with capped backoff while permanent ones fail fast, a sweep
interrupted by injected worker crashes resumes to bit-identical
aggregate statistics, the pool degrades gracefully to serial
execution, and SIGINT ends a sweep cleanly with the journal flushed.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    EXIT_INTERRUPTED,
    EXIT_SWEEP_FAILED,
    ConfigError,
    PoolBroken,
    RunTimeout,
    SweepFailed,
    SweepInterrupted,
    WorkerCrash,
    WorkerHang,
    classify_error,
    is_transient,
)
from repro.experiments import faults, supervisor as sup_mod
from repro.experiments.runner import (
    ExperimentRunner,
    RunKey,
    cache_key,
    simulate_run_key,
)
from repro.experiments.supervisor import (
    JOURNAL_FORMAT_VERSION,
    RetryPolicy,
    RunJournal,
    Supervisor,
    replay_journal,
)

KEYS = (RunKey("1P1L", "sobel", "small", 1.0, False, "default", 0),
        RunKey("1P2L", "sobel", "small", 1.0, False, "default", 0))


class FakeClock:
    """Deterministic time for retry/backoff tests (no real sleeping)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slept: list = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


def make_supervisor(runner, tmp_path, suite="test", **kwargs):
    clock = kwargs.pop("clock", None)
    if clock is not None:
        kwargs.setdefault("sleep", clock.sleep)
        kwargs["clock"] = clock
    journal = kwargs.pop("journal", RunJournal.for_suite(
        str(tmp_path), suite))
    return Supervisor(runner, journal=journal, **kwargs)


def crash_seed(ck: str, rate: float = 0.5, site: str = "worker_crash",
               clean_cks: tuple = (), attempts: int = 3) -> int:
    """A seed where ``ck`` attempt 1 fires but attempt 2 does not, and
    every attempt of every ``clean_cks`` key stays clean."""
    for seed in range(10_000):
        plan = faults.FaultPlan({site: rate}, seed=seed)
        if not plan.should_fire(site, f"{ck}:1"):
            continue
        if plan.should_fire(site, f"{ck}:2"):
            continue
        if any(plan.should_fire(site, f"{other}:{attempt}")
               for other in clean_cks
               for attempt in range(1, attempts + 1)):
            continue
        return seed
    raise AssertionError("no suitable seed found")


class TestClassification:
    def test_transient_taxonomy(self):
        for exc in (WorkerCrash("x"), WorkerHang("x"), RunTimeout("x"),
                    PoolBroken("x"), OSError("disk"), MemoryError()):
            assert classify_error(exc) == "transient"
            assert is_transient(exc)

    def test_permanent_taxonomy(self):
        for exc in (ConfigError("bad"), ValueError("bad"),
                    RuntimeError("bad"), KeyError("bad")):
            assert classify_error(exc) == "permanent"
            assert not is_transient(exc)


class TestRetryPolicy:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                             backoff_cap=5.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0
        assert policy.delay(4) == 5.0  # capped
        assert policy.delay(10) == 5.0

    def test_zero_attempt_no_delay(self):
        assert RetryPolicy().delay(0) == 0.0


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = RunJournal.for_suite(str(tmp_path), "suite1")
        assert journal.suite == "suite1"
        assert not journal.exists()
        ck = cache_key(KEYS[0])
        journal.record_event("sweep_start", plan=1)
        journal.record_run(KEYS[0], ck, "pending")
        journal.record_run(KEYS[0], ck, "running", attempt=1)
        journal.record_run(KEYS[0], ck, "done", attempt=1,
                           seconds=0.5)
        journal.record_event("sweep_end", completed=1)
        journal.close()
        state = journal.replay()
        assert state.states == {ck: "done"}
        assert state.attempts == {ck: 1}
        assert state.keys[ck]["design"] == "1P1L"
        assert state.corrupt_lines == 0
        assert not state.interrupted
        assert state.counts() == {"done": 1}

    def test_replay_missing_file_is_empty(self, tmp_path):
        state = replay_journal(str(tmp_path / "nope.jsonl"))
        assert state.states == {}
        assert state.events == 0

    def test_replay_skips_garbage_and_foreign_versions(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = cache_key(KEYS[0])
        good = json.dumps({"v": JOURNAL_FORMAT_VERSION, "event": "run",
                           "ck": ck, "state": "done", "attempt": 1})
        lines = ["not json at all", "[1, 2, 3]",
                 json.dumps({"v": 99, "event": "run", "ck": ck,
                             "state": "failed"}),
                 good,
                 '{"torn": ']
        path.write_text("\n".join(lines) + "\n")
        state = replay_journal(str(path))
        assert state.states == {ck: "done"}
        assert state.corrupt_lines == 4

    def test_interrupted_flag_cleared_by_next_sweep(self, tmp_path):
        journal = RunJournal.for_suite(str(tmp_path), "s")
        journal.record_event("sweep_interrupted", signal=2)
        assert journal.replay().interrupted
        journal.record_event("sweep_start", plan=0)
        journal.close()
        assert not journal.replay().interrupted

    @settings(max_examples=30, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=2000),
           junk=st.binary(max_size=40))
    def test_truncated_journal_never_raises(self, cut, junk):
        import tempfile
        journal_dir = tempfile.mkdtemp(prefix="repro-journal-prop-")
        journal = RunJournal.for_suite(journal_dir, "prop")
        ck0, ck1 = cache_key(KEYS[0]), cache_key(KEYS[1])
        journal.record_event("sweep_start", plan=2)
        journal.record_run(KEYS[0], ck0, "done", attempt=1)
        journal.record_run(KEYS[1], ck1, "failed", attempt=2,
                           error="WorkerCrash: boom")
        journal.record_event("sweep_end", completed=1)
        journal.close()
        data = open(journal.path, "rb").read()
        with open(journal.path, "wb") as handle:
            handle.write(data[:min(cut, len(data))] + junk)
        state = replay_journal(journal.path)  # must not raise
        assert set(state.states.values()) <= set(sup_mod.RUN_STATES)
        assert set(state.states) <= {ck0, ck1}


class TestSerialSupervision:
    def test_completes_and_journals(self, tmp_path):
        runner = ExperimentRunner(
            cache_dir=str(tmp_path / ".runcache"))
        sup = make_supervisor(runner, tmp_path)
        report = sup.supervise(KEYS)
        assert report.completed == len(KEYS)
        assert report.simulated == len(KEYS)
        assert not report.failed
        state = sup.journal.replay()
        assert sorted(state.states.values()) == ["done", "done"]

    def test_cached_points_skipped(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        make_supervisor(ExperimentRunner(cache_dir=cache_dir),
                        tmp_path).supervise(KEYS)
        runner = ExperimentRunner(cache_dir=cache_dir)
        report = make_supervisor(runner, tmp_path,
                                 suite="second").supervise(KEYS)
        assert report.from_cache == len(KEYS)
        assert report.simulated == 0
        state = replay_journal(
            str(tmp_path / ".runjournal" / "second.jsonl"))
        assert sorted(state.states.values()) == ["skipped", "skipped"]

    def test_transient_failure_retried_with_backoff(self, tmp_path,
                                                    monkeypatch):
        clock = FakeClock()
        calls = []
        real = sup_mod.simulate_run_key

        def flaky(key):
            calls.append(key)
            if len(calls) <= 2:
                raise WorkerCrash("injected")
            return real(key)

        monkeypatch.setattr(sup_mod, "simulate_run_key", flaky)
        runner = ExperimentRunner()
        sup = make_supervisor(
            runner, tmp_path, clock=clock,
            policy=RetryPolicy(max_retries=2, backoff_base=0.5))
        report = sup.supervise(KEYS[:1])
        assert report.simulated == 1
        assert report.retries == 2
        assert len(calls) == 3
        # Exponential backoff was actually waited out: 0.5s then 1.0s.
        assert clock.now >= 1.5

    def test_permanent_failure_fails_fast(self, tmp_path, monkeypatch):
        calls = []

        def broken(key):
            calls.append(key)
            raise ConfigError("deterministically bad")

        monkeypatch.setattr(sup_mod, "simulate_run_key", broken)
        sup = make_supervisor(ExperimentRunner(), tmp_path,
                              clock=FakeClock(),
                              policy=RetryPolicy(max_retries=5))
        with pytest.raises(SweepFailed) as excinfo:
            sup.supervise(KEYS[:1])
        assert len(calls) == 1  # no retries for permanent errors
        assert len(excinfo.value.report.failed) == 1
        state = sup.journal.replay()
        assert list(state.states.values()) == ["failed"]

    def test_retry_budget_exhausts(self, tmp_path, monkeypatch):
        calls = []

        def always_flaky(key):
            calls.append(key)
            raise OSError("disk flake")

        monkeypatch.setattr(sup_mod, "simulate_run_key", always_flaky)
        sup = make_supervisor(ExperimentRunner(), tmp_path,
                              clock=FakeClock(),
                              policy=RetryPolicy(max_retries=1,
                                                 backoff_base=0.01))
        with pytest.raises(SweepFailed):
            sup.supervise(KEYS[:1])
        assert len(calls) == 2  # max_retries + 1 attempts, no more

    def test_non_strict_returns_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            sup_mod, "simulate_run_key",
            lambda key: (_ for _ in ()).throw(ConfigError("bad")))
        sup = make_supervisor(ExperimentRunner(), tmp_path,
                              clock=FakeClock())
        report = sup.supervise(KEYS[:1], strict=False)
        assert len(report.failed) == 1


class TestSignals:
    def test_sigint_flushes_journal_and_raises(self, tmp_path,
                                               monkeypatch):
        real = sup_mod.simulate_run_key

        def simulate_then_interrupt(key):
            result = real(key)
            os.kill(os.getpid(), signal.SIGINT)
            return result

        monkeypatch.setattr(sup_mod, "simulate_run_key",
                            simulate_then_interrupt)
        sup = make_supervisor(ExperimentRunner(), tmp_path)
        with pytest.raises(SweepInterrupted) as excinfo:
            sup.supervise(KEYS)
        report = excinfo.value.report
        assert report.interrupted
        # The in-flight run completed and was journaled before exit.
        assert report.simulated == 1
        state = sup.journal.replay()
        assert state.interrupted
        assert "done" in state.states.values()

    def test_exit_codes(self):
        assert EXIT_INTERRUPTED == 130
        assert EXIT_SWEEP_FAILED == 3

    def test_run_supervised_maps_exit_codes(self):
        from repro.experiments.plans import run_supervised

        class Stub:
            def __init__(self, exc):
                self.exc = exc

            def supervise(self, plan):
                raise self.exc

        with pytest.raises(SystemExit) as excinfo:
            run_supervised(Stub(SweepInterrupted()), [])
        assert excinfo.value.code == EXIT_INTERRUPTED
        with pytest.raises(SystemExit) as excinfo:
            run_supervised(Stub(SweepFailed("x")), [])
        assert excinfo.value.code == EXIT_SWEEP_FAILED

    def test_handlers_restored_after_sweep(self, tmp_path):
        before = signal.getsignal(signal.SIGINT)
        make_supervisor(ExperimentRunner(), tmp_path).supervise(
            KEYS[:1])
        assert signal.getsignal(signal.SIGINT) is before


class TestPoolSupervision:
    def test_pool_parity_with_serial(self, tmp_path):
        serial = ExperimentRunner()
        expected = {key: serial.run(key.design, key.workload, key.size,
                                    key.llc_mb)
                    for key in KEYS}
        runner = ExperimentRunner(jobs=2)
        make_supervisor(runner, tmp_path).supervise(KEYS)
        for key in KEYS:
            got = runner.run(key.design, key.workload, key.size,
                             key.llc_mb)
            assert got.cycles == expected[key].cycles
            assert got.stats.flat() == expected[key].stats.flat()

    def test_worker_crash_detected_and_retried(self, tmp_path):
        ck = cache_key(KEYS[0])
        seed = crash_seed(ck, clean_cks=(cache_key(KEYS[1]),))
        plan = faults.FaultPlan({"worker_crash": 0.5}, seed=seed)
        runner = ExperimentRunner(
            jobs=2, cache_dir=str(tmp_path / ".runcache"))
        sup = make_supervisor(runner, tmp_path, fault_plan=plan,
                              heartbeat_interval=0.1,
                              heartbeat_timeout=1.0,
                              poll_interval=0.05,
                              policy=RetryPolicy(max_retries=2,
                                                 backoff_base=0.05))
        report = sup.supervise(KEYS)
        assert report.simulated == len(KEYS)
        assert report.retries == 1
        assert not report.failed
        state = sup.journal.replay()
        assert state.states[ck] == "done"
        assert state.attempts[ck] == 2  # crash + successful retry

    def test_worker_hang_reaped_by_heartbeat(self, tmp_path):
        ck = cache_key(KEYS[0])
        seed = crash_seed(ck, site="worker_hang",
                          clean_cks=(cache_key(KEYS[1]),))
        plan = faults.FaultPlan({"worker_hang": 0.5}, seed=seed,
                                hang_seconds=30.0)
        runner = ExperimentRunner(jobs=2)
        sup = make_supervisor(runner, tmp_path, fault_plan=plan,
                              heartbeat_interval=0.1,
                              heartbeat_timeout=0.8,
                              poll_interval=0.05,
                              policy=RetryPolicy(max_retries=2,
                                                 backoff_base=0.05))
        report = sup.supervise(KEYS)
        assert report.simulated == len(KEYS)
        assert not report.failed
        # The hang was journaled as a transient heartbeat failure.
        state = sup.journal.replay()
        assert state.attempts[ck] == 2

    def test_degrades_to_serial_when_pool_unavailable(self, tmp_path,
                                                      monkeypatch):
        def no_pool(self, workers, fault_spec):
            raise PoolBroken("no processes for you")

        monkeypatch.setattr(Supervisor, "_make_pool", no_pool)
        runner = ExperimentRunner(jobs=4)
        sup = make_supervisor(runner, tmp_path)
        report = sup.supervise(KEYS)
        assert report.degraded_serial
        assert report.simulated == len(KEYS)
        assert not report.failed


POOL_KEYS = tuple(RunKey(design, workload, "small", 1.0, False,
                         "default", 0)
                  for design in ("1P1L", "1P2L", "2P2L")
                  for workload in ("sobel", "htap1"))


def _journal_runs(journal: RunJournal) -> list:
    """The journal's run events, in the order the parent wrote them."""
    with open(journal.path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [record for record in records if record.get("event") == "run"]


def _assert_same_result(got, want) -> None:
    assert got.cycles == want.cycles
    assert got.ops == want.ops
    assert got.stats.flat() == want.stats.flat()
    assert got.samples == want.samples


class TestPoolDispatch:
    """The pool loop refills a worker as soon as a run completes,
    never holds more runs than workers, and hands back results
    identical to a serial replay whatever the key asks for."""

    def test_completion_wakes_the_loop(self, tmp_path):
        # A poll interval far longer than the whole sweep: only the
        # completion callbacks can move the loop on to the next key.
        runner = ExperimentRunner(jobs=2)
        sup = make_supervisor(runner, tmp_path, poll_interval=60.0,
                              heartbeat_timeout=120.0)
        started = time.monotonic()
        report = sup.supervise(POOL_KEYS)
        assert time.monotonic() - started < 30.0
        assert report.simulated == len(POOL_KEYS)
        assert not report.failed

    def test_failed_run_wakes_the_loop(self, tmp_path, monkeypatch):
        real = sup_mod.simulate_run_key
        bad = POOL_KEYS[0]

        def broken_for_one(key):
            if key == bad:
                raise ConfigError("deterministically bad")
            return real(key)

        monkeypatch.setattr(sup_mod, "simulate_run_key", broken_for_one)
        runner = ExperimentRunner(jobs=2)
        sup = make_supervisor(runner, tmp_path, poll_interval=60.0,
                              heartbeat_timeout=120.0)
        started = time.monotonic()
        report = sup.supervise(POOL_KEYS, strict=False)
        assert time.monotonic() - started < 30.0
        assert [key for key, _ in report.failed] == [bad]
        assert report.simulated == len(POOL_KEYS) - 1
        assert sup.journal.replay().states[cache_key(bad)] == "failed"

    def test_never_more_runs_in_flight_than_workers(self, tmp_path):
        runner = ExperimentRunner(jobs=2)
        sup = make_supervisor(runner, tmp_path)
        sup.supervise(POOL_KEYS)
        in_flight = peak = 0
        for record in _journal_runs(sup.journal):
            if record["state"] == "running":
                assert record["mode"] == "pool"
                in_flight += 1
                peak = max(peak, in_flight)
            elif record["state"] in ("done", "failed"):
                in_flight -= 1
        assert in_flight == 0
        assert peak == 2

    def test_one_key_queue_runs_serially(self, tmp_path, monkeypatch):
        def no_pool(self, workers, fault_spec):
            raise AssertionError("a one-key queue forked a pool")

        monkeypatch.setattr(Supervisor, "_make_pool", no_pool)
        runner = ExperimentRunner(jobs=2)
        sup = make_supervisor(runner, tmp_path)
        report = sup.supervise(POOL_KEYS[:1])
        assert report.simulated == 1
        assert not report.degraded_serial
        assert [record["mode"] for record in _journal_runs(sup.journal)
                if record["state"] == "running"] == ["serial"]

    def test_cached_points_never_reach_the_pool(self, tmp_path):
        runner = ExperimentRunner(jobs=2)
        runner.run_key(POOL_KEYS[0])
        sup = make_supervisor(runner, tmp_path)
        report = sup.supervise(POOL_KEYS[:3])
        assert report.from_cache == 1
        assert report.simulated == 2
        dispatched = [record["ck"] for record in _journal_runs(sup.journal)
                      if record["state"] == "running"]
        assert sorted(dispatched) == sorted(cache_key(key)
                                            for key in POOL_KEYS[1:3])

    @pytest.mark.parametrize("keys", [
        (RunKey("1P2L", "sobel", "small", 1.0, False, "default", 64),
         RunKey("2P2L", "htap1", "small", 1.0, False, "default", 32)),
        (RunKey("1P2L", "sgemm", "small", 1.0, False, "default", 0,
                (), "legacy"),
         RunKey("1P2L", "sgemm", "small", 1.0, False, "default", 0,
                (), "tiled16")),
        (RunKey("1P2L", "sobel", "small", 1.0, False, "default", 0,
                (("cpu.mlp_window", 4),)),
         RunKey("1P2L", "sobel", "small", 1.0, False, "default", 0,
                (("cpu.mlp_window", 8),))),
        (RunKey("1P1L", "sobel", "small", 1.0, False, "fast", 0),
         RunKey("1P2L", "sobel", "small", 2.0, False, "fast", 0)),
        (RunKey("1P1L", "sobel", "small", 1.0, True, "default", 0),
         RunKey("2P2L", "sobel", "small", 1.0, True, "default", 0)),
    ], ids=["sampled", "trace-variants", "overrides", "fast-memory",
            "resident"])
    def test_pool_matches_serial_replay(self, tmp_path, keys):
        runner = ExperimentRunner(jobs=2)
        report = make_supervisor(runner, tmp_path).supervise(keys)
        assert report.simulated == len(keys)
        for key in keys:
            _assert_same_result(runner.lookup(key),
                                simulate_run_key(key))

    def test_pool_results_reach_the_run_cache(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        make_supervisor(ExperimentRunner(jobs=2, cache_dir=cache_dir),
                        tmp_path).supervise(POOL_KEYS)
        fresh = ExperimentRunner(cache_dir=cache_dir)
        for key in POOL_KEYS:
            _assert_same_result(fresh.run_key(key),
                                simulate_run_key(key))
        info = fresh.cache_info()
        assert info.disk_hits == len(POOL_KEYS)
        assert info.misses == 0


class TestCrashResume:
    """Acceptance criterion: an interrupted sweep resumes to
    bit-identical aggregate statistics."""

    def test_resume_after_injected_crashes_is_bit_identical(
            self, tmp_path):
        # Reference: an uninterrupted sweep in a pristine outdir.
        ref_runner = ExperimentRunner(
            cache_dir=str(tmp_path / "ref" / ".runcache"))
        make_supervisor(ref_runner, tmp_path / "ref",
                        suite="run_all").supervise(KEYS)
        expected = {key: ref_runner.run(key.design, key.workload,
                                        key.size, key.llc_mb)
                    for key in KEYS}

        # Faulted sweep: key 0's only attempt crashes (no retry
        # budget), so the sweep "loses" that point and fails; the
        # journal still records what completed.
        outdir = tmp_path / "faulted"
        ck = cache_key(KEYS[0])
        seed = crash_seed(ck, clean_cks=(cache_key(KEYS[1]),))
        plan = faults.FaultPlan({"worker_crash": 0.5}, seed=seed)
        first = ExperimentRunner(
            jobs=2, cache_dir=str(outdir / ".runcache"))
        sup = make_supervisor(first, outdir, suite="run_all",
                              fault_plan=plan,
                              heartbeat_interval=0.1,
                              heartbeat_timeout=1.0,
                              poll_interval=0.05,
                              policy=RetryPolicy(max_retries=0))
        with pytest.raises(SweepFailed):
            sup.supervise(KEYS)
        state = sup.journal.replay()
        assert state.states[ck] == "failed"
        assert state.states[cache_key(KEYS[1])] == "done"
        assert state.attempts[ck] == 1  # never beyond max_retries + 1

        # Resume with faults disarmed: only the lost point simulates.
        faults.arm(None)
        second = ExperimentRunner(
            jobs=2, cache_dir=str(outdir / ".runcache"))
        resume_sup = make_supervisor(second, outdir, suite="run_all",
                                     resume=True)
        report = resume_sup.supervise(KEYS)
        assert report.simulated == 1
        assert report.from_cache == len(KEYS) - 1
        assert report.resumed == len(KEYS) - 1

        # Bit-identical aggregate statistics vs. the uninterrupted run.
        for key in KEYS:
            got = second.run(key.design, key.workload, key.size,
                             key.llc_mb)
            assert got.cycles == expected[key].cycles
            assert got.ops == expected[key].ops
            assert got.stats.flat() == expected[key].stats.flat()
