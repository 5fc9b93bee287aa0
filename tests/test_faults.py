"""The deterministic fault-injection harness and cache hardening.

Covers the ISSUE satellites: fault specs parse and fire
deterministically from a seed, injected cache corruption is detected,
counted, and quarantined (``*.corrupt``) by both the run cache and the
trace store, arbitrarily-truncated cache entries never raise on load,
and advisory file locking keeps concurrent writers from interleaving
(with a bounded, non-fatal timeout).  A write the disk refuses (a root
that cannot be created, a full disk) is skipped like a held lock and
leaves no temp file.
"""

from __future__ import annotations

import errno
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, LockTimeout
from repro.common.locking import file_lock, lock_path_for
from repro.experiments import faults
from repro.experiments.runner import (
    ExperimentRunner,
    RunCache,
    RunKey,
)
from repro.sw.tracestore import TraceStore

KEY = RunKey("1P1L", "sobel", "small", 1.0, False, "default", 0)


def simulated_result():
    from repro.experiments.runner import simulate_run_key
    return simulate_run_key(KEY)


class TestSpecParsing:
    def test_full_spec_round_trips(self):
        plan = faults.parse_spec(
            "worker_crash:0.1,worker_hang:0.05,cache_corrupt:0.2,"
            "seed:7,hang_seconds:2.5")
        assert plan.rate("worker_crash") == 0.1
        assert plan.rate("worker_hang") == 0.05
        assert plan.rate("cache_corrupt") == 0.2
        assert plan.seed == 7
        assert plan.hang_seconds == 2.5
        assert faults.parse_spec(plan.spec()) == plan

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            faults.parse_spec("disk_melt:0.5")

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            faults.parse_spec("worker_crash:1.5")
        with pytest.raises(ConfigError):
            faults.parse_spec("worker_crash:huge")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ConfigError):
            faults.parse_spec("worker_crash")

    def test_missing_rate_defaults_to_zero(self):
        plan = faults.parse_spec("worker_crash:0.5")
        assert plan.rate("cache_corrupt") == 0.0


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = faults.FaultPlan({"worker_crash": 0.3}, seed=11)
        b = faults.FaultPlan({"worker_crash": 0.3}, seed=11)
        tokens = [f"key{i}:1" for i in range(200)]
        assert [a.should_fire("worker_crash", t) for t in tokens] \
            == [b.should_fire("worker_crash", t) for t in tokens]

    def test_different_seeds_differ(self):
        tokens = [f"key{i}:1" for i in range(200)]
        a = faults.FaultPlan({"worker_crash": 0.3}, seed=1)
        b = faults.FaultPlan({"worker_crash": 0.3}, seed=2)
        assert [a.should_fire("worker_crash", t) for t in tokens] \
            != [b.should_fire("worker_crash", t) for t in tokens]

    def test_rate_roughly_respected(self):
        plan = faults.FaultPlan({"cache_corrupt": 0.1}, seed=3)
        fired = sum(plan.should_fire("cache_corrupt", f"t{i}")
                    for i in range(2000))
        assert 100 < fired < 300  # ~200 expected

    def test_edge_rates(self):
        always = faults.FaultPlan({"worker_crash": 1.0}, seed=0)
        never = faults.FaultPlan({"worker_crash": 0.0}, seed=0)
        assert always.should_fire("worker_crash", "x")
        assert not never.should_fire("worker_crash", "x")
        assert not always.should_fire("worker_hang", "x")


class TestArming:
    def test_env_arms_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:0.25,seed:9")
        faults.disarm()
        plan = faults.active_plan()
        assert plan is not None
        assert plan.rate("worker_crash") == 0.25
        assert plan.seed == 9

    def test_explicit_arm_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:0.25")
        faults.arm(None)
        assert faults.active_plan() is None

    def test_unset_env_means_no_plan(self):
        assert faults.active_plan() is None  # conftest cleared env


class TestCorruptionSite:
    def test_corrupt_file_truncates(self, tmp_path):
        path = tmp_path / "entry.bin"
        path.write_bytes(b"x" * 100)
        plan = faults.FaultPlan({"cache_corrupt": 1.0}, seed=0)
        assert faults.maybe_corrupt_file(str(path), "entry.bin",
                                         plan=plan)
        assert path.stat().st_size == 50

    def test_disarmed_is_noop(self, tmp_path):
        path = tmp_path / "entry.bin"
        path.write_bytes(b"x" * 100)
        assert not faults.maybe_corrupt_file(str(path), "entry.bin")
        assert path.stat().st_size == 100


class TestRunCacheQuarantine:
    def test_injected_corruption_quarantined_on_read(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        faults.arm(faults.FaultPlan({"cache_corrupt": 1.0}, seed=0))
        writer = RunCache(cache_dir)
        writer.store(KEY, simulated_result())  # truncated on write
        faults.arm(None)

        reader = RunCache(cache_dir)
        assert reader.load(KEY) is None
        assert reader.corrupt_quarantined == 1
        path = reader.path_for(KEY)
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # Quarantine means the second read is a clean miss, not
        # another failed parse.
        assert reader.load(KEY) is None
        assert reader.corrupt_quarantined == 1

    def test_runner_surfaces_corrupt_quarantined(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        runner = ExperimentRunner(cache_dir=cache_dir)
        runner.run(KEY.design, KEY.workload, KEY.size, KEY.llc_mb)
        entry = RunCache(cache_dir).path_for(KEY)
        with open(entry, "wb") as handle:
            handle.write(b"not a pickle")
        again = ExperimentRunner(cache_dir=cache_dir)
        again.run(KEY.design, KEY.workload, KEY.size, KEY.llc_mb)
        info = again.cache_info()
        assert info.corrupt_quarantined == 1
        assert "quarantined" in info.describe()

    def test_missing_entry_is_not_corruption(self, tmp_path):
        cache = RunCache(str(tmp_path / ".runcache"))
        assert cache.load(KEY) is None
        assert cache.corrupt_quarantined == 0

    def test_clear_removes_quarantined_entries(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        cache = RunCache(cache_dir)
        cache.store(KEY, simulated_result())
        with open(cache.path_for(KEY), "wb") as handle:
            handle.write(b"junk")
        assert cache.load(KEY) is None
        cache.clear()
        leftovers = [name for name in os.listdir(cache_dir)
                     if name != ".lock"]
        assert leftovers == []

    @settings(max_examples=25, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=10_000_000))
    def test_truncated_entry_never_raises(self, cut):
        import tempfile
        cache_dir = tempfile.mkdtemp(prefix="repro-cache-prop-")
        cache = RunCache(cache_dir)
        cache.store(KEY, _CACHED_RESULT())
        path = cache.path_for(KEY)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:min(cut, len(data))])
        loaded = cache.load(KEY)  # must not raise
        if cut < len(data):
            assert loaded is None


_RESULT_MEMO = {}


def _CACHED_RESULT():
    if "r" not in _RESULT_MEMO:
        _RESULT_MEMO["r"] = simulated_result()
    return _RESULT_MEMO["r"]


class TestTraceStoreQuarantine:
    def _stored(self, tmp_path):
        from repro.sw.tracegen import generate_packed_trace
        from repro.workloads.registry import build_workload
        program = build_workload("sobel", "small")
        trace = generate_packed_trace(program, 1)
        store = TraceStore(str(tmp_path / ".tracecache"))
        store.store("sobel", "small", 1, program.name, trace)
        return store

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = self._stored(tmp_path)
        path = store.path_for("sobel", "small", 1)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
        assert store.load("sobel", "small", 1) is None
        assert store.corrupt_quarantined == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert len(store) == 0

    def test_injected_corruption_on_store(self, tmp_path):
        faults.arm(faults.FaultPlan({"cache_corrupt": 1.0}, seed=0))
        store = self._stored(tmp_path)
        faults.arm(None)
        assert store.load("sobel", "small", 1) is None
        assert store.corrupt_quarantined == 1

    def test_corrupt_quarantined_surfaced_in_trace_info(self, tmp_path):
        from repro.core.simulator import (
            clear_trace_cache,
            configure_trace_store,
            run_simulation,
            trace_cache_info,
        )
        from repro.core.system import make_system
        trace_dir = str(tmp_path / ".tracecache")
        try:
            clear_trace_cache()
            store = configure_trace_store(trace_dir)
            run_simulation(make_system("1P1L", 1.0), workload="sobel",
                           size="small")
            path = store.path_for("sobel", "small", 1)
            with open(path, "r+b") as handle:
                handle.truncate(4)
            clear_trace_cache()
            run_simulation(make_system("1P1L", 1.0), workload="sobel",
                           size="small")
            info = trace_cache_info()
            assert info["corrupt_quarantined"] == 1
            assert info["generated"] == 1
        finally:
            configure_trace_store(None)
            clear_trace_cache()

    def test_missing_entry_is_not_corruption(self, tmp_path):
        store = TraceStore(str(tmp_path / ".tracecache"))
        assert store.load("sobel", "small", 1) is None
        assert store.corrupt_quarantined == 0


class TestFileLocking:
    def test_lock_excludes_and_releases(self, tmp_path):
        path = str(tmp_path / ".lock")
        with file_lock(path):
            with pytest.raises(LockTimeout):
                with file_lock(path, timeout=0.1, poll=0.02):
                    pass
        # Released: a fresh acquisition succeeds immediately.
        with file_lock(path, timeout=0.1):
            pass

    def test_run_cache_skips_write_when_lock_held(self, tmp_path):
        cache_dir = str(tmp_path / ".runcache")
        os.makedirs(cache_dir)
        cache = RunCache(cache_dir, lock_timeout=0.1)
        with file_lock(lock_path_for(cache_dir)):
            cache.store(KEY, _CACHED_RESULT())
        assert cache.lock_timeouts == 1
        assert cache.load(KEY) is None  # write was skipped, no tear

    def test_trace_store_skips_write_when_lock_held(self, tmp_path):
        from repro.sw.tracegen import generate_packed_trace
        from repro.workloads.registry import build_workload
        root = str(tmp_path / ".tracecache")
        os.makedirs(root)
        program = build_workload("sobel", "small")
        trace = generate_packed_trace(program, 1)
        store = TraceStore(root, lock_timeout=0.1)
        with file_lock(lock_path_for(root)):
            store.store("sobel", "small", 1, program.name, trace)
        assert store.lock_timeouts == 1
        assert store.load("sobel", "small", 1) is None

    def test_concurrent_stores_serialize(self, tmp_path):
        # Same-directory stores from two cache objects interleave
        # safely: both entries land intact.
        cache_dir = str(tmp_path / ".runcache")
        a, b = RunCache(cache_dir), RunCache(cache_dir)
        result = _CACHED_RESULT()
        a.store(KEY, result)
        b.store(KEY, result)
        assert a.load(KEY) is not None


def _run_cache(root):
    cache = RunCache(root)
    return (cache, lambda: cache.store(KEY, _CACHED_RESULT()),
            lambda: cache.load(KEY))


def _trace_store(root):
    from repro.sw.tracegen import generate_packed_trace
    from repro.workloads.registry import build_workload
    program = build_workload("sobel", "small")
    trace = generate_packed_trace(program, 1)
    store = TraceStore(root)
    return (store,
            lambda: store.store("sobel", "small", 1, program.name, trace),
            lambda: store.load("sobel", "small", 1))


def _disk_full():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _dump_onto_full_disk(payload, handle, **kwargs):
    handle.write(b"partial")
    raise _disk_full()


def _trace_onto_full_disk(trace, path, **kwargs):
    with open(path, "wb") as handle:
        handle.write(b"partial")
    raise _disk_full()


class TestUnwritableStore:
    """A write the disk refuses is skipped like a held lock: ``store``
    returns, ``load`` misses and no temp file is left behind."""

    @pytest.mark.parametrize("make", [_run_cache, _trace_store],
                             ids=["run_cache", "trace_store"])
    def test_root_that_cannot_be_created(self, tmp_path, make):
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        _, store, load = make(str(blocker / "store"))
        store()
        assert load() is None
        assert os.listdir(tmp_path) == ["file"]

    @pytest.mark.parametrize("make, owner, writer, full", [
        (_run_cache, "pickle", "dump", _dump_onto_full_disk),
        (_trace_store, "repro.sw.tracestore", "write_packed_trace",
         _trace_onto_full_disk),
    ], ids=["run_cache", "trace_store"])
    def test_full_disk(self, tmp_path, monkeypatch, make, owner, writer,
                       full):
        root = tmp_path / "store"
        target, store, load = make(str(root))
        with monkeypatch.context() as patch:
            patch.setattr(f"{owner}.{writer}", full)
            store()
        assert load() is None
        assert os.listdir(root) == [".lock"]
        assert len(target) == 0

    def test_supervised_sweep_survives_uncreatable_cache(self, tmp_path):
        from repro.experiments.supervisor import Supervisor
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        runner = ExperimentRunner(cache_dir=str(blocker / ".runcache"))
        report = Supervisor(runner).supervise([KEY])
        assert report.simulated == 1
