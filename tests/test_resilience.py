"""Resilient-serving building blocks (PR-8 acceptance).

Covers the client circuit breaker (state machine, probe reservation,
cooldown doubling, what counts as failure), the cross-worker claim
board (lease protocol, pid-aware staleness, degradation on lock
trouble), two services coalescing through a shared run cache, and the
service-level fault sites (spec round-trip, slow/corrupt/kill draws).
"""

from __future__ import annotations

import asyncio
import http.server
import json
import os
import threading

import pytest

from repro.common.errors import (
    AdmissionRejected,
    CircuitOpen,
    SimulationFailed,
)
from repro.experiments import faults
from repro.experiments.runner import (
    RUNCACHE_DIRNAME,
    ExperimentRunner,
    RunKey,
    cache_key,
)
from repro.experiments.supervisor import (
    RetryPolicy,
    RunJournal,
    Supervisor,
)
from repro.service.batching import SimulationService
from repro.service.client import (
    CircuitBreaker,
    RetryConfig,
    ServiceClient,
)
from repro.service.coalesce import ClaimBoard, shard_of


# -- circuit breaker ----------------------------------------------------------


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=1.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opened_total == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else waits on it

    def test_probe_success_closes_and_resets_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.retry_after() == 0.0

    def test_probe_failure_doubles_cooldown_up_to_cap(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0,
                                 cooldown_cap=3.0, clock=clock)
        breaker.record_failure()            # open, cooldown 1.0
        for expected in (2.0, 3.0, 3.0):    # doubled, then capped
            clock.advance(breaker.retry_after() + 0.01)
            assert breaker.allow()
            breaker.record_failure()
            assert breaker.state == "open"
            assert breaker.retry_after() == pytest.approx(
                expected, abs=0.05)

    def test_retry_after_counts_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=2.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(2.0)
        clock.advance(1.5)
        assert breaker.retry_after() == pytest.approx(0.5)


class TestClientBreakerIntegration:
    def _stub(self, handler_cls):
        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                               handler_cls)
        threading.Thread(target=stub.serve_forever,
                         daemon=True).start()
        return stub

    def test_persistent_500s_trip_the_breaker(self):
        hits = []

        class Always500(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(
                    int(self.headers.get("Content-Length", 0)))
                hits.append(1)
                body = b'{"error": "boom"}'
                self.send_response(500)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = self._stub(Always500)
        try:
            breaker = CircuitBreaker(threshold=2, cooldown=30.0)
            client = ServiceClient(
                port=stub.server_address[1], breaker=breaker,
                retry=RetryConfig(max_retries=0))
            # 500 is terminal for the request but feeds the breaker.
            for _ in range(2):
                with pytest.raises(SimulationFailed):
                    client.request("POST", "/simulate", {"d": 1})
            assert breaker.state == "open"
            # Open breaker: fails fast locally, no socket traffic.
            before = len(hits)
            with pytest.raises(CircuitOpen):
                client.request("POST", "/simulate", {"d": 1})
            assert len(hits) == before
            client.close()
        finally:
            stub.shutdown()

    def test_429_counts_as_success_for_the_breaker(self):
        class Always429(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(
                    int(self.headers.get("Content-Length", 0)))
                body = b'{"error": "busy", "retry_after": 0.01}'
                self.send_response(429)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = self._stub(Always429)
        try:
            breaker = CircuitBreaker(threshold=2, cooldown=30.0)
            client = ServiceClient(
                port=stub.server_address[1], breaker=breaker,
                retry=RetryConfig(max_retries=3, backoff_base=0.01))
            with pytest.raises(AdmissionRejected):
                client.request("POST", "/simulate", {"d": 1})
            # Rejections mean the service is alive: still closed.
            assert breaker.state == "closed"
            client.close()
        finally:
            stub.shutdown()


# -- the claim board ----------------------------------------------------------


def _key(design: str = "1P2L") -> RunKey:
    return RunKey(design, "sobel", "small", 1.0, False, "default", 0)


class TestClaimBoard:
    def test_shard_of_is_stable_and_bounded(self):
        ck = cache_key(_key())
        assert shard_of(ck) == shard_of(ck)
        assert 0 <= shard_of(ck, 16) < 16
        assert shard_of(ck, 1) == 0

    def test_claim_grant_deny_release(self, tmp_path):
        root = str(tmp_path)
        a = ClaimBoard(root, owner="a")
        b = ClaimBoard(root, owner="b")
        ck = cache_key(_key())
        assert a.claim(ck)
        assert not b.claim(ck)
        assert b.claimed_elsewhere(ck)
        a.release(ck)
        assert not b.claimed_elsewhere(ck)
        assert b.claim(ck)
        assert a.granted == 1 and b.granted == 1 and b.denied == 1

    def test_stale_claim_is_taken_over(self, tmp_path):
        root = str(tmp_path)
        clock = FakeClock(1000.0)
        a = ClaimBoard(root, ttl=5.0, owner="a", clock=clock)
        b = ClaimBoard(root, ttl=5.0, owner="b", clock=clock)
        ck = cache_key(_key())
        assert a.claim(ck)
        # Backdate the claim file past the TTL (same pid is alive, so
        # only the TTL can expire it).
        path = a._claim_path(ck)
        os.utime(path, (clock.now - 10.0, clock.now - 10.0))
        assert not b.claimed_elsewhere(ck)
        assert b.claim(ck)
        assert b.takeovers == 1

    def test_dead_owner_pid_expires_the_lease_immediately(self,
                                                          tmp_path):
        root = str(tmp_path)
        board = ClaimBoard(root, ttl=3600.0, owner="me")
        ck = cache_key(_key())
        assert board.claim(ck)
        # Rewrite the fresh claim as owned by a pid that cannot exist.
        path = board._claim_path(ck)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"owner": "dead", "pid": 2 ** 22 + 1,
                       "t": 0}, handle)
        assert not board.claimed_elsewhere(ck)
        other = ClaimBoard(root, ttl=3600.0, owner="taker")
        assert other.claim(ck)
        assert other.takeovers == 1

    def test_refresh_extends_the_lease(self, tmp_path):
        root = str(tmp_path)
        clock = FakeClock(1000.0)
        a = ClaimBoard(root, ttl=5.0, owner="a", clock=clock)
        ck = cache_key(_key())
        assert a.claim(ck)
        path = a._claim_path(ck)
        os.utime(path, (clock.now - 4.0, clock.now - 4.0))
        a.refresh(ck)  # touches mtime to the real now
        clock.now = os.path.getmtime(path) + 1.0
        assert a.claimed_elsewhere(ck)

    def test_unwritable_root_degrades_to_local_simulation(self):
        board = ClaimBoard("/proc/definitely/not/writable")
        assert board.claim(cache_key(_key()))
        assert board.granted == 0  # degraded, not granted

    def test_release_is_idempotent(self, tmp_path):
        board = ClaimBoard(str(tmp_path))
        ck = cache_key(_key())
        board.release(ck)  # nothing to release: no error
        assert board.claim(ck)
        board.release(ck)
        board.release(ck)


# -- cross-service coalescing over a shared cache -----------------------------


def _service(tmp_path, name: str) -> SimulationService:
    cache_dir = os.path.join(str(tmp_path), RUNCACHE_DIRNAME)
    runner = ExperimentRunner(verbose=False, jobs=1,
                              cache_dir=cache_dir)
    supervisor = Supervisor(
        runner,
        journal=RunJournal.for_suite(str(tmp_path), f"svc-{name}"),
        policy=RetryPolicy(max_retries=1),
        handle_signals=False)
    board = ClaimBoard(cache_dir, owner=name)
    return SimulationService(runner, supervisor, claim_board=board,
                             cross_poll=0.02)


class TestCrossServiceCoalescing:
    def test_identical_request_simulates_once_across_services(
            self, tmp_path):
        """Two services sharing one run cache (stand-ins for two
        pre-fork workers): the same config submitted to both must
        simulate exactly once — the loser waits on the winner's claim
        and serves the winner's cached result."""
        async def main():
            a = _service(tmp_path, "a")
            b = _service(tmp_path, "b")
            await a.start()
            await b.start()
            try:
                key = _key()
                result_a, result_b = await asyncio.gather(
                    a.submit(key), b.submit(key))
            finally:
                await a.drain()
                await b.drain()
            return a, b, result_a, result_b

        a, b, (res_a, src_a), (res_b, src_b) = asyncio.run(main())
        assert res_a.cycles == res_b.cycles
        simulated = a.metrics.simulated.total() \
            + b.metrics.simulated.total()
        assert simulated == 1
        sources = sorted([src_a, src_b])
        assert sources == ["coalesced", "simulated"]
        cross = a.metrics.cross_coalesced.total() \
            + b.metrics.cross_coalesced.total()
        assert cross == 1
        # The winner released its claim after storing the result.
        ck = cache_key(_key())
        assert not a._claims.claimed_elsewhere(ck)

    def test_claim_released_even_when_simulation_fails(
            self, tmp_path, monkeypatch):
        """A failed batch must still drop its claims, or siblings
        would wait out the whole TTL on a result that never comes."""
        async def main():
            service = _service(tmp_path, "solo")

            def broken(keys, strict=True):
                raise RuntimeError("pool exploded")

            monkeypatch.setattr(service._supervisor, "supervise",
                                broken)
            await service.start()
            key = _key()
            try:
                with pytest.raises(SimulationFailed):
                    await service.submit(key)
            finally:
                await service.drain()
            return service

        service = asyncio.run(main())
        assert not service._claims.claimed_elsewhere(cache_key(_key()))


# -- service fault sites ------------------------------------------------------


class TestServiceFaultSites:
    def setup_method(self):
        faults.disarm()

    def teardown_method(self):
        faults.disarm()

    def test_spec_round_trip_with_service_sites(self):
        plan = faults.parse_spec(
            "serve_worker_kill:0.05,serve_cache_corrupt:0.3,"
            "serve_slow_request:0.1,slow_seconds:0.4,seed:11")
        assert plan.rate("serve_worker_kill") == 0.05
        assert plan.slow_seconds == 0.4
        again = faults.parse_spec(plan.spec())
        assert again == plan

    def test_slow_request_returns_the_configured_delay(self):
        plan = faults.FaultPlan(rates={"serve_slow_request": 1.0},
                                slow_seconds=0.25)
        assert faults.maybe_slow_request("w0:1", plan) == 0.25
        cold = faults.FaultPlan(rates={})
        assert faults.maybe_slow_request("w0:1", cold) == 0.0

    def test_corrupt_served_entry_truncates_existing_file(self,
                                                          tmp_path):
        path = str(tmp_path / "entry.pkl")
        with open(path, "wb") as handle:
            handle.write(b"x" * 100)
        plan = faults.FaultPlan(rates={"serve_cache_corrupt": 1.0})
        assert faults.maybe_corrupt_served_entry(path, "w0:1", plan)
        assert os.path.getsize(path) == 50
        # A missing entry cannot be corrupted: reports not-fired.
        assert not faults.maybe_corrupt_served_entry(
            str(tmp_path / "absent.pkl"), "w0:2", plan)

    def test_kill_draw_is_deterministic_per_token(self):
        plan = faults.FaultPlan(rates={"serve_worker_kill": 0.5},
                                seed=11)
        draws = [plan.should_fire("serve_worker_kill", f"w0:{i}")
                 for i in range(64)]
        again = [plan.should_fire("serve_worker_kill", f"w0:{i}")
                 for i in range(64)]
        assert draws == again
        assert any(draws) and not all(draws)
        other = [plan.should_fire("serve_worker_kill", f"w1:{i}")
                 for i in range(64)]
        assert draws != other
