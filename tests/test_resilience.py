"""Resilient-serving building blocks (PR-8 acceptance).

Covers the client circuit breaker (state machine, probe reservation,
cooldown doubling, what counts as failure), services sharing one run
cache (in-process coalescing only; one entry, no temp file; a sibling
reads a stored point; a failed batch leaves the key to a sibling), and
the service-level fault sites (spec round-trip, slow/corrupt/kill
draws, no cost when unarmed).
"""

from __future__ import annotations

import asyncio
import http.server
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
    RunCache,
    RunKey,
)
from repro.experiments.supervisor import (
    RetryPolicy,
    RunJournal,
    Supervisor,
)
from repro.service.batching import SimulationService
from repro.service.client import (
    AsyncServiceClient,
    CircuitBreaker,
    RetryConfig,
    ServiceClient,
)
from repro.service.server import ServiceServer


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


# -- two services over one shared run cache ----------------------------------


def _key(design: str = "1P2L") -> RunKey:
    return RunKey(design, "sobel", "small", 1.0, False, "default", 0)


def _service(tmp_path, name: str) -> SimulationService:
    cache_dir = os.path.join(str(tmp_path), RUNCACHE_DIRNAME)
    runner = ExperimentRunner(verbose=False, jobs=1,
                              cache_dir=cache_dir)
    supervisor = Supervisor(
        runner,
        journal=RunJournal.for_suite(str(tmp_path), f"svc-{name}"),
        policy=RetryPolicy(max_retries=1),
        handle_signals=False)
    return SimulationService(runner, supervisor)


def _with_services(tmp_path, scenario, names=("a", "b")):
    """Run ``scenario(*services)`` over started services that share
    one run cache; drain them afterwards and return its result."""
    async def main():
        services = [_service(tmp_path, name) for name in names]
        for service in services:
            await service.start()
        try:
            return await scenario(*services)
        finally:
            for service in services:
                await service.drain()
    return asyncio.run(main())


def _cache_names(tmp_path) -> list:
    cache_dir = os.path.join(str(tmp_path), RUNCACHE_DIRNAME)
    return sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) \
        else []


class TestSharedRunCache:
    def test_same_key_on_two_services_keeps_one_cache_entry(
            self, tmp_path):
        """Two services sharing one run cache (stand-ins for two
        pre-fork workers) coalesce only in-process: the same new
        config submitted to both goes through each one's dispatch,
        with identical numbers, and the cache's atomic writes leave
        one entry and no temp file.  Later requests hit the cache."""
        key = _key()

        async def scenario(a, b):
            first = await asyncio.gather(a.submit(key), b.submit(key))
            again = [await a.submit(key), await b.submit(key)]
            return first, again

        ((res_a, src_a), (res_b, src_b)), again = \
            _with_services(tmp_path, scenario)
        assert (src_a, src_b) == ("simulated", "simulated")
        assert res_a.cycles == res_b.cycles
        assert res_a.stats.flat() == res_b.stats.flat()
        names = _cache_names(tmp_path)
        assert len([n for n in names if n.endswith(".pkl")]) == 1
        assert not [n for n in names if ".tmp." in n]
        assert [source for _, source in again] == ["cache", "cache"]

    def test_one_service_coalesces_the_same_key_in_process(
            self, tmp_path):
        """Within one worker, a request identical to one in flight
        attaches to it: one simulation answers both."""
        key = _key()

        async def scenario(a):
            answers = await asyncio.gather(a.submit(key), a.submit(key))
            return answers, a.metrics

        ((first, src_first), (second, src_second)), metrics = \
            _with_services(tmp_path, scenario, names=("a",))
        assert (src_first, src_second) == ("simulated", "coalesced")
        assert first.stats.flat() == second.stats.flat()
        assert metrics.simulated.total() == 1
        assert metrics.coalesced.total() == 1

    def test_sibling_serves_a_stored_point_from_disk(self, tmp_path):
        """Once one worker has stored a point, a sibling's first
        request for it reads the shared entry instead of simulating."""
        key = _key()

        async def scenario(a, b):
            return await a.submit(key), await b.submit(key), a, b

        (res_a, src_a), (res_b, src_b), a, b = \
            _with_services(tmp_path, scenario)
        assert (src_a, src_b) == ("simulated", "cache")
        assert res_b.stats.flat() == res_a.stats.flat()
        assert b.metrics.cache_hits.value(tier="disk") == 1
        assert a.metrics.simulated.total() \
            + b.metrics.simulated.total() == 1

    def test_failed_batch_leaves_the_key_to_a_sibling(self, tmp_path):
        """A batch that fails on one worker stores nothing and drops
        its in-flight entry: the cache holds no entry or temp file, a
        sibling then simulates the key, and the failed worker's next
        request for it reads the sibling's entry."""
        key = _key()

        def broken(keys, strict=True):
            raise RuntimeError("pool exploded")

        async def scenario(a, b):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(a._supervisor, "supervise", broken)
                with pytest.raises(SimulationFailed,
                                   match="pool exploded"):
                    await a.submit(key)
            left = (a.metrics.registry.render(), _cache_names(tmp_path))
            return left, await b.submit(key), await a.submit(key)

        (text, names), (_, src_b), (_, src_a) = \
            _with_services(tmp_path, scenario)
        assert "repro_inflight 0" in text
        assert not [n for n in names if n.endswith(".pkl")
                    or ".tmp." in n]
        assert (src_b, src_a) == ("simulated", "cache")


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

    @staticmethod
    def _serve_miss_then(tmp_path, monkeypatch, hits):
        """Serve one miss, then ``await hits(client)`` with a
        ``RunCache.path_for`` spy installed.  Returns the server, every
        answer's source, and the keys the spy saw."""
        paths = []
        real_path_for = RunCache.path_for

        def spy(cache, key, name=None):
            paths.append(key)
            return real_path_for(cache, key, name)

        async def main():
            server = ServiceServer(_service(tmp_path, "solo"), port=0)
            await server.start()
            client = AsyncServiceClient(
                port=server.port, retry=RetryConfig(max_retries=0))
            try:
                miss = await client.simulate("1P2L", "sobel")
                monkeypatch.setattr(RunCache, "path_for", spy)
                answers = [miss] + await hits(client)
            finally:
                await server.shutdown()
            return server, [answer["source"] for answer in answers]

        server, sources = asyncio.run(main())
        return server, sources, paths

    @staticmethod
    async def _one_hit(client):
        return [await client.simulate("1P2L", "sobel")]

    def test_unarmed_sites_cost_a_served_hit_no_cache_key(
            self, tmp_path, monkeypatch):
        """With no plan armed, a served cache hit never reaches the
        corrupt site's ``RunCache.path_for`` (a full ``cache_key``
        hash per request), while the request serial still counts every
        request, so a token names the same request whether or not a
        plan was armed before it."""
        faults.arm(None)
        server, sources, paths = self._serve_miss_then(
            tmp_path, monkeypatch, self._one_hit)
        assert sources == ["simulated", "cache"]
        assert paths == []
        assert server._serial == 2

    def test_unarmed_sites_cost_batch_items_no_cache_key(
            self, tmp_path, monkeypatch):
        """The same holds per ``/batch`` item, and each item still
        takes one serial."""
        faults.arm(None)

        async def batch(client):
            return await client.simulate_batch(
                [{"design": "1P2L", "workload": "sobel"}] * 2)

        server, sources, paths = self._serve_miss_then(
            tmp_path, monkeypatch, batch)
        assert sources == ["simulated", "cache", "cache"]
        assert paths == []
        assert server._serial == 3

    def test_armed_plan_reaches_the_corrupt_site(self, tmp_path,
                                                 monkeypatch):
        """Any armed plan, even one whose sites never fire, runs every
        service site: the corrupt site resolves the served entry's
        path once per request."""
        faults.arm(faults.FaultPlan(rates={}))
        server, sources, paths = self._serve_miss_then(
            tmp_path, monkeypatch, self._one_hit)
        assert sources == ["simulated", "cache"]
        assert paths == [_key()]
        assert server._serial == 2

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
