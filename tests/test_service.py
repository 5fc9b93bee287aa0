"""The simulation service (PR-5 acceptance).

Covers the protocol (validation both stages, payload round-trips), the
metric primitives (Prometheus rendering, labeled counters, power-of-two
histograms), and the live server end to end: coalescing under a
concurrent load of 50+ requests with >30% duplicates, natural batching
(an idle service dispatches at once; requests queued behind a running
batch form the next), admission-control backpressure (429 with
``Retry-After``), drain behaviour (503, journal
flush, SIGTERM exit 0 in a real subprocess), client retry/backoff, and
bit-identity between a served result and a direct
:class:`ExperimentRunner` run.
"""

from __future__ import annotations

import asyncio
import http.server
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.common.errors import (
    AdmissionRejected,
    ServiceDraining,
    SimulationFailed,
    ValidationFailed,
)
from repro.experiments.runner import (
    RUNCACHE_DIRNAME,
    ExperimentRunner,
    RunKey,
)
from repro.experiments.supervisor import (
    RetryPolicy,
    RunJournal,
    Supervisor,
)
from repro.service.batching import ServiceMetrics, SimulationService
from repro.service.client import (
    AsyncServiceClient,
    RetryConfig,
    ServiceClient,
)
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import parse_request, request_payload
from repro.service.server import ServiceServer


# -- protocol -----------------------------------------------------------------


class TestParseRequest:
    def test_minimal_request(self):
        req = parse_request({"design": "1P2L", "workload": "sobel"})
        assert req.key == RunKey("1P2L", "sobel", "small", 1.0, False,
                                 "default", 0)
        assert not req.want_stats

    def test_full_request(self):
        req = parse_request({
            "design": "2P2L", "workload": "sobel", "size": "large",
            "llc_mb": 2, "resident": False, "memory": "fast",
            "sample_every": 5, "overrides": {"cpu.mlp_window": 8},
            "stats": True})
        assert req.key.llc_mb == 2.0
        assert req.key.memory == "fast"
        assert req.key.overrides == (("cpu.mlp_window", 8),)
        assert req.want_stats

    def test_overrides_are_order_insensitive(self):
        a = parse_request({"design": "1P2L", "workload": "sobel",
                           "overrides": {"cpu.mlp_window": 8,
                                         "memory.sub_buffers": 2}})
        b = parse_request({"design": "1P2L", "workload": "sobel",
                           "overrides": {"memory.sub_buffers": 2,
                                         "cpu.mlp_window": 8}})
        assert a.key == b.key

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ({}, "unknown design"),
        ({"design": "1P2L"}, "unknown workload"),
        ({"design": "nope", "workload": "sobel"}, "unknown design"),
        ({"design": "1P2L", "workload": "sobel", "size": "huge"},
         "size must be"),
        ({"design": "1P2L", "workload": "sobel", "llc_mb": 3.3},
         "llc_mb must be one of"),
        ({"design": "1P2L", "workload": "sobel", "llc_mb": "big"},
         "llc_mb must be a number"),
        ({"design": "1P2L", "workload": "sobel", "memory": "slow"},
         "memory must be"),
        ({"design": "1P2L", "workload": "sobel", "sample_every": -1},
         "sample_every"),
        ({"design": "1P2L", "workload": "sobel", "resident": "yes"},
         "must be a boolean"),
        ({"design": "1P2L", "workload": "sobel", "extra": 1},
         "unknown request field"),
        ({"design": "1P2L", "workload": "sobel", "shards": 2},
         "unknown request field"),
        ({"design": "1P2L", "workload": "sobel",
          "overrides": ["cpu.mlp_window"]}, "overrides must be"),
        # The retired shards field fails for every value it once took,
        # its old default of 1 included.
        ({"design": "1P2L", "workload": "sobel", "shards": 1},
         "unknown request field"),
        ({"design": "1P2L", "workload": "sobel", "shards": 64},
         "unknown request field"),
    ])
    def test_schema_violations(self, payload, fragment):
        with pytest.raises(ValidationFailed, match=re.escape(fragment)):
            parse_request(payload)

    def test_stage_two_rejects_bad_override_path(self):
        with pytest.raises(ValidationFailed):
            parse_request({"design": "1P2L", "workload": "sobel",
                           "overrides": {"cpu.no_such_field": 1}})

    def test_stage_two_rejects_invalid_override_value(self):
        # The path exists; the value violates a dataclass invariant.
        with pytest.raises(ValidationFailed):
            parse_request({"design": "1P2L", "workload": "sobel",
                           "overrides": {"cpu.mlp_window": -3}})

    def test_stage_two_rejects_equal_write_queue_watermarks(self):
        # The default high watermark is 32: a low watermark equal to
        # it describes no drain episode, so the request is a 400.
        with pytest.raises(ValidationFailed, match="0 < low < high"):
            parse_request({"design": "1P2L", "workload": "sobel",
                           "overrides": {"memory.write_queue_low": 32}})

    def test_too_many_overrides(self):
        overrides = {f"cpu.f{i}": i for i in range(17)}
        with pytest.raises(ValidationFailed, match="at most 16"):
            parse_request({"design": "1P2L", "workload": "sobel",
                           "overrides": overrides})

    def test_resident_skips_llc_size_check(self):
        req = parse_request({"design": "1P2L", "workload": "sobel",
                             "resident": True, "llc_mb": 99.0})
        assert req.key.resident

    def test_request_payload_round_trips(self):
        req = parse_request({"design": "1P2L", "workload": "sobel",
                             "overrides": {"cpu.mlp_window": 8}})
        again = parse_request(request_payload(req.key))
        assert again.key == req.key


    @pytest.mark.parametrize("key", [
        RunKey("1P1L", "sobel", "small", 1.0, False, "default", 0),
        RunKey("2P2L", "sgemm", "large", 2.0, False, "default", 0),
        RunKey("1P2L", "htap1", "small", 1.0, True, "default", 0),
        RunKey("1P2L", "sobel", "small", 1.0, False, "fast", 0),
        RunKey("1P2L", "sobel", "small", 1.0, False, "default", 64),
        RunKey("1P2L", "sobel", "small", 1.0, False, "default", 0,
               (("cpu.mlp_window", 4), ("memory.activate_cycles", 90))),
    ], ids=["minimal", "large-llc2", "resident", "fast-memory",
            "sampled", "overrides"])
    def test_request_payload_round_trips_every_key_shape(self, key):
        request = parse_request(request_payload(key))
        assert request.key == key
        assert request.want_stats is False

    def test_request_payload_carries_stats_flag(self):
        key = RunKey("1P2L", "sobel", "small", 1.0, False, "default", 0)
        assert parse_request(request_payload(key, want_stats=True)) \
            .want_stats is True


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits_total", "hits by tier")
        counter.inc(tier="memo")
        counter.inc(2, tier="disk")
        assert counter.value(tier="memo") == 1
        assert counter.total() == 3
        text = reg.render()
        assert 'repro_hits_total{tier="disk"} 2' in text
        assert "# TYPE repro_hits_total counter" in text

    def test_unlabeled_counter_renders_zero(self):
        reg = MetricsRegistry()
        reg.counter("empty_total", "never incremented")
        assert "repro_empty_total 0" in reg.render()

    def test_gauge_callback(self):
        reg = MetricsRegistry()
        box = {"v": 3}
        reg.gauge("depth", "queue depth", fn=lambda: box["v"])
        assert "repro_depth 3" in reg.render()
        box["v"] = 7
        assert "repro_depth 7" in reg.render()

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", "latency", max_buckets=8)
        for value in (1, 1, 3, 200):
            hist.observe(value)
        text = reg.render()
        # 1 -> bucket 1 (le=1), 3 -> bucket 2 (le=3), 200 overflows
        # into the last bucket; cumulative counts must be monotone.
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="3"} 3' in text
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert "repro_lat_count 4" in text
        assert "repro_lat_sum 205" in text

    def test_histogram_bucket_merge(self):
        reg = MetricsRegistry()
        hist = reg.histogram("cyc", "cycles", max_buckets=8)
        hist.observe_bucket_counts({2: 5, 50: 1})  # 50 clamps to last
        assert hist.count == 6
        assert 'le="+Inf"} 6' in reg.render()

    def test_scaled_boundaries(self):
        reg = MetricsRegistry()
        hist = reg.histogram("wait_seconds", "wait", scale=1e-6,
                             max_buckets=4)
        hist.observe(1000)  # 1000 us
        text = reg.render()
        # le boundaries are (2**i - 1) microseconds in seconds.
        assert 'le="1e-06"' in text
        assert 'le="+Inf"} 1' in text

    def test_hit_ratio_counts_cache_hits_and_coalesced_answers(self):
        metrics = ServiceMetrics()
        assert "repro_cache_hit_ratio 0" in metrics.registry.render()
        metrics.cache_hits.inc(tier="memo")
        metrics.cache_hits.inc(tier="disk")
        metrics.coalesced.inc()
        metrics.simulated.inc()
        # Three of the four answers skipped a simulation.
        assert "repro_cache_hit_ratio 0.75" in metrics.registry.render()


# -- live server harness ------------------------------------------------------


class _HeldSupervisor(Supervisor):
    """A supervisor whose batches wait until the test sets
    :attr:`release`: the dispatcher stays busy with the first batch,
    so the requests that follow stay queued until the test lets go."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def supervise(self, keys, strict=True):
        # Bounded, so a failing scenario cannot wedge the drain.
        self.release.wait(timeout=60)
        return super().supervise(keys, strict=strict)


async def _until(predicate, timeout: float = 30.0) -> None:
    """Yield to the event loop until ``predicate()`` holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _make_service(tmp_path, supervisor_cls=Supervisor, **kwargs):
    runner = ExperimentRunner(
        verbose=False, jobs=1,
        cache_dir=os.path.join(str(tmp_path), RUNCACHE_DIRNAME))
    supervisor = supervisor_cls(
        runner,
        journal=RunJournal.for_suite(str(tmp_path), "service"),
        policy=RetryPolicy(max_retries=1),
        handle_signals=False)
    return SimulationService(runner, supervisor, **kwargs)


def _with_server(tmp_path, scenario, **service_kwargs):
    """Run ``scenario(server, client)`` against a live server on a
    fresh event loop; drain afterwards and return the scenario's
    result."""
    async def main():
        service = _make_service(tmp_path, **service_kwargs)
        server = ServiceServer(service, port=0)
        await server.start()
        client = AsyncServiceClient(
            port=server.port, retry=RetryConfig(max_retries=0))
        try:
            return await scenario(server, client)
        finally:
            await server.shutdown()
    return asyncio.run(main())


class TestServer:
    def test_healthz_and_unknown_routes(self, tmp_path):
        async def scenario(server, client):
            health = await client.healthz()
            assert health["status"] == "ok"
            status, _, _ = await client._once("GET", "/nope", None,
                                              False)
            assert status == 404
            status, _, _ = await client._once("GET", "/simulate", None,
                                              False)
            assert status == 405
            return True
        assert _with_server(tmp_path, scenario)

    def test_healthz_turns_503_once_draining(self, tmp_path):
        """Probes must stop routing to a worker the moment its drain
        begins, not when it finishes."""
        async def scenario(server, client):
            status, _, payload = await client._once(
                "GET", "/healthz", None, False)
            assert status == 200
            # An in-flight simulation keeps the drain from finishing
            # (and the listener from closing) while we probe.
            inflight = asyncio.create_task(server.service.submit(
                RunKey("1P2L", "sobel", "small", 1.0, False,
                       "default", 0)))
            await asyncio.sleep(0.05)
            server._begin_drain()
            status, headers, payload = await client._once(
                "GET", "/healthz", None, False)
            assert status == 503
            assert payload["status"] == "draining"
            assert "retry-after" in headers
            await inflight
            await server.serve_until_drained()
            return True
        assert _with_server(tmp_path, scenario)

    def test_load_coalesces_duplicates(self, tmp_path):
        """50+ overlapping requests, >30% duplicates: every duplicate
        must ride an in-flight simulation or the cache, never a second
        simulation of the same key."""
        designs = ("1P1L", "1P2L", "2P2L", "1P2L_SameSet")
        distinct = [{"design": d, "workload": "sobel",
                     "llc_mb": mb}
                    for d in designs for mb in (1.0, 2.0)]  # 8 points

        async def scenario(server, client):
            requests = (distinct * 7)[:56]  # 56 requests, 8 distinct
            results = await asyncio.gather(
                *(client.request("POST", "/simulate", body)
                  for body in requests))
            metrics = server.service.metrics
            return results, metrics, await client.metrics()

        results, metrics, text = _with_server(tmp_path, scenario)
        assert len(results) == 56
        by_key = {}
        for body in results:
            assert body["cycles"] > 0
            by_key.setdefault((body["design"], body["llc_mb"]),
                              set()).add(body["cycles"])
        # Identical configs agree with themselves.
        assert all(len(cycles) == 1 for cycles in by_key.values())
        # Each of the 8 distinct points simulated exactly once; the
        # other 48 coalesced or hit the cache.
        assert metrics.simulated.total() == 8
        assert metrics.coalesced.total() + metrics.cache_hits.total() \
            == 48
        assert metrics.coalesced.total() > 0
        assert re.search(r"repro_coalesced_total \d+", text)
        assert "repro_queue_depth 0" in text
        assert "repro_cache_hit_ratio 0.857" in text

    def test_queue_full_rejects_with_429(self, tmp_path):
        async def scenario(server, client):
            service = server.service
            try:
                # A held batch keeps the dispatcher busy, so the next
                # request stays in the queue long enough to observe
                # the bound deterministically.
                held = asyncio.create_task(
                    client.simulate("1P2L_SameSet", "sobel"))
                await _until(lambda: service.metrics.batches.total() == 1)
                first = asyncio.create_task(
                    client.simulate("1P2L", "sobel"))
                # first now occupies the queue
                await _until(lambda: service.queue_depth == 1)
                with pytest.raises(AdmissionRejected) as excinfo:
                    await client.simulate("1P1L", "sobel")
                assert excinfo.value.retry_after >= 1.0
                status, headers, _ = await client._once(
                    "POST", "/simulate",
                    {"design": "2P2L", "workload": "sobel"}, False)
                assert status == 429
                assert "retry-after" in headers
                rejected = service.metrics.rejected
                assert rejected.value(reason="queue_full") == 2
            finally:
                service._supervisor.release.set()
            await held
            return await first

        result = _with_server(tmp_path, scenario, max_pending=1,
                              supervisor_cls=_HeldSupervisor)
        assert result["source"] == "simulated"

    def test_requests_queued_behind_a_batch_form_the_next(self,
                                                          tmp_path):
        """Natural batching: the first request dispatches alone, and
        the N distinct requests that queue while its batch runs go
        out together as the second batch."""
        keys = [RunKey(design, "sobel", "small", llc_mb, False,
                       "default", 0)
                for design in ("1P1L", "1P2L", "2P2L")
                for llc_mb in (1.0, 2.0)]
        queued = len(keys) - 1

        async def scenario(server, client):
            service = server.service
            try:
                first = asyncio.create_task(service.submit(keys[0]))
                await _until(lambda: service.metrics.batches.total() == 1)
                rest = [asyncio.create_task(service.submit(key))
                        for key in keys[1:]]
                await _until(lambda: service.queue_depth == queued)
            finally:
                service._supervisor.release.set()
            answers = await asyncio.gather(first, *rest)
            return answers, service.metrics

        answers, metrics = _with_server(tmp_path, scenario,
                                        supervisor_cls=_HeldSupervisor)
        assert [source for _, source in answers] \
            == ["simulated"] * len(keys)
        assert metrics.batches.total() == 2
        # Two batches of sizes summing to 1 + N, one of them exactly 1
        # (bucket le="1" holds only the value 1).
        text = metrics.registry.render()
        assert "repro_batch_size_count 2" in text
        assert f"repro_batch_size_sum {1 + queued}" in text
        assert 'repro_batch_size_bucket{le="1"} 1' in text

    def test_lone_request_dispatches_without_waiting(self, tmp_path):
        """An idle service dispatches a request the moment it is
        admitted: its queue wait is one event-loop hop, under half
        the 20 ms a batching window used to add to every served
        miss."""
        async def scenario(server, client):
            await server.service.submit(
                RunKey("1P2L", "sobel", "small", 1.0, False,
                       "default", 0))
            return server.service.metrics.registry.render()

        text = _with_server(tmp_path, scenario)
        assert "repro_stage_queue_wait_seconds_count 1" in text
        wait = float(re.search(
            r"repro_stage_queue_wait_seconds_sum (\S+)", text).group(1))
        assert wait < 0.010

    def test_served_stats_bit_identical_to_direct_run(self, tmp_path):
        direct = ExperimentRunner(verbose=False, cache_dir=None) \
            .run("1P2L", "sobel", size="small", llc_mb=1.0)

        async def scenario(server, client):
            return await client.simulate("1P2L", "sobel", stats=True)

        served = _with_server(tmp_path, scenario)
        assert served["cycles"] == direct.cycles
        assert served["ops"] == direct.ops
        # The full flat counter dict survives the JSON round trip
        # bit-identically.
        assert served["stats"] == direct.stats.flat()

    def test_batch_endpoint_isolates_failures(self, tmp_path):
        async def scenario(server, client):
            return await client.simulate_batch([
                {"design": "1P2L", "workload": "sobel"},
                {"design": "bogus", "workload": "sobel"},
            ])
        good, bad = _with_server(tmp_path, scenario)
        assert good["cycles"] > 0
        assert bad["status"] == 400
        assert "unknown design" in bad["error"]

    def test_bad_tier_override_round_trips_as_400(self, tmp_path):
        """A malformed tier override is a client error, not a crash:
        the unknown-field and invalid-pair cases both come back 400
        while a valid tier point in the same batch still serves."""
        async def scenario(server, client):
            return await client.simulate_batch([
                {"design": "1P2L", "workload": "sobel",
                 "overrides": {"tier.mode": "flat",
                               "tier.size_bytes": 1 << 20}},
                {"design": "1P2L", "workload": "sobel",
                 "overrides": {"tier.bogus": 1}},
                {"design": "1P2L", "workload": "sobel",
                 "overrides": {"tier.mode": "cache"}},
            ])
        good, unknown, invalid = _with_server(tmp_path, scenario)
        assert good["cycles"] > 0
        assert unknown["status"] == 400
        assert "unknown field" in unknown["error"]
        assert invalid["status"] == 400
        assert "size_bytes" in invalid["error"]

    def test_served_tier_run_bit_identical_to_direct(self, tmp_path):
        overrides = {"tier.mode": "hybrid",
                     "tier.size_bytes": 2 << 20,
                     "tier.cache_fraction": 0.5}
        key = RunKey("1P2L", "sobel", "small", 1.0, False, "default",
                     0, tuple(sorted(overrides.items())))
        from repro.experiments.runner import simulate_run_key
        reference = simulate_run_key(key)

        async def scenario(server, client):
            return await client.simulate("1P2L", "sobel", stats=True,
                                         overrides=overrides)

        served = _with_server(tmp_path, scenario)
        assert served["cycles"] == reference.cycles
        assert served["stats"] == reference.stats.flat()
        assert served["stats"].get("tier.fetches", 0) > 0

    def test_drain_rejects_new_work_and_journals(self, tmp_path):
        async def scenario(server, client):
            await client.simulate("1P2L", "sobel")
            server._begin_drain()
            await server.serve_until_drained()
            assert server.service.draining
            with pytest.raises(ServiceDraining):
                await server.service.submit(
                    RunKey("1P1L", "sobel", "small", 1.0, False,
                           "default", 0))
            return True

        assert _with_server(tmp_path, scenario)
        journal = RunJournal.for_suite(str(tmp_path), "service")
        assert journal.exists()
        events = [json.loads(line)
                  for line in open(journal.path, encoding="utf-8")]
        assert any(e.get("event") == "service_drained" for e in events)

    def test_simulation_failure_maps_to_500(self, tmp_path, monkeypatch):
        async def scenario(server, client):
            def broken(keys, strict=True):
                raise RuntimeError("pool exploded")
            monkeypatch.setattr(server.service._supervisor,
                                "supervise", broken)
            with pytest.raises(SimulationFailed, match="pool exploded"):
                await client.simulate("1P2L", "sobel")
            assert server.service.metrics.sim_failed.total() == 1
            return True
        assert _with_server(tmp_path, scenario)


class TestSyncClient:
    def test_sync_client_against_live_server(self, tmp_path):
        """The blocking client exercises the keep-alive path from a
        plain thread while the server loop runs in another."""
        results = {}

        async def scenario(server, client):
            def worker():
                with ServiceClient(port=server.port) as sync:
                    results["health"] = sync.healthz()
                    results["run"] = sync.simulate("1P2L", "sobel")
                    results["again"] = sync.simulate("1P2L", "sobel")
                    results["metrics"] = sync.metrics()
            await asyncio.to_thread(worker)
            return True

        assert _with_server(tmp_path, scenario)
        assert results["health"]["status"] == "ok"
        assert results["run"]["source"] == "simulated"
        assert results["again"]["source"] == "cache"
        assert results["again"]["cycles"] == results["run"]["cycles"]
        assert "repro_requests_total" in results["metrics"]

    def test_sync_client_validation_error(self, tmp_path):
        async def scenario(server, client):
            def worker():
                with ServiceClient(port=server.port) as sync:
                    with pytest.raises(ValidationFailed):
                        sync.simulate("bogus", "sobel")
            await asyncio.to_thread(worker)
            return True
        assert _with_server(tmp_path, scenario)


class TestRetry:
    def test_retry_config_delays(self):
        retry = RetryConfig(backoff_base=0.1, backoff_factor=2.0,
                            backoff_cap=1.0, jitter=False)
        assert retry.delay(0) == pytest.approx(0.1)
        assert retry.delay(1) == pytest.approx(0.2)
        assert retry.delay(10) == 1.0  # capped
        # Retry-After wins over the computed backoff (capped too).
        assert retry.delay(0, retry_after=0.5) == 0.5
        assert retry.delay(0, retry_after=99.0) == 1.0

    def test_retry_config_full_jitter(self):
        """Computed delays draw uniformly from [0, ceiling); the
        server's Retry-After estimate is never jittered."""
        retry = RetryConfig(backoff_base=0.1, backoff_factor=2.0,
                            backoff_cap=1.0)
        assert retry.delay(1, rng=lambda: 0.0) == 0.0
        assert retry.delay(1, rng=lambda: 0.5) \
            == pytest.approx(0.1)  # half of the 0.2 ceiling
        assert retry.delay(10, rng=lambda: 0.25) \
            == pytest.approx(0.25)  # capped ceiling, then jittered
        # Retry-After bypasses the jitter entirely.
        assert retry.delay(1, retry_after=0.5,
                           rng=lambda: 0.0) == 0.5
        # Real draws stay strictly inside the window.
        for attempt in range(6):
            ceiling = min(0.1 * 2.0 ** attempt, 1.0)
            for _ in range(50):
                assert 0.0 <= retry.delay(attempt) < ceiling + 1e-12

    def test_client_honors_retry_after_from_stub(self):
        """A 429 with a short Retry-After must be retried after that
        delay, not the (much larger) configured backoff."""
        hits = []

        class Stub(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(
                    int(self.headers.get("Content-Length", 0)))
                hits.append(time.monotonic())
                if len(hits) == 1:
                    body = b'{"error": "busy"}'
                    self.send_response(429)
                    self.send_header("Retry-After", "0.2")
                else:
                    body = b'{"cycles": 1, "source": "cache"}'
                    self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Stub)
        threading.Thread(target=stub.serve_forever,
                         daemon=True).start()
        try:
            client = ServiceClient(
                port=stub.server_address[1],
                retry=RetryConfig(max_retries=2, backoff_base=30.0))
            started = time.monotonic()
            body = client.request("POST", "/simulate",
                                  {"design": "x", "workload": "y"})
            elapsed = time.monotonic() - started
            client.close()
        finally:
            stub.shutdown()
            stub.server_close()
        assert body["cycles"] == 1
        assert len(hits) == 2
        assert 0.15 <= elapsed < 5.0  # Retry-After, not the 30s base

    def test_retry_budget_exhausted_surfaces_last_error(self):
        class Stub(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(
                    int(self.headers.get("Content-Length", 0)))
                body = b'{"error": "always busy"}'
                self.send_response(429)
                self.send_header("Retry-After", "0.05")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Stub)
        threading.Thread(target=stub.serve_forever,
                         daemon=True).start()
        try:
            client = ServiceClient(
                port=stub.server_address[1],
                retry=RetryConfig(max_retries=2))
            with pytest.raises(AdmissionRejected, match="always busy"):
                client.request("POST", "/simulate", {})
            client.close()
        finally:
            stub.shutdown()
            stub.server_close()


class TestSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The real CLI entry point, as a subprocess: serve a request,
        SIGTERM, assert a clean drain and exit status 0."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--outdir", str(tmp_path)],
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            line = proc.stderr.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            assert match, f"no readiness line, got: {line!r}"
            client = ServiceClient(
                port=int(match.group(1)),
                retry=RetryConfig(max_retries=8, backoff_base=0.2),
                timeout=60.0)
            body = client.simulate("1P2L", "sobel")
            assert body["cycles"] > 0
            client.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert RunJournal.for_suite(str(tmp_path), "service").exists()
