#!/usr/bin/env python
"""Chaos load bench for multi-worker serving (``repro serve --workers``).

Starts the real pre-fork server as a subprocess with service fault
injection armed — workers killed mid-request, cache entries corrupted
before reads, requests slowed — and drives it with hundreds of
concurrent clients whose config popularity is zipfian (a few hot
configs, a long cold tail), which is what makes in-process coalescing
and the shared run cache matter.  Then it asserts the resilient
-serving acceptance criteria end to end:

* **zero lost requests** — every request gets a terminal response,
  through worker kills and restarts (clients retry with full-jitter
  backoff under a circuit breaker);
* **zero wrong answers** — every response's cycles *and* full flat
  stats are bit-identical to a direct single-process
  :class:`~repro.experiments.runner.ExperimentRunner` run of the same
  config;
* **the master actually restarted workers** —
  ``repro_worker_restarts_total > 0`` in ``/metrics``;
* **bounded tail latency** — p99 (including retries across restarts)
  stays under ``--p99-bound`` seconds;
* **clean drain** — SIGTERM exits 0 with no leftover processes.

Writes ``BENCH_service.json`` (p50/p99 latency, throughput, fault and
restart counts) for the CI regression gate
(``benchmarks/check_bench_regression.py``).

Usage::

    python benchmarks/service_chaos.py [--workers 3] [--requests 300]
        [--clients 200] [--faults SPEC] [--outdir DIR] [--json PATH]
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time

DESIGNS = ("1P1L", "1P2L", "2P2L", "1P2L_SameSet", "2P2L_Dense",
           "2P2L_SlowWrite")
LLC_POINTS = (1.0, 2.0)

DEFAULT_FAULTS = ("serve_worker_kill:0.03,serve_cache_corrupt:0.2,"
                  "serve_slow_request:0.05,slow_seconds:0.1,seed:11")

METRIC_RE = re.compile(r"(repro_\w+?)(?:\{[^}]*\})? ([\d.e+-]+)$")


def fail(message: str) -> None:
    print(f"service-chaos: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def zipf_bodies(requests: int, seed: int) -> list:
    """``requests`` request bodies with zipfian config popularity."""
    configs = [{"design": d, "workload": "sobel", "size": "small",
                "llc_mb": mb, "stats": True}
               for d in DESIGNS for mb in LLC_POINTS]
    weights = [1.0 / (rank + 1) ** 1.1
               for rank in range(len(configs))]
    rng = random.Random(seed)
    return rng.choices(configs, weights=weights, k=requests)


def expected_results(bodies: list) -> dict:
    """Ground truth: each distinct config run directly, single
    process, no service in the loop."""
    from repro.experiments.runner import ExperimentRunner
    runner = ExperimentRunner(verbose=False, jobs=1, cache_dir=None,
                              trace_dir=None)
    expected = {}
    for body in bodies:
        key = (body["design"], body["llc_mb"])
        if key in expected:
            continue
        result = runner.run(body["design"], body["workload"],
                            size=body["size"], llc_mb=body["llc_mb"])
        expected[key] = {"cycles": result.cycles,
                         "stats": result.stats.flat()}
    return expected


async def drive(port: int, bodies: list, clients: int) -> dict:
    """Fire all requests through ``clients`` concurrent workers."""
    from repro.service.client import (
        AsyncServiceClient,
        CircuitBreaker,
        RetryConfig,
    )
    # Generous retry budget: a request may land on a worker that is
    # killed mid-flight several times in a row; losing it anyway is
    # exactly the bug this bench exists to catch.
    retry = RetryConfig(max_retries=10, backoff_base=0.1,
                        backoff_cap=5.0)
    queue: asyncio.Queue = asyncio.Queue()
    for index, body in enumerate(bodies):
        queue.put_nowait((index, body))
    latencies = [0.0] * len(bodies)
    responses: list = [None] * len(bodies)
    errors: list = []

    async def client_task(worker_id: int) -> None:
        client = AsyncServiceClient(port=port, retry=retry,
                                    breaker=CircuitBreaker(
                                        threshold=5, cooldown=0.5))
        while True:
            try:
                index, body = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            started = time.monotonic()
            try:
                responses[index] = await client.request(
                    "POST", "/simulate", body)
            except Exception as exc:  # noqa: BLE001 - recorded below
                errors.append((index, f"{type(exc).__name__}: {exc}"))
            latencies[index] = time.monotonic() - started

    started = time.monotonic()
    await asyncio.gather(*(client_task(i) for i in range(clients)))
    elapsed = time.monotonic() - started
    return {"latencies": latencies, "responses": responses,
            "errors": errors, "elapsed": elapsed}


def percentile(values: list, fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[rank]


def scrape_metrics(port: int) -> dict:
    import urllib.request
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=30) as resp:
        text = resp.read().decode("utf-8")
    metrics: dict = {}
    for line in text.splitlines():
        match = METRIC_RE.match(line)
        if match:
            name, value = match.group(1), float(match.group(2))
            metrics[name] = metrics.get(name, 0.0) + value
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--faults", default=DEFAULT_FAULTS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--outdir", default="results-chaos")
    parser.add_argument("--json", default="BENCH_service.json")
    parser.add_argument("--p99-bound", type=float, default=30.0,
                        help="hard bound on p99 request latency, "
                             "seconds (default: 30)")
    args = parser.parse_args()

    bodies = zipf_bodies(args.requests, args.seed)
    distinct = {(b["design"], b["llc_mb"]) for b in bodies}
    print(f"service-chaos: computing ground truth for "
          f"{len(distinct)} distinct configs")
    expected = expected_results(bodies)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(args.workers), "--outdir", args.outdir,
         "--inject-faults", args.faults],
        stderr=subprocess.PIPE, text=True)

    # Drain the fleet's stderr continuously: with kill faults armed
    # the master and workers log every restart, and an undrained pipe
    # fills, blocking every print() in the fleet — which reads as a
    # mysterious service-wide stall, not a log problem.
    ready = threading.Event()
    port_box: list = []
    log_tail: collections.deque = collections.deque(maxlen=50)

    def pump_stderr() -> None:
        for raw in proc.stderr:
            line = raw.rstrip()
            log_tail.append(line)
            if not ready.is_set():
                match = re.search(
                    r"listening on http://[^:]+:(\d+)", line)
                if match:
                    port_box.append(int(match.group(1)))
                    ready.set()
        ready.set()

    threading.Thread(target=pump_stderr, daemon=True).start()
    try:
        ready.wait(timeout=60)
        if not port_box:
            fail(f"no readiness line from master; last stderr: "
                 f"{list(log_tail)[-5:]}")
        port = port_box[0]
        print(f"service-chaos: master up on port {port} with "
              f"{args.workers} workers; faults: {args.faults}")
        print(f"service-chaos: firing {len(bodies)} requests from "
              f"{args.clients} concurrent clients "
              f"(zipfian over {len(distinct)} configs)")
        outcome = asyncio.run(drive(port, bodies, args.clients))

        # Zero lost requests: every slot holds a terminal response.
        if outcome["errors"]:
            index, message = outcome["errors"][0]
            fail(f"{len(outcome['errors'])} requests lost; first: "
                 f"request {index}: {message}")
        missing = [i for i, r in enumerate(outcome["responses"])
                   if r is None]
        if missing:
            fail(f"{len(missing)} requests got no response at all")

        # Zero wrong answers: bit-identical to the direct runner.
        for index, response in enumerate(outcome["responses"]):
            body = bodies[index]
            truth = expected[(body["design"], body["llc_mb"])]
            if response.get("cycles") != truth["cycles"]:
                fail(f"request {index} ({body['design']}, "
                     f"{body['llc_mb']}MB): served cycles "
                     f"{response.get('cycles')} != direct "
                     f"{truth['cycles']}")
            if response.get("stats") != truth["stats"]:
                served = response.get("stats") or {}
                diff = [k for k in truth["stats"]
                        if served.get(k) != truth["stats"][k]][:5]
                fail(f"request {index}: served stats differ from the "
                     f"direct runner (first diverging keys: {diff})")

        metrics = scrape_metrics(port)
        restarts = metrics.get("repro_worker_restarts_total", 0.0)
        alive = metrics.get("repro_workers_alive", 0.0)
        if restarts <= 0:
            fail("no worker restarts recorded — the kill fault never "
                 "fired or the master failed to restart; this run "
                 "did not exercise the recovery path")
        if alive <= 0:
            fail(f"workers_alive is {alive} after the load")

        p50 = percentile(outcome["latencies"], 0.50)
        p99 = percentile(outcome["latencies"], 0.99)
        if p99 > args.p99_bound:
            fail(f"p99 latency {p99:.2f}s exceeds the "
                 f"{args.p99_bound:.0f}s bound")
        throughput = len(bodies) / outcome["elapsed"]

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
        if code != 0:
            fail(f"master exited {code} after SIGTERM, want 0")

        artifact = {
            "service_chaos_requests_per_sec": round(throughput, 2),
            "service_chaos_p50_ms": round(p50 * 1000, 2),
            "service_chaos_p99_ms": round(p99 * 1000, 2),
            "service_chaos_requests": len(bodies),
            "service_chaos_clients": args.clients,
            "service_chaos_workers": args.workers,
            "service_chaos_restarts": int(restarts),
            "service_chaos_faults": args.faults,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"service-chaos: throughput {throughput:,.1f} req/s, "
              f"p50 {p50 * 1000:.0f}ms, p99 {p99 * 1000:.0f}ms, "
              f"restarts {restarts:.0f}")
        print(f"service-chaos: PASS ({len(bodies)} requests, 0 lost, "
              f"0 wrong, drained cleanly) -> {args.json}")
    finally:
        if proc.poll() is None:
            # SIGTERM first so the master drains its workers; a bare
            # kill would orphan them (they outlive the master).
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    main()
