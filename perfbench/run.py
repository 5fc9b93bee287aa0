#!/usr/bin/env python3
"""The repository's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload regen-small --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Workloads (see ``README.md`` here for
why each exists and which layers it loads):

* ``regen-small`` — cold then warm regeneration of fig11 + fig15 +
  tier_modes (small inputs) and dynamic_orientation;
* ``replay-large`` — one large-input point per replay stratum through
  ``simulate_run_key``, caches off;
* ``serve-zipf`` — ``python -m repro serve`` under an open-loop
  Poisson client with zipfian config popularity.

Every simulating step runs in a fresh child process against a fresh
directory under ``.bench_build/``.  Each simulated result is checked
against ``reference.json``.  The last stdout line is the JSON result;
``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones.  A run with any failed operation exits 1; a checkout without the
program exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import common  # noqa: E402

REFERENCE = common.load_reference() \
    if os.path.isfile(common.REFERENCE_PATH) else None

#: Wall-clock limits, so a wedged child fails the run instead of
#: hanging it.
CHILD_TIMEOUT_S = 100.0
SERVER_READY_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 10.0

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "cold_s": "s",
              "warm_s": "s"}

PER_LAYER = {
    "sw.trace_gen_s": "s", "sw.traces_generated": "count",
    "sw.trace_store_load_s": "s", "sw.trace_store_store_s": "s",
    "sw.trace_store_hits": "count",
    "experiments.plan_s": "s", "experiments.supervise_self_s": "s",
    "experiments.run_cache_load_s": "s",
    "experiments.run_cache_store_s": "s",
    "experiments.run_cache_hits": "count",
    "experiments.points_simulated": "count",
    "experiments.report_s": "s", "experiments.unplanned_s": "s",
    "experiments.unplanned_points": "count",
    **{f"core.points.{e}": "count" for e in common.ENGINES},
    **{f"core.requests.{e}": "count" for e in common.ENGINES},
    **{f"core.replay_self_s.{e}": "s" for e in common.ENGINES},
    **{f"core.us_per_req.{e}": "us" for e in common.ENGINES},
    "core.hierarchy_build_s": "s", "core.dispatch_mismatches": "count",
    "mem.read_line_calls": "count", "mem.read_line_s": "s",
    "mem.write_line_calls": "count", "mem.write_line_s": "s",
    "tier.fetch_line_calls": "count", "tier.fetch_line_s": "s",
    "tier.writeback_line_calls": "count", "tier.writeback_line_s": "s",
    "sim.cpu.ops": "count", "sim.cpu.cycles": "cycles",
    "sim.cpu.stall_cycles": "cycles", "sim.cache.l1_hit_rate": "ratio",
    "sim.mem.row_buffer_hit_rate": "ratio",
    "sim.mem.col_buffer_hit_rate": "ratio",
    "sim.tier.hit_rate": "ratio",
    "service.queue_wait_p50_ms": "ms", "service.simulate_p50_ms": "ms",
    "service.total_p50_ms": "ms", "service.client_overhead_p50_ms": "ms",
    "service.cache_hits": "count", "service.coalesced": "count",
    "service.simulated": "count", "service.rejected": "count",
    "service.batch_size_mean": "count", "service.hit_ratio": "ratio",
    "service.generator_late_max_ms": "ms",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """A step of the run could not complete (counted as failed)."""


class Run:
    """State of one benchmark invocation: its scratch directory, the
    child environment, and the operation tally."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        build = os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="perfbench-", dir=build)
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=self.work)
        self.attempted = 0
        self.errors: List[str] = []
        self.lines: List[str] = []
        self.span_files: List[str] = []
        self.client_spans: List[list] = []

    def outdir(self) -> str:
        return tempfile.mkdtemp(prefix="out-", dir=self.work)

    def account(self, attempted: int, errors: List[str]) -> None:
        self.attempted += attempted
        self.errors.extend(errors)

    def worker(self, *argv: str, trace: bool = False) -> Dict[str, object]:
        """Run ``worker.py`` in a fresh process; returns its result with
        ``setup_s`` (spawn to its ``ready`` line) added."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
        if trace:
            path = os.path.join(self.work,
                                f"spans-{len(self.span_files)}.json")
            self.span_files.append(path)
            cmd += ["--trace", path]
        spawned = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {argv[0]} timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = out.splitlines()
        if proc.returncode != 0 or len(lines) < 2 \
                or not lines[0].startswith("ready "):
            raise BenchError(f"worker {' '.join(argv)} failed "
                             f"(exit {proc.returncode}): "
                             f"{(err or out)[-2000:]}")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            raise BenchError(f"worker {argv[0]} printed no result: "
                             f"{(err or out)[-2000:]}") from None
        result["setup_s"] = float(lines[0].split()[1]) - spawned
        self.account(result["attempted"], result["errors"])
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- regen-small -----------------------------------------------------------------

def regen_small(run: Run) -> Dict[str, object]:
    """Rounds of one cold regeneration into a fresh outdir and two warm
    ones against it, each in a fresh process, until ``--seconds`` have
    passed.  Traced: one round, then one traced cold + warm pair."""
    rounds = []
    started = time.perf_counter()
    while not rounds or (not run.traced and
                         time.perf_counter() - started < run.seconds):
        rounds.append(regen_round(run, warms=2, trace=False))
    if run.traced:
        rounds.append(regen_round(run, warms=1, trace=True))
    # Cold and warm reports must be byte-identical, in every round.
    first = rounds[0][0]["report_digests"]
    for cold, warms in rounds:
        for proc in [cold] + warms:
            run.attempted += 1
            if proc["report_digests"] != first:
                run.errors.append("cold and warm reports differ")
    plain = rounds[:-1] if run.traced else rounds
    colds = [cold["wall_s"] for cold, _ in plain]
    warms = [warm["wall_s"] for _, round_warms in plain
             for warm in round_warms]
    rates = [cold["sweep_ops"] / cold["sweep_s"] for cold, _ in plain]
    run.lines.append(f"regen_cold_s {median(colds):.3f} s "
                     f"(median of {len(colds)}; the sweep simulated "
                     f"{median(rates):.0f} requests per host second)")
    run.lines.append(f"regen_warm_s {median(warms):.3f} s "
                     f"(median of {len(warms)})")
    procs = [proc for cold, round_warms in rounds
             for proc in [cold] + round_warms]
    metrics = {
        "setup_s": median([p["setup_s"] for p in procs]),
        "peak_rss_mb": max(p["rss_kb"] for p in procs) / 1024,
        "cold_s": median(colds),
        "warm_s": median(warms),
    }
    if not run.traced:
        return metrics
    traced_cold, traced_warms = rounds[-1]
    parts = [traced_cold["layers"], traced_warms[0]["layers"]]
    layers = merge_layers(parts)
    layers.update(sim_layer(traced_cold["sim"]))
    return finish_layers(run, layers, parts, traced=traced_cold["wall_s"],
                         untraced=median(colds))


def regen_round(run: Run, warms: int, trace: bool):
    argv = ("regen", "--outdir", run.outdir(), "--seed", str(run.seed))
    cold = run.worker(*argv, "--phase", "cold", trace=trace)
    return cold, [run.worker(*argv, "--phase", "warm", trace=trace)
                  for _ in range(warms)]


# -- replay-large ----------------------------------------------------------------

REPLAY_PROCESSES = 2


def replay_large(run: Run) -> Dict[str, object]:
    """The drawn points replayed in ``REPLAY_PROCESSES`` fresh
    processes (at least two passes each).  Traced: the last process
    carries the wrappers."""
    procs = []
    for index in range(REPLAY_PROCESSES):
        procs.append(run.worker(
            "replay", "--seed", str(run.seed),
            "--seconds", f"{run.seconds / REPLAY_PROCESSES:.3f}",
            trace=run.traced and index == REPLAY_PROCESSES - 1))
    plain = procs[:-1] if run.traced else procs
    passes = [p for proc in plain for p in proc["passes"]]
    rate = sum(p["ops"] for p in passes) / sum(p["wall_s"] for p in passes)
    colds = [proc["passes"][0]["wall_s"] for proc in plain]
    run.lines.append("replay points: " + "; ".join(procs[0]["points"]))
    run.lines.append(f"replay_req_per_s {rate:.0f} simulated requests "
                     f"per host second (over {len(passes)} passes)")
    metrics = {
        "setup_s": median([proc["setup_s"] for proc in procs]),
        "peak_rss_mb": max(proc["rss_kb"] for proc in procs) / 1024,
        "cold_s": median(colds),
        "warm_s": median([p["wall_s"] for proc in plain
                          for p in proc["passes"][1:]]),
    }
    if not run.traced:
        return metrics
    traced = procs[-1]
    layers = merge_layers([traced["layers"]])
    layers.update(sim_layer(traced["sim"]))
    return finish_layers(run, layers, [traced["layers"]],
                         traced=traced["passes"][0]["wall_s"],
                         untraced=colds[0])


# -- serve-zipf ------------------------------------------------------------------

SERVE_PROBES = 4
READY_RE = re.compile(r"listening on http://[\d.]+:(\d+)")


class Server:
    """``python -m repro serve --port 0`` in a fresh outdir."""

    def __init__(self, run: Run) -> None:
        self.spawned = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--outdir", run.outdir()],
            cwd=ROOT, env=run.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port: Optional[int] = None
        self.ready = threading.Event()
        self.tail: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self.ready.wait(SERVER_READY_TIMEOUT_S) or self.port is None:
            self.stop()
            raise BenchError("server never became ready: "
                             + "".join(self.tail[-20:]))

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.tail.append(line)
            match = READY_RE.search(line)
            if match and not self.ready.is_set():
                self.setup_s = time.time() - self.spawned
                self.port = int(match.group(1))
                self.ready.set()
        self.ready.set()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def post(conn: http.client.HTTPConnection, point) -> dict:
    """One ``/simulate`` answer, checked against the reference."""
    conn.request("POST", "/simulate", json.dumps(dict(point, stats=True)),
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        return {"error": f"HTTP {response.status}"}
    payload = json.loads(body)
    record = {"source": payload["source"], "ops": payload["ops"],
              "stats": payload["stats"], "label": common.label(point),
              "error": None}
    if common.digest(payload["cycles"], payload["stats"]) \
            != REFERENCE["points"].get(record["label"]):
        record["error"] = "digest mismatch: " + record["label"]
    return record


def warm_up(run: Run, server: Server) -> None:
    """Untimed, one at a time: trace generation and first-replay costs
    a long-lived server pays once, not per request."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        for point in common.SERVE_WARMUP:
            try:
                error = post(conn, point)["error"]
            except (OSError, http.client.HTTPException, ValueError,
                    KeyError) as exc:
                error = f"warm-up {type(exc).__name__}: {exc}"
            run.account(1, [error] if error else [])
    finally:
        conn.close()


def session(run: Run, server: Server, schedule) -> Dict[str, object]:
    """Open-loop client: two keep-alive connections send each request
    at its due time (or as soon as one frees up)."""
    results: List[Optional[dict]] = [None] * len(schedule)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    give_up = start + schedule[-1][0] + 2 * REQUEST_TIMEOUT_S

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                offset, point = schedule[index]
                due = start + offset
                time.sleep(max(0.0, due - time.perf_counter()))
                sent = time.perf_counter()
                record = {"due": due, "sent": sent, "source": None,
                          "error": None}
                results[index] = record
                if sent > give_up:
                    record.update(done=sent, error="not sent: deadline")
                    continue
                try:
                    record.update(post(conn, point))
                    record["done"] = time.perf_counter()
                except (OSError, http.client.HTTPException,
                        ValueError, KeyError) as exc:
                    record["done"] = time.perf_counter()
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", server.port,
                        timeout=REQUEST_TIMEOUT_S)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.account(len(results), [r["error"] for r in results if r["error"]])
    try:
        return {"results": results, "metrics": scrape(server.port)}
    except (OSError, http.client.HTTPException) as exc:
        raise BenchError(f"/metrics scrape failed: {exc}") from None


def scrape(port: int) -> Dict[str, List]:
    """``/metrics`` as ``{family: [(labels, value), ...]}``."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    families: Dict[str, List] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        family, _, labels = name.partition("{")
        families.setdefault(family, []).append((labels, float(value)))
    return families


def histogram_p50_ms(families, name: str) -> float:
    """Median of a power-of-two ``/metrics`` histogram, interpolated
    inside its bucket."""
    buckets = [(float("inf") if 'le="+Inf"' in labels else
                float(labels.split('"')[1]), count)
               for labels, count in families.get(f"{name}_bucket", [])]
    total = buckets[-1][1] if buckets else 0
    if not total:
        return 0.0
    low, below = 0.0, 0.0
    for le, cumulative in buckets:
        if cumulative >= total / 2:
            if le == float("inf"):
                return low * 1e3
            share = (total / 2 - below) / (cumulative - below)
            return (low + share * (le - low)) * 1e3
        low, below = le, cumulative
    return low * 1e3


def family_total(families, name: str) -> float:
    return sum(value for _, value in families.get(name, []))


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def serve_zipf(run: Run) -> Dict[str, object]:
    """Setup probes, then one open-loop session per fresh server (two
    when traced: untraced first, then traced)."""
    setups = []
    for _ in range(SERVE_PROBES):
        probe = Server(run)
        try:
            setups.append(probe.setup_s)
        finally:
            probe.stop()
    schedule = common.serve_schedule(run.seed, run.seconds)
    sessions = []
    for _ in range(2 if run.traced else 1):
        server = Server(run)
        try:
            setups.append(server.setup_s)
            warm_up(run, server)
            sessions.append(session(run, server, schedule))
        finally:
            server.stop()
    stats = [serve_stats(s["results"]) for s in sessions]
    plain = stats[0]
    run.lines.append(
        f"serve_hit_p50_ms {plain['hit_p50_ms']:.2f} ms "
        f"(n={plain['hits']}); serve_miss_p50_ms "
        f"{plain['miss_p50_ms']:.1f} ms (n={plain['misses']}); "
        f"serve_p90_ms {plain['p90_ms']:.1f} ms (n={plain['answered']}, "
        f"{plain['beyond_p90']} beyond)")
    metrics = {
        "setup_s": median(setups),
        # Every child is waited for; the servers are the largest.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "cold_s": plain["miss_p50_ms"] / 1e3,
        "warm_s": plain["hit_p50_ms"] / 1e3,
    }
    run.attempted += 1
    if plain["beyond_p90"] < 10:
        run.errors.append(f"only {plain['beyond_p90']} samples beyond p90")
    if not run.traced:
        return metrics
    traced, families = stats[1], sessions[1]["metrics"]
    run.client_spans = [["client.simulate", r["sent"], r.get("done"),
                         r["source"], r["error"]]
                        for r in sessions[1]["results"]]
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(sim_layer(traced["sim"]))
    total_p50 = histogram_p50_ms(families, "repro_stage_total_seconds")
    batches = family_total(families, "repro_batch_size_count")
    layers.update({
        "service.queue_wait_p50_ms": histogram_p50_ms(
            families, "repro_stage_queue_wait_seconds"),
        "service.simulate_p50_ms": histogram_p50_ms(
            families, "repro_stage_simulate_seconds"),
        "service.total_p50_ms": total_p50,
        "service.client_overhead_p50_ms":
            traced["service_p50_ms"] - total_p50,
        "service.cache_hits": family_total(families,
                                           "repro_cache_hits_total"),
        "service.coalesced": family_total(families,
                                          "repro_coalesced_total"),
        "service.simulated": family_total(families,
                                          "repro_simulated_total"),
        "service.rejected": family_total(families,
                                         "repro_rejected_total"),
        "service.batch_size_mean": family_total(
            families, "repro_batch_size_sum") / batches if batches else 0,
        "service.hit_ratio": family_total(families,
                                          "repro_cache_hit_ratio"),
        "service.generator_late_max_ms": traced["late_max_ms"],
    })
    return finish_layers(run, layers, [],
                         traced=traced["miss_p50_ms"] / 1e3,
                         untraced=plain["miss_p50_ms"] / 1e3)


def serve_stats(results: List[dict]) -> Dict[str, object]:
    answered = [r for r in results if not r["error"]]
    hits = [(r["done"] - r["due"]) * 1e3 for r in answered
            if r["source"] == "cache"]
    misses = [(r["done"] - r["due"]) * 1e3 for r in answered
              if r["source"] in ("simulated", "coalesced")]
    every = [(r["done"] - r["due"]) * 1e3 for r in answered]
    p90 = percentile(every, 0.9) if every else 0.0
    simulated = {r["label"]: r for r in answered
                 if r["source"] == "simulated"}
    return {
        "hits": len(hits), "misses": len(misses),
        "answered": len(every),
        "hit_p50_ms": median(hits), "miss_p50_ms": median(misses),
        "p90_ms": p90, "beyond_p90": sum(1 for v in every if v > p90),
        "service_p50_ms": median([(r["done"] - r["sent"]) * 1e3
                                  for r in answered]),
        "late_max_ms": max((r["sent"] - r["due"]) * 1e3
                           for r in results),
        "sim": {name: sum(r["stats"].get(name, 0)
                          for r in simulated.values())
                for name in common.SIM_COUNTERS},
    }


# -- per-layer results -----------------------------------------------------------

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_layer(sums: Dict[str, int]) -> Dict[str, float]:
    return {
        "sim.cpu.ops": sums["cpu.ops"],
        "sim.cpu.cycles": sums["cpu.cycles"],
        "sim.cpu.stall_cycles": sums["cpu.stall_cycles"],
        "sim.cache.l1_hit_rate": ratio(sums["cache.L1.hits"],
                                       sums["cache.L1.demand_accesses"]),
        "sim.mem.row_buffer_hit_rate": ratio(
            sums["memory.banks.row_buffer_hits"],
            sums["memory.banks.row_buffer_hits"]
            + sums["memory.banks.row_buffer_misses"]),
        "sim.mem.col_buffer_hit_rate": ratio(
            sums["memory.banks.col_buffer_hits"],
            sums["memory.banks.col_buffer_hits"]
            + sums["memory.banks.col_buffer_misses"]),
        "sim.tier.hit_rate": ratio(sums["tier.hits"] + sums["tier.flat_hits"],
                                   sums["tier.fetches"]),
    }


def merge_layers(parts: List[Dict[str, object]]) -> Dict[str, float]:
    layers = {name: 0.0 for name in PER_LAYER}
    for part in parts:
        for name, value in part["raw"].items():
            layers[name] += value
    for engine in common.ENGINES:
        layers[f"core.us_per_req.{engine}"] = 1e6 * ratio(
            layers[f"core.replay_self_s.{engine}"],
            layers[f"core.requests.{engine}"])
    return layers


def finish_layers(run: Run, layers: Dict[str, float], parts,
                  traced: float, untraced: float) -> Dict[str, float]:
    """Add the tracing overhead; fail on any coverage error and list
    every dispatch mismatch."""
    for part in parts:
        run.attempted += 1
        if part["coverage_errors"]:
            run.errors.append("boundary coverage: "
                              + "; ".join(part["coverage_errors"]))
        for mismatch in part["mismatches"]:
            run.lines.append(f"dispatch mismatch: {mismatch}")
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_pct"] = 100 * ratio(traced - untraced, untraced)
    run.lines.append(f"tracing overhead: {traced - untraced:+.3f} s "
                     f"({layers['trace.overhead_pct']:+.1f}%) on cold_s")
    return layers


WORKLOADS = {"regen-small": regen_small, "replay-large": replay_large,
             "serve-zipf": serve_zipf}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds: servers stop, children are killed
    # and the scratch directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program under src/repro", file=sys.stderr)
        return 2
    if REFERENCE is None:
        print("perfbench: reference.json missing", file=sys.stderr)
        return 2
    # Byte-compile first, so no measured import pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=False,
                   timeout=CHILD_TIMEOUT_S)
    run = Run(args)
    try:
        values = WORKLOADS[args.workload](run)
    except BenchError as exc:
        run.errors.append(str(exc))
        values = None
    finally:
        if run.traced:
            keep_spans(run, args)
        run.close()
    for line in run.lines:
        print(f"[{args.workload} seed={args.seed}] {line}")
    for error in run.errors:
        print(f"[{args.workload} seed={args.seed}] FAILED: {error[:500]}")
    if values is None:
        print(f"perfbench: {len(run.errors)} failed, "
              f"{run.attempted} attempted", file=sys.stderr)
        return 1
    units = PER_LAYER if run.traced else END_TO_END
    result = {"correct": not run.errors,
              "attempted": max(1, run.attempted),
              "failed": len(run.errors),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if not run.errors else 1


def keep_spans(run: Run, args) -> None:
    """Copy the traced spans out of the scratch directory."""
    keep = os.path.join(ROOT, ".bench_build", "perfbench-spans",
                        f"{args.workload}-seed{args.seed}")
    shutil.rmtree(keep, ignore_errors=True)
    os.makedirs(keep)
    for path in run.span_files:
        if os.path.exists(path):
            shutil.copy(path, keep)
    if run.client_spans:
        with open(os.path.join(keep, "client.json"), "w") as out:
            json.dump(run.client_spans, out)


if __name__ == "__main__":
    sys.exit(main())
