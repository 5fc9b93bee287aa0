"""One simulating process of a perfbench run (spawned by ``run.py``).

``worker.py regen --phase cold|warm --outdir DIR --seed N``
    Regenerates fig11 + fig15 + tier_modes at ``size="small"`` through
    ``Supervisor.supervise`` (run cache and trace store under DIR), then
    the figure reports and the unplanned dynamic_orientation study.
``worker.py replay --seed N --seconds S``
    Materializes the drawn large-input traces, then replays the points
    through ``simulate_run_key`` with both caches off, pass after pass.

Add ``--trace FILE`` to install the boundary wrappers and write the
spans to FILE.  The first stdout line is ``ready <unix time>``, printed
at the first timed operation; the last is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from tracing import Tracer  # noqa: E402

ENGINES = {f"cpu.run_{engine}": engine for engine in common.ENGINES
           if engine != "object"}


def build_key(point: Dict[str, object]):
    from repro.experiments.runner import RunKey
    return RunKey(point["design"], point["workload"], point["size"],
                  point["llc_mb"], point["resident"], point["memory"],
                  point["sample_every"],
                  tuple(sorted(point["overrides"].items())))


def key_spec(key) -> Dict[str, object]:
    point = common.spec(key.design, key.workload, key.size, key.llc_mb,
                        key.sample_every, dict(key.overrides),
                        key.resident)
    point["memory"] = key.memory
    return point


def ready() -> None:
    print(f"ready {time.time():.6f}", flush=True)


def sim_sums(flats: List[Dict[str, int]]) -> Dict[str, int]:
    return {name: sum(flat.get(name, 0) for flat in flats)
            for name in common.SIM_COUNTERS}


# -- tracing -------------------------------------------------------------------

def install(tracer: Tracer) -> List[object]:
    """Wrap every layer boundary; returns the list that collects the
    ``StatRegistry`` of each hierarchy built while tracing."""
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core import simulator
    from repro.core.cpu import TraceDrivenCpu
    from repro.experiments import runner, supervisor, tier_modes
    from repro.mem.mda_memory import MdaMemory
    from repro.sw.tracestore import TraceStore
    from repro.tier.stacked import DieStackedTier

    registries: List[object] = []

    def found(args, kwargs, result, attrs):
        attrs["hit"] = result is not None

    def keyed(args, kwargs, attrs):
        attrs["key"] = args[0] if args else kwargs["key"]
        return args, kwargs

    def hierarchy(args, kwargs, result, attrs):
        registries.append(args[2] if len(args) > 2 else kwargs["stats"])

    def requests(args, kwargs, attrs):
        trace = args[1] if len(args) > 1 else kwargs["trace"]
        if hasattr(trace, "__len__"):
            attrs["requests"] = len(trace)
            return args, kwargs
        # Object path: count the lazily generated requests as they
        # are consumed, so the span still covers the trace walk.
        attrs["requests"] = 0

        def counted(requests_iter):
            for request in requests_iter:
                attrs["requests"] += 1
                yield request

        return (args[0], counted(trace)) + tuple(args[2:]), kwargs

    tracer.wrap_span(simulator, "generate_packed_trace",
                     "sw.generate_packed_trace")
    tracer.wrap_span(TraceStore, "load", "sw.trace_store_load",
                     hook=found)
    tracer.wrap_span(TraceStore, "store", "sw.trace_store_store")
    tracer.wrap_span(runner.RunCache, "load",
                     "experiments.run_cache_load", hook=found)
    tracer.wrap_span(runner.RunCache, "store",
                     "experiments.run_cache_store")
    tracer.wrap_span(supervisor.Supervisor, "supervise",
                     "experiments.supervise")
    for module in (runner, supervisor, tier_modes):
        tracer.wrap_span(module, "simulate_run_key",
                         "experiments.simulate_run_key", before=keyed)
    tracer.wrap_span(CacheHierarchy, "__init__", "core.hierarchy_build",
                     hook=hierarchy)
    tracer.wrap_span(TraceDrivenCpu, "run", "cpu.run", before=requests)
    for method, name in (("run_vector", "cpu.run_vector"),
                         ("run_kernel", "cpu.run_kernel"),
                         ("run_packed", "cpu.run_packed")):
        tracer.wrap_span(TraceDrivenCpu, method, name)
    tracer.wrap_count(MdaMemory, "read_line", "mem.read_line")
    tracer.wrap_count(MdaMemory, "write_line", "mem.write_line")
    tracer.wrap_count(DieStackedTier, "fetch_line", "tier.fetch_line")
    tracer.wrap_count(DieStackedTier, "writeback_line",
                      "tier.writeback_line")
    return registries


def analyse(tracer: Tracer, registries: List[object],
            runner=None) -> Dict[str, object]:
    """Additive per-layer sums of one traced process, plus the
    boundary-coverage check (``errors``) and dispatch mismatches."""
    from repro.core.simulator import trace_cache_info
    from repro.experiments.run_all import dispatch_for_key

    kids = tracer.children()
    raw: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        raw[name] = raw.get(name, 0) + value

    engine_of: Dict[int, str] = {}
    for index, span in enumerate(tracer.spans):
        if span[0] != "cpu.run":
            continue
        inner = [c for c in kids.get(index, ())
                 if tracer.spans[c][0] in ENGINES]
        if inner:
            engine = ENGINES[tracer.spans[inner[0]][0]]
            self_s = tracer.self_s(inner[0], kids)
        else:
            engine = "object"  # includes the lazy trace walk
            self_s = tracer.self_s(index, kids)
        engine_of[index] = engine
        add(f"core.points.{engine}", 1)
        add(f"core.requests.{engine}", span[4]["requests"])
        add(f"core.replay_self_s.{engine}", self_s)

    def engines_under(index: int) -> List[str]:
        found = [engine_of[index]] if index in engine_of else []
        for child in kids.get(index, ()):
            found.extend(engines_under(child))
        return found

    mismatches = []
    for index, span in enumerate(tracer.spans):
        key = span[4].get("key")
        if key is None:
            continue
        actual = engines_under(index)
        planned = dispatch_for_key(key)
        if actual != [planned]:
            mismatches.append(f"{common.label(key_spec(key))}: "
                              f"dispatch_for_key={planned} "
                              f"replayed={','.join(actual)}")
    add("core.dispatch_mismatches", len(mismatches))
    add("core.hierarchy_build_s", tracer.total_s("core.hierarchy_build"))

    add("sw.trace_gen_s", tracer.total_s("sw.generate_packed_trace"))
    add("sw.traces_generated",
        tracer.number("sw.generate_packed_trace"))
    add("sw.trace_store_load_s", tracer.total_s("sw.trace_store_load"))
    add("sw.trace_store_store_s", tracer.total_s("sw.trace_store_store"))
    add("sw.trace_store_hits",
        tracer.number("sw.trace_store_load", hit=True))

    add("experiments.plan_s", tracer.total_s("experiments.plan"))
    add("experiments.supervise_self_s", sum(
        tracer.self_s(i, kids) for i, span in enumerate(tracer.spans)
        if span[0] == "experiments.supervise"))
    add("experiments.run_cache_load_s",
        tracer.total_s("experiments.run_cache_load"))
    add("experiments.run_cache_store_s",
        tracer.total_s("experiments.run_cache_store"))
    add("experiments.run_cache_hits",
        tracer.number("experiments.run_cache_load", hit=True))
    add("experiments.points_simulated",
        tracer.number("experiments.simulate_run_key"))
    add("experiments.report_s", tracer.total_s("experiments.report"))
    add("experiments.unplanned_s",
        tracer.total_s("experiments.unplanned"))
    add("experiments.unplanned_points", sum(
        len(engines_under(i)) for i, span in enumerate(tracer.spans)
        if span[0] == "experiments.unplanned"))

    for name in ("mem.read_line", "mem.write_line", "tier.fetch_line",
                 "tier.writeback_line"):
        calls, ns = tracer.counts.get(name, (0, 0))
        add(f"{name}_calls", calls)
        add(f"{name}_s", ns / 1e9)

    # Boundary coverage: each wrapper must have seen exactly what the
    # program counted, or the trace under-reports that layer.
    sums = sim_sums([registry.flat() for registry in registries])
    checks = [("mem.read_line_calls", raw["mem.read_line_calls"],
               "memory.line_reads", sums["memory.line_reads"]),
              ("mem.write_line_calls", raw["mem.write_line_calls"],
               "memory.line_writes", sums["memory.line_writes"]),
              ("tier.fetch_line_calls", raw["tier.fetch_line_calls"],
               "tier.fetches", sums["tier.fetches"]),
              ("sw.traces_generated", raw["sw.traces_generated"],
               'trace_cache_info()["generated"]',
               trace_cache_info()["generated"])]
    if runner is not None:
        checks.append(("experiments.points_simulated",
                       raw["experiments.points_simulated"],
                       "cache_info().misses",
                       runner.cache_info().misses))
    errors = [f"{ours}={mine} but {theirs}={program}"
              for ours, mine, theirs, program in checks
              if mine != program]
    return {"raw": raw, "sim": sums, "mismatches": mismatches,
            "coverage_errors": errors}


# -- workloads -----------------------------------------------------------------

def regen_plan(seed: int):
    from repro.experiments import plans
    plan = list(dict.fromkeys(plans.plan_fig11(size="small")
                              + plans.plan_fig15(size="small")
                              + plans.plan_tier_modes(size="small")))
    random.Random(f"regen-small/{seed}").shuffle(plan)
    return plan


def regen_reports(runner) -> Dict[str, object]:
    """Report thunks in run order (planned figures, then unplanned)."""
    from repro.experiments.dynamic_orientation import \
        run_dynamic_orientation
    from repro.experiments.fig11 import run_fig11
    from repro.experiments.fig15 import run_fig15
    from repro.experiments.tier_modes import run_tier_modes
    return {
        "fig11": lambda: run_fig11(runner, size="small").report(),
        "fig15": lambda: run_fig15(runner, size="small").report(),
        "tier_modes": lambda: run_tier_modes(runner,
                                             size="small").report(),
        "dynamic_orientation": lambda: run_dynamic_orientation(
            size="small").report(),
    }


def regen(args, tracer: Tracer, reference) -> Dict[str, object]:
    from repro.experiments.runner import RUNCACHE_DIRNAME, ExperimentRunner
    from repro.experiments.supervisor import RunJournal, Supervisor
    from repro.sw.tracestore import TRACECACHE_DIRNAME

    registries = install(tracer) if args.trace else []
    ready()
    started = time.perf_counter()
    plan = tracer.call("experiments.plan", regen_plan, args.seed)
    runner = ExperimentRunner(
        cache_dir=os.path.join(args.outdir, RUNCACHE_DIRNAME),
        trace_dir=os.path.join(args.outdir, TRACECACHE_DIRNAME))
    supervisor = Supervisor(runner,
                            journal=RunJournal.for_suite(args.outdir,
                                                         "perfbench"),
                            handle_signals=False)
    sweep_started = time.perf_counter()
    supervisor.supervise(plan)
    sweep_s = time.perf_counter() - sweep_started
    reports = {}
    for name, thunk in regen_reports(runner).items():
        span = "experiments.unplanned" if name == "dynamic_orientation" \
            else "experiments.report"
        reports[name] = tracer.call(span, thunk)
        with open(os.path.join(args.outdir, f"{name}.txt"), "w") as out:
            out.write(reports[name] + "\n")
    wall_s = time.perf_counter() - started
    tracer.restore()

    errors = []
    ops = 0
    for key in plan:
        result = runner.lookup(key)
        ops += result.ops
        want = reference["points"].get(common.label(key_spec(key)))
        if common.digest(result.cycles, result.stats.flat()) != want:
            errors.append(f"digest mismatch: {common.label(key_spec(key))}")
    report_digests = {name: common.text_digest(text)
                      for name, text in reports.items()}
    for name, got in report_digests.items():
        if got != reference["reports"][name]:
            errors.append(f"report digest mismatch: {name}")
    out = {"wall_s": wall_s, "sweep_s": sweep_s, "sweep_ops": ops,
           "report_digests": report_digests,
           "attempted": len(plan) + len(reports), "errors": errors}
    if args.trace:
        out["layers"] = analyse(tracer, registries, runner)
        if args.phase == "cold":
            out["sim"] = sim_sums([r.flat() for r in registries])
    return out


def replay(args, tracer: Tracer, reference) -> Dict[str, object]:
    from repro.core.simulator import ensure_trace
    # Bound before install(): the benchmark's own call is the
    # ``replay.point`` span, not an experiments-layer call.
    from repro.experiments.runner import simulate_run_key, trace_key_for

    registries = install(tracer) if args.trace else []
    points = common.replay_draw(args.seed)
    keys = [build_key(point) for point in points]
    # Setup materializes every trace any draw can replay, so its cost
    # does not depend on the seed.
    for key in dict.fromkeys(trace_key_for(build_key(point))
                             for stratum in common.STRATA.values()
                             for point in stratum):
        ensure_trace(*key)
    ready()
    passes, errors, sim = [], [], None
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        wall_s, ops, flats = 0.0, 0, []
        for point, key in zip(points, keys):
            index = tracer.open("replay.point", {"key": key})
            started = time.perf_counter()
            try:
                result = simulate_run_key(key)
            finally:
                wall_s += time.perf_counter() - started
                tracer.close(index)
            ops += result.ops
            flats.append(result.stats.flat())
            if common.digest(result.cycles, flats[-1]) != \
                    reference["points"].get(common.label(point)):
                errors.append(f"digest mismatch: {common.label(point)}")
        passes.append({"wall_s": wall_s, "ops": ops})
        if sim is None:
            sim = sim_sums(flats)
    tracer.restore()
    out = {"passes": passes, "attempted": len(passes) * len(keys),
           "errors": errors,
           "points": [common.label(point) for point in points]}
    if args.trace:
        out["layers"] = analyse(tracer, registries)
        out["sim"] = sim
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("mode", choices=("regen", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir")
    parser.add_argument("--phase", choices=("cold", "warm"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    tracer = Tracer(f"{args.mode}-{args.phase or 'replay'}-{os.getpid()}")
    try:
        reference = common.load_reference()
        run = regen if args.mode == "regen" else replay
        out = run(args, tracer, reference)
    except Exception:  # noqa: BLE001 - reported to the orchestrator
        out = {"attempted": 1, "errors": [traceback.format_exc()]}
    finally:
        tracer.restore()
        if args.trace:
            tracer.dump(args.trace)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
