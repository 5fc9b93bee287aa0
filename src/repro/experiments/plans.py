"""Run plans: every simulation point a figure needs, known up front.

Each ``plan_figNN`` mirrors the run loop of its figure module exactly,
but yields :class:`RunKey` descriptions instead of executing them.  The
scheduler (:meth:`ExperimentRunner.prefetch`) dedupes the keys across
figures and fans the unique points out over worker processes; the
figure's ``run_figNN`` then replays the same calls as memo hits, so the
reported numbers are bit-identical to a sequential run.

:func:`figure_runner` is the shared CLI shim: it gives every figure's
``main`` the ``--jobs`` / ``--no-cache`` / ``--refresh`` flags and a
prefetched runner backed by the persistent cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Iterable, List, Optional

from ..common.errors import (
    EXIT_INTERRUPTED,
    EXIT_SWEEP_FAILED,
    SweepFailed,
    SweepInterrupted,
)
from ..core.simulator import trace_cache_info
from ..sw.tracestore import TRACECACHE_DIRNAME
from ..workloads.registry import workload_names
from . import faults, fig11, fig12, fig13, fig15, fig16, fig17, \
    tier_modes
from .dynamic_orientation import plan_dynamic_orientation
from .future_tiling import plan_future_tiling
from .layout_mismatch import plan_layout_mismatch
from .runner import RUNCACHE_DIRNAME, ExperimentRunner, RunKey
from .supervisor import RetryPolicy, RunJournal, Supervisor


def plan_fig11(workloads: Optional[List[str]] = None,
               size: str = "large",
               llc_mb: float = 1.0) -> List[RunKey]:
    keys = []
    for workload in workloads or workload_names():
        keys.append(RunKey("1P1L", workload, size, llc_mb,
                           False, "default", 0))
        for design in fig11.DESIGNS:
            keys.append(RunKey(design, workload, size, llc_mb,
                               False, "default", 0))
    return keys


def plan_fig12(workloads: Optional[List[str]] = None,
               llc_points: Optional[Iterable[float]] = None,
               size: str = "large") -> List[RunKey]:
    keys = []
    for llc_mb in llc_points or fig12.LLC_POINTS:
        for workload in workloads or workload_names():
            keys.append(RunKey("1P1L", workload, size, llc_mb,
                               False, "default", 0))
            for design in fig12.DESIGNS:
                keys.append(RunKey(design, workload, size, llc_mb,
                                   False, "default", 0))
    return keys


def plan_fig13(workloads: Optional[List[str]] = None,
               size: str = "small") -> List[RunKey]:
    keys = []
    for workload in workloads or workload_names():
        keys.append(RunKey("1P1L", workload, size, 1.0,
                           True, "default", 0))
        for design in fig13.DESIGNS:
            keys.append(RunKey(design, workload, size, 1.0,
                               True, "default", 0))
    return keys


def plan_fig14(workloads: Optional[List[str]] = None,
               size: str = "large",
               llc_mb: float = 1.0) -> List[RunKey]:
    # Fig. 14 visits exactly the Fig. 11 design x workload space.
    return plan_fig11(workloads, size, llc_mb)


def plan_fig15(workloads: Optional[List[str]] = None,
               size: str = "large", design: str = "1P2L",
               samples: int = fig15.DEFAULT_SAMPLES) -> List[RunKey]:
    keys = []
    for workload in workloads or fig15.WORKLOADS:
        stride = fig15.stride_for(workload, size, samples)
        keys.append(RunKey(design, workload, size, 1.0,
                           False, "default", stride))
    return keys


def plan_fig16(workloads: Optional[List[str]] = None,
               size: str = "large",
               llc_mb: float = 1.0) -> List[RunKey]:
    keys = []
    for workload in workloads or workload_names():
        keys.append(RunKey("1P1L", workload, size, llc_mb,
                           False, "default", 0))
        for design in fig16.DESIGNS:
            keys.append(RunKey(design, workload, size, llc_mb,
                               False, "default", 0))
    return keys


def plan_fig17(workloads: Optional[List[str]] = None,
               size: str = "large",
               llc_mb: float = 1.0) -> List[RunKey]:
    keys = []
    for _, design, memory in fig17.VARIANTS:
        for workload in workloads or workload_names():
            keys.append(RunKey(design, workload, size, llc_mb,
                               False, memory, 0))
    return keys


def plan_energy(workloads: Optional[List[str]] = None,
                size: str = "large",
                llc_mb: float = 1.0) -> List[RunKey]:
    # The energy extension prices the Fig. 11 design x workload space.
    return plan_fig11(workloads, size, llc_mb)


def plan_tier_modes(workloads: Optional[List[str]] = None,
                    size: str = "large",
                    llc_mb: float = 1.0) -> List[RunKey]:
    # Tier personalities ride on overrides; the plan mirrors the
    # experiment's run loop exactly (see tier_modes.plan_tier_modes).
    return tier_modes.plan_tier_modes(workloads, size, llc_mb)


#: Experiments with a precomputable run plan: every single-core
#: simulation the suite performs.  The rest are named in
#: :data:`UNPLANNED`.
PLANNERS: Dict[str, Callable[[], List[RunKey]]] = {
    "fig11": plan_fig11,
    "fig12": plan_fig12,
    "fig13": plan_fig13,
    "fig14": plan_fig14,
    "fig15": plan_fig15,
    "fig16": plan_fig16,
    "fig17": plan_fig17,
    "layout_mismatch": plan_layout_mismatch,
    "future_tiling": plan_future_tiling,
    "energy": plan_energy,
    "dynamic_orientation": plan_dynamic_orientation,
    "tier_modes": plan_tier_modes,
}

#: Experiments without a run plan, and why.
UNPLANNED: Dict[str, str] = {
    "table1": "simulates nothing",
    "fig10": "simulates nothing",
    "multiprogram": "runs the multicore object path",
}


def plan_for(names: Iterable[str]) -> List[RunKey]:
    """Deduplicated run plan covering every named experiment.

    Unknown names are skipped (they have no precomputable plan), and
    duplicate points shared between figures appear once, in first-seen
    order.
    """
    keys: List[RunKey] = []
    for name in names:
        planner = PLANNERS.get(name)
        if planner is not None:
            keys.extend(planner())
    return list(dict.fromkeys(keys))


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared scheduler/cache flags, on any experiment parser."""
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        metavar="N",
                        help="simulate up to N points in parallel "
                             "(default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent "
                             "run cache")
    parser.add_argument("--refresh", action="store_true",
                        help="re-simulate cached points and overwrite "
                             "their cache entries")
    parser.add_argument("--outdir", default="results",
                        help="results directory; the run cache lives "
                             "in OUTDIR/.runcache (default: results)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep from its "
                             "journal (OUTDIR/.runjournal)")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="retry a transiently failed run at most "
                             "N times (default: 2)")
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECS",
                        help="per-run wall-clock budget; a run over "
                             "budget is killed and retried "
                             "(default: none)")
    parser.add_argument("--inject-faults", default=None,
                        metavar="SPEC",
                        help="deterministic fault injection, e.g. "
                             "worker_crash:0.1,seed:7 (also read "
                             "from $REPRO_FAULTS)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the sweep under cProfile: dump "
                             "OUTDIR/profile.pstats and print the top "
                             "20 functions by cumulative time to "
                             "stderr; pool workers under --jobs N "
                             "dump per-worker profiles that merge "
                             "into the same file")


def runner_from_args(args: argparse.Namespace,
                     verbose: bool = True) -> ExperimentRunner:
    """An :class:`ExperimentRunner` configured by the shared flags."""
    cache_dir = None if args.no_cache else \
        os.path.join(args.outdir, RUNCACHE_DIRNAME)
    trace_dir = None if args.no_cache else \
        os.path.join(args.outdir, TRACECACHE_DIRNAME)
    return ExperimentRunner(verbose=verbose, jobs=args.jobs,
                            cache_dir=cache_dir, refresh=args.refresh,
                            trace_dir=trace_dir)


def supervisor_from_args(args: argparse.Namespace,
                         runner: ExperimentRunner,
                         suite: str,
                         handle_signals: bool = True) -> Supervisor:
    """A :class:`Supervisor` configured by the shared CLI flags.

    The lifecycle journal lives at ``OUTDIR/.runjournal/<suite>.jsonl``
    regardless of ``--no-cache`` (the journal records what happened;
    the cache records results).  The simulation service reuses this
    builder with ``handle_signals=False`` — it supervises batches from
    a worker thread and owns SIGTERM itself.
    """
    fault_plan = None
    if getattr(args, "inject_faults", None):
        fault_plan = faults.parse_spec(args.inject_faults)
    return Supervisor(
        runner,
        journal=RunJournal.for_suite(args.outdir, suite),
        policy=RetryPolicy(max_retries=max(0, args.max_retries)),
        run_timeout=args.run_timeout,
        resume=getattr(args, "resume", False),
        fault_plan=fault_plan,
        handle_signals=handle_signals)


def run_supervised(supervisor: Supervisor,
                   plan: List[RunKey]) -> None:
    """Supervise a plan for a CLI entry point, mapping outcomes to
    exit codes: SIGINT/SIGTERM exits 130, permanent failures exit 3."""
    try:
        report = supervisor.supervise(plan)
    except SweepInterrupted as exc:
        print(f"  interrupted: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INTERRUPTED) from exc
    except SweepFailed as exc:
        print(f"  sweep failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_SWEEP_FAILED) from exc
    if report.retries or report.resumed or report.degraded_serial:
        print(f"  supervisor: {report.describe()}", file=sys.stderr)


def describe_trace_info(info: Dict[str, int]) -> str:
    """One-line summary of :func:`trace_cache_info` counters."""
    return (f"{info['hits']} memo hits, {info['store_hits']} store "
            f"hits, {info['generated']} generated")


def figure_runner(name: str,
                  argv: Optional[List[str]] = None) -> ExperimentRunner:
    """Parse an experiment CLI and return a prefetched runner.

    Used by every planned figure's ``main``: collects the figure's run
    plan, satisfies it from the persistent cache, simulates what is
    missing (in parallel under ``--jobs``, supervised — journaled,
    retried, resumable), and hands back a runner on which the figure's
    run loop is pure memo hits.
    """
    parser = argparse.ArgumentParser(
        prog=f"repro.experiments.{name}",
        description=f"regenerate {name} (see the module docstring)")
    add_engine_arguments(parser)
    args = parser.parse_args(argv)
    runner = runner_from_args(args)
    planner = PLANNERS.get(name)
    if planner is not None:
        # Profiling covers the simulation sweep (the figure's own run
        # loop afterwards is pure memo hits, not worth the overhead).
        from ..common.profile_util import profiled
        plan = planner()
        with profiled(args.outdir, enabled=args.profile):
            run_supervised(supervisor_from_args(args, runner, name),
                           plan)
        info = runner.cache_info()
        if info.requests:
            print(f"  [{name}] run cache: {info.describe()}",
                  file=sys.stderr)
            print(f"  [{name}] trace cache: "
                  f"{describe_trace_info(trace_cache_info())}",
                  file=sys.stderr)
    return runner
