"""Regenerate every experiment into a results directory.

``python -m repro.experiments.run_all [outdir]`` writes one ``.txt``
report per table/figure (plus the extensions) and a ``summary.json``
with the headline metrics — the full-evaluation artifact a release
would ship.  Runs share one :class:`ExperimentRunner`, so common
simulation points are computed once.  The planned simulation points of
every selected experiment are collected and deduplicated up front, then
satisfied from the persistent run cache under ``OUTDIR/.runcache``
(``--no-cache`` / ``--refresh`` to bypass) and simulated in parallel
under ``--jobs N``.  Every single-core simulation the suite performs is
planned; only the experiments in :data:`plans.UNPLANNED` run outside
the plan (table1 and fig10 simulate nothing, multiprogram runs the
multicore object path), so a warm cache simulates nothing but
multiprogram's pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .dynamic_orientation import run_dynamic_orientation
from .energy import run_energy
from .fig10 import run_fig10
from .fig11 import run_fig11
from .fig12 import run_fig12
from .fig13 import run_fig13
from .fig14 import run_fig14
from .fig15 import run_fig15
from .fig16 import run_fig16
from .fig17 import run_fig17
from .future_tiling import run_future_tiling
from .layout_mismatch import run_layout_mismatch
from .multiprogram import run_multiprogram
from ..common.errors import (
    EXIT_INTERRUPTED,
    EXIT_SWEEP_FAILED,
    SweepFailed,
    SweepInterrupted,
)
from ..cache.hierarchy import CacheHierarchy
from ..common.stats import StatRegistry
from ..core import kernels
from ..core.simulator import trace_cache_info
from ..sw.tracestore import TRACECACHE_DIRNAME
from . import faults
from .plans import UNPLANNED, describe_trace_info, plan_for
from .runner import (
    RUNCACHE_DIRNAME,
    ExperimentRunner,
    RunKey,
    system_for_key,
)
from .supervisor import RetryPolicy, RunJournal, Supervisor
from .table1 import run_table1
from .tier_modes import run_tier_modes


def _experiments(runner: Optional[ExperimentRunner]) \
        -> Dict[str, Tuple[Callable[[], object],
                           Callable[[object], Dict[str, float]]]]:
    """Name -> (runner thunk, summary extractor).

    ``runner`` may be ``None`` when only the name set matters (the
    thunks capture it lazily and are never called then, e.g. by
    :func:`coverage_report`).
    """
    return {
        "table1": (run_table1, lambda r: {}),
        "fig10": (run_fig10, lambda r: {
            "avg_column_fraction_large":
                r.average_column_fraction("large")}),
        "fig11": (lambda: run_fig11(runner), lambda r: {
            "avg_normalized_l1_hit_rate_1p2l":
                r.average_normalized("1P2L")}),
        "fig12": (lambda: run_fig12(runner), lambda r: {
            f"avg_normalized_cycles_1p2l_{llc}mb":
                r.average_normalized(llc, "1P2L")
            for llc in r.llc_points}),
        "fig13": (lambda: run_fig13(runner), lambda r: {
            "avg_normalized_cycles_resident_1p2l":
                r.average_normalized("1P2L")}),
        "fig14": (lambda: run_fig14(runner), lambda r: {
            "avg_normalized_llc_accesses_1p2l":
                r.average_accesses("1P2L"),
            "avg_normalized_memory_bytes_1p2l":
                r.average_bytes("1P2L")}),
        "fig15": (lambda: run_fig15(runner), lambda r: {
            "ssyrk_llc_peak_column_occupancy":
                r.series["ssyrk"]["L3"].peak()}),
        "fig16": (lambda: run_fig16(runner), lambda r: {
            "slow_write_gap": r.asymmetry_gap()}),
        "fig17": (lambda: run_fig17(runner), lambda r: {
            "avg_normalized_1p2l_vs_fast_baseline":
                r.average_normalized("1P2L")}),
        "layout_mismatch": (lambda: run_layout_mismatch(runner), lambda r: {
            "avg_slowdown": r.average_slowdown()}),
        "future_tiling": (lambda: run_future_tiling(runner), lambda r: {
            "collaborative_wins": float(r.collaborative_wins())}),
        "energy": (lambda: run_energy(runner), lambda r: {
            "avg_normalized_energy_1p2l":
                r.average_normalized("1P2L")}),
        "dynamic_orientation": (
            lambda: run_dynamic_orientation(runner), lambda r: {
                "fill_reduction": r.fill_reduction(),
                "cycle_payoff": r.prediction_payoff()}),
        "multiprogram": (run_multiprogram, lambda r: {
            "avg_normalized_makespan_1p2l":
                r.average_normalized("1P2L"),
            "avg_sub_buffer_gain": r.average_sub_buffer_gain()}),
        "tier_modes": (lambda: run_tier_modes(runner), lambda r: {
            "avg_normalized_cycles_tier_cache":
                r.average_normalized("1P2L+DC$"),
            "avg_normalized_cycles_tier_flat":
                r.average_normalized("1P2L+DFlat"),
            "avg_normalized_cycles_tier_hybrid":
                r.average_normalized("1P2L+DC$/Flat"),
            "tier_cache_hit_rate": r.tier_hit_rate("1P2L+DC$")}),
    }


def dispatch_for_key(key: RunKey) -> str:
    """Which replay engine one planned point dispatches to.

    Mirrors :meth:`TraceDrivenCpu.run` without materializing the
    trace: :func:`repro.core.kernels.supports` against the point's
    real hierarchy decides, sampled or not.  Returns ``"kernel"`` or
    ``"object"``.
    """
    hierarchy = CacheHierarchy(system_for_key(key), StatRegistry(),
                               "lru")
    return "kernel" if kernels.supports(hierarchy) else "object"


def coverage_report(names: Optional[Tuple[str, ...]] = None) \
        -> Dict[str, str]:
    """Replay-engine dispatch per planned figure configuration.

    Collapses the selected experiments' run plans to the unique
    configurations that decide dispatch (design, memory variant,
    resident mapping, sampled or not, die-stacked tier mode —
    workloads and LLC sizes share a hierarchy shape) and classifies
    each one.  This is the
    ``run_all --dry-run`` payload; ``benchmarks/check_kernel_coverage``
    diffs it against a committed baseline so a config silently falling
    off the fast paths fails CI.  It replays nothing, but planning is
    not free of traces: fig15's planner materializes its two sampled
    traces to size the sampling stride (:func:`fig15.stride_for`).
    """
    experiments = _experiments(None)
    selected = [name for name in experiments
                if not names or name in names]
    report: Dict[str, str] = {}
    for key in plan_for(selected):
        label = (f"{key.design}|mem={key.memory}"
                 f"|resident={int(key.resident)}"
                 f"|sampled={int(bool(key.sample_every))}")
        tier_mode = dict(key.overrides).get("tier.mode")
        if tier_mode:
            # Tier-enabled points classify separately: the gate must
            # see that adding the tier did not de-kernelize the config.
            label += f"|tier={tier_mode}"
        if label not in report:
            report[label] = dispatch_for_key(key)
    return dict(sorted(report.items()))


def run_all(outdir: str = "results",
            only: Optional[Tuple[str, ...]] = None,
            verbose: bool = True,
            jobs: int = 1,
            use_cache: bool = True,
            refresh: bool = False,
            resume: bool = False,
            max_retries: int = 2,
            run_timeout: Optional[float] = None,
            inject_faults: Optional[str] = None) \
        -> Dict[str, Dict[str, float]]:
    """Run every (or the selected) experiment; returns the summary.

    Args:
        outdir: results directory; the persistent run cache lives in
            ``outdir/.runcache`` unless ``use_cache`` is false, and
            the lifecycle journal in ``outdir/.runjournal``.
        only: restrict to these experiment names.
        verbose: progress logging on stderr.
        jobs: worker processes for the shared simulation points.
        use_cache: read/write the persistent run cache.
        refresh: re-simulate cached points, overwriting their entries.
        resume: replay the ``run_all`` journal and pick up where an
            interrupted sweep stopped (completed points come back from
            the persistent cache).
        max_retries: retry budget per simulation point for transient
            failures (crashed/hung workers, timeouts).
        run_timeout: per-point wall-clock budget in seconds (pool
            mode); ``None`` disables it.
        inject_faults: deterministic fault-injection spec (see
            :mod:`repro.experiments.faults`); ``None`` leaves the
            ``REPRO_FAULTS`` environment arming untouched.

    Raises:
        SweepInterrupted: SIGINT/SIGTERM stopped the sweep (the
            journal was flushed first; rerun with ``resume=True``).
        SweepFailed: a point exhausted its retries or failed hard.
    """
    os.makedirs(outdir, exist_ok=True)
    cache_dir = os.path.join(outdir, RUNCACHE_DIRNAME) if use_cache \
        else None
    trace_dir = os.path.join(outdir, TRACECACHE_DIRNAME) if use_cache \
        else None
    runner = ExperimentRunner(verbose=verbose, jobs=jobs,
                              cache_dir=cache_dir, refresh=refresh,
                              trace_dir=trace_dir)
    experiments = _experiments(runner)
    selected = [name for name in experiments
                if not only or name in only]
    # Collect every planned simulation point across the selected
    # figures up front, dedupe, and fill the runner's memo (from the
    # persistent cache where possible, worker processes otherwise);
    # the per-figure run loops below then replay them as memo hits.
    plan = plan_for(selected)
    if plan:
        if verbose:
            print(f"== prefetch: {len(plan)} unique simulation points "
                  f"==", file=sys.stderr)
        fault_plan = faults.parse_spec(inject_faults) \
            if inject_faults else None
        supervisor = Supervisor(
            runner,
            journal=RunJournal.for_suite(outdir, "run_all"),
            policy=RetryPolicy(max_retries=max(0, max_retries)),
            run_timeout=run_timeout,
            resume=resume,
            fault_plan=fault_plan)
        report = supervisor.supervise(plan)
        if verbose and (report.retries or report.resumed
                        or report.degraded_serial):
            print(f"== supervisor: {report.describe()} ==",
                  file=sys.stderr)
    summary: Dict[str, Dict[str, float]] = {}
    for name in selected:
        thunk, extract = experiments[name]
        started = time.time()
        if verbose:
            print(f"== {name} ==", file=sys.stderr)
        result = thunk()
        report = result.report()
        with open(os.path.join(outdir, f"{name}.txt"), "w") as handle:
            handle.write(report + "\n")
        summary[name] = dict(extract(result),
                             seconds=round(time.time() - started, 1))
    if verbose:
        info = runner.cache_info()
        print(f"== run cache: {info.describe()} ==", file=sys.stderr)
        print(f"== trace cache: "
              f"{describe_trace_info(trace_cache_info())} ==",
              file=sys.stderr)
    with open(os.path.join(outdir, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return summary


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.run_all",
        description="regenerate every experiment artifact")
    parser.add_argument("outdir", nargs="?", default=None,
                        help="output directory (default: results)")
    parser.add_argument("--outdir", dest="outdir_opt", default=None,
                        metavar="DIR",
                        help="output directory (flag form, for "
                             "`repro experiment run_all`)")
    parser.add_argument("names", nargs="*",
                        help="restrict to these experiments "
                             "(default: all)")
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
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep from its "
                             "journal (OUTDIR/.runjournal)")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="retry a transiently failed run at most "
                             "N times (default: 2)")
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECS",
                        help="per-run wall-clock budget; over-budget "
                             "runs are killed and retried")
    parser.add_argument("--inject-faults", default=None,
                        metavar="SPEC",
                        help="deterministic fault injection, e.g. "
                             "worker_crash:0.1,seed:7 (also read "
                             "from $REPRO_FAULTS)")
    parser.add_argument("--dry-run", action="store_true",
                        help="simulate nothing: print the replay-"
                             "engine dispatch (kernel/object) "
                             "of every planned figure configuration "
                             "as JSON and exit")
    args = parser.parse_args(argv)
    outdir = args.outdir_opt or args.outdir or "results"
    if args.dry_run:
        report = coverage_report(tuple(args.names) or None)
        if not args.quiet:
            counts: Dict[str, int] = {}
            for engine in report.values():
                counts[engine] = counts.get(engine, 0) + 1
            described = ", ".join(f"{count} {engine}" for engine, count
                                  in sorted(counts.items()))
            unplanned = ", ".join(
                f"{name} ({why})" for name, why in UNPLANNED.items()
                if not args.names or name in args.names)
            print(f"== kernel coverage: {len(report)} configs "
                  f"({described}); unplanned: {unplanned or 'none'} ==",
                  file=sys.stderr)
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    try:
        summary = run_all(outdir, tuple(args.names) or None,
                          verbose=not args.quiet, jobs=args.jobs,
                          use_cache=not args.no_cache,
                          refresh=args.refresh,
                          resume=args.resume,
                          max_retries=args.max_retries,
                          run_timeout=args.run_timeout,
                          inject_faults=args.inject_faults)
    except SweepInterrupted as exc:
        print(f"interrupted: {exc}\n(rerun with --resume to pick up "
              f"where this sweep stopped)", file=sys.stderr)
        raise SystemExit(EXIT_INTERRUPTED) from exc
    except SweepFailed as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_SWEEP_FAILED) from exc
    print(json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
