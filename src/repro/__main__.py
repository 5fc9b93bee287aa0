"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``       — designs, workloads, and experiments available.
* ``run``        — simulate one workload on one design and print stats.
* ``experiment`` — regenerate one of the paper's tables/figures.
* ``sweep``      — normalized cycles for every design at one LLC point.
* ``trace``      — generate a trace file from a workload, replay a
  trace file (text or packed binary) through a design, or convert
  between the two formats (``pack`` / ``cat``).
* ``journal``    — inspect a sweep's lifecycle journal
  (``OUTDIR/.runjournal/<suite>.jsonl``): what finished, what failed,
  what a dead sweep was doing when it stopped.
* ``serve``      — run the simulation service: an HTTP server that
  answers JSON simulation requests from the shared result cache,
  coalesces duplicates, and batches the rest through the supervisor
  (see ``docs/SERVICE.md``).

Exit codes: 0 success (including a ``serve`` drained by SIGTERM),
2 usage error, 3 a supervised sweep had permanently failed points,
130 interrupted by SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.simulator import run_simulation
from .core.system import DESIGN_NAMES, LLC_SIZES, make_system
from .workloads.registry import workload_names

_EXPERIMENTS = ("table1", "fig10", "fig11", "fig12", "fig13", "fig14",
                "fig15", "fig16", "fig17", "layout_mismatch",
                "future_tiling", "energy", "dynamic_orientation",
                "multiprogram", "tier_modes", "run_all")


def _cmd_list(_: argparse.Namespace) -> int:
    print("designs:    ", ", ".join(DESIGN_NAMES))
    print("workloads:  ", ", ".join(workload_names()))
    print("llc points: ", ", ".join(f"{mb}MB" for mb in
                                    sorted(LLC_SIZES)))
    print("experiments:", ", ".join(_EXPERIMENTS))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    system = make_system(args.design, args.llc)
    result = run_simulation(system, workload=args.workload,
                            size=args.size)
    if args.json:
        from .core.report import run_to_dict
        import json as _json
        print(_json.dumps(run_to_dict(result, args.stats), indent=2,
                          sort_keys=True))
        return 0
    print(result.describe())
    print(f"LLC requests: {result.llc_requests()}, memory bytes: "
          f"{result.memory_bytes()}")
    if args.stats:
        print()
        print(result.stats.report())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib
    import inspect
    if args.name not in _EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; known: "
              f"{', '.join(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"repro.experiments.{args.name}")
    forwarded: List[str] = ["--outdir", args.outdir]
    if args.jobs != 1:
        forwarded += ["--jobs", str(args.jobs)]
    if args.no_cache:
        forwarded.append("--no-cache")
    if args.refresh:
        forwarded.append("--refresh")
    if args.resume:
        forwarded.append("--resume")
    if args.max_retries != 2:
        forwarded += ["--max-retries", str(args.max_retries)]
    if args.run_timeout is not None:
        forwarded += ["--run-timeout", str(args.run_timeout)]
    if args.inject_faults:
        forwarded += ["--inject-faults", args.inject_faults]
    # Profiling wraps the whole experiment here (not via a forwarded
    # flag) so it also covers experiments without a precomputable run
    # plan, whose mains take no arguments.
    from .common.profile_util import profiled
    with profiled(args.outdir, enabled=args.profile):
        if inspect.signature(module.main).parameters:
            module.main(forwarded)
        else:
            # Experiments without a precomputable run plan take no
            # flags.
            module.main()
    return 0


def _quarantined_entries(outdir: str) -> int:
    """Corrupt cache entries quarantined under ``OUTDIR/.runcache``."""
    import os
    from .common.durable import QUARANTINE_SUFFIX
    from .experiments.runner import RUNCACHE_DIRNAME
    cache_dir = os.path.join(outdir, RUNCACHE_DIRNAME)
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return 0
    return sum(1 for name in names
               if name.endswith(QUARANTINE_SUFFIX))


def _cmd_journal(args: argparse.Namespace) -> int:
    import os
    from .experiments.supervisor import (
        JOURNAL_DIRNAME,
        RunJournal,
        replay_journal,
    )
    journal_dir = os.path.join(args.outdir, JOURNAL_DIRNAME)
    if args.suite is None:
        if not os.path.isdir(journal_dir):
            print(f"no journals under {journal_dir}", file=sys.stderr)
            return 2
        suites = sorted(name[:-len(".jsonl")]
                        for name in os.listdir(journal_dir)
                        if name.endswith(".jsonl"))
        if not suites:
            print(f"no journals under {journal_dir}", file=sys.stderr)
            return 2
        for suite in suites:
            state = replay_journal(
                RunJournal.for_suite(args.outdir, suite).path)
            counts = ", ".join(f"{count} {name}" for name, count
                               in sorted(state.counts().items()))
            flag = " [interrupted]" if state.interrupted else ""
            print(f"{suite}: {counts or 'empty'}{flag}")
        quarantined = _quarantined_entries(args.outdir)
        if quarantined:
            print(f"corrupt_quarantined: {quarantined} cache entries "
                  f"under {args.outdir}")
        return 0
    journal = RunJournal.for_suite(args.outdir, args.suite)
    if not journal.exists():
        print(f"no journal for suite {args.suite!r} under "
              f"{journal_dir}", file=sys.stderr)
        return 2
    state = journal.replay()
    print(f"journal: {journal.path}")
    print(f"events:  {state.events}"
          + (f" ({state.corrupt_lines} corrupt lines skipped)"
             if state.corrupt_lines else ""))
    if state.interrupted:
        print("status:  INTERRUPTED (resume with --resume)")
    quarantined = _quarantined_entries(args.outdir)
    if quarantined:
        print(f"corrupt_quarantined: {quarantined} cache entries")
    for name, count in sorted(state.counts().items()):
        print(f"  {name:<9} {count}")
    unfinished = state.in_state("running") + state.in_state("pending")
    shown = 0
    for ck in state.in_state("failed") + unfinished:
        key = state.keys.get(ck, {})
        label = "/".join(str(key.get(field, "?")) for field in
                         ("design", "workload", "size"))
        detail = state.errors.get(ck, state.states[ck])
        attempts = state.attempts.get(ck, 0)
        print(f"  {state.states[ck]:<9} {label} "
              f"(attempt {attempts}): {detail}")
        shown += 1
        if shown >= args.limit:
            remaining = len(state.in_state("failed")) \
                + len(unfinished) - shown
            if remaining > 0:
                print(f"  ... and {remaining} more")
            break
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .experiments.plans import (
        runner_from_args,
        supervisor_from_args,
    )
    from .service.batching import SimulationService
    from .service.server import serve_main

    def build(index: int) -> SimulationService:
        """One worker's service stack (index -1 = single process).

        Called in the child after fork: the runner, supervisor, and
        journal must never exist in the master, whose only job is
        fork-and-supervise.  Each worker journals to its own suite
        file (concurrent appends to one JSONL would interleave); the
        workers share only the run cache.
        """
        runner = runner_from_args(args, verbose=False)
        suite = "service" if index < 0 else f"service-w{index}"
        # The service owns SIGTERM/SIGINT (graceful drain); the
        # supervisor must not install handlers off the main thread.
        supervisor = supervisor_from_args(args, runner, suite=suite,
                                          handle_signals=False)
        return SimulationService(runner, supervisor,
                                 max_pending=args.max_pending,
                                 max_batch=args.max_batch)

    if args.workers > 1:
        from .experiments import faults
        from .service.master import PreforkMaster
        # Arm before forking so every worker inherits the same plan.
        if args.inject_faults:
            faults.arm(faults.parse_spec(args.inject_faults))
        master = PreforkMaster(build, workers=args.workers,
                               host=args.host, port=args.port,
                               outdir=args.outdir)
        return master.run()
    return serve_main(build(-1), host=args.host, port=args.port)


def _cmd_sweep(args: argparse.Namespace) -> int:
    baseline = run_simulation(make_system("1P1L", args.llc),
                              workload=args.workload, size=args.size)
    print(f"{args.workload} ({args.size}), LLC {args.llc}MB — "
          f"normalized to 1P1L ({baseline.cycles} cycles):")
    for design in DESIGN_NAMES:
        if design == "1P1L":
            continue
        result = run_simulation(make_system(design, args.llc),
                                workload=args.workload, size=args.size)
        print(f"  {design:<16} {result.cycles / baseline.cycles:.3f}")
    return 0


def _is_packed_trace(path: str) -> bool:
    from .sw.tracefile import PACKED_MAGIC
    try:
        with open(path, "rb") as handle:
            return handle.read(len(PACKED_MAGIC)) == PACKED_MAGIC
    except OSError:
        return False


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.simulator import run_trace
    from .sw.tracefile import (
        read_packed_trace,
        read_trace,
        write_packed_trace,
        write_trace,
    )
    from .sw.tracegen import generate_packed_trace, generate_trace
    from .workloads.registry import build_workload
    if args.action == "gen":
        program = build_workload(args.workload, args.size)
        dims = 2 if args.mda else 1
        if args.packed:
            trace = generate_packed_trace(program, dims)
            count = write_packed_trace(trace, args.file,
                                       name=args.workload)
            kind = "packed requests"
        else:
            count = write_trace(generate_trace(program, dims),
                                args.file)
            kind = "requests"
        print(f"wrote {count} {kind} to {args.file}")
        return 0
    if args.action == "pack":
        from .common.types import PackedTrace
        trace = PackedTrace.from_requests(read_trace(args.input))
        count = write_packed_trace(trace, args.output, name=args.input)
        print(f"packed {count} requests into {args.output}")
        return 0
    if args.action == "cat":
        name, trace = read_packed_trace(args.file)
        if args.output:
            count = write_trace(iter(trace), args.output)
        else:
            count = write_trace(iter(trace), sys.stdout)
        print(f"unpacked {count} requests from {args.file} "
              f"(name: {name})", file=sys.stderr)
        return 0
    # `trace run` replays either format; packed files are detected by
    # their magic and take the allocation-free replay loop.
    if _is_packed_trace(args.file):
        name, trace = read_packed_trace(args.file)
        result = run_trace(make_system(args.design, args.llc),
                           trace, name=name or args.file)
    else:
        result = run_trace(make_system(args.design, args.llc),
                           read_trace(args.file), name=args.file)
    print(result.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MDACache (MICRO 2018) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list designs/workloads/experiments") \
        .set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="simulate one configuration")
    run_p.add_argument("design", choices=DESIGN_NAMES)
    run_p.add_argument("workload", choices=workload_names())
    run_p.add_argument("--size", choices=("small", "large"),
                       default="small")
    run_p.add_argument("--llc", type=float, default=1.0,
                       choices=sorted(LLC_SIZES))
    run_p.add_argument("--stats", action="store_true",
                       help="dump every counter")
    run_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    run_p.set_defaults(func=_cmd_run)

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    exp_p.add_argument("name")
    exp_p.add_argument("--jobs", "-j", type=int, default=1,
                       metavar="N",
                       help="simulate up to N points in parallel")
    exp_p.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent run cache")
    exp_p.add_argument("--refresh", action="store_true",
                       help="re-simulate and overwrite cached points")
    exp_p.add_argument("--outdir", default="results",
                       help="results directory holding .runcache "
                            "(default: results)")
    exp_p.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep from its "
                            "journal")
    exp_p.add_argument("--max-retries", type=int, default=2,
                       metavar="N",
                       help="retry budget per run for transient "
                            "failures (default: 2)")
    exp_p.add_argument("--run-timeout", type=float, default=None,
                       metavar="SECS",
                       help="per-run wall-clock budget")
    exp_p.add_argument("--inject-faults", default=None,
                       metavar="SPEC",
                       help="deterministic fault injection spec "
                            "(e.g. worker_crash:0.1,seed:7)")
    exp_p.add_argument("--profile", action="store_true",
                       help="profile the run under cProfile: dump "
                            "OUTDIR/profile.pstats and print the top "
                            "20 functions by cumulative time to "
                            "stderr; pool workers under --jobs N dump "
                            "per-worker profiles that merge into the "
                            "same file")
    exp_p.set_defaults(func=_cmd_experiment)

    journal_p = sub.add_parser(
        "journal", help="inspect a sweep's lifecycle journal")
    journal_p.add_argument("suite", nargs="?", default=None,
                           help="suite name (e.g. run_all, fig12); "
                                "omit to list all journals")
    journal_p.add_argument("--outdir", default="results",
                           help="results directory holding "
                                ".runjournal (default: results)")
    journal_p.add_argument("--limit", type=int, default=20,
                           metavar="N",
                           help="show at most N failed/unfinished "
                                "runs (default: 20)")
    journal_p.set_defaults(func=_cmd_journal)

    serve_p = sub.add_parser(
        "serve", help="run the simulation service (HTTP)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8371,
                         help="bind port; 0 picks a free port "
                              "(default: 8371)")
    serve_p.add_argument("--max-pending", type=int, default=256,
                         metavar="N",
                         help="admission-queue bound; requests beyond "
                              "it get 429 (default: 256)")
    serve_p.add_argument("--max-batch", type=int, default=32,
                         metavar="N",
                         help="largest simulation batch dispatched to "
                              "the supervisor (default: 32)")
    serve_p.add_argument("--workers", type=int, default=1,
                         metavar="N",
                         help="serve from N pre-forked worker "
                              "processes supervised by a master "
                              "(restart on crash/hang, shared result "
                              "cache); 1 = single process "
                              "(default: 1)")
    from .experiments.plans import add_engine_arguments
    add_engine_arguments(serve_p)
    serve_p.set_defaults(func=_cmd_serve)

    sweep_p = sub.add_parser("sweep",
                             help="all designs on one workload")
    sweep_p.add_argument("workload", choices=workload_names())
    sweep_p.add_argument("--size", choices=("small", "large"),
                         default="small")
    sweep_p.add_argument("--llc", type=float, default=1.0,
                         choices=sorted(LLC_SIZES))
    sweep_p.set_defaults(func=_cmd_sweep)

    trace_p = sub.add_parser("trace",
                             help="trace file generate/replay/convert")
    trace_sub = trace_p.add_subparsers(dest="action", required=True)
    gen_p = trace_sub.add_parser("gen", help="generate a trace file")
    gen_p.add_argument("workload", choices=workload_names())
    gen_p.add_argument("file")
    gen_p.add_argument("--size", choices=("small", "large"),
                       default="small")
    gen_p.add_argument("--mda", action="store_true",
                       help="compile for the logically 2-D target")
    gen_p.add_argument("--packed", action="store_true",
                       help="write the packed binary format")
    gen_p.set_defaults(func=_cmd_trace, action="gen")
    run_p2 = trace_sub.add_parser(
        "run", help="replay a trace file (text or packed)")
    run_p2.add_argument("design", choices=DESIGN_NAMES)
    run_p2.add_argument("file")
    run_p2.add_argument("--llc", type=float, default=1.0,
                        choices=sorted(LLC_SIZES))
    run_p2.set_defaults(func=_cmd_trace, action="run")
    pack_p = trace_sub.add_parser(
        "pack", help="convert a text v1 trace to packed binary")
    pack_p.add_argument("input", help="text trace file (v1 format)")
    pack_p.add_argument("output", help="packed binary trace to write")
    pack_p.set_defaults(func=_cmd_trace, action="pack")
    cat_p = trace_sub.add_parser(
        "cat", help="convert a packed binary trace to text v1")
    cat_p.add_argument("file", help="packed binary trace file")
    cat_p.add_argument("output", nargs="?", default=None,
                       help="text trace to write (default: stdout)")
    cat_p.set_defaults(func=_cmd_trace, action="cat")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
