"""Opt-in cProfile wrapping for the CLI entry points.

``repro experiment <name> --profile`` (and the per-figure CLIs, e.g.
``python -m repro.experiments.fig12 --profile``) wrap the run in
:func:`profiled`: the raw profile is dumped to ``OUTDIR/profile.pstats``
for offline analysis (``python -m pstats``, snakeviz, gprof2dot) and
the top functions by cumulative time are printed to stderr so a quick
look needs no extra tooling.

:mod:`cProfile` observes only the calling process, so :func:`profiled`
additionally exports the profile directory through
:data:`PROFILE_DIR_ENV`; forked pool workers see it and wrap each job
in :func:`maybe_profile_worker`, dumping cumulative per-worker stats
to ``OUTDIR/profile.worker-<pid>.pstats``.  On exit the parent merges
every worker dump into ``profile.pstats``, so ``--profile --jobs N``
reports the simulation work itself — including the kernel replay
that runs inside workers.

Distinct from :mod:`repro.sw.profiling`, which implements the paper's
access-direction profiling pass — this module profiles the simulator
itself.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from contextlib import contextmanager
from typing import IO, Iterator, Optional

#: Name of the dump written inside the results directory.
PROFILE_FILENAME = "profile.pstats"

#: Environment variable carrying the profile directory from a
#: :func:`profiled` block to forked pool workers.
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"

#: Filename prefix of per-worker profile dumps.
WORKER_PROFILE_PREFIX = "profile.worker-"

#: How many functions the stderr summary shows.
TOP_FUNCTIONS = 20

#: Process-global worker profiler, created lazily on the first
#: profiled job so one worker accumulates across all its jobs.
_worker_profiler: Optional[cProfile.Profile] = None


def _worker_dumps(outdir: str) -> list:
    """Per-worker profile dump paths inside ``outdir``, sorted."""
    try:
        names = os.listdir(outdir)
    except OSError:
        return []
    return sorted(os.path.join(outdir, name) for name in names
                  if name.startswith(WORKER_PROFILE_PREFIX)
                  and name.endswith(".pstats"))


@contextmanager
def maybe_profile_worker() -> Iterator[None]:
    """Profile one pool-worker job when the parent asked for it.

    Active when an enclosing :func:`profiled` block exported
    :data:`PROFILE_DIR_ENV` (forked workers inherit the environment).
    One process-global profiler accumulates across this worker's jobs;
    after every job the cumulative stats overwrite the worker's
    ``profile.worker-<pid>.pstats``, so the dump is complete whenever
    the pool tears the worker down.  A no-op without the variable.
    """
    global _worker_profiler
    outdir = os.environ.get(PROFILE_DIR_ENV)
    if not outdir:
        yield
        return
    if _worker_profiler is None:
        _worker_profiler = cProfile.Profile()
    _worker_profiler.enable()
    try:
        yield
    finally:
        _worker_profiler.disable()
        try:
            _worker_profiler.dump_stats(os.path.join(
                outdir,
                f"{WORKER_PROFILE_PREFIX}{os.getpid()}.pstats"))
        except OSError:  # pragma: no cover - outdir vanished mid-run
            pass


@contextmanager
def profiled(outdir: str, enabled: bool = True,
             stream: Optional[IO[str]] = None) -> Iterator[None]:
    """Profile the enclosed block when ``enabled``.

    Writes ``<outdir>/profile.pstats`` (creating ``outdir`` if needed)
    and prints the top :data:`TOP_FUNCTIONS` entries sorted by
    cumulative time to ``stream`` (default: stderr).  Pool workers
    forked inside the block profile their jobs too (see
    :func:`maybe_profile_worker`); their dumps merge into the final
    ``profile.pstats``.  With ``enabled`` false the block runs
    untouched — callers wire the flag straight through without
    branching.
    """
    if not enabled:
        yield
        return
    out = stream if stream is not None else sys.stderr
    os.makedirs(outdir, exist_ok=True)
    # Stale worker dumps from a previous profiled run would merge into
    # this one's numbers; start clean.
    for stale in _worker_dumps(outdir):
        try:
            os.remove(stale)
        except OSError:
            pass
    prior = os.environ.get(PROFILE_DIR_ENV)
    os.environ[PROFILE_DIR_ENV] = os.path.abspath(outdir)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        if prior is None:
            os.environ.pop(PROFILE_DIR_ENV, None)
        else:
            os.environ[PROFILE_DIR_ENV] = prior
        path = os.path.join(outdir, PROFILE_FILENAME)
        profiler.dump_stats(path)
        stats = pstats.Stats(profiler, stream=out)
        merged = 0
        for dump in _worker_dumps(outdir):
            try:
                stats.add(dump)
                merged += 1
            except Exception:  # noqa: BLE001 - a torn dump is a skip
                continue
        if merged:
            # Re-dump so the on-disk profile matches the printed one:
            # parent scheduling plus every worker's simulation work.
            stats.dump_stats(path)
        stats.sort_stats("cumulative").print_stats(TOP_FUNCTIONS)
        suffix = f" (+{merged} worker profiles)" if merged else ""
        print(f"[profile] full profile written to {path}{suffix}",
              file=out)
