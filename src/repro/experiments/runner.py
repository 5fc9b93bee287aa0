"""Shared experiment engine: memoized, disk-cached, parallel runs.

Several figures reuse the same simulation points (e.g. the 1 MB-LLC
baseline appears in Figs. 11, 12, 14, 16); the runner caches completed
:class:`RunResult` objects per configuration key so a full-suite
regeneration simulates each point exactly once.  On top of the
in-process memo this module provides a **persistent run cache**
(pickles under ``results/.runcache/`` by default, keyed by a stable
hash of the :class:`RunKey` plus a fingerprint of the fully-resolved
:class:`SystemConfig`) so re-runs and partial sweeps skip
already-simulated points across processes.
:class:`repro.experiments.supervisor.Supervisor` fans a plan's
uncached points out over worker processes and hands the results back
through :meth:`ExperimentRunner.record_result`.

Every path funnels through :func:`simulate_run_key`, so parallel,
cached, and sequential executions produce bit-identical statistics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..common.config import MemoryConfig, SystemConfig, apply_overrides
from ..common.durable import DurableStore
from ..core.simulator import (
    RunResult,
    configure_trace_store,
    run_simulation,
    trace_dims,
)
from ..core.system import make_resident_system, make_system
from ..sw.tracestore import TRACECACHE_DIRNAME  # noqa: F401 (re-export)

#: Paper Fig. 17 evaluates a 1.6x faster main memory.
FAST_MEMORY_FACTOR = 1.6

#: Bump when the on-disk payload layout changes; old entries become
#: silent misses rather than unpickling hazards.  v2: per-request
#: latency histogram counters (``cpu.lat_hist_b*``) and the kernelized
#: replay path's always-present counter cells joined the stats.  v3:
#: ``SystemConfig`` grew the die-stacked ``tier`` field — pre-tier
#: entries (whose fingerprints lack it) can never collide with
#: tier-enabled runs.
CACHE_FORMAT_VERSION = 3

#: Default location of the persistent run cache, relative to an
#: experiment output directory.
RUNCACHE_DIRNAME = ".runcache"


@dataclass(frozen=True)
class RunKey:
    """Identity of one simulation point.

    ``overrides`` carries optional :class:`SystemConfig` overrides as a
    sorted tuple of ``(dotted_path, value)`` pairs (hashable, so keys
    with overrides still memoize) — see
    :func:`repro.common.config.apply_overrides` for the path schema.
    The figure planners never set it; the simulation service does.

    ``trace`` names the trace the point replays: ``""`` (the default)
    is the protocol's, compiled for the system's logical
    dimensionality over the matching layout; the other names are the
    closed table :data:`repro.core.simulator.TRACE_VARIANTS`
    (``"legacy"``, ``"tiled16"``).  It is the last field, so keys built
    positionally stay valid.
    """

    design: str
    workload: str
    size: str
    llc_mb: float
    resident: bool
    memory: str  # "default" or "fast"
    sample_every: int
    overrides: Tuple[Tuple[str, object], ...] = ()
    trace: str = ""


def memory_config(variant: str) -> MemoryConfig:
    """The :class:`MemoryConfig` for a run key's memory variant."""
    base = MemoryConfig()
    if variant == "default":
        return base
    if variant == "fast":
        return base.faster(FAST_MEMORY_FACTOR)
    raise ValueError(f"unknown memory variant {variant!r}")


def system_for_key(key: RunKey) -> SystemConfig:
    """Build the fully-resolved system a run key describes."""
    mem_cfg = memory_config(key.memory)
    if key.resident:
        system = make_resident_system(key.design, memory=mem_cfg)
    else:
        system = make_system(key.design, key.llc_mb, memory=mem_cfg)
    if key.overrides:
        system = apply_overrides(system, dict(key.overrides))
    return system


def replay_key(key: RunKey) -> RunResult:
    """Replay ``key``'s trace on its system.

    Uncached: no memo, run cache or journal.  Every execution path
    bottoms out here, and an experiment called without a runner
    replays its points through it directly.
    """
    return run_simulation(system_for_key(key), workload=key.workload,
                          size=key.size, sample_every=key.sample_every,
                          variant=key.trace)


def simulate_run_key(key: RunKey) -> RunResult:
    """Execute one simulation point (the single source of truth).

    Sequential runs, pool workers, and cache refills all call this, so
    every execution path yields bit-identical statistics.  It is
    :func:`replay_key` under the name that counts a point the runner
    or the supervisor simulated.
    """
    return replay_key(key)


#: ``config_fingerprint`` per resolved system, keyed by the system's
#: ``repr`` (every field, exactly): a sweep's keys share a few dozen
#: systems, and the fingerprint's deep copy dominates ``cache_key``.
_FINGERPRINTS: Dict[str, str] = {}
_FINGERPRINTS_MAX = 1024


def config_fingerprint(system: SystemConfig) -> str:
    """Stable hash of every field of a resolved system configuration.

    Any change to :class:`MemoryConfig`, :class:`CacheLevelConfig`,
    :class:`CpuConfig`, or the level stack itself changes the
    fingerprint, invalidating persistent cache entries made under the
    old configuration.  Memoized per system.
    """
    token = repr(system)
    fingerprint = _FINGERPRINTS.get(token)
    if fingerprint is None:
        payload = dataclasses.asdict(system)
        blob = json.dumps(payload, sort_keys=True, default=str)
        fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if len(_FINGERPRINTS) >= _FINGERPRINTS_MAX:
            _FINGERPRINTS.clear()
        _FINGERPRINTS[token] = fingerprint
    return fingerprint


def cache_key(key: RunKey) -> str:
    """Filename-safe persistent-cache key for one simulation point."""
    key_fields = dataclasses.asdict(key)
    if not key_fields.get("overrides"):
        # Keys without overrides hash exactly as they did before the
        # field existed, keeping pre-existing cache entries and journal
        # identities valid.
        key_fields.pop("overrides", None)
    if not key_fields.get("trace"):
        # Same compatibility rule for the trace field: protocol-default
        # traces keep their pre-existing hashes.
        key_fields.pop("trace", None)
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "key": key_fields,
        "config": config_fingerprint(system_for_key(key)),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class RunCache(DurableStore):
    """Persistent on-disk store of completed :class:`RunResult` objects.

    One pickle per simulation point, written atomically; a corrupt or
    format-mismatched entry reads as a miss, never as an error.  A
    corrupt entry is additionally *quarantined* — renamed to
    ``<entry>.pkl.corrupt`` and counted in ``corrupt_quarantined`` —
    so it is read (and fails) once instead of on every lookup, and the
    bad bytes survive for postmortem inspection.  A write that cannot
    happen (lock held, counted in ``lock_timeouts``; disk full; root
    not creatable) is skipped rather than failing the sweep
    (:class:`~repro.common.durable.DurableStore`).
    """

    def __init__(self, root: str,
                 lock_timeout: float = 10.0) -> None:
        super().__init__(root, ".pkl", lock_timeout)

    def path_for(self, key: RunKey, name: Optional[str] = None) -> str:
        """The entry file of ``key``; ``name`` is its
        :func:`cache_key` when the caller already computed it."""
        return os.path.join(self._root,
                            (name or cache_key(key)) + ".pkl")

    def load(self, key: RunKey,
             name: Optional[str] = None) -> Optional[RunResult]:
        path = self.path_for(key, name)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError):
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if payload.get("format") != CACHE_FORMAT_VERSION:
            # A valid entry from an older writer: a silent miss (it is
            # overwritten in place on the next store), not corruption.
            return None
        return payload.get("result")

    def store(self, key: RunKey, result: RunResult) -> None:
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "key": dataclasses.asdict(key),
            "result": result,
        }

        def dump(tmp: str) -> None:
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)

        self._write(self.path_for(key), dump)


@dataclass
class CacheInfo:
    """Hit/miss accounting for one :class:`ExperimentRunner`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    corrupt_quarantined: int = 0
    lock_timeouts: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def hit_fraction(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        text = (f"{self.memory_hits} memo hits, {self.disk_hits} disk "
                f"hits, {self.misses} simulated")
        if self.corrupt_quarantined:
            text += (f", {self.corrupt_quarantined} corrupt entries "
                     f"quarantined")
        if self.lock_timeouts:
            text += f", {self.lock_timeouts} writes skipped (lock held)"
        return text


def trace_key_for(key: RunKey) -> Tuple[str, str, int, str]:
    """The ``(workload, size, logical_dims, variant)`` trace identity
    of a key (the arguments of :func:`ensure_trace`).

    Every design point sharing it replays the same packed trace; the
    scheduler materializes each distinct one once in the parent before
    forking workers.
    """
    dims = trace_dims(key.trace, system_for_key(key).logical_dims)
    return key.workload, key.size, dims, key.trace


class ExperimentRunner:
    """Builds systems, runs simulations, memoizes and caches results.

    Args:
        verbose: log each simulated (or disk-recalled) point to stderr.
        jobs: worker-process count a :class:`Supervisor` fans this
            runner's plans out over.
        cache_dir: directory of the persistent run cache; ``None``
            (the default) keeps the runner purely in-memory.
        refresh: ignore existing persistent entries (they are
            overwritten with freshly simulated results).
        trace_dir: directory of the persistent packed-trace store;
            ``None`` leaves the process-global store configuration
            untouched.
    """

    def __init__(self, verbose: bool = False, jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 refresh: bool = False,
                 trace_dir: Optional[str] = None) -> None:
        self._cache: Dict[RunKey, RunResult] = {}
        self._verbose = verbose
        self._jobs = max(1, int(jobs))
        self._disk = RunCache(cache_dir) if cache_dir else None
        self._refresh = refresh
        self._info = CacheInfo()
        if trace_dir is not None:
            configure_trace_store(trace_dir)

    # -- running -------------------------------------------------------------

    def run(self, design: str, workload: str, size: str = "large",
            llc_mb: float = 1.0, resident: bool = False,
            memory: str = "default",
            sample_every: int = 0) -> RunResult:
        """Simulate (or recall) one point (see :meth:`run_key`)."""
        return self.run_key(RunKey(design, workload, size, llc_mb,
                                   resident, memory, sample_every))

    def run_key(self, key: RunKey) -> RunResult:
        """Simulate (or recall) the point ``key`` names."""
        cached = self._cache.get(key)
        if cached is not None:
            self._info.memory_hits += 1
            return cached
        result = self._load_from_disk(key)
        if result is not None:
            self._info.disk_hits += 1
            self._cache[key] = result
            self._log(key, result, seconds=0.0, source="runcache")
            return result
        self._info.misses += 1
        started = time.time()
        result = simulate_run_key(key)
        self._log(key, result, seconds=time.time() - started)
        self._store(key, result)
        return result

    # -- cache management ----------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Forget memoized results and reset hit/miss accounting.

        Args:
            disk: also delete the persistent cache entries on disk.
        """
        self._cache.clear()
        self._info = CacheInfo()
        if disk and self._disk is not None:
            self._disk.clear()

    def cache_info(self) -> CacheInfo:
        """A snapshot of the hit/miss accounting so far."""
        info = dataclasses.replace(self._info)
        if self._disk is not None:
            info.corrupt_quarantined = self._disk.corrupt_quarantined
            info.lock_timeouts = self._disk.lock_timeouts
        return info

    # -- supervisor hooks ----------------------------------------------------

    def lookup(self, key: RunKey,
               name: Optional[str] = None) -> Optional[RunResult]:
        """Memo-or-disk lookup with hit accounting; never simulates.

        ``name`` is ``key``'s :func:`cache_key` when the caller already
        computed it (the supervisor journals every key under it)."""
        cached = self._cache.get(key)
        if cached is not None:
            self._info.memory_hits += 1
            return cached
        result = self._load_from_disk(key, name)
        if result is not None:
            self._info.disk_hits += 1
            self._cache[key] = result
            self._log(key, result, seconds=0.0, source="runcache")
        return result

    def record_result(self, key: RunKey, result: RunResult,
                      seconds: float = 0.0) -> None:
        """Adopt an externally simulated result into memo and disk.

        Counts as a miss (the point really was simulated, just under
        the supervisor's control rather than :meth:`run`'s).
        """
        self._info.misses += 1
        self._log(key, result, seconds=seconds)
        self._store(key, result)

    @property
    def runs_completed(self) -> int:
        return len(self._cache)

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def run_cache(self) -> Optional[RunCache]:
        return self._disk

    # -- internals -----------------------------------------------------------

    def _load_from_disk(self, key: RunKey,
                        name: Optional[str] = None) -> Optional[RunResult]:
        if self._disk is None or self._refresh:
            return None
        return self._disk.load(key, name)

    def _store(self, key: RunKey, result: RunResult) -> None:
        self._cache[key] = result
        if self._disk is not None:
            self._disk.store(key, result)

    def _log(self, key: RunKey, result: RunResult, seconds: float,
             source: str = "simulated") -> None:
        if not self._verbose:
            return
        origin = "" if source == "simulated" else f" <{source}>"
        trace = f" [{key.trace}]" if key.trace else ""
        print(f"  ran {key.design} / {key.workload}{trace} / {key.size} "
              f"(llc={key.llc_mb}MB mem={key.memory}"
              f"{' resident' if key.resident else ''}): "
              f"{result.cycles} cycles "
              f"[{seconds:.1f}s]{origin}",
              file=sys.stderr)
