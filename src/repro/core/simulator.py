"""The simulation driver: one workload through one system.

``run_simulation`` is the package's main entry point: it builds the
hierarchy, compiles the workload for the system's logical dimensionality
(choosing the matching memory layout per the paper's protocol), drives
the trace through the CPU model, and returns a :class:`RunResult` with
every statistic the experiment modules consume.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..common.config import SystemConfig
from ..common.stats import StatRegistry
from ..common.types import PackedTrace, ShardPlan
from ..sw.layout import Layout, make_layout
from ..sw.program import Program
from ..sw.tracegen import generate_packed_trace
from ..sw.tracestore import TraceStore
from ..workloads.registry import build_workload
from .cpu import TraceDrivenCpu

# -- Trace materialization cache ---------------------------------------------
#
# A trace is a pure function of (workload, size, logical_dims) when the
# layout is the protocol default, yet every design point sharing those
# three re-walked the kernel IR from scratch.  Materializing the packed
# trace once and replaying it across designs removes the whole compile +
# walk cost from all but the first run of each (workload, size, dims).
#
# Three tiers, fastest first:
#   1. in-process memo (this OrderedDict; shared copy-on-write with
#      forked pool workers when the parent materializes before forking);
#   2. the persistent trace store, when one has been configured
#      (``OUTDIR/.tracecache``) — a disk read instead of a kernel walk;
#   3. trace generation proper, which also populates the store.

_TraceKey = Tuple[str, str, int]
_TRACE_CACHE: "OrderedDict[_TraceKey, Tuple[str, PackedTrace]]" = \
    OrderedDict()
_TRACE_CACHE_MAX = 16
_TRACE_STORE: Optional[TraceStore] = None
_trace_cache_hits = 0
_trace_cache_misses = 0
_trace_store_hits = 0
_trace_store_misses = 0
_traces_generated = 0


def configure_trace_store(root: Optional[str]) -> Optional[TraceStore]:
    """Attach (or detach, with ``None``) the persistent trace store.

    Returns the active store.  The store is process-global because the
    materialization memo it backs is too; forked pool workers inherit
    the configuration.
    """
    global _TRACE_STORE
    _TRACE_STORE = TraceStore(root) if root else None
    return _TRACE_STORE


def trace_store() -> Optional[TraceStore]:
    """The currently configured persistent trace store, if any."""
    return _TRACE_STORE


def ensure_trace(workload: str, size: str,
                 logical_dims: int) -> Tuple[str, PackedTrace]:
    """Materialize (memo -> store -> generate) one default-layout trace.

    The scheduler calls this in the parent process for every distinct
    trace a run plan needs before forking workers, so the whole process
    tree generates each trace at most once.
    """
    return _materialized_trace(workload, size, logical_dims)


def _generate(program: Program, logical_dims: int,
              layout: Layout) -> PackedTrace:
    """Walk ``program`` into a packed trace (one counted generation)."""
    global _traces_generated
    trace = generate_packed_trace(program, logical_dims, layout)
    _traces_generated += 1
    return trace


def _materialized_trace(workload: str, size: str,
                        logical_dims: int) -> Tuple[str, PackedTrace]:
    """(program name, packed trace) for a default-layout workload."""
    global _trace_cache_hits, _trace_cache_misses
    global _trace_store_hits, _trace_store_misses
    key = (workload, size, logical_dims)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        _trace_cache_hits += 1
        _TRACE_CACHE.move_to_end(key)
        return cached
    _trace_cache_misses += 1
    entry = None
    if _TRACE_STORE is not None:
        entry = _TRACE_STORE.load(workload, size, logical_dims)
        if entry is not None:
            _trace_store_hits += 1
        else:
            _trace_store_misses += 1
    if entry is None:
        program = build_workload(workload, size)
        layout = make_layout(program.arrays, logical_dims)
        trace = _generate(program, logical_dims, layout)
        entry = (program.name, trace)
        if _TRACE_STORE is not None:
            _TRACE_STORE.store(workload, size, logical_dims,
                               program.name, trace)
    _TRACE_CACHE[key] = entry
    while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)
    return entry


def clear_trace_cache() -> None:
    """Drop all materialized traces (tests and benchmarks)."""
    _TRACE_CACHE.clear()
    reset_trace_counters()


def reset_trace_counters() -> None:
    """Zero the trace-cache counters without dropping the memo.

    Forked pool workers call this as their initializer so the
    snapshots they report count activity since the fork rather than
    counter values inherited from the parent.
    """
    global _trace_cache_hits, _trace_cache_misses
    global _trace_store_hits, _trace_store_misses, _traces_generated
    _trace_cache_hits = 0
    _trace_cache_misses = 0
    _trace_store_hits = 0
    _trace_store_misses = 0
    _traces_generated = 0


def trace_cache_info() -> Dict[str, int]:
    """Hit/miss/entry counts of the trace materialization tiers.

    ``hits``/``misses``/``entries`` describe the in-process memo;
    ``store_hits``/``store_misses`` the persistent trace store (both 0
    when no store is configured); ``corrupt_quarantined`` counts corrupt
    store entries the store quarantined (the same counter name the run
    cache's ``cache_info`` reports); ``generated`` counts actual
    kernel walks performed by this process — memoized default-layout
    traces and the unmemoized traces of explicit-program or
    explicit-layout runs alike.
    """
    return {"hits": _trace_cache_hits, "misses": _trace_cache_misses,
            "entries": len(_TRACE_CACHE),
            "store_hits": _trace_store_hits,
            "store_misses": _trace_store_misses,
            "corrupt_quarantined": (_TRACE_STORE.corrupt_quarantined
                                    if _TRACE_STORE is not None else 0),
            "generated": _traces_generated}


@dataclass
class OccupancySample:
    """Row/column line occupancy of every level at one instant."""

    ops: int
    cycles: int
    by_level: Dict[str, Tuple[int, int]]


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    system: SystemConfig
    workload: str
    cycles: int
    ops: int
    stats: StatRegistry
    samples: List[OccupancySample] = field(default_factory=list)

    # -- derived metrics used across the figures --------------------------

    def l1_hit_rate(self) -> float:
        grp = self.stats.group("cache.L1")
        return grp.ratio("hits", "demand_accesses")

    def llc_requests(self) -> int:
        """Demand traffic arriving at the LLC (paper Fig. 14, left)."""
        name = self.system.llc.name
        grp = self.stats.group(f"cache.{name}")
        return grp.get("fetch_requests") + grp.get("writebacks_in")

    def memory_bytes(self) -> int:
        """Bytes moved between LLC and memory (paper Fig. 14, right)."""
        grp = self.stats.group("memory")
        return grp.get("bytes_read") + grp.get("bytes_written")

    def memory_reads(self) -> int:
        return self.stats.group("memory").get("line_reads")

    def column_buffer_hits(self) -> int:
        return self.stats.group("memory.banks").get("col_buffer_hits")

    def partial_writeback_savings(self) -> float:
        """Fraction of writeback words elided by per-word dirty bits.

        The paper adds 8 dirty bits per line "to mitigate the impact of
        extra writebacks caused by false sharing of intersecting cache
        lines"; this reports how much of the line-granular writeback
        volume those bits mark clean (0.0 when every written-back word
        was dirty, or when nothing was written back).
        """
        port = self.stats.group("memory.port")
        lines = port.get("writebacks")
        if lines == 0:
            return 0.0
        dirty_words = port.get("dirty_words_written")
        return 1.0 - dirty_words / (8 * lines)

    def describe(self) -> str:
        return (f"{self.workload} on {self.system.name}: "
                f"{self.cycles} cycles, {self.ops} ops, "
                f"L1 hit rate {self.l1_hit_rate():.3f}")


def run_simulation(system: SystemConfig,
                   program: Optional[Program] = None,
                   workload: Optional[str] = None,
                   size: str = "large",
                   layout: Optional[Layout] = None,
                   sample_every: int = 0,
                   replacement: str = "lru",
                   compile_dims: Optional[int] = None,
                   shard: Optional[Tuple[int, int]] = None) -> RunResult:
    """Simulate one workload on one system configuration.

    Args:
        system: the design point (see :mod:`repro.core.system`).
        program: an explicit kernel IR; mutually exclusive with
            ``workload``.
        workload: a registry benchmark name to build at ``size``.
        size: 'small' (paper 256x256) or 'large' (paper 512x512).
        layout: override the memory layout.  By default the layout
            matches the hierarchy's logical dimensionality, as the
            paper's evaluation protocol requires; overriding it
            reproduces the layout-mismatch experiment.
        sample_every: record orientation occupancy every N ops
            (paper Fig. 15); 0 disables sampling.
        replacement: cache replacement policy name.
        compile_dims: override the logical dimensionality the trace is
            compiled for (e.g. 1 to model a legacy binary — no column
            annotations or column vectorization — on a 2-D hierarchy).
        shard: replay epoch ``(index, count)`` of the sharded run
            instead of the whole trace.  The packed trace is cut at
            ``WINDOW_ALIGN``-aligned boundaries (:class:`ShardPlan`)
            and each epoch replays from a cold cache — the
            context-switch execution model, identical whether the
            epochs run serially or across pool workers.  Only valid
            for default-layout registry workloads without occupancy
            sampling; merge epoch results with
            :func:`merge_run_results`.
    """
    if (program is None) == (workload is None):
        raise ValueError("pass exactly one of program= or workload=")
    logical_dims = compile_dims or system.logical_dims
    if shard is not None:
        if program is not None or layout is not None:
            raise ValueError("shard= requires a default-layout "
                             "registry workload")
        if sample_every:
            raise ValueError("occupancy sampling cannot be sharded "
                             "(samples are positional within one "
                             "replay)")
    if program is None and layout is None:
        # Default-layout registry run: replay the materialized trace
        # shared by every design with this logical dimensionality.
        name, trace = _materialized_trace(workload, size, logical_dims)
        if shard is not None:
            index, count = shard
            plan = ShardPlan.plan(len(trace), count)
            if not 0 <= index < plan.shards:
                raise ValueError(
                    f"shard index {index} out of range for "
                    f"{plan.shards}-epoch plan (requested {count})")
            begin, end = plan.bounds[index], plan.bounds[index + 1]
            trace = PackedTrace(trace.words[begin:end])
    else:
        if program is None:
            program = build_workload(workload, size)
        if layout is None:
            layout = make_layout(program.arrays, logical_dims)
        name = program.name
        trace = _generate(program, logical_dims, layout)
    stats = StatRegistry()
    hierarchy = CacheHierarchy(system, stats, replacement)
    samples: List[OccupancySample] = []

    def sampler(ops: int, now: int) -> None:
        samples.append(OccupancySample(
            ops=ops, cycles=now,
            by_level=hierarchy.occupancy_by_level()))

    cpu = TraceDrivenCpu(system.cpu, hierarchy, stats)
    cycles = cpu.run(trace,
                     sampler=sampler if sample_every else None,
                     sample_every=sample_every)
    ops = stats.group("cpu").get("ops")
    return RunResult(system=system, workload=name,
                     cycles=cycles, ops=ops, stats=stats,
                     samples=samples)


def merge_run_results(parts: List[RunResult]) -> RunResult:
    """Deterministically merge per-epoch results of one sharded run.

    Counters sum cell by cell through the stat groups' own tables (no
    string parsing), cycles and ops sum across epochs, and derived
    metrics (hit rates, traffic) recompute from the summed counters.
    Addition is order-independent over ints, so serial and pool
    executions of the same epoch plan merge to bit-identical
    statistics.  Occupancy samples are positional within one replay
    and refuse to merge.
    """
    if not parts:
        raise ValueError("merge_run_results needs at least one part")
    if len(parts) == 1:
        return parts[0]
    for part in parts:
        if part.samples:
            raise ValueError("occupancy samples cannot be merged "
                             "across shards")
    stats = StatRegistry()
    for part in parts:
        for group_name, group in part.stats.items():
            target = stats.group(group_name)
            for cell, value in group.counters().items():
                target.add(cell, value)
    return RunResult(system=parts[0].system,
                     workload=parts[0].workload,
                     cycles=sum(part.cycles for part in parts),
                     ops=sum(part.ops for part in parts),
                     stats=stats)


def run_trace(system: SystemConfig, trace,
              replacement: str = "lru",
              name: str = "trace") -> RunResult:
    """Drive an explicit request iterable through a system.

    For externally produced or file-loaded traces (see
    :mod:`repro.sw.tracefile`); the caller is responsible for the trace
    matching the hierarchy's capabilities (row-only requests for a
    logically 1-D system).
    """
    stats = StatRegistry()
    hierarchy = CacheHierarchy(system, stats, replacement)
    cpu = TraceDrivenCpu(system.cpu, hierarchy, stats)
    cycles = cpu.run(trace)
    ops = stats.group("cpu").get("ops")
    return RunResult(system=system, workload=name, cycles=cycles,
                     ops=ops, stats=stats)
