"""The simulation driver: one workload through one system.

``run_simulation`` is the package's main entry point: it builds the
hierarchy, compiles the workload for the system's logical dimensionality
(choosing the matching memory layout per the paper's protocol), drives
the trace through the CPU model, and returns a :class:`RunResult` with
every statistic the experiment modules consume.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..common.config import SystemConfig
from ..common.stats import StatRegistry
from ..common.types import PackedTrace
from ..sw.layout import Layout, TiledLayout, make_layout
from ..sw.program import Program
from ..sw.tiling import tile_program
from ..sw.tracegen import generate_packed_trace
from ..sw.tracestore import TraceStore
from ..workloads.registry import build_workload
from .cpu import TraceDrivenCpu

# -- Trace variants -----------------------------------------------------------
#
# A trace is named by (workload, size, logical_dims, variant).  The
# variant "" is the protocol default: the workload compiled for the
# system's logical dimensionality over the matching layout.  The other
# names form a closed table of the departures experiments replay; a
# ``RunKey`` carries one in its ``trace`` field.


@dataclass(frozen=True)
class TraceVariant:
    """How a named trace departs from the protocol default."""

    #: Compile for this logical dimensionality whatever the system's
    #: (None: the system's own).
    compile_dims: Optional[int] = None
    #: Lay the arrays out MDA-tiled whatever the compiled dimensionality.
    tiled_layout: bool = False
    #: Strip-mine the i, j and k loops to this tile edge (0: untiled).
    loop_tile: int = 0


TRACE_VARIANTS: Dict[str, TraceVariant] = {
    "": TraceVariant(),
    # A legacy binary: 1-D compilation (row annotations, column walks
    # left as strided scalars) over the MDA-tiled layout — the Section
    # IV-C layout mismatch and the dynamic-orientation study.
    "legacy": TraceVariant(compile_dims=1, tiled_layout=True),
    # Loops tiled 16x16x16 (twice the 8-line 2-D block) on the default
    # layout — the Section X collaborative-tiling study.
    "tiled16": TraceVariant(loop_tile=16),
}


def _trace_variant(name: str) -> TraceVariant:
    """The :data:`TRACE_VARIANTS` entry ``name``; ValueError if unknown."""
    try:
        return TRACE_VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown trace variant {name!r}; known: "
                         f"{sorted(TRACE_VARIANTS)}") from None


def trace_dims(variant: str, system_dims: int) -> int:
    """Logical dimensionality ``variant`` compiles for on a system."""
    return _trace_variant(variant).compile_dims or system_dims


# -- Trace materialization cache ---------------------------------------------
#
# A named trace is a pure function of its four-part key, yet every
# design point sharing it re-walked the kernel IR from scratch.
# Materializing the packed trace once and replaying it across designs
# removes the whole compile + walk cost from all but the first run of
# each key.
#
# Three tiers, fastest first:
#   1. in-process memo (this OrderedDict; shared copy-on-write with
#      forked pool workers when the parent materializes before forking,
#      see ``hold_traces``);
#   2. the persistent trace store, when one has been configured
#      (``OUTDIR/.tracecache``) — a disk read instead of a kernel walk;
#   3. trace generation proper, which also populates the store.

_TraceKey = Tuple[str, str, int, str]
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


def ensure_trace(workload: str, size: str, logical_dims: int,
                 variant: str = "") -> Tuple[str, PackedTrace]:
    """Materialize (memo -> store -> generate) one named trace."""
    return _materialized_trace(workload, size, logical_dims, variant)


@contextmanager
def hold_traces(keys: Iterable[_TraceKey]) -> Iterator[None]:
    """Materialize every trace in ``keys`` and keep all of them
    memo-resident until the block exits.

    The supervisor forks its pool workers inside this block, so the
    workers inherit every trace copy-on-write and the process tree
    generates (or reads from the store) each one at most once, however
    many distinct traces the plan needs.  The memo's bound is lifted
    only for the block: serial runs outside it stay bounded.
    """
    global _TRACE_CACHE_MAX
    keys = list(dict.fromkeys(keys))
    bound = _TRACE_CACHE_MAX
    # The held traces are touched last, so LRU eviction never reaches
    # them while the bound covers them all.
    _TRACE_CACHE_MAX = max(bound, len(keys))
    try:
        for key in keys:
            _materialized_trace(*key)
        yield
    finally:
        _TRACE_CACHE_MAX = bound
        _trim_trace_cache()


def _generate(program: Program, logical_dims: int,
              layout: Layout) -> PackedTrace:
    """Walk ``program`` into a packed trace (one counted generation)."""
    global _traces_generated
    trace = generate_packed_trace(program, logical_dims, layout)
    _traces_generated += 1
    return trace


def _variant_program(workload: str, size: str, logical_dims: int,
                     variant: str) -> Tuple[Program, Layout]:
    """The program and layout one named trace walks."""
    spec = _trace_variant(variant)
    if spec.compile_dims is not None and logical_dims != spec.compile_dims:
        raise ValueError(f"trace variant {variant!r} compiles for "
                         f"{spec.compile_dims}-D, not {logical_dims}-D")
    program = build_workload(workload, size)
    if spec.loop_tile:
        program = tile_program(program, {var: spec.loop_tile
                                         for var in "ijk"})
    layout = TiledLayout(program.arrays) if spec.tiled_layout \
        else make_layout(program.arrays, logical_dims)
    return program, layout


def _materialized_trace(workload: str, size: str, logical_dims: int,
                        variant: str = "") -> Tuple[str, PackedTrace]:
    """(program name, packed trace) for one named trace."""
    global _trace_cache_hits, _trace_cache_misses
    global _trace_store_hits, _trace_store_misses
    key = (workload, size, logical_dims, variant)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        _trace_cache_hits += 1
        _TRACE_CACHE.move_to_end(key)
        return cached
    _trace_cache_misses += 1
    entry = None
    if _TRACE_STORE is not None:
        entry = _TRACE_STORE.load(workload, size, logical_dims, variant)
        if entry is not None:
            _trace_store_hits += 1
        else:
            _trace_store_misses += 1
    if entry is None:
        program, layout = _variant_program(workload, size,
                                           logical_dims, variant)
        trace = _generate(program, logical_dims, layout)
        entry = (program.name, trace)
        if _TRACE_STORE is not None:
            _TRACE_STORE.store(workload, size, logical_dims,
                               program.name, trace, variant)
    _TRACE_CACHE[key] = entry
    _trim_trace_cache()
    return entry


def _trim_trace_cache() -> None:
    while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)


def clear_trace_cache() -> None:
    """Drop all materialized traces and zero the counters (tests and
    benchmarks)."""
    global _trace_cache_hits, _trace_cache_misses
    global _trace_store_hits, _trace_store_misses, _traces_generated
    _TRACE_CACHE.clear()
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
    kernel walks performed by this process — memoized named traces
    and the unmemoized traces of explicit-program or explicit-layout
    runs alike.
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
                   variant: str = "") -> RunResult:
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
        variant: replay this named trace of ``workload``
            (:data:`TRACE_VARIANTS`, e.g. ``"legacy"``) instead of the
            protocol default; it is materialized and memoized like the
            default trace.
    """
    if (program is None) == (workload is None):
        raise ValueError("pass exactly one of program= or workload=")
    if variant and (program is not None or layout is not None):
        raise ValueError("variant= names a registry workload's trace; "
                         "it excludes program= and layout=")
    logical_dims = compile_dims or trace_dims(variant,
                                              system.logical_dims)
    if program is None and layout is None:
        # Registry run: replay the materialized trace shared by every
        # design with this logical dimensionality and variant.
        name, trace = _materialized_trace(workload, size, logical_dims,
                                          variant)
    else:
        if program is None:
            program = build_workload(workload, size)
        if layout is None:
            layout = make_layout(program.arrays, logical_dims)
        name = program.name
        trace = _generate(program, logical_dims, layout)
    stats = StatRegistry()
    hierarchy = CacheHierarchy(system, stats, replacement)
    cpu = TraceDrivenCpu(system.cpu, hierarchy, stats)
    samples: List[OccupancySample] = []

    def sampler(ops: int, now: int) -> None:
        samples.append(OccupancySample(
            ops=ops, cycles=now, by_level=cpu.occupancy_by_level()))

    cycles = cpu.run(trace,
                     sampler=sampler if sample_every else None,
                     sample_every=sample_every)
    ops = stats.group("cpu").get("ops")
    return RunResult(system=system, workload=name,
                     cycles=cycles, ops=ops, stats=stats,
                     samples=samples)


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
