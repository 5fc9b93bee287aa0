"""Shared machinery for all cache designs.

Inter-level protocol
--------------------

Every level (and the :class:`~repro.mem.mda_memory.MdaMemory` at the
bottom) exposes two methods to the level above it:

``fetch_line(line_id, now, width) -> (completion, serving_level)``
    Deliver an oriented line; ``completion`` is the absolute cycle the
    critical word is available to the requester, ``serving_level`` the
    1-based cache level that had the data (0 = main memory).

``writeback_line(line_id, dirty_mask, now) -> ack``
    Accept an evicted dirty line.  ``dirty_mask`` has bit ``k`` set when
    word ``k`` of the line is dirty (the per-word dirty bits of paper
    Design 1, used to elide clean-word writeback traffic).

The CPU talks to L1 through :meth:`CacheLevel.access`, which adds the
scalar/vector and orientation-preference semantics of paper Section IV-B.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from ..common.config import CacheLevelConfig
from ..common.stats import Counter, StatGroup, StatRegistry
from ..common.types import FULL_MASK  # noqa: F401 (re-export)
from ..common.types import AccessResult, AccessWidth, Request
from .mshr import MshrFile
from .replacement import ReplacementSet, make_replacement_set


class CacheLevel(abc.ABC):
    """Base class: set/frame bookkeeping, MSHRs, stats, latency helpers."""

    def __init__(self, config: CacheLevelConfig, level_index: int,
                 stats: StatRegistry, replacement: str = "lru") -> None:
        self._cfg = config
        self._level = level_index
        # Config-derived values the per-request paths read constantly;
        # materialized once so hits pay plain attribute loads instead of
        # property descriptors recomputing division/max every access.
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._hit_latency = config.hit_latency
        self._tag_latency = config.tag_latency
        self._data_latency = config.data_latency
        self._write_latency = config.hit_latency \
            + config.write_extra_latency
        self._stats: StatGroup = stats.group(f"cache.{config.name}")
        self._mshr = MshrFile(config.mshr_entries,
                              stats.group(f"cache.{config.name}.mshr"))
        self._sets: List[ReplacementSet] = [
            make_replacement_set(replacement, seed=i)
            for i in range(config.num_sets)
        ]
        self._lower = None  # type: Optional[object]
        # 2-D ordering only matters when perpendicular lines can
        # coexist; a logically 1-D cache never needs the barrier.
        self._needs_ordering = config.logical_dims == 2
        # Flag for the energy model: physically 2-D arrays are built
        # from the on-chip crosspoint (STT) technology.
        self._stats.set("is_stt_array",
                        1 if config.physical_dims == 2 else 0)
        # line_id -> cycle its fill data actually arrives.  A line is
        # installed at fill-issue time for bookkeeping, but a hit before
        # the data lands must wait for it (this keeps prefetch timing
        # honest and charges coalesced hits their residual latency).
        self._ready_at: Dict[int, int] = {}
        # Pre-bound MSHR methods and counter cells for the
        # per-request paths.
        self._mshr_fetch_slot = self._mshr.fetch_slot
        self._mshr_record = self._mshr.record
        self._c_tag_probes = self._stats.counter("tag_probes")
        self._c_mshr_coalesced = self._stats.counter("mshr_coalesced")
        self._c_fills = self._stats.counter("fills")
        self._c_early_hit_waits = self._stats.counter("early_hit_waits")
        demand_all = self._stats.counter("demand_accesses")
        demand_reads = self._stats.counter("demand_reads")
        demand_writes = self._stats.counter("demand_writes")
        # Indexed by (orientation << 2) | (width << 1) | is_write; each
        # entry is the tuple of cells one demand access bumps.
        self._demand_cells: List[Tuple[Counter, Counter, Counter]] = []
        for orient in ("row", "col"):
            for width in ("scalar", "vector"):
                mix = self._stats.counter(f"demand_{orient}_{width}")
                self._demand_cells.append((demand_all, mix, demand_reads))
                self._demand_cells.append((demand_all, mix, demand_writes))

    # -- wiring --------------------------------------------------------------

    def connect(self, lower) -> None:
        """Attach the next level down (a CacheLevel, the tier or the
        memory)."""
        self._lower = lower

    @property
    def config(self) -> CacheLevelConfig:
        return self._cfg

    @property
    def level_index(self) -> int:
        return self._level

    @property
    def stats(self) -> StatGroup:
        return self._stats

    @property
    def mshr(self) -> MshrFile:
        return self._mshr

    # -- protocol ------------------------------------------------------------

    @abc.abstractmethod
    def access(self, req: Request, now: int) -> AccessResult:
        """CPU-facing access (only called on the first level)."""

    @abc.abstractmethod
    def fetch_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        """Deliver an oriented line to the level above."""

    @abc.abstractmethod
    def writeback_line(self, line_id: int, dirty_mask: int,
                       now: int) -> int:
        """Accept a dirty line evicted from the level above."""

    @abc.abstractmethod
    def orientation_occupancy(self) -> Tuple[int, int]:
        """(row_lines, column_lines) currently resident (paper Fig. 15)."""

    @abc.abstractmethod
    def flush(self, now: int) -> None:
        """Write back all dirty state to the level below and invalidate.

        Used by tests (dirty-word conservation) and by callers that want
        memory to reflect the final cache contents.
        """

    # -- shared helpers -------------------------------------------------------

    def _set_for(self, number: int) -> ReplacementSet:
        return self._sets[number % self._num_sets]

    def _fetch_below(self, line_id: int, now: int,
                     width: AccessWidth) -> Tuple[int, int]:
        """Fetch through the MSHR file: coalesce, order, or miss below.

        Returns (completion, serving_level).  A coalesced request is
        counted and inherits the outstanding fill's completion.
        """
        in_flight, aux = self._mshr_fetch_slot(
            line_id, now, self._needs_ordering)
        if in_flight is not None:
            # aux is the serving level of the outstanding fill.
            self._c_mshr_coalesced.value += 1
            return (in_flight if in_flight > now else now), aux
        # aux is the issue time of the newly reserved entry.
        completion, level = self._lower.fetch_line(line_id, aux, width)
        self._mshr_record(line_id, completion, level)
        self._c_fills.value += 1
        return completion, level

    def _probe(self, count: int = 1) -> None:
        """Account tag-array probes (latency is charged separately)."""
        self._c_tag_probes.value += count

    def _note_ready(self, line_id: int, completion: int,
                    now: int) -> None:
        """Record when a just-filled line's data actually lands."""
        if completion > now:
            self._ready_at[line_id] = completion

    def _data_ready(self, line_id: int, now: int) -> int:
        """Earliest cycle a hit on ``line_id`` can return data."""
        ready = self._ready_at.get(line_id)
        if ready is None:
            return now
        if ready <= now:
            del self._ready_at[line_id]
            return now
        self._c_early_hit_waits.value += 1
        return ready

    def _count_demand(self, req: Request) -> None:
        """Bump the demand-access counters used by Figs. 10/11."""
        index = (req.orientation << 2) | (req.width << 1) | req.is_write
        for cell in self._demand_cells[index]:
            cell.value += 1
