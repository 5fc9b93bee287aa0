"""Design 0 building block: the conventional 1P1L cache.

Physically and logically one-dimensional: every resident line is a
row-oriented 64-byte line, and the only way to consume a column-major
traversal is one strided scalar access per element.  This is the paper's
baseline, evaluated *with* a stride prefetcher attached (paper Section
VII: "the baseline 1P1L cache hierarchy is evaluated with prefetching
enabled").
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..common.config import CacheLevelConfig
from ..common.errors import SimulationError
from ..common.stats import StatRegistry
from ..common.types import (
    AccessResult,
    AccessWidth,
    Orientation,
    Request,
    line_base_addr,
    line_id_parts,
    line_word_offset,
)
from .base import FULL_MASK, CacheLevel
from .prefetcher import StridePrefetcher


def _row_line_number(line_id: int) -> int:
    """Dense index of a row line (for set selection).

    Line-id layout is ``tile << 4 | orientation << 3 | index``; a row
    line has the orientation bit clear.
    """
    if line_id & 8:
        raise SimulationError("1P1L cache touched with a column line")
    return ((line_id >> 4) << 3) | (line_id & 7)


class Cache1P1L(CacheLevel):
    """Conventional set-associative writeback cache with row lines only."""

    def __init__(self, config: CacheLevelConfig, level_index: int,
                 stats: StatRegistry, replacement: str = "lru") -> None:
        super().__init__(config, level_index, stats, replacement)
        # line_id -> dirty mask (presence in the dict == valid)
        self._frames: Dict[int, int] = {}
        self._prefetcher = StridePrefetcher(
            config.prefetcher,
            stats.group(f"cache.{config.name}.prefetch"))
        self._c_hits = self._stats.counter("hits")
        self._c_misses = self._stats.counter("misses")
        self._c_fetch_requests = self._stats.counter("fetch_requests")
        self._c_prefetch_fills = self._stats.counter("prefetch_fills")
        self._c_writebacks_in = self._stats.counter("writebacks_in")
        self._c_writebacks_out = self._stats.counter("writebacks_out")
        self._c_evictions = self._stats.counter("evictions")
        self._prefetch_enabled = config.prefetcher.enabled

    @property
    def prefetcher(self) -> StridePrefetcher:
        """The level's stride prefetcher (the kernel path mirrors its
        one LLC table entry and shares its statistics group)."""
        return self._prefetcher

    # -- CPU-facing -----------------------------------------------------------

    def access(self, req: Request, now: int) -> AccessResult:
        if req.orientation is not Orientation.ROW:
            raise SimulationError(
                "column-preference request reached a 1P1L cache; design-0 "
                "traces must be generated with logical_dims=1")
        a, b, c = self._demand_cells[(req.width << 1) | req.is_write]
        a.value += 1
        b.value += 1
        c.value += 1
        line = req.line_id
        dirty_mask = self._write_mask(req) if req.is_write else 0
        completion, level = self._get_line(line, now, req.width, dirty_mask)
        if level == self._level:
            self._c_hits.value += 1
        else:
            self._c_misses.value += 1
        self._run_prefetcher(req, now)
        return AccessResult(latency=completion - now, hit_level=level)

    @staticmethod
    def _write_mask(req: Request) -> int:
        if req.width is AccessWidth.VECTOR:
            return FULL_MASK
        return 1 << line_word_offset(req.line_id, req.word_id)

    # -- inter-level protocol --------------------------------------------------

    def fetch_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        self._c_fetch_requests.value += 1
        result = self._get_line(line_id, now, width, dirty_mask=0)
        # Lower-level prefetchers train on the miss stream arriving
        # from above (the classic L2/LLC stride-prefetcher placement:
        # the upper level filters its hits, leaving mostly-regular
        # streams here, and prefetch pollution lands in a large array).
        self._train_stream_prefetcher(line_id, now)
        return result

    def _train_stream_prefetcher(self, line_id: int, now: int) -> None:
        if not self._prefetch_enabled:
            return
        addr = line_base_addr(line_id)
        for line in self._prefetcher.observe(0, addr):
            if line in self._frames:
                continue
            if self._mshr.outstanding_fill(line, now) is not None:
                continue
            completion, _ = self._fetch_below(line, now,
                                              AccessWidth.VECTOR)
            self._install(line, completion, dirty_mask=0)
            self._note_ready(line, completion + self._cfg.data_latency,
                             now)
            self._c_prefetch_fills.value += 1

    def writeback_line(self, line_id: int, dirty_mask: int,
                       now: int) -> int:
        self._c_writebacks_in.value += 1
        self._probe()
        if line_id in self._frames:
            self._frames[line_id] |= dirty_mask
            self._set_for(_row_line_number(line_id)).touch(line_id)
        else:
            self._install(line_id, now, dirty_mask)
        return now + self._tag_latency

    def orientation_occupancy(self) -> Tuple[int, int]:
        return len(self._frames), 0

    def flush(self, now: int) -> None:
        for line_id, dirty in list(self._frames.items()):
            if dirty:
                self._c_writebacks_out.value += 1
                self._lower.writeback_line(line_id, dirty, now)
        self._frames.clear()
        for repl in self._sets:
            for key in repl.keys():
                repl.remove(key)

    # -- internals --------------------------------------------------------------

    def _get_line(self, line_id: int, now: int, width: AccessWidth,
                  dirty_mask: int) -> Tuple[int, int]:
        """Serve a line: hit fast path, or fill through the MSHR."""
        self._c_tag_probes.value += 1
        if line_id in self._frames:
            self._frames[line_id] |= dirty_mask
            self._sets[_row_line_number(line_id)
                       % self._num_sets].touch(line_id)
            latency = self._write_latency if dirty_mask else self._hit_latency
            return self._data_ready(line_id, now) + latency, self._level
        completion, level = self._fetch_below(
            line_id, now + self._tag_latency, width)
        self._install(line_id, completion, dirty_mask)
        done = completion + self._data_latency
        self._note_ready(line_id, done, now)
        return done, level

    def _install(self, line_id: int, now: int, dirty_mask: int) -> None:
        """Place a line, evicting the set victim when needed."""
        repl = self._set_for(_row_line_number(line_id))
        if len(repl) >= self._assoc:
            victim = repl.victim()
            repl.remove(victim)
            victim_dirty = self._frames.pop(victim)
            self._c_evictions.value += 1
            if victim_dirty:
                self._c_writebacks_out.value += 1
                self._lower.writeback_line(victim, victim_dirty, now)
        self._frames[line_id] = dirty_mask
        repl.insert(line_id)

    def _run_prefetcher(self, req: Request, now: int) -> None:
        """Train on the demand stream; issue fills for predicted lines."""
        for line in self._prefetcher.observe(req.ref_id, req.addr):
            if line in self._frames:
                continue
            if self._mshr.outstanding_fill(line, now) is not None:
                continue
            completion, _ = self._fetch_below(line, now, AccessWidth.VECTOR)
            self._install(line, completion, dirty_mask=0)
            self._note_ready(line, completion + self._cfg.data_latency,
                             now)
            self._c_prefetch_fills.value += 1

    # -- introspection ------------------------------------------------------------

    def contains(self, line_id: int) -> bool:
        return line_id in self._frames

    def resident_lines(self) -> int:
        return len(self._frames)
