"""Design 1 building block: the physically 1-D, logically 2-D cache.

SRAM arrays hold dense 64-byte lines, but a line may be either a row
line (unit stride) or a column line (64-byte stride within one tile),
distinguished by an orientation bit in the metadata (paper Fig. 7).

Key mechanisms (paper Section IV-C, Design 1):

* **Index mapping** — ``different_set`` spreads the 8 rows / 8 columns of
  a tile over 8 sets (tag kept identical); ``same_set`` maps all 16
  lines of a tile into one set.  The taxonomy trade-off: Same-Set keeps
  both lookups in one set but "maps all rows and columns in a 2-D block
  into the same set, making it impractical for lower associativity".
* **Probe sequencing** — the preferred orientation is checked first; a
  preferred-orientation read hit returns with no added latency; checking
  the other orientation costs an extra tag access.  Writes always check
  both orientations (two sequential tag lookups).  A vector miss adds
  eight tag probes to find dirty intersecting lines; write misses pay the
  same overhead for potential eviction (paper Section VI-A).
* **Duplication policy** — the writeback-based state machine of Fig. 9,
  via :mod:`repro.cache.duplication`.  The invariant maintained is: a
  word dirty in one line is present in no other line.
* **Per-word dirty bits** — 8 bits per line to elide clean-word traffic
  on the extra writebacks caused by false sharing of intersecting lines.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..common.config import CacheLevelConfig
from ..common.errors import SimulationError
from ..common.stats import StatRegistry
from ..common.types import (
    AccessResult,
    AccessWidth,
    Orientation,
    Request,
    WORDS_PER_LINE,
    intersecting_line,
    line_id_of,
    line_id_parts,
    line_word_offset,
    line_words,
    perpendicular_lines,
)
from .base import FULL_MASK, CacheLevel
from .duplication import (
    check_duplication_invariant,
    present_intersecting_lines,
)
from .orientation_predictor import OrientationPredictor


class Cache1P2L(CacheLevel):
    """Orientation-tagged set-associative cache with duplication policy."""

    def __init__(self, config: CacheLevelConfig, level_index: int,
                 stats: StatRegistry, replacement: str = "lru") -> None:
        if config.logical_dims != 2 or config.physical_dims != 1:
            raise SimulationError("Cache1P2L requires a 1P2L config")
        super().__init__(config, level_index, stats, replacement)
        self._frames: Dict[int, int] = {}  # line_id -> dirty mask
        self._same_set = config.mapping == "same_set"
        self._data_write_latency = config.data_latency \
            + config.write_extra_latency
        self._c_hits = self._stats.counter("hits")
        self._c_misses = self._stats.counter("misses")
        self._c_misoriented = self._stats.counter("misoriented_hits")
        self._c_fetch_requests = self._stats.counter("fetch_requests")
        self._c_writebacks_in = self._stats.counter("writebacks_in")
        self._c_writebacks_out = self._stats.counter("writebacks_out")
        self._c_duplicate_cleans = self._stats.counter("duplicate_cleans")
        self._c_evictions = self._stats.counter("evictions")
        self._c_duplicate_evictions = \
            self._stats.counter("duplicate_evictions")
        self._predictor: Optional[OrientationPredictor] = None
        if config.dynamic_orientation:
            self._predictor = OrientationPredictor(
                stats.group(f"cache.{config.name}.orientation"))

    @property
    def predictor(self) -> Optional[OrientationPredictor]:
        """The dynamic-orientation predictor, if this level has one.

        The kernel engine mirrors its table into flat arrays
        (:class:`repro.core.kernels._FlatPredictor`), trained in a pass
        over each span's requests, and shares its counter cells."""
        return self._predictor

    # -- CPU-facing -------------------------------------------------------------

    def access(self, req: Request, now: int) -> AccessResult:
        a, b, c = self._demand_cells[(req.orientation << 2)
                                     | (req.width << 1) | req.is_write]
        a.value += 1
        b.value += 1
        c.value += 1
        if req.width is AccessWidth.SCALAR:
            orientation = req.orientation
            if self._predictor is not None:
                orientation = self._predictor.observe_and_predict(
                    req.ref_id, req.addr, req.orientation)
            if req.is_write:
                completion, level = self._scalar_write(req, now,
                                                       orientation)
            else:
                completion, level = self._scalar_read(req, now,
                                                      orientation)
        else:
            if req.is_write:
                completion, level = self._vector_write(req, now)
            else:
                completion, level = self._vector_read(req, now)
        if level == self._level:
            self._c_hits.value += 1
        else:
            self._c_misses.value += 1
        return AccessResult(latency=completion - now, hit_level=level)

    # -- scalar paths -------------------------------------------------------------

    def _scalar_read(self, req: Request, now: int,
                     orientation: Optional[Orientation] = None) \
            -> Tuple[int, int]:
        if orientation is None:
            orientation = req.orientation
        preferred = line_id_of(req.addr, orientation)
        self._c_tag_probes.value += 1
        if self._touch_if_present(preferred):
            return (self._data_ready(preferred, now) + self._hit_latency,
                    self._level)
        other = intersecting_line(preferred, req.word_id)
        self._c_tag_probes.value += 1
        if self._touch_if_present(other):
            # Word-presence hit in the mis-oriented line: one extra
            # sequential tag probe (paper: "the other orientation will be
            # checked, incurring additional cycles of latency").
            self._c_misoriented.value += 1
            return (self._data_ready(other, now) + self._hit_latency
                    + self._tag_latency, self._level)
        # Scalar miss: two tag probes were spent; fill along preference.
        probe_cost = 2 * self._tag_latency
        completion, level = self._fill_line(preferred, now + probe_cost,
                                            AccessWidth.SCALAR)
        return completion + self._data_latency, level

    def _scalar_write(self, req: Request, now: int,
                      orientation: Optional[Orientation] = None) \
            -> Tuple[int, int]:
        if orientation is None:
            orientation = req.orientation
        preferred = line_id_of(req.addr, orientation)
        word = req.word_id
        other = intersecting_line(preferred, word)
        probe_cost = 2 * self._tag_latency  # both orientations, sequential
        self._c_tag_probes.value += 2
        if preferred in self._frames:
            if other in self._frames:
                # Write to a duplicated word: evict the copy not being
                # written (Fig. 9, Clean -> Invalid).
                self._evict_line(other, now, duplicate=True)
            self._mark_dirty(preferred, 1 << line_word_offset(preferred,
                                                              word))
            self._touch(preferred)
            return (now + probe_cost + self._data_write_latency,
                    self._level)
        if other in self._frames:
            # Sole copy lives in the mis-oriented line; modify it there.
            self._c_misoriented.value += 1
            self._mark_dirty(other, 1 << line_word_offset(other, word))
            self._touch(other)
            return (now + probe_cost + self._data_write_latency,
                    self._level)
        # Write miss: allocate along the preference, then dirty the word.
        completion, level = self._fill_line(preferred, now + probe_cost,
                                            AccessWidth.SCALAR)
        self._mark_dirty(preferred, 1 << line_word_offset(preferred, word))
        return (completion + self._data_write_latency, level)

    # -- vector paths ----------------------------------------------------------------

    def _vector_read(self, req: Request, now: int) -> Tuple[int, int]:
        preferred = req.line_id
        self._c_tag_probes.value += 1
        if preferred in self._frames:
            # Inlined _touch_if_present + _data_ready fast path: the
            # L1 vector-read hit dominates replay time.
            if self._same_set:
                number = preferred >> 4
            else:
                number = (preferred >> 4) + (preferred & 7)
            self._sets[number % self._num_sets].touch(preferred)
            ready = self._ready_at.get(preferred)
            if ready is not None:
                if ready <= now:
                    del self._ready_at[preferred]
                else:
                    self._c_early_hit_waits.value += 1
                    return ready + self._hit_latency, self._level
            return now + self._hit_latency, self._level
        # Vector miss: eight additional probes for dirty intersecting
        # lines of the other orientation (paper Section VI-A).
        probe_cost = (1 + WORDS_PER_LINE) * self._tag_latency
        self._c_tag_probes.value += WORDS_PER_LINE
        completion, level = self._fill_line(preferred, now + probe_cost,
                                            AccessWidth.VECTOR)
        return completion + self._data_latency, level

    def _vector_write(self, req: Request, now: int) -> Tuple[int, int]:
        preferred = req.line_id
        probe_cost = (1 + WORDS_PER_LINE) * self._tag_latency
        self._c_tag_probes.value += 1 + WORDS_PER_LINE
        # All eight words become dirty, so every present intersecting
        # line is a duplicate that must go (Fig. 9).
        for perp in present_intersecting_lines(self._frames, preferred):
            self._evict_line(perp, now, duplicate=True)
        if preferred in self._frames:
            self._mark_dirty(preferred, FULL_MASK)
            self._touch(preferred)
            return (now + probe_cost + self._data_write_latency,
                    self._level)
        completion, level = self._fill_line(preferred, now + probe_cost,
                                            AccessWidth.VECTOR)
        self._mark_dirty(preferred, FULL_MASK)
        return completion + self._data_write_latency, level

    # -- inter-level protocol -----------------------------------------------------------

    def fetch_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        """Serve a fill request from the level above.

        Fill requests are line-granular, so only a correctly-oriented
        resident line is a hit here (an intersecting line can supply at
        most one of the eight words).
        """
        self._c_fetch_requests.value += 1
        self._c_tag_probes.value += 1
        if line_id in self._frames:
            if self._same_set:
                number = line_id >> 4
            else:
                number = (line_id >> 4) + (line_id & 7)
            self._sets[number % self._num_sets].touch(line_id)
            ready = self._ready_at.get(line_id)
            if ready is not None:
                if ready <= now:
                    del self._ready_at[line_id]
                else:
                    self._c_early_hit_waits.value += 1
                    return ready + self._hit_latency, self._level
            return now + self._hit_latency, self._level
        completion, level = self._fill_line(
            line_id, now + self._tag_latency, width)
        return completion + self._data_latency, level

    def writeback_line(self, line_id: int, dirty_mask: int,
                       now: int) -> int:
        """Absorb a dirty line from above, preserving the invariant."""
        self._c_writebacks_in.value += 1
        self._c_tag_probes.value += 2
        words = line_words(line_id)
        for offset in range(WORDS_PER_LINE):
            if not dirty_mask & (1 << offset):
                continue
            perp = intersecting_line(line_id, words[offset])
            if perp in self._frames:
                self._evict_line(perp, now, duplicate=True)
        # The line's *clean* words may duplicate perpendicular words
        # that are dirty here: those modifications must go down first
        # (Fig. 9, Modified -> Clean on "read to duplicate") so the
        # incoming copy may legally coexist.
        self._clean_intersecting(line_id, now)
        if line_id in self._frames:
            self._mark_dirty(line_id, dirty_mask)
            self._touch(line_id)
        else:
            self._install(line_id, now, dirty_mask)
        return now + 2 * self._tag_latency

    def orientation_occupancy(self) -> Tuple[int, int]:
        rows = sum(1 for line in self._frames
                   if line_id_parts(line)[1] == 0)
        return rows, len(self._frames) - rows

    def flush(self, now: int) -> None:
        for line_id, dirty in list(self._frames.items()):
            if dirty:
                self._c_writebacks_out.value += 1
                self._lower.writeback_line(line_id, dirty, now)
        self._frames.clear()
        for repl in self._sets:
            for key in repl.keys():
                repl.remove(key)

    # -- internals ------------------------------------------------------------------------

    def _set_number(self, line_id: int) -> int:
        if self._same_set:
            return line_id >> 4
        # Different-Set mapping (paper Fig. 8): the in-tile line index
        # participates in the set index, so the 8 rows / 8 columns of a
        # tile spread over different sets.  Adding (rather than
        # concatenating) the index keeps tile-id entropy in the low
        # bits even when the cache has fewer than 8 sets.  (Line-id
        # layout: tile << 4 | orientation << 3 | index.)
        return (line_id >> 4) + (line_id & 7)

    def _touch_if_present(self, line_id: int) -> bool:
        if line_id not in self._frames:
            return False
        if self._same_set:
            number = line_id >> 4
        else:
            number = (line_id >> 4) + (line_id & 7)
        self._sets[number % self._num_sets].touch(line_id)
        return True

    def _set_of(self, line_id: int) -> object:
        """The replacement set holding ``line_id`` (fused number+lookup)."""
        if self._same_set:
            number = line_id >> 4
        else:
            number = (line_id >> 4) + (line_id & 7)
        return self._sets[number % self._num_sets]

    def _touch(self, line_id: int) -> None:
        self._set_of(line_id).touch(line_id)

    def _mark_dirty(self, line_id: int, mask: int) -> None:
        self._frames[line_id] |= mask

    def _fill_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        """Clean dirty intersections, fetch from below, and install."""
        self._clean_intersecting(line_id, now)
        # Inlined _fetch_below (see base.CacheLevel): MSHR coalesce or
        # fetch from the lower level and record the fill.
        in_flight, aux = self._mshr_fetch_slot(
            line_id, now, self._needs_ordering)
        if in_flight is not None:
            self._c_mshr_coalesced.value += 1
            completion = in_flight if in_flight > now else now
            level = aux
        else:
            completion, level = self._lower.fetch_line(line_id, aux,
                                                       width)
            self._mshr_record(line_id, completion, level)
            self._c_fills.value += 1
        self._install(line_id, completion, dirty_mask=0)
        ready = completion + self._data_latency
        if ready > now:
            self._ready_at[line_id] = ready
        return completion, level

    def _clean_intersecting(self, line_id: int, now: int) -> None:
        """Fig. 9 "read to duplicate": push dirty crossings down first.

        Any perpendicular line dirty where it crosses ``line_id`` would
        make the incoming fill stale; its modifications are written back
        (the line stays resident, now clean) before the fill is issued.
        A perpendicular line crosses ``line_id`` at the offset equal to
        ``line_id``'s in-tile index, so one precomputed mask bit tests
        dirtiness for all eight candidates.
        """
        frames = self._frames
        bit = 1 << (line_id & 7)
        frames_get = frames.get
        for perp in perpendicular_lines(line_id):
            mask = frames_get(perp)
            if mask and mask & bit:
                self._lower.writeback_line(perp, mask, now)
                frames[perp] = 0
                self._c_duplicate_cleans.value += 1

    def _install(self, line_id: int, now: int, dirty_mask: int) -> None:
        if self._same_set:
            number = line_id >> 4
        else:
            number = (line_id >> 4) + (line_id & 7)
        repl = self._sets[number % self._num_sets]
        if len(repl) >= self._assoc:
            victim = repl.victim()
            self._evict_line(victim, now, duplicate=False)
        self._frames[line_id] = dirty_mask
        repl.insert(line_id)

    def _evict_line(self, line_id: int, now: int, duplicate: bool) -> None:
        mask = self._frames.pop(line_id)
        if self._same_set:
            number = line_id >> 4
        else:
            number = (line_id >> 4) + (line_id & 7)
        self._sets[number % self._num_sets].remove(line_id)
        if duplicate:
            self._c_duplicate_evictions.value += 1
        else:
            self._c_evictions.value += 1
        if mask:
            self._c_writebacks_out.value += 1
            self._lower.writeback_line(line_id, mask, now)

    # -- introspection ------------------------------------------------------------------------

    def contains(self, line_id: int) -> bool:
        return line_id in self._frames

    def dirty_mask_of(self, line_id: int) -> int:
        return self._frames.get(line_id, 0)

    def resident_lines(self) -> int:
        return len(self._frames)

    def check_invariants(self) -> None:
        """Raise if the Fig. 9 duplication invariant is violated."""
        violations = check_duplication_invariant(self._frames)
        if violations:
            raise SimulationError("; ".join(violations))
