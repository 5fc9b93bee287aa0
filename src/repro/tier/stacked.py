"""A polymorphic die-stacked DRAM tier below the LLC.

One component, three personalities (:class:`TierConfig` selects):

* **cache** — a tag-in-DRAM set-associative cache of oriented lines.
  Following TDRAM (Babaie et al.), tags live in the same DRAM row as
  their data, so a single row activation resolves the tag check *and*
  delivers the data: a hit costs exactly one stacked-DRAM access, and
  a miss pays the same probe before fetching below.
* **flat** — an addressable fast region covering the lowest
  ``flat_bytes`` of the tile space (the hottest range under the
  simulator's dense bottom-up layouts); lines outside it pass through
  to the MDA memory untouched.
* **hybrid** — both at once: a configurable share of the capacity
  runs as cache ways over the non-flat remainder of the address
  space.

The tier speaks the inter-level protocol of
:mod:`repro.cache.base` — ``fetch_line`` / ``writeback_line`` — and
sits where the raw :class:`~repro.cache.base.MemoryPort` used to be:
the LLC (and the kernel replay chain, which bottoms out at
``hierarchy.port``) call it in program order on every replay path, so
object, packed, and kernel runs stay bit-identical by construction.

Slow-side policy (Meza et al., "row-buffer-locality-aware"): before a
cache-mode miss goes to the MDA memory, the tier probes the would-be
buffer state of the target bank.  An access the slow side would have
served from an open buffer is *not* worth caching — MDA serves it
almost as fast as the tier would — so RBLA bypasses the install.  A
row-conflicting access bumps its region's conflict counter and starts
installing once the region has proven itself conflict-prone
(``rbla_threshold``).  This couples the tier's benefit to the MDA
layout/orientation machinery the paper sweeps: workloads whose miss
stream is buffer-friendly keep the tier clean, perpendicular-heavy
streams migrate into it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..common.config import TierConfig
from ..common.stats import StatRegistry
from ..common.types import (
    AccessWidth,
    LINE_BYTES,
    LINES_PER_TILE,
    TILE_BYTES,
)


class _StackBank:
    """Open-row and busy-horizon state of one stacked-DRAM bank."""

    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row = -1
        self.busy_until = 0


class DieStackedTier:
    """The tier model; plugs in below the LLC via the line protocol."""

    def __init__(self, config: TierConfig, stats: StatRegistry,
                 memory, port, level_index: int) -> None:
        """``memory`` is the :class:`MdaMemory` (for locality probes),
        ``port`` the :class:`MemoryPort` misses and victim writebacks
        go through, ``level_index`` the 1-based level reported for
        tier hits (one below the LLC's)."""
        self._cfg = config
        self._memory = memory
        self._port = port
        self._level = level_index

        # -- geometry -----------------------------------------------------
        self._flat_tiles = config.flat_bytes // TILE_BYTES
        cache_lines = config.cache_bytes // LINE_BYTES
        self._assoc = config.assoc
        self._num_sets = cache_lines // config.assoc
        # line_id -> dirty_mask per set, insertion-ordered (dict order
        # is the LRU stack: oldest first, reinsert-on-touch).
        self._sets: List[Dict[int, int]] = [
            dict() for _ in range(self._num_sets)]

        # Row mapping: cache sets fill rows first, the flat region
        # occupies the rows after them, so hybrid splits never alias.
        self._lines_per_row = config.row_bytes // LINE_BYTES
        self._sets_per_row = max(
            1, config.row_bytes // (config.assoc * LINE_BYTES))
        self._flat_row_base = -(-self._num_sets // self._sets_per_row) \
            if self._num_sets else 0
        self._banks = [_StackBank() for _ in range(config.banks)]
        self._nbanks = config.banks
        self._activate = config.activate_cycles
        self._access = config.access_cycles
        self._write = config.write_cycles

        # -- RBLA state ---------------------------------------------------
        self._rbla = config.rbla
        self._rbla_threshold = config.rbla_threshold
        self._conflicts: Dict[Tuple[int, int, int], int] = {}

        # -- counters (group exists only when the tier does, so a
        #    disabled tier leaves stats.flat() untouched) ------------------
        grp = stats.group("tier")
        self._stats = grp
        grp.set("mode_cache", 1 if self._num_sets else 0)
        grp.set("mode_flat", 1 if self._flat_tiles else 0)
        self._c_fetches = grp.counter("fetches")
        self._c_hits = grp.counter("hits")
        self._c_misses = grp.counter("misses")
        self._c_flat_hits = grp.counter("flat_hits")
        self._c_fills = grp.counter("fills")
        self._c_writebacks_in = grp.counter("writebacks_absorbed")
        self._c_writebacks_through = grp.counter("writebacks_through")
        self._c_victim_writebacks = grp.counter("victim_writebacks")
        self._c_row_open_hits = grp.counter("row_open_hits")
        self._c_row_conflicts = grp.counter("row_conflicts")
        self._c_slow_open_hits = grp.counter("slow_open_hits")
        self._c_slow_conflicts = grp.counter("slow_row_conflicts")
        self._c_rbla_bypasses = grp.counter("rbla_bypasses")
        self._c_rbla_installs = grp.counter("rbla_installs")
        self._c_service_cycles = grp.counter("service_cycles")

    @property
    def config(self) -> TierConfig:
        return self._cfg

    @property
    def level_index(self) -> int:
        return self._level

    @property
    def stats(self):
        return self._stats

    # -- inter-level protocol --------------------------------------------

    def fetch_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        self._c_fetches.value += 1
        if (line_id >> 4) < self._flat_tiles:
            done = self._bank_access(self._flat_row(line_id), now,
                                     is_write=False)
            self._c_flat_hits.value += 1
            self._c_service_cycles.value += done - now
            return done, self._level
        if self._num_sets:
            return self._cache_fetch(line_id, now, width)
        return self._port.fetch_line(line_id, now, width)

    def writeback_line(self, line_id: int, dirty_mask: int,
                       now: int) -> int:
        if (line_id >> 4) < self._flat_tiles:
            self._c_writebacks_in.value += 1
            return self._bank_access(self._flat_row(line_id), now,
                                     is_write=True)
        if self._num_sets:
            return self._cache_writeback(line_id, dirty_mask, now)
        self._c_writebacks_through.value += 1
        return self._port.writeback_line(line_id, dirty_mask, now)

    def flush(self, now: int) -> None:
        """Drain every dirty cached line to the MDA memory.

        Lines drain in ascending id order per set (the deterministic
        order the object-path levels also use); the flat region *is*
        the line's home, so it has nothing to drain.
        """
        for lines in self._sets:
            for line_id in sorted(lines):
                mask = lines[line_id]
                if mask:
                    self._c_victim_writebacks.value += 1
                    self._port.writeback_line(line_id, mask, now)
            lines.clear()

    # -- cache mode -------------------------------------------------------

    def _cache_fetch(self, line_id: int, now: int,
                     width: AccessWidth) -> Tuple[int, int]:
        set_index = line_id % self._num_sets
        lines = self._sets[set_index]
        row = set_index // self._sets_per_row
        # TDRAM folded probe: the activation+access below resolves the
        # tag and, on a hit, delivers the data — no separate tag cost.
        probe_done = self._bank_access(row, now, is_write=False)
        mask = lines.pop(line_id, None)
        if mask is not None:
            lines[line_id] = mask  # MRU position
            self._c_hits.value += 1
            self._c_service_cycles.value += probe_done - now
            return probe_done, self._level
        self._c_misses.value += 1
        # Probe the slow side's buffer state *before* the read opens a
        # buffer there: the RBLA decision must see what the access is
        # about to encounter, not what it leaves behind.
        region, slow_hit = self._memory.buffer_state(line_id)
        if slow_hit:
            self._c_slow_open_hits.value += 1
        else:
            self._c_slow_conflicts.value += 1
        completion, _ = self._port.fetch_line(line_id, probe_done,
                                              width)
        if self._should_install(region, slow_hit):
            self._install(lines, line_id, row, completion)
        return completion, 0

    def _should_install(self, region: Tuple[int, int, int],
                        slow_hit: bool) -> bool:
        if not self._rbla:
            return True
        if slow_hit:
            self._c_rbla_bypasses.value += 1
            return False
        count = self._conflicts.get(region, 0) + 1
        if count >= self._rbla_threshold:
            self._conflicts[region] = self._rbla_threshold
            self._c_rbla_installs.value += 1
            return True
        self._conflicts[region] = count
        self._c_rbla_bypasses.value += 1
        return False

    def _install(self, lines: Dict[int, int], line_id: int, row: int,
                 at: int) -> None:
        self._c_fills.value += 1
        if len(lines) >= self._assoc:
            victim_id = next(iter(lines))
            victim_mask = lines.pop(victim_id)
            if victim_mask:
                self._c_victim_writebacks.value += 1
                self._port.writeback_line(victim_id, victim_mask, at)
        lines[line_id] = 0
        # The fill write occupies the bank (off the critical path; the
        # requester already has its completion from the MDA memory).
        self._bank_access(row, at, is_write=True)

    def _cache_writeback(self, line_id: int, dirty_mask: int,
                         now: int) -> int:
        set_index = line_id % self._num_sets
        lines = self._sets[set_index]
        mask = lines.pop(line_id, None)
        row = set_index // self._sets_per_row
        if mask is not None:
            # Absorbed: tag+data write in one activation.
            lines[line_id] = mask | dirty_mask
            self._c_writebacks_in.value += 1
            return self._bank_access(row, now, is_write=True)
        # Write-no-allocate: the tag probe discovers the absence, then
        # the line passes through to the MDA write path.
        probe_done = self._bank_access(row, now, is_write=False)
        self._c_writebacks_through.value += 1
        return self._port.writeback_line(line_id, dirty_mask,
                                         probe_done)

    # -- stacked-DRAM timing ----------------------------------------------

    def _flat_row(self, line_id: int) -> int:
        """Row key of a flat-region line (both orientations of a tile
        share rows, so perpendicular reuse still row-hits)."""
        flat_line = (line_id >> 4) * LINES_PER_TILE + (line_id & 7)
        return self._flat_row_base + flat_line // self._lines_per_row

    def _bank_access(self, row: int, at: int, is_write: bool) -> int:
        """One stacked-DRAM access; returns data-ready time."""
        bank = self._banks[row % self._nbanks]
        start = at if at > bank.busy_until else bank.busy_until
        if bank.open_row == row:
            self._c_row_open_hits.value += 1
            cost = 0
        else:
            bank.open_row = row
            self._c_row_conflicts.value += 1
            cost = self._activate
        cost += self._write if is_write else self._access
        done = start + cost
        bank.busy_until = done
        return done
