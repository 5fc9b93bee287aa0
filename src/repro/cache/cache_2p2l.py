"""Design 2 building block: the physically & logically 2-D cache.

The data arrays are themselves MDA (crosspoint) memories, so the unit of
allocation is an 8-line x 8-line 512-byte 2-D block and a resident word
has exactly one physical copy — duplication and the Fig. 9 policy vanish
(paper Section IV-C, Design 2).  Metadata per block (paper Fig. 7,
bottom): 8 row-presence + 8 column-presence bits, and per-line dirty
bits in each direction to save writeback bandwidth.

Fill variants:

* **dense** — the whole 512-byte block streams in behind the line that
  missed ("all rows/columns within the 2-D block will follow after the
  one generating the initial miss");
* **sparse** — lines fill on demand, the footprint-cache-like variant
  the paper evaluates; writeback of never-filled lines is elided.

The block frames are modeled with STT write asymmetry via
``write_extra_latency`` (paper Fig. 16 adds 20 cycles to writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..common.config import CacheLevelConfig
from ..common.errors import SimulationError
from ..common.stats import StatRegistry
from ..common.types import (
    AccessResult,
    AccessWidth,
    LINES_PER_TILE,
    Orientation,
    Request,
    line_id_parts,
    make_line_id,
    tile_coords,
)
from .base import FULL_MASK, CacheLevel


#: Width of one packed per-block bit word: rows in bits 0-7, columns in
#: bits 8-15 — i.e. bit ``orientation << 3 | index``, matching the low
#: four bits of a line id (``line & 15``).  The kernel mirror
#: (:class:`repro.core.kernels._Kernel2P2L`) packs each resident
#: block's presence word and dirty word, in exactly this layout, into
#: the one int its LRU set holds for the block.
PACKED_WORD_BITS = 16
PACKED_WORD_MASK = (1 << PACKED_WORD_BITS) - 1


def pack_block_word(rows: int, cols: int) -> int:
    """Pack per-direction 8-bit masks into one 16-bit block word."""
    return (rows & FULL_MASK) | ((cols & FULL_MASK) << 8)


def unpack_block_word(word: int) -> Tuple[int, int]:
    """Split a packed 16-bit block word back into (rows, cols)."""
    return word & FULL_MASK, (word >> 8) & FULL_MASK


@dataclass
class BlockState:
    """Presence and dirty masks for one resident 2-D block."""

    rows_present: int = 0
    cols_present: int = 0
    rows_dirty: int = 0
    cols_dirty: int = 0

    def presence_word(self) -> int:
        """This block's presence masks as one packed 16-bit word."""
        return pack_block_word(self.rows_present, self.cols_present)

    def dirty_word(self) -> int:
        """This block's dirty masks as one packed 16-bit word."""
        return pack_block_word(self.rows_dirty, self.cols_dirty)

    @classmethod
    def from_words(cls, presence: int, dirty: int) -> "BlockState":
        """Rebuild a block from its packed presence and dirty words."""
        rows_present, cols_present = unpack_block_word(presence)
        rows_dirty, cols_dirty = unpack_block_word(dirty)
        return cls(rows_present=rows_present, cols_present=cols_present,
                   rows_dirty=rows_dirty, cols_dirty=cols_dirty)

    def present(self, orientation: Orientation, index: int) -> bool:
        mask = (self.rows_present if orientation is Orientation.ROW
                else self.cols_present)
        return bool(mask & (1 << index))

    def word_covered(self, r: int, c: int) -> bool:
        """True if the cell (r, c) is resident via either direction."""
        return bool((self.rows_present & (1 << r))
                    or (self.cols_present & (1 << c)))

    def mark_present(self, orientation: Orientation, index: int) -> None:
        if orientation is Orientation.ROW:
            self.rows_present |= 1 << index
        else:
            self.cols_present |= 1 << index

    def mark_dirty(self, orientation: Orientation, index: int) -> None:
        self.mark_present(orientation, index)
        if orientation is Orientation.ROW:
            self.rows_dirty |= 1 << index
        else:
            self.cols_dirty |= 1 << index

    def fully_present(self) -> bool:
        return (self.rows_present == FULL_MASK
                or self.cols_present == FULL_MASK)


class Cache2P2L(CacheLevel):
    """2-D-block cache over an on-chip crosspoint array."""

    def __init__(self, config: CacheLevelConfig, level_index: int,
                 stats: StatRegistry, replacement: str = "lru") -> None:
        if config.logical_dims != 2 or config.physical_dims != 2:
            raise SimulationError("Cache2P2L requires a 2P2L config")
        super().__init__(config, level_index, stats, replacement)
        self._blocks: Dict[int, BlockState] = {}
        self._sparse = config.sparse_fill
        # Pre-bound counter cells: faster on the protocol paths, and
        # pre-creation keeps the stat key set identical to the kernel
        # mirror (which binds the same keys up front).
        self._c_hits = self._stats.counter("hits")
        self._c_misses = self._stats.counter("misses")
        self._c_fetch_requests = self._stats.counter("fetch_requests")
        self._c_cross_direction_hits = \
            self._stats.counter("cross_direction_hits")
        self._c_partial_block_hits = \
            self._stats.counter("partial_block_hits")
        self._c_writebacks_in = self._stats.counter("writebacks_in")
        self._c_writebacks_out = self._stats.counter("writebacks_out")
        self._c_dense_fill_lines = \
            self._stats.counter("dense_fill_lines")
        self._c_evictions = self._stats.counter("evictions")

    # -- CPU-facing (Design 3 / future-work support) ---------------------------

    def access(self, req: Request, now: int) -> AccessResult:
        self._count_demand(req)
        line = req.line_id
        tile, orientation, index = line_id_parts(line)
        self._probe()
        block = self._blocks.get(tile)
        r, c = tile_coords(req.addr)
        hit = False
        if block is not None:
            if req.width is AccessWidth.SCALAR:
                hit = block.word_covered(r, c)
            else:
                hit = block.present(orientation, index) \
                    or block.fully_present()
        if hit:
            self._touch(tile)
            self._c_hits.value += 1
            if req.is_write:
                self._mark_write(block, orientation, index, r, c,
                                 req.width)
                return AccessResult(self._write_latency, self._level)
            return AccessResult(self._hit_latency, self._level)
        self._c_misses.value += 1
        probe = self._tag_latency
        completion, level = self._fill_line_into_block(line, now + probe,
                                                       req.width)
        block = self._blocks[tile]
        if req.is_write:
            self._mark_write(block, orientation, index, r, c, req.width)
            latency = completion - now + self._cfg.write_extra_latency
        else:
            latency = completion - now + self._cfg.data_latency
        return AccessResult(latency, hit_level=level)

    def _mark_write(self, block: BlockState, orientation: Orientation,
                    index: int, r: int, c: int,
                    width: AccessWidth) -> None:
        """Dirty the written cell(s) in whichever direction holds them."""
        if width is AccessWidth.VECTOR or block.present(orientation, index):
            block.mark_dirty(orientation, index)
        elif orientation is Orientation.ROW:
            # Word resides only via its column line; dirty that line.
            block.mark_dirty(Orientation.COLUMN, c)
        else:
            block.mark_dirty(Orientation.ROW, r)

    # -- inter-level protocol ----------------------------------------------------

    def fetch_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        self._c_fetch_requests.value += 1
        self._probe()
        tile, orientation, index = line_id_parts(line_id)
        block = self._blocks.get(tile)
        if block is not None:
            if block.present(orientation, index):
                self._touch(tile)
                return (self._data_ready(line_id, now)
                        + self._hit_latency, self._level)
            if block.fully_present():
                # Every word is resident via the other direction; the
                # crosspoint array can stream it out either way.
                block.mark_present(orientation, index)
                self._touch(tile)
                self._c_cross_direction_hits.value += 1
                return now + self._hit_latency, self._level
            self._c_partial_block_hits.value += 1
        completion, level = self._fill_line_into_block(
            line_id, now + self._tag_latency, width)
        return completion + self._cfg.data_latency, level

    def writeback_line(self, line_id: int, dirty_mask: int,
                       now: int) -> int:
        self._c_writebacks_in.value += 1
        self._probe()
        tile, orientation, index = line_id_parts(line_id)
        block = self._blocks.get(tile)
        if block is None:
            block = self._allocate_block(tile, now)
            if not self._sparse:
                # Dense blocks must be complete: stream in the rest of
                # the block before absorbing the line (the costly case
                # sparse fill exists to avoid, paper Section IV-C).
                self._fill_whole_block(tile, orientation, now,
                                       skip_index=index)
        else:
            self._touch(tile)
        block.mark_dirty(orientation, index)
        return now + self._tag_latency + self._cfg.write_extra_latency

    def orientation_occupancy(self) -> Tuple[int, int]:
        rows = sum(bin(b.rows_present).count("1")
                   for b in self._blocks.values())
        cols = sum(bin(b.cols_present).count("1")
                   for b in self._blocks.values())
        return rows, cols

    def flush(self, now: int) -> None:
        for tile in list(self._blocks):
            self._set_for(tile).remove(tile)
            self._evict_block(tile, now)

    # -- internals ------------------------------------------------------------------

    def _touch(self, tile: int) -> None:
        self._set_for(tile).touch(tile)

    def _fill_line_into_block(self, line_id: int, now: int,
                              width: AccessWidth) -> Tuple[int, int]:
        """Fetch a line; allocate its block first when needed."""
        tile, orientation, index = line_id_parts(line_id)
        block = self._blocks.get(tile)
        if block is None:
            block = self._allocate_block(tile, now)
        else:
            self._touch(tile)
        completion, level = self._fetch_below(line_id, now, width)
        # Filling writes the crosspoint array; asymmetric technologies
        # pay their write latency here (paper Fig. 16).
        completion += self._cfg.write_extra_latency
        block.mark_present(orientation, index)
        self._note_ready(line_id, completion + self._cfg.data_latency,
                         now)
        if not self._sparse:
            self._fill_whole_block(tile, orientation, completion,
                                   skip_index=index)
        return completion, level

    def _fill_whole_block(self, tile: int, orientation: Orientation,
                          now: int, skip_index: int) -> None:
        """Dense fill: stream the remaining lines behind the first one."""
        block = self._blocks[tile]
        horizon = now
        for k in range(LINES_PER_TILE):
            if k == skip_index:
                continue
            line = make_line_id(tile, orientation, k)
            horizon, _ = self._fetch_below(line, horizon,
                                           AccessWidth.VECTOR)
            self._c_dense_fill_lines.value += 1
        block.rows_present = FULL_MASK
        block.cols_present = FULL_MASK

    def _allocate_block(self, tile: int, now: int) -> BlockState:
        repl = self._set_for(tile)
        if len(repl) >= self._cfg.assoc:
            victim = repl.victim()
            repl.remove(victim)
            self._evict_block(victim, now)
        block = BlockState()
        self._blocks[tile] = block
        repl.insert(tile)
        return block

    def _evict_block(self, tile: int, now: int) -> None:
        """Write back every dirty line of the victim block.

        Never-filled lines have no dirty bits, so sparse blocks elide
        their writeback automatically.
        """
        block = self._blocks.pop(tile)
        self._c_evictions.value += 1
        for orientation, dirty in ((Orientation.ROW, block.rows_dirty),
                                   (Orientation.COLUMN, block.cols_dirty)):
            for k in range(LINES_PER_TILE):
                if dirty & (1 << k):
                    line = make_line_id(tile, orientation, k)
                    self._c_writebacks_out.value += 1
                    self._lower.writeback_line(line, FULL_MASK, now)

    # -- introspection ---------------------------------------------------------------

    def block_state(self, tile: int) -> BlockState:
        return self._blocks[tile]

    def check_invariants(self) -> None:
        """Dirty lines must be present; presence masks are 8-bit."""
        for tile, block in self._blocks.items():
            if block.rows_dirty & ~block.rows_present:
                raise SimulationError(
                    f"block {tile}: dirty row line not present")
            if block.cols_dirty & ~block.cols_present:
                raise SimulationError(
                    f"block {tile}: dirty column line not present")
            for mask in (block.rows_present, block.cols_present,
                         block.rows_dirty, block.cols_dirty):
                if mask & ~FULL_MASK:
                    raise SimulationError(
                        f"block {tile}: mask wider than 8 bits")
