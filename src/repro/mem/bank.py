"""A crosspoint bank with both a row buffer and a column buffer.

This is the timing heart of the MDA memory (paper Section III, Figs. 2-6):
the array can open either a physical row into the row buffer or a
physical column into the column buffer, and subsequent accesses along the
open dimension are buffer hits.  Bit-slicing (Fig. 5/6) is what makes a
column activation deliver whole *words*; at this abstraction level it
appears simply as the column buffer existing at all, plus the one-cycle
column-decode adder charged on every column access.

Open-page policy (Table I): buffers stay open until a conflicting
activation replaces them.  ``MemoryConfig.sub_buffers`` > 1 enables the
multiple sub-row-buffer scheme of Gulur et al. that the paper compares
against (Section IX-B): each bank then keeps that many rows *and*
columns open, with FIFO replacement among them.  The paper found "less
than 1% impact" for single-threaded runs — the ablation bench checks
the same holds here.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import MemoryConfig
from ..common.stats import StatGroup
from ..common.types import Orientation


class CrosspointBank:
    """Timing state for one bank: open buffers and busy horizon."""

    def __init__(self, config: MemoryConfig, stats: StatGroup) -> None:
        self._config = config
        self._stats = stats
        # Most recently opened entry last; capped at config.sub_buffers.
        self._open_rows: List[int] = []
        self._open_cols: List[int] = []
        self._busy_until = 0
        # Pre-scaled array timings (scaled() is deterministic per
        # config) and pre-bound counter cells: every line access goes
        # through `access`, so this is one of the simulator's hottest
        # paths.  Banks of one memory share the cells (one StatGroup).
        self._activate_cost = config.scaled(config.activate_cycles)
        self._read_cost = config.scaled(config.buffer_access_cycles)
        self._write_cost = config.scaled(config.write_cycles)
        self._sub_buffers = config.sub_buffers
        self._column_extra = config.column_decode_extra
        self._c_buffer_hits = stats.counter("buffer_hits")
        self._c_buffer_misses = stats.counter("buffer_misses")
        self._c_hits_by_orient = (stats.counter("row_buffer_hits"),
                                  stats.counter("col_buffer_hits"))
        self._c_misses_by_orient = (stats.counter("row_buffer_misses"),
                                    stats.counter("col_buffer_misses"))
        self._c_reads = stats.counter("reads")
        self._c_writes = stats.counter("writes")

    @property
    def open_row(self) -> Optional[int]:
        """Most recently opened row (None when nothing is open)."""
        return self._open_rows[-1] if self._open_rows else None

    @property
    def open_col(self) -> Optional[int]:
        return self._open_cols[-1] if self._open_cols else None

    @property
    def busy_until(self) -> int:
        return self._busy_until

    def would_hit(self, orientation: Orientation, buffer_key: int) -> bool:
        """True if an access now would be a buffer hit (FR-FCFS input)."""
        buffers = (self._open_rows if orientation is Orientation.ROW
                   else self._open_cols)
        return buffer_key in buffers

    def access(self, orientation: Orientation, buffer_key: int,
               is_write: bool, at: int) -> int:
        """Service one line access; returns first-data-ready time.

        The bank is occupied from ``max(at, busy_until)`` until the
        returned time.  A buffer miss pays an activation; writes pay the
        (slower, for STT) array write instead of the buffer read.
        """
        start = max(at, self._busy_until)
        cost = 0
        is_row = orientation is Orientation.ROW
        buffers = self._open_rows if is_row else self._open_cols
        if buffer_key in buffers:
            self._c_buffer_hits.value += 1
            self._c_hits_by_orient[not is_row].value += 1
        else:
            cost += self._activate_cost
            self._c_buffer_misses.value += 1
            self._c_misses_by_orient[not is_row].value += 1
            buffers.append(buffer_key)
            if len(buffers) > self._sub_buffers:
                buffers.pop(0)
        if is_write:
            cost += self._write_cost
            self._c_writes.value += 1
        else:
            cost += self._read_cost
            self._c_reads.value += 1
        if not is_row:
            cost += self._column_extra
        ready = start + cost
        self._busy_until = ready
        return ready
