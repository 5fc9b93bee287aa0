"""MDA main memory: the one object below the LLC (or the tier).

Presents the interface the LLC uses (paper Section IV-B, "Cache <->
MDA memory"): oriented line reads that "will always receive the line in
the requested orientation", oriented line writebacks, and
critical-word-first completion times.  It speaks the inter-level
protocol of :mod:`repro.cache.base` (``fetch_line`` /
``writeback_line``, ``level_index`` 0) and schedules the decoded lines
onto its banks (:class:`CrosspointBank`) and channel buses with the
pieces of FR-FCFS / write-queue-first scheduling (paper Table I) that
matter for a single-threaded trace:

* **open-page preference** — buffer hits are cheap because banks keep
  their row and column buffers open (:class:`CrosspointBank`);
* **posted writes** — writebacks enter a per-channel write queue and are
  acknowledged immediately; the queue drains to the low watermark when it
  fills past the high watermark, pushing bank and bus horizons forward
  (this is where write traffic interferes with reads);
* **overlap ordering** — a read that overlaps any queued write (same
  oriented line, or a perpendicular line in the same tile) forces those
  writes to drain first.  Together with the 2-D MSHRs this implements the
  paper's requirement that "transactions that have overlapping words
  should be ordered, even if the access directions are different".

Data-bus occupancy is tracked per channel; reads complete for the
requester at critical-word-first time while the full burst occupies the
bus.
"""

from __future__ import annotations

from typing import List, Tuple

from ..common.config import MemoryConfig
from ..common.stats import StatRegistry
from ..common.types import (
    FULL_MASK,
    LINE_BYTES,
    WORDS_PER_LINE,
    AccessWidth,
    lines_overlap,
)
from .bank import CrosspointBank
from .decoder import AddressDecoder, DecodedLine


class MdaMemory:
    """MDA main memory: serves oriented line reads and writebacks."""

    level_index = 0

    def __init__(self, config: MemoryConfig, stats: StatRegistry) -> None:
        self._config = config
        self._decoder = AddressDecoder(config)
        self._stats = stats.group("memory")
        bank_stats = stats.group("memory.banks")
        total_banks = (config.channels * config.ranks_per_channel
                       * config.banks_per_rank)
        self._banks = [CrosspointBank(config, bank_stats)
                       for _ in range(total_banks)]
        # Per channel: the data bus horizon and the posted writes,
        # oldest first.
        self._bus_free_at = [0] * config.channels
        self._write_queues: List[List[Tuple[int, DecodedLine]]] = [
            [] for _ in range(config.channels)]
        # Critical-word-first: the requester waits only for the first
        # word's share of the burst.
        self._critical_beats = max(1, config.burst_cycles // WORDS_PER_LINE)
        self._c_line_reads = self._stats.counter("line_reads")
        self._c_bytes_read = self._stats.counter("bytes_read")
        self._c_read_cycles = self._stats.counter("read_cycles")
        self._c_line_writes = self._stats.counter("line_writes")
        self._c_bytes_written = self._stats.counter("bytes_written")
        self._c_writes_drained = self._stats.counter("writes_drained")
        port_stats = stats.group("memory.port")
        self._c_fetches = port_stats.counter("fetches")
        self._c_writebacks = port_stats.counter("writebacks")
        self._c_dirty_words = port_stats.counter("dirty_words_written")

    # -- inter-level protocol ------------------------------------------------

    def fetch_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        completion = self.read_line(line_id, now)
        self._c_fetches.value += 1
        return completion, 0

    def writeback_line(self, line_id: int, dirty_mask: int,
                       now: int) -> int:
        self._c_writebacks.value += 1
        self._c_dirty_words.value += (dirty_mask & FULL_MASK).bit_count()
        return self.write_line(line_id, now)

    def buffer_state(self, line_id: int) -> Tuple[Tuple[int, int, int],
                                                  bool]:
        """Read-only locality probe: ``(region_key, would_hit)``.

        ``region_key`` identifies the (bank, orientation, buffer) a
        line maps to; ``would_hit`` is True when an access issued now
        would be a buffer hit.  The RBLA install policy of the
        die-stacked tier (Meza et al.) consults this without touching
        bank state — probing never opens or closes a buffer.
        """
        decoded = self._decoder.decode_line(line_id)
        bank_index = self._decoder.bank_key(decoded)
        hit = self._banks[bank_index].would_hit(decoded.orientation,
                                                decoded.buffer_key)
        return ((bank_index, int(decoded.orientation),
                 decoded.buffer_key), hit)

    # -- scheduling ----------------------------------------------------------

    def read_line(self, line_id: int, now: int) -> int:
        """Service a line read; returns critical-word completion time."""
        decoded = self._decoder.decode_line(line_id)
        channel = decoded.channel
        self._drain_idle(channel, now)
        self._drain_overlapping(channel, line_id, now)
        bank = self._banks[self._decoder.bank_key(decoded)]
        data_ready = bank.access(decoded.orientation, decoded.buffer_key,
                                 is_write=False, at=now)
        first_beat = max(data_ready, self._bus_free_at[channel])
        self._bus_free_at[channel] = first_beat + self._config.burst_cycles
        completion = first_beat + self._critical_beats
        self._c_line_reads.value += 1
        self._c_bytes_read.value += LINE_BYTES
        self._c_read_cycles.value += completion - now
        return completion

    def write_line(self, line_id: int, now: int) -> int:
        """Post a line writeback; returns the (cheap) ack time."""
        decoded = self._decoder.decode_line(line_id)
        channel = decoded.channel
        self._drain_idle(channel, now)
        queue = self._write_queues[channel]
        queue.append((line_id, decoded))
        self._c_line_writes.value += 1
        self._c_bytes_written.value += LINE_BYTES
        if len(queue) >= self._config.write_queue_high:
            self._drain_to_low(channel, now)
        return now + 1

    def finish(self, now: int) -> int:
        """Flush every queued write (end of simulation); returns the
        final memory horizon."""
        horizon = now
        for channel, queue in enumerate(self._write_queues):
            while queue:
                horizon = max(horizon, self._drain_one(channel, horizon))
        return horizon

    def pending_writes(self) -> int:
        """Total writes currently queued across channels."""
        return sum(len(queue) for queue in self._write_queues)

    # -- internals ----------------------------------------------------------

    def _drain_overlapping(self, channel: int, line_id: int,
                           now: int) -> None:
        """Drain queued writes whose words overlap ``line_id``."""
        queue = self._write_queues[channel]
        if not queue:
            return
        keep: List[Tuple[int, DecodedLine]] = []
        for entry in queue:
            if lines_overlap(entry[0], line_id):
                self._service_write(channel, entry, now)
                self._stats.add("ordering_drains")
            else:
                keep.append(entry)
        self._write_queues[channel] = keep

    def _drain_idle(self, channel: int, now: int) -> None:
        """Opportunistic FR-FCFS write drain into idle bus time.

        Any queued write that fits before ``now`` on the (otherwise
        idle) data bus is retired in that window, so writebacks do not
        linger until a later overlapping read pays for them.
        """
        queue = self._write_queues[channel]
        while queue and self._bus_free_at[channel] < now:
            self._drain_one(channel, self._bus_free_at[channel])
            self._stats.add("idle_drains")

    def _drain_to_low(self, channel: int, now: int) -> None:
        """WQF drain: shrink the write queue to the low watermark."""
        self._stats.add("wq_drain_episodes")
        queue = self._write_queues[channel]
        while len(queue) > self._config.write_queue_low:
            self._drain_one(channel, now)

    def _drain_one(self, channel: int, now: int) -> int:
        entry = self._write_queues[channel].pop(0)
        return self._service_write(channel, entry, now)

    def _service_write(self, channel: int,
                       entry: Tuple[int, DecodedLine], now: int) -> int:
        """Move one queued write through the bus and its bank."""
        _, decoded = entry
        data_at = max(now, self._bus_free_at[channel])
        self._bus_free_at[channel] = data_at + self._config.burst_cycles
        bank = self._banks[self._decoder.bank_key(decoded)]
        done = bank.access(decoded.orientation, decoded.buffer_key,
                           is_write=True, at=data_at)
        self._c_writes_drained.value += 1
        return done
