"""The memory path below the LLC before it was folded: a test oracle.

:class:`MemoryController` and :class:`_Channel` are verbatim copies of
the FRFCFS-WQF controller that ``repro.mem.mda_memory.MdaMemory`` used
to wrap; :class:`OracleMemory` composes the controller with the
forwarding code of the old ``MdaMemory`` and ``MemoryPort`` wrappers,
so it speaks the inter-level protocol (``fetch_line`` /
``writeback_line``) and creates the ``memory``, ``memory.banks`` and
``memory.port`` stat cells in the same order as the memory under test.
It imports the unchanged :class:`CrosspointBank` and
:class:`AddressDecoder`.

``tests/test_memory_fuzz.py`` replays generated streams through both
objects and compares every return value, the final horizon and the
stats.  Keep this file as it is: it is the reference any rewrite of the
memory path is checked against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import MemoryConfig
from repro.common.stats import StatRegistry
from repro.common.types import (
    LINE_BYTES,
    WORDS_PER_LINE,
    AccessWidth,
    lines_overlap,
)
from repro.mem.bank import CrosspointBank
from repro.mem.decoder import AddressDecoder, DecodedLine

FULL_MASK = (1 << WORDS_PER_LINE) - 1


class _Channel:
    """Per-channel bus horizon and pending write queue."""

    __slots__ = ("bus_free_at", "write_queue")

    def __init__(self) -> None:
        self.bus_free_at = 0
        self.write_queue: List[Tuple[int, DecodedLine]] = []


class MemoryController:
    """Schedules decoded line requests onto banks and buses."""

    def __init__(self, config: MemoryConfig, stats: StatRegistry) -> None:
        self._config = config
        self._decoder = AddressDecoder(config)
        self._stats = stats.group("memory")
        bank_stats = stats.group("memory.banks")
        total_banks = (config.channels * config.ranks_per_channel
                       * config.banks_per_rank)
        self._banks = [CrosspointBank(config, bank_stats)
                       for _ in range(total_banks)]
        self._channels = [_Channel() for _ in range(config.channels)]
        # Critical-word-first: the requester waits only for the first
        # word's share of the burst.
        self._critical_beats = max(1, config.burst_cycles // WORDS_PER_LINE)
        self._c_line_reads = self._stats.counter("line_reads")
        self._c_bytes_read = self._stats.counter("bytes_read")
        self._c_read_cycles = self._stats.counter("read_cycles")
        self._c_line_writes = self._stats.counter("line_writes")
        self._c_bytes_written = self._stats.counter("bytes_written")
        self._c_writes_drained = self._stats.counter("writes_drained")

    @property
    def decoder(self) -> AddressDecoder:
        return self._decoder

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

    def read_line(self, line_id: int, now: int) -> int:
        """Service a line read; returns critical-word completion time."""
        decoded = self._decoder.decode_line(line_id)
        channel = self._channels[decoded.channel]
        self._drain_idle(channel, now)
        self._drain_overlapping(channel, line_id, now)
        if len(channel.write_queue) >= self._config.write_queue_high:
            self._drain_to_low(channel, now)
        bank = self._banks[self._decoder.bank_key(decoded)]
        data_ready = bank.access(decoded.orientation, decoded.buffer_key,
                                 is_write=False, at=now)
        first_beat = max(data_ready, channel.bus_free_at)
        channel.bus_free_at = first_beat + self._config.burst_cycles
        completion = first_beat + self._critical_beats
        self._c_line_reads.value += 1
        self._c_bytes_read.value += LINE_BYTES
        self._c_read_cycles.value += completion - now
        return completion

    def write_line(self, line_id: int, now: int) -> int:
        """Post a line writeback; returns the (cheap) ack time."""
        decoded = self._decoder.decode_line(line_id)
        channel = self._channels[decoded.channel]
        self._drain_idle(channel, now)
        channel.write_queue.append((line_id, decoded))
        self._c_line_writes.value += 1
        self._c_bytes_written.value += LINE_BYTES
        if len(channel.write_queue) >= self._config.write_queue_high:
            self._drain_to_low(channel, now)
        return now + 1

    def drain_all(self, now: int) -> int:
        """Flush every queued write (end-of-simulation); returns horizon."""
        horizon = now
        for channel in self._channels:
            while channel.write_queue:
                horizon = max(horizon,
                              self._drain_one(channel, horizon))
        return horizon

    # -- internals ----------------------------------------------------------

    def _drain_overlapping(self, channel: _Channel, line_id: int,
                           now: int) -> None:
        """Drain queued writes whose words overlap ``line_id``."""
        if not channel.write_queue:
            return
        keep: List[Tuple[int, DecodedLine]] = []
        for entry in channel.write_queue:
            if lines_overlap(entry[0], line_id):
                self._service_write(channel, entry, now)
                self._stats.add("ordering_drains")
            else:
                keep.append(entry)
        channel.write_queue = keep

    def _drain_idle(self, channel: _Channel, now: int) -> None:
        """Opportunistic FR-FCFS write drain into idle bus time.

        Any queued write that fits before ``now`` on the (otherwise
        idle) data bus is retired in that window, so writebacks do not
        linger until a later overlapping read pays for them.
        """
        while channel.write_queue and channel.bus_free_at < now:
            self._drain_one(channel, channel.bus_free_at)
            self._stats.add("idle_drains")

    def _drain_to_low(self, channel: _Channel, now: int) -> None:
        """WQF drain: shrink the write queue to the low watermark."""
        self._stats.add("wq_drain_episodes")
        while len(channel.write_queue) > self._config.write_queue_low:
            self._drain_one(channel, now)

    def _drain_one(self, channel: _Channel, now: int) -> int:
        entry = channel.write_queue.pop(0)
        return self._service_write(channel, entry, now)

    def _service_write(self, channel: _Channel,
                       entry: Tuple[int, DecodedLine], now: int) -> int:
        """Move one queued write through the bus and its bank."""
        _, decoded = entry
        data_at = max(now, channel.bus_free_at)
        channel.bus_free_at = data_at + self._config.burst_cycles
        bank = self._banks[self._decoder.bank_key(decoded)]
        done = bank.access(decoded.orientation, decoded.buffer_key,
                           is_write=True, at=data_at)
        self._c_writes_drained.value += 1
        return done

    def reset(self) -> None:
        for bank in self._banks:
            bank.reset()
        for channel in self._channels:
            channel.bus_free_at = 0
            channel.write_queue.clear()

    def pending_writes(self) -> int:
        """Total writes currently queued across channels."""
        return sum(len(ch.write_queue) for ch in self._channels)

    def bank_states(self) -> Dict[int, Tuple[object, object]]:
        """Open (row, column) buffer keys per bank index (debugging)."""
        return {i: (bank.open_row, bank.open_col)
                for i, bank in enumerate(self._banks)}


class OracleMemory:
    """The old ``MemoryPort(MdaMemory(config, stats), stats)`` stack."""

    level_index = 0

    def __init__(self, config: MemoryConfig, stats: StatRegistry) -> None:
        # MdaMemory built its controller first, then MemoryPort its
        # counters: the stat groups appear in that order.
        self._controller = MemoryController(config, stats)
        self._stats = stats.group("memory.port")
        self._c_fetches = self._stats.counter("fetches")
        self._c_writebacks = self._stats.counter("writebacks")
        self._c_dirty_words = self._stats.counter("dirty_words_written")

    def buffer_state(self, line_id: int):
        return self._controller.buffer_state(line_id)

    def read_line(self, line_id: int, now: int) -> int:
        return self._controller.read_line(line_id, now)

    def write_line(self, line_id: int, now: int) -> int:
        return self._controller.write_line(line_id, now)

    def finish(self, now: int) -> int:
        return self._controller.drain_all(now)

    def pending_writes(self) -> int:
        return self._controller.pending_writes()

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
