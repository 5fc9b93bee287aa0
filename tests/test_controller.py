"""Unit tests for the FRFCFS-WQF scheduling of :class:`MdaMemory`."""

from repro.common.config import MemoryConfig
from repro.common.stats import StatRegistry
from repro.common.types import Orientation, make_line_id
from repro.mem.mda_memory import MdaMemory


def make_controller(**kwargs):
    cfg = MemoryConfig(**kwargs)
    stats = StatRegistry()
    return MdaMemory(cfg, stats), cfg, stats


def row_line(tile: int, index: int = 0) -> int:
    return make_line_id(tile, Orientation.ROW, index)


def col_line(tile: int, index: int = 0) -> int:
    return make_line_id(tile, Orientation.COLUMN, index)


class TestReads:
    def test_read_latency_includes_activation_and_critical_word(self):
        ctrl, cfg, _ = make_controller()
        done = ctrl.read_line(row_line(0), now=0)
        expected_bank = cfg.activate_cycles + cfg.buffer_access_cycles
        critical = max(1, cfg.burst_cycles // 8)
        assert done == expected_bank + critical

    def test_buffer_hit_read_is_faster(self):
        ctrl, cfg, _ = make_controller()
        first = ctrl.read_line(row_line(0), 0)
        second = ctrl.read_line(row_line(0), first)
        assert second - first < first

    def test_different_channels_overlap(self):
        ctrl, cfg, _ = make_controller(channels=2)
        a = ctrl.read_line(row_line(0), 0)  # channel 0
        b = ctrl.read_line(row_line(1), 0)  # channel 1
        assert abs(a - b) <= 1  # independent banks and buses

    def test_same_bank_serializes(self):
        ctrl, cfg, _ = make_controller(channels=1, banks_per_rank=1,
                                       tile_cols_per_bank=1)
        a = ctrl.read_line(row_line(0, 0), 0)
        b = ctrl.read_line(row_line(1, 0), 0)  # same bank, other row
        assert b > a

    def test_stats_count_bytes(self):
        ctrl, _, stats = make_controller()
        ctrl.read_line(row_line(0), 0)
        ctrl.read_line(row_line(1), 0)
        assert stats.group("memory").get("bytes_read") == 128


class TestWriteQueue:
    def test_write_ack_is_immediate(self):
        ctrl, _, _ = make_controller()
        assert ctrl.write_line(row_line(0), now=10) == 11

    def test_writes_buffer_until_high_watermark(self):
        ctrl, cfg, stats = make_controller(channels=1,
                                           write_queue_high=4,
                                           write_queue_low=2)
        for tile in range(3):
            ctrl.write_line(row_line(tile), 0)
        assert ctrl.pending_writes() == 3
        assert stats.group("memory").get("wq_drain_episodes") == 0
        ctrl.write_line(row_line(3), 0)
        # Drained down to the low watermark.
        assert ctrl.pending_writes() == cfg.write_queue_low
        assert stats.group("memory").get("wq_drain_episodes") == 1

    def test_reads_find_the_queue_below_high_and_start_no_episode(self):
        """Every write that reaches the high watermark drains to the
        low one before returning, so a read never finds a full queue:
        drain episodes are write-driven only."""
        ctrl, cfg, stats = make_controller(channels=1,
                                           write_queue_high=4,
                                           write_queue_low=2)
        episodes = 0
        for tile in range(12):
            ctrl.write_line(row_line(tile), 0)
            assert ctrl.pending_writes() < cfg.write_queue_high
            episodes = stats.group("memory").get("wq_drain_episodes")
            pending = ctrl.pending_writes()
            # No idle time has passed and the line overlaps no queued
            # write: the read leaves the queue alone.
            ctrl.read_line(row_line(100 + tile), 0)
            assert ctrl.pending_writes() == pending
            assert stats.group("memory").get("wq_drain_episodes") \
                == episodes
        assert episodes == 5

    def test_drain_all_empties_queues(self):
        ctrl, _, _ = make_controller()
        for tile in range(5):
            ctrl.write_line(row_line(tile), 0)
        horizon = ctrl.finish(0)
        assert ctrl.pending_writes() == 0
        assert horizon > 0


class TestOverlapOrdering:
    def test_read_drains_overlapping_write_first(self):
        """A read to a column that crosses a queued row write must see
        that write drained first (paper Section IV-B ordering)."""
        ctrl, _, stats = make_controller(channels=1)
        ctrl.write_line(row_line(0, index=2), 0)
        clean_read = ctrl.read_line(col_line(1, index=3), 0)
        # Different tile: the queued write is untouched.
        assert ctrl.pending_writes() == 1
        ctrl.read_line(col_line(0, index=3), clean_read)
        assert ctrl.pending_writes() == 0
        assert stats.group("memory").get("ordering_drains") == 1

    def test_same_line_write_then_read_ordered(self):
        ctrl, _, stats = make_controller(channels=1)
        line = row_line(7, 4)
        ctrl.write_line(line, 0)
        ctrl.read_line(line, 0)
        assert ctrl.pending_writes() == 0
        assert stats.group("memory").get("ordering_drains") == 1

    def test_nonoverlapping_write_not_drained(self):
        ctrl, _, stats = make_controller(channels=1)
        ctrl.write_line(row_line(0, 0), 0)
        ctrl.read_line(row_line(0, 1), 0)  # same tile, parallel lines
        assert ctrl.pending_writes() == 1


class TestIdleDrain:
    def test_queued_writes_drain_into_idle_time(self):
        """A write queued long before the next request retires in the
        idle window instead of lingering (opportunistic FR-FCFS)."""
        ctrl, _, stats = make_controller(channels=1)
        ctrl.write_line(row_line(0), 0)
        assert ctrl.pending_writes() == 1
        # A much later read to an unrelated tile triggers the idle
        # drain first.
        ctrl.read_line(row_line(50), 100_000)
        assert ctrl.pending_writes() == 0
        assert stats.group("memory").get("idle_drains") == 1
        assert stats.group("memory").get("ordering_drains") == 0

    def test_idle_drained_write_does_not_slow_late_read(self):
        ctrl_a, cfg, _ = make_controller(channels=1)
        baseline = ctrl_a.read_line(row_line(50), 100_000)
        ctrl_b, _, _ = make_controller(channels=1)
        ctrl_b.write_line(row_line(0), 0)  # drains in the idle gap
        with_write = ctrl_b.read_line(row_line(50), 100_000)
        assert with_write == baseline

    def test_back_to_back_write_not_idle_drained(self):
        """No idle time has passed: the write stays queued."""
        ctrl, _, _ = make_controller(channels=1)
        ctrl.read_line(row_line(1), 0)  # occupies the bus
        ctrl.write_line(row_line(0), 1)
        assert ctrl.pending_writes() == 1

