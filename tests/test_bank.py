"""Unit tests for the crosspoint bank's dual-buffer timing."""

from repro.common.config import MemoryConfig
from repro.common.stats import StatGroup
from repro.common.types import Orientation
from repro.mem.bank import CrosspointBank


def make_bank(**kwargs):
    cfg = MemoryConfig(**kwargs)
    stats = StatGroup("bank")
    return CrosspointBank(cfg, stats), cfg, stats


class TestRowBuffer:
    def test_first_access_is_activation(self):
        bank, cfg, stats = make_bank()
        ready = bank.access(Orientation.ROW, 5, is_write=False, at=0)
        assert ready == cfg.activate_cycles + cfg.buffer_access_cycles
        assert stats.get("row_buffer_misses") == 1
        assert bank.open_row == 5

    def test_second_access_same_row_hits(self):
        bank, cfg, stats = make_bank()
        t1 = bank.access(Orientation.ROW, 5, False, 0)
        t2 = bank.access(Orientation.ROW, 5, False, t1)
        assert t2 - t1 == cfg.buffer_access_cycles
        assert stats.get("row_buffer_hits") == 1

    def test_row_conflict_reactivates(self):
        bank, cfg, stats = make_bank()
        t1 = bank.access(Orientation.ROW, 5, False, 0)
        bank.access(Orientation.ROW, 6, False, t1)
        assert stats.get("row_buffer_misses") == 2
        assert bank.open_row == 6


class TestColumnBuffer:
    def test_column_access_pays_decode_extra(self):
        bank, cfg, _ = make_bank()
        ready = bank.access(Orientation.COLUMN, 2, False, 0)
        assert ready == (cfg.activate_cycles + cfg.buffer_access_cycles
                         + cfg.column_decode_extra)

    def test_row_and_column_buffers_independent(self):
        """Opening a row does not close the column buffer: the MDA bank
        keeps both open (open-page in both dimensions)."""
        bank, _, stats = make_bank()
        t = bank.access(Orientation.COLUMN, 2, False, 0)
        t = bank.access(Orientation.ROW, 7, False, t)
        t = bank.access(Orientation.COLUMN, 2, False, t)
        assert stats.get("col_buffer_hits") == 1
        assert bank.open_row == 7
        assert bank.open_col == 2

    def test_column_streak_hits_after_first(self):
        bank, _, stats = make_bank()
        t = 0
        for _ in range(4):
            t = bank.access(Orientation.COLUMN, 3, False, t)
        assert stats.get("col_buffer_misses") == 1
        assert stats.get("col_buffer_hits") == 3


class TestWritesAndOccupancy:
    def test_write_pays_write_latency(self):
        bank, cfg, _ = make_bank()
        ready = bank.access(Orientation.ROW, 1, is_write=True, at=0)
        assert ready == cfg.activate_cycles + cfg.write_cycles

    def test_bank_busy_serializes(self):
        bank, cfg, _ = make_bank()
        t1 = bank.access(Orientation.ROW, 1, False, 0)
        # A request arriving earlier than the bank is free starts late.
        t2 = bank.access(Orientation.ROW, 1, False, 0)
        assert t2 == t1 + cfg.buffer_access_cycles

    def test_idle_bank_starts_at_request_time(self):
        bank, cfg, _ = make_bank()
        ready = bank.access(Orientation.ROW, 1, False, 1000)
        assert ready == 1000 + cfg.activate_cycles \
            + cfg.buffer_access_cycles

    def test_speed_factor_shrinks_timings(self):
        fast_bank, fast_cfg, _ = make_bank(speed_factor=2.0)
        ready = fast_bank.access(Orientation.ROW, 1, False, 0)
        base_cfg = MemoryConfig()
        assert ready == (base_cfg.activate_cycles
                         + base_cfg.buffer_access_cycles) // 2

    def test_would_hit_matches_state(self):
        bank, _, _ = make_bank()
        bank.access(Orientation.ROW, 4, False, 0)
        assert bank.would_hit(Orientation.ROW, 4)
        assert not bank.would_hit(Orientation.ROW, 5)
        assert not bank.would_hit(Orientation.COLUMN, 4)


class TestSubBuffers:
    """The Gulur et al. multiple sub-row-buffer scheme (Section IX-B)."""

    def test_multiple_rows_stay_open(self):
        bank, _, stats = make_bank(sub_buffers=2)
        t = bank.access(Orientation.ROW, 1, False, 0)
        t = bank.access(Orientation.ROW, 2, False, t)
        t = bank.access(Orientation.ROW, 1, False, t)  # still open
        assert stats.get("row_buffer_hits") == 1

    def test_fifo_replacement_among_sub_buffers(self):
        bank, _, stats = make_bank(sub_buffers=2)
        t = 0
        for key in (1, 2, 3):  # 3 evicts 1
            t = bank.access(Orientation.ROW, key, False, t)
        t = bank.access(Orientation.ROW, 1, False, t)
        assert stats.get("row_buffer_hits") == 0
        assert bank.would_hit(Orientation.ROW, 3)
        assert bank.would_hit(Orientation.ROW, 1)

    def test_single_buffer_matches_open_page(self):
        bank, _, stats = make_bank(sub_buffers=1)
        t = bank.access(Orientation.ROW, 1, False, 0)
        t = bank.access(Orientation.ROW, 2, False, t)
        assert not bank.would_hit(Orientation.ROW, 1)

    def test_row_and_column_sub_buffers_independent(self):
        bank, _, _ = make_bank(sub_buffers=2)
        t = bank.access(Orientation.ROW, 1, False, 0)
        t = bank.access(Orientation.COLUMN, 1, False, t)
        t = bank.access(Orientation.COLUMN, 2, False, t)
        assert bank.would_hit(Orientation.ROW, 1)
        assert bank.would_hit(Orientation.COLUMN, 1)
        assert bank.would_hit(Orientation.COLUMN, 2)
