"""Unit tests for :class:`MdaMemory`: oriented reads and the final drain."""

from repro.common.config import MemoryConfig
from repro.common.stats import StatRegistry
from repro.common.types import Orientation, make_line_id
from repro.mem.mda_memory import MdaMemory


def make_memory():
    return MdaMemory(MemoryConfig(), StatRegistry())


class TestOrientationSupport:
    def test_serves_row_and_column_reads(self):
        mem = make_memory()
        row_done = mem.read_line(make_line_id(0, Orientation.ROW, 0), 0)
        col_done = mem.read_line(make_line_id(1, Orientation.COLUMN, 0),
                                 0)
        assert row_done > 0 and col_done > 0

    def test_column_read_in_requested_orientation_single_access(self):
        """A column fetch is one memory operation, not eight row
        openings (the paper's core bandwidth argument)."""
        mem = make_memory()
        stats = StatRegistry()
        mem = MdaMemory(MemoryConfig(), stats)
        mem.read_line(make_line_id(0, Orientation.COLUMN, 3), 0)
        assert stats.group("memory").get("line_reads") == 1
        banks = stats.group("memory.banks")
        assert banks.get("col_buffer_misses") == 1
        assert banks.get("row_buffer_misses") == 0


class TestFinish:
    def test_finish_drains_writes(self):
        stats = StatRegistry()
        mem = MdaMemory(MemoryConfig(), stats)
        for tile in range(6):
            mem.write_line(make_line_id(tile, Orientation.ROW, 0), 0)
        horizon = mem.finish(0)
        assert horizon > 0
        assert mem.pending_writes() == 0

    def test_finish_with_empty_queue_is_noop(self):
        mem = make_memory()
        assert mem.finish(42) == 42
