"""Edge-case tests across modules (gaps left by the main suites)."""

from repro.common.stats import StatRegistry
from repro.common.config import MemoryConfig
from repro.common.types import (
    AccessWidth,
    Orientation,
    Request,
    line_id_of,
    make_line_id,
    word_addr,
)
from repro.cache.cache_1p2l import Cache1P2L
from repro.cache.cache_2p2l import Cache2P2L
from repro.mem.mda_memory import MdaMemory
from tests.conftest import FakeLower, small_config

SETTLE = 100_000


def make_1p2l(**kwargs):
    stats = StatRegistry()
    cache = Cache1P2L(small_config(size_kb=4, assoc=4, logical_dims=2,
                                   **kwargs), 1, stats)
    lower = FakeLower()
    cache.connect(lower)
    return cache, lower, stats


class Test1P2LEdgeCases:
    def test_vector_write_miss_evicts_dirty_intersections(self):
        """Write-allocate of a full line must displace a perpendicular
        line that is dirty at the crossing, with its data pushed down."""
        cache, lower, stats = make_1p2l()
        addr = word_addr(0, 2, 3)
        col = line_id_of(addr, Orientation.COLUMN)
        # Dirty the column line at the crossing word.
        cache.access(Request(addr, Orientation.COLUMN,
                             AccessWidth.SCALAR, True), 0)
        assert cache.dirty_mask_of(col) != 0
        # Vector-write the crossing row.
        cache.access(Request(word_addr(0, 2, 0), Orientation.ROW,
                             AccessWidth.VECTOR, True), SETTLE)
        assert not cache.contains(col)
        assert col in lower.written_lines()
        cache.check_invariants()

    def test_same_set_capacity_conflicts(self):
        """Same-Set mapping: 16 lines of one tile fight over one set."""
        cache, _, stats = make_1p2l(mapping="same_set")
        now = 0
        for index in range(8):
            for orientation in (Orientation.ROW, Orientation.COLUMN):
                now += SETTLE
                line = make_line_id(0, orientation, index)
                cache.access(Request(
                    word_addr(0, index if orientation is Orientation.ROW
                              else 0,
                              index if orientation is Orientation.COLUMN
                              else 0),
                    orientation, AccessWidth.VECTOR, False), now)
        # Only assoc=4 of the 16 can stay.
        assert cache.resident_lines() <= 16
        assert stats.group("cache.L1").get("evictions") \
            + stats.group("cache.L1").get("duplicate_evictions") > 0
        cache.check_invariants()

    def test_read_after_write_same_word_hits_dirty_line(self):
        cache, lower, _ = make_1p2l()
        addr = word_addr(3, 1, 1)
        cache.access(Request(addr, Orientation.ROW, AccessWidth.SCALAR,
                             True), 0)
        result = cache.access(Request(addr, Orientation.ROW,
                                      AccessWidth.SCALAR, False),
                              SETTLE)
        assert result.hit_level == 1
        assert len(lower.fetches) == 1  # the original write-allocate

    def test_flush_preserves_clean_duplicate_semantics(self):
        cache, lower, _ = make_1p2l()
        addr = word_addr(0, 2, 3)
        cache.access(Request(addr, Orientation.ROW, AccessWidth.VECTOR,
                             False), 0)
        cache.access(Request(addr, Orientation.COLUMN,
                             AccessWidth.VECTOR, False), SETTLE)
        cache.flush(2 * SETTLE)
        # Both copies were clean: nothing written back.
        assert lower.writebacks == []
        assert cache.resident_lines() == 0


class Test2P2LEdgeCases:
    def make(self, sparse=True):
        stats = StatRegistry()
        cache = Cache2P2L(small_config(name="L3", size_kb=4, assoc=2,
                                       logical_dims=2, physical_dims=2,
                                       sparse_fill=sparse), 3, stats)
        lower = FakeLower()
        cache.connect(lower)
        return cache, lower, stats

    def test_cpu_vector_hit_via_fully_present_block(self):
        cache, _, _ = self.make()
        for r in range(8):
            cache.fetch_line(make_line_id(0, Orientation.ROW, r),
                             r * SETTLE, AccessWidth.VECTOR)
        result = cache.access(
            Request(word_addr(0, 0, 5), Orientation.COLUMN,
                    AccessWidth.VECTOR, False), 10 * SETTLE)
        assert result.hit_level == 3

    def test_mixed_direction_dirty_eviction_covers_both(self):
        cache, lower, _ = self.make()
        cache.writeback_line(make_line_id(0, Orientation.ROW, 1),
                             0xFF, 0)
        cache.writeback_line(make_line_id(0, Orientation.COLUMN, 6),
                             0xFF, SETTLE)
        cache.flush(2 * SETTLE)
        written = set(lower.written_lines())
        assert make_line_id(0, Orientation.ROW, 1) in written
        assert make_line_id(0, Orientation.COLUMN, 6) in written


class TestControllerEdgeCases:
    def test_two_reads_same_channel_share_bus(self):
        cfg = MemoryConfig(channels=1)
        ctrl = MdaMemory(cfg, StatRegistry())
        a = ctrl.read_line(make_line_id(0, Orientation.ROW, 0), 0)
        # Different bank, same channel: bank-parallel, bus-serial.
        b = ctrl.read_line(make_line_id(4, Orientation.ROW, 0), 0)
        assert b >= a  # second data beat cannot precede the first

    def test_drain_all_is_idempotent(self):
        ctrl = MdaMemory(MemoryConfig(), StatRegistry())
        ctrl.write_line(make_line_id(0, Orientation.ROW, 0), 0)
        first = ctrl.finish(0)
        second = ctrl.finish(first)
        assert second == first
