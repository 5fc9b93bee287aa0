"""Unit tests for configuration validation and derived properties."""

import pytest

from repro.common.config import (
    CacheLevelConfig,
    CpuConfig,
    MemoryConfig,
    PrefetcherConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError
from tests.conftest import small_config


class TestCacheLevelConfig:
    def test_frame_size_line_for_1d(self):
        cfg = small_config()
        assert cfg.frame_bytes == 64
        assert cfg.num_frames == 16
        assert cfg.num_sets == 4

    def test_frame_size_tile_for_2p(self):
        cfg = small_config(size_kb=4, assoc=2, logical_dims=2,
                           physical_dims=2)
        assert cfg.frame_bytes == 512
        assert cfg.num_frames == 8
        assert cfg.num_sets == 4

    def test_hit_latency_parallel_vs_sequential(self):
        parallel = small_config(tag_latency=2, data_latency=3,
                                sequential_tag_data=False)
        sequential = small_config(tag_latency=2, data_latency=3,
                                  sequential_tag_data=True)
        assert parallel.hit_latency == 3
        assert sequential.hit_latency == 5

    def test_taxonomy_label(self):
        assert small_config().taxonomy == "1P1L"
        assert small_config(logical_dims=2).taxonomy == "1P2L"
        assert small_config(size_kb=4, assoc=2, logical_dims=2,
                            physical_dims=2).taxonomy == "2P2L"

    def test_rejects_2p1l(self):
        with pytest.raises(ConfigError):
            small_config(logical_dims=1, physical_dims=2)

    def test_rejects_bad_mapping(self):
        with pytest.raises(ConfigError):
            small_config(mapping="diagonal")

    def test_rejects_indivisible_assoc(self):
        with pytest.raises(ConfigError):
            small_config(size_kb=1, assoc=5)

    def test_rejects_non_frame_multiple_size(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="x", size_bytes=100, assoc=1,
                             tag_latency=1, data_latency=1)

    def test_non_power_of_two_sets_allowed(self):
        # The paper's 1.5 MB LLC point needs 48-set-like geometries.
        cfg = CacheLevelConfig(name="L3", size_bytes=24 * 1024, assoc=8,
                               tag_latency=1, data_latency=1)
        assert cfg.num_sets == 48


class TestMemoryConfig:
    def test_defaults_valid(self):
        MemoryConfig()

    def test_scaled_applies_speed_factor(self):
        cfg = MemoryConfig(speed_factor=2.0)
        assert cfg.scaled(90) == 45
        assert cfg.scaled(1) == 1  # never below one cycle

    def test_faster_compounds(self):
        cfg = MemoryConfig().faster(1.6)
        assert cfg.speed_factor == pytest.approx(1.6)
        assert cfg.faster(2.0).speed_factor == pytest.approx(3.2)

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ConfigError):
            MemoryConfig(write_queue_high=4, write_queue_low=8)
        # A drain episode runs from the high watermark down to the low
        # one, so equal watermarks describe no episode at all.
        with pytest.raises(ConfigError):
            MemoryConfig(write_queue_high=8, write_queue_low=8)

    def test_accepts_adjacent_watermarks(self):
        # The tightest legal pair: an episode drains one write.
        cfg = MemoryConfig(write_queue_high=8, write_queue_low=7)
        assert (cfg.write_queue_low, cfg.write_queue_high) == (7, 8)

    def test_rejects_zero_low_watermark(self):
        with pytest.raises(ConfigError, match="0 < low < high"):
            MemoryConfig(write_queue_high=8, write_queue_low=0)

    def test_rejects_non_power_of_two_channels(self):
        with pytest.raises(ConfigError):
            MemoryConfig(channels=3)


class TestPrefetcherConfig:
    def test_rejects_zero_degree(self):
        with pytest.raises(ConfigError):
            PrefetcherConfig(degree=0)


class TestCpuConfig:
    def test_rejects_zero_window(self):
        with pytest.raises(ConfigError):
            CpuConfig(mlp_window=0)


class TestSystemConfig:
    def test_llc_is_last_level(self):
        sys_cfg = SystemConfig(levels=[small_config("L1"),
                                       small_config("L2", size_kb=4)])
        assert sys_cfg.llc.name == "L2"

    def test_rejects_shrinking_hierarchy(self):
        with pytest.raises(ConfigError):
            SystemConfig(levels=[small_config("L1", size_kb=4),
                                 small_config("L2", size_kb=1)])

    def test_rejects_2d_logical_above_1d(self):
        with pytest.raises(ConfigError):
            SystemConfig(levels=[
                small_config("L1", logical_dims=2),
                small_config("L2", size_kb=4, logical_dims=1),
            ])

    def test_describe_mentions_taxonomy_chain(self):
        sys_cfg = SystemConfig(
            levels=[small_config("L1", logical_dims=2),
                    small_config("L2", size_kb=4, logical_dims=2)],
            name="demo")
        assert "1P2L/1P2L" in sys_cfg.describe()

    def test_logical_dims_comes_from_l1(self):
        sys_cfg = SystemConfig(levels=[small_config("L1", logical_dims=2),
                                       small_config("L2", size_kb=4,
                                                    logical_dims=2)])
        assert sys_cfg.logical_dims == 2
