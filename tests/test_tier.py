"""The polymorphic die-stacked tier (PR-10 acceptance).

Covers :class:`TierConfig` validation and the override schema (two
stages: path/field vocabulary, then dataclass invariants), the
equivalence edges the design promises (size-0 flat == tier disabled,
hybrid at cache_fraction 1.0 == pure cache mode, bit for bit), four-way
replay-path bit-identity with a tier enabled, determinism across
``--jobs``/``--shards``, and the tier's own counter semantics
(TDRAM folded probe, RBLA install policy, flush draining).
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    SystemConfig,
    TierConfig,
    apply_overrides,
)
from repro.common.errors import ConfigError, ValidationFailed
from repro.common.stats import StatRegistry
from repro.common.types import LINE_BYTES, TILE_BYTES
from repro.core import kernels
from repro.core.simulator import run_simulation, run_trace
from repro.core.system import make_system
from repro.experiments.runner import (
    ExperimentRunner,
    RunKey,
    simulate_run_key,
)
from repro.service.protocol import parse_request
from repro.sw.tracegen import generate_packed_trace, generate_trace
from repro.workloads.registry import build_workload

MIB = 1024 * 1024

#: A hybrid override set every test can share (2 MiB, 50/50).
HYBRID = {"tier.mode": "hybrid", "tier.size_bytes": 2 * MIB,
          "tier.cache_fraction": 0.5}


def _tier_system(overrides, design="1P2L", llc_mb=1.0) -> SystemConfig:
    return apply_overrides(make_system(design, llc_mb), overrides)


# -- TierConfig validation ----------------------------------------------------


class TestTierConfig:
    def test_default_is_disabled(self):
        cfg = TierConfig()
        assert not cfg.active
        assert cfg.cache_bytes == 0 and cfg.flat_bytes == 0

    @pytest.mark.parametrize("kwargs", [
        {"mode": "bogus"},
        {"mode": "cache", "size_bytes": 0},
        {"mode": "hybrid", "size_bytes": 0},
        {"mode": "cache", "size_bytes": MIB + 1},
        {"mode": "flat", "size_bytes": TILE_BYTES + 1},
        {"mode": "cache", "size_bytes": MIB, "assoc": 0},
        {"mode": "cache", "size_bytes": MIB, "row_bytes": 96},
        {"mode": "cache", "size_bytes": MIB, "row_bytes": 32},
        {"mode": "cache", "size_bytes": MIB, "banks": 3},
        {"mode": "cache", "size_bytes": MIB, "activate_cycles": 0},
        {"mode": "hybrid", "size_bytes": MIB, "cache_fraction": 1.5},
        {"mode": "cache", "size_bytes": MIB, "rbla_threshold": 0},
        {"size_bytes": -1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TierConfig(**kwargs)

    def test_hybrid_split_arithmetic(self):
        cfg = TierConfig(mode="hybrid", size_bytes=2 * MIB,
                         cache_fraction=0.5)
        way_bytes = cfg.assoc * LINE_BYTES
        assert cfg.cache_bytes == MIB
        assert cfg.cache_bytes % way_bytes == 0
        assert cfg.cache_bytes + cfg.flat_bytes == 2 * MIB

    def test_hybrid_fraction_one_is_all_cache(self):
        cfg = TierConfig(mode="hybrid", size_bytes=2 * MIB,
                         cache_fraction=1.0)
        assert cfg.cache_bytes == 2 * MIB and cfg.flat_bytes == 0

    def test_taxonomy_suffixes(self):
        assert TierConfig(mode="cache",
                          size_bytes=MIB).taxonomy == "+DC$"
        assert TierConfig(mode="flat",
                          size_bytes=MIB).taxonomy == "+DFlat"
        assert TierConfig(mode="hybrid",
                          size_bytes=MIB).taxonomy == "+DC$/Flat"

    def test_describe_includes_tier(self):
        system = _tier_system(HYBRID)
        assert "+DC$/Flat + MDA" in system.describe()
        assert "+DC$" not in make_system("1P2L", 1.0).describe()


# -- override schema ----------------------------------------------------------


class TestTierOverrides:
    def test_unknown_tier_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            apply_overrides(make_system("1P2L", 1.0),
                            {"tier.bogus": 1})

    def test_invalid_tier_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(make_system("1P2L", 1.0),
                            {"tier.mode": "nonsense",
                             "tier.size_bytes": MIB})

    def test_interdependent_fields_apply_atomically(self):
        # mode=cache alone is invalid (needs capacity); together with
        # size_bytes the pair must validate as one replace.
        system = apply_overrides(make_system("1P2L", 1.0),
                                 {"tier.mode": "cache",
                                  "tier.size_bytes": MIB})
        assert system.tier.active
        assert system.tier.cache_bytes == MIB

    def test_service_stage_two_rejects_bad_tier_override(self):
        with pytest.raises(ValidationFailed):
            parse_request({"design": "1P2L", "workload": "sobel",
                           "overrides": {"tier.bogus": 1}})

    def test_service_accepts_tier_override(self):
        req = parse_request({"design": "1P2L", "workload": "sobel",
                             "overrides": {"tier.mode": "flat",
                                           "tier.size_bytes": MIB}})
        assert ("tier.mode", "flat") in req.key.overrides


# -- equivalence edges --------------------------------------------------------


class TestTierEquivalences:
    def test_flat_size_zero_is_bit_identical_to_disabled(self):
        plain = run_simulation(make_system("1P2L", 1.0),
                               workload="sgemm", size="small")
        zeroed = run_simulation(
            _tier_system({"tier.mode": "flat", "tier.size_bytes": 0}),
            workload="sgemm", size="small")
        assert zeroed.cycles == plain.cycles
        assert zeroed.stats.flat() == plain.stats.flat()

    def test_hybrid_all_cache_is_bit_identical_to_cache_mode(self):
        cache = run_simulation(
            _tier_system({"tier.mode": "cache",
                          "tier.size_bytes": 2 * MIB}),
            workload="sgemm", size="small")
        hybrid = run_simulation(
            _tier_system({"tier.mode": "hybrid",
                          "tier.size_bytes": 2 * MIB,
                          "tier.cache_fraction": 1.0}),
            workload="sgemm", size="small")
        assert hybrid.cycles == cache.cycles
        assert hybrid.stats.flat() == cache.stats.flat()

    def test_disabled_tier_creates_no_stat_group(self):
        result = run_simulation(make_system("1P2L", 1.0),
                                workload="sgemm", size="small")
        assert not any(name.startswith("tier.")
                       for name in result.stats.flat())


# -- replay-path bit-identity -------------------------------------------------


class TestTierReplayIdentity:
    @pytest.mark.parametrize("overrides", [
        {"tier.mode": "cache", "tier.size_bytes": 2 * MIB},
        HYBRID,
    ], ids=["cache", "hybrid"])
    def test_four_way_bit_identity(self, overrides):
        """Object, packed, and kernel replays of one trace, and the
        registry entry point replaying its memoized trace, agree
        exactly with a tier below the LLC."""
        dims = make_system("1P2L", 1.0).logical_dims
        program = build_workload("sgemm", "small")
        objects = list(generate_trace(program, dims))
        packed = generate_packed_trace(program, dims)

        via_objects = run_trace(_tier_system(overrides), objects,
                                name="t")
        with kernels.kernel_disabled():
            via_packed = run_trace(_tier_system(overrides), packed,
                                   name="t")
        via_kernel = run_trace(_tier_system(overrides), packed,
                               name="t")
        via_registry = run_simulation(_tier_system(overrides),
                                      workload="sgemm", size="small")
        for run in (via_packed, via_kernel, via_registry):
            assert run.cycles == via_objects.cycles
            assert run.ops == via_objects.ops
            assert run.stats.flat() == via_objects.stats.flat()

    def test_tier_config_stays_vector_covered(self):
        """A tier config stays on the fast path, which since the
        vector engine's retirement is the kernel."""
        from repro.cache.hierarchy import CacheHierarchy
        hierarchy = CacheHierarchy(_tier_system(HYBRID),
                                   StatRegistry())
        assert kernels.supports(hierarchy)


# -- scheduler determinism ----------------------------------------------------


class TestTierDeterminism:
    def _key(self, shards=1):
        return RunKey("1P2L", "sgemm", "small", 1.0, False, "default",
                      0, tuple(sorted(HYBRID.items())), shards)

    def test_sharded_replay_matches_whole_trace_structure(self):
        """Sharded tier runs merge deterministically (two epochs in a
        pool == two epochs serial, bit for bit)."""
        key = self._key(shards=2)
        serial = simulate_run_key(key)
        again = simulate_run_key(key)
        assert serial.cycles == again.cycles
        assert serial.stats.flat() == again.stats.flat()

    def test_pool_matches_serial_with_tier_enabled(self):
        key = self._key(shards=2)
        serial = simulate_run_key(key)
        runner = ExperimentRunner(jobs=2, shards=2)
        assert runner.prefetch([key], jobs=2) == 1
        pooled = runner.lookup(key)
        assert pooled is not None
        assert pooled.cycles == serial.cycles
        assert pooled.stats.flat() == serial.stats.flat()


# -- tier mechanics -----------------------------------------------------------


def _tier_counters(result):
    return {name.split(".", 1)[1]: value
            for name, value in result.stats.flat().items()
            if name.startswith("tier.")}


class TestTierMechanics:
    def test_cache_mode_counter_conservation(self):
        result = run_simulation(
            _tier_system({"tier.mode": "cache",
                          "tier.size_bytes": 2 * MIB}),
            workload="sgemm", size="small")
        grp = _tier_counters(result)
        assert grp["fetches"] > 0
        assert grp["hits"] + grp["misses"] == grp["fetches"]
        assert grp["flat_hits"] == 0
        # Every miss made an RBLA decision.
        assert (grp["rbla_bypasses"] + grp["rbla_installs"]
                <= grp["misses"])
        assert (grp["slow_open_hits"] + grp["slow_row_conflicts"]
                == grp["misses"])

    def test_rbla_off_installs_every_miss(self):
        result = run_simulation(
            _tier_system({"tier.mode": "cache",
                          "tier.size_bytes": 2 * MIB,
                          "tier.rbla": False}),
            workload="sgemm", size="small")
        grp = _tier_counters(result)
        assert grp["fills"] == grp["misses"]
        assert grp["rbla_bypasses"] == 0

    def test_flat_mode_absorbs_small_working_set(self):
        # sgemm/small fits far inside a 2 MiB flat region, so every
        # below-LLC fetch is a tier hit and memory sees no reads.
        result = run_simulation(
            _tier_system({"tier.mode": "flat",
                          "tier.size_bytes": 2 * MIB}),
            workload="sgemm", size="small")
        grp = _tier_counters(result)
        assert grp["fetches"] > 0
        assert grp["flat_hits"] == grp["fetches"]
        assert grp["hits"] == 0 and grp["misses"] == 0
        assert result.stats.group("memory").get("bytes_read") == 0

    def test_flat_mode_speeds_up_memory_bound_run(self):
        plain = run_simulation(make_system("1P2L", 1.0),
                               workload="sgemm", size="small")
        flat = run_simulation(
            _tier_system({"tier.mode": "flat",
                          "tier.size_bytes": 2 * MIB}),
            workload="sgemm", size="small")
        assert flat.cycles < plain.cycles

    def test_tier_modes_experiment_report_shape(self):
        from repro.experiments.tier_modes import (
            LABELS,
            plan_tier_modes,
            run_tier_modes,
        )
        runner = ExperimentRunner(verbose=False)
        runner.prefetch(plan_tier_modes(["sgemm"], "small", 1.0))
        result = run_tier_modes(runner, ["sgemm"], "small", 1.0)
        report = result.report()
        for label in LABELS:
            assert label in report
            assert result.average_normalized(label) > 0
        assert "tier service" in report
        assert result.best_label() in LABELS
        # The run loop replays the plan as pure memo hits.
        assert runner.cache_info().misses == 6

    def test_multiprogram_shares_one_tier(self):
        from repro.core.multicore import run_multiprogrammed
        programs = [build_workload("sgemm", "small"),
                    build_workload("sobel", "small")]
        system = _tier_system(HYBRID, design="1P2L")
        result = run_multiprogrammed(system, programs)
        grp = {name.split(".", 1)[1]: value
               for name, value in result.stats.flat().items()
               if name.startswith("tier.")}
        assert grp["fetches"] > 0
