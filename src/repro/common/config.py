"""Configuration dataclasses for the simulator.

The defaults mirror the paper's Table I, scaled down by the capacity
factor discussed in DESIGN.md (matrices are 1/8 the linear dimension, so
working sets are 1/64 the capacity; caches are scaled to preserve the
working-set : capacity ratios that drive every result figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from .errors import ConfigError
from .types import LINE_BYTES, TILE_BYTES


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class PrefetcherConfig:
    """Reference-indexed stride prefetcher (baseline 1P1L only).

    Attributes:
        enabled: whether the prefetcher issues any prefetches.
        degree: number of lines prefetched ahead on a confirmed stride.
        table_entries: number of reference (PC) slots tracked.
        train_threshold: identical strides observed before prefetching.
    """

    enabled: bool = False
    degree: int = 4
    table_entries: int = 64
    train_threshold: int = 2

    def __post_init__(self) -> None:
        _require(self.degree >= 1, "prefetch degree must be >= 1")
        _require(self.table_entries >= 1, "prefetch table must be >= 1")
        _require(self.train_threshold >= 1, "train threshold must be >= 1")


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level.

    ``physical_dims``/``logical_dims`` select the taxonomy point
    (paper Section IV-A): 1P1L conventional, 1P2L (orientation-tagged
    lines in SRAM), 2P2L (512-byte 2-D block frames in an on-chip
    crosspoint).

    Attributes:
        name: human-readable label ("L1", "L2", "L3").
        size_bytes: total data capacity.
        assoc: set associativity (in lines for *P1L/1P2L, in 2-D blocks
            for 2P2L).
        tag_latency: cycles for one tag probe.
        data_latency: cycles for a data array access.
        sequential_tag_data: True if data access starts after the tag
            check (L2/L3 in Table I); False for parallel access (L1).
        logical_dims: 1 or 2.
        physical_dims: 1 or 2.
        mapping: for 1P2L, "different_set" or "same_set" index mapping
            (paper Fig. 8 discussion).
        sparse_fill: for 2P2L, fill lines on demand instead of whole
            blocks (paper Section IV-B "sparse 2P2L").
        mshr_entries: outstanding distinct misses supported.
        write_extra_latency: extra cycles charged to data-array writes
            (models NVM read/write asymmetry, paper Fig. 16).
        prefetcher: optional stride prefetcher attached to this level.
        dynamic_orientation: for 1P2L levels, predict scalar access
            orientation at runtime instead of trusting the static
            annotation (paper Section IV-C extension).
    """

    name: str
    size_bytes: int
    assoc: int
    tag_latency: int
    data_latency: int
    sequential_tag_data: bool = True
    logical_dims: int = 1
    physical_dims: int = 1
    mapping: str = "different_set"
    sparse_fill: bool = True
    mshr_entries: int = 16
    write_extra_latency: int = 0
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    dynamic_orientation: bool = False

    def __post_init__(self) -> None:
        _require(self.logical_dims in (1, 2), "logical_dims must be 1 or 2")
        _require(self.physical_dims in (1, 2), "physical_dims must be 1 or 2")
        _require(not (self.physical_dims == 2 and self.logical_dims == 1),
                 "2P1L is not modeled (paper elides it)")
        _require(self.mapping in ("different_set", "same_set"),
                 f"unknown mapping {self.mapping!r}")
        frame = TILE_BYTES if self.physical_dims == 2 else LINE_BYTES
        _require(self.size_bytes % frame == 0,
                 f"{self.name}: size must be a multiple of {frame} bytes")
        frames = self.size_bytes // frame
        _require(self.assoc >= 1, f"{self.name}: assoc must be >= 1")
        _require(frames % self.assoc == 0,
                 f"{self.name}: {frames} frames not divisible by "
                 f"assoc {self.assoc}")
        # Set counts need not be powers of two: indexing is modulo, which
        # also accommodates the paper's 1.5 MB LLC point.
        _require(self.tag_latency >= 1 and self.data_latency >= 1,
                 f"{self.name}: latencies must be >= 1 cycle")
        _require(self.mshr_entries >= 1,
                 f"{self.name}: mshr_entries must be >= 1")
        _require(self.write_extra_latency >= 0,
                 f"{self.name}: write_extra_latency must be >= 0")

    @property
    def frame_bytes(self) -> int:
        """Bytes per allocation frame (line or 2-D block)."""
        return TILE_BYTES if self.physical_dims == 2 else LINE_BYTES

    @property
    def num_frames(self) -> int:
        return self.size_bytes // self.frame_bytes

    @property
    def num_sets(self) -> int:
        return self.num_frames // self.assoc

    @property
    def hit_latency(self) -> int:
        """Cycles for a first-probe hit."""
        if self.sequential_tag_data:
            return self.tag_latency + self.data_latency
        return max(self.tag_latency, self.data_latency)

    @property
    def taxonomy(self) -> str:
        """Taxonomy label, e.g. "1P2L"."""
        return f"{self.physical_dims}P{self.logical_dims}L"


@dataclass(frozen=True)
class MemoryConfig:
    """MDA main memory timing and organization.

    Cycle values are CPU cycles at the 3 GHz clock of Table I.  The
    defaults approximate Everspin-class STT-MRAM behind a conventional
    channel: a buffer (row or column) activation is the expensive
    operation; a buffer hit pays only the CAS-like access plus burst.

    Attributes:
        channels / ranks_per_channel / banks_per_rank: topology.
        activate_cycles: array row/column open into its buffer.
        buffer_access_cycles: open-buffer access to first data beat.
        write_cycles: array write (STT writes are slow).
        burst_cycles: data-bus occupancy for one 64-byte line.
        column_decode_extra: extra cycles on column-mode decode
            (paper Section VI-B: one additional cycle).
        write_queue_high / write_queue_low: WQF drain watermarks; a
            write that fills a channel's queue to ``high`` drains it
            down to ``low`` (0 < low < high).
        speed_factor: divide all array timings by this (paper Fig. 17
            evaluates a 1.6x faster memory).
        tile_cols_per_bank: tiles spanned by one physical array row; a
            bank's row buffer covers one (tile-row, line) pair across
            this many tiles, and symmetrically for the column buffer.
        sub_buffers: open rows/columns each bank keeps simultaneously
            (the Gulur et al. multiple sub-row-buffer scheme the paper
            compares against in Section IX-B; 1 = a single open page).
    """

    channels: int = 4
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    tile_cols_per_bank: int = 8
    sub_buffers: int = 1
    activate_cycles: int = 90
    buffer_access_cycles: int = 45
    write_cycles: int = 150
    burst_cycles: int = 16
    column_decode_extra: int = 1
    write_queue_high: int = 32
    write_queue_low: int = 16
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        _require(self.channels >= 1, "channels must be >= 1")
        _require(self.ranks_per_channel >= 1, "ranks must be >= 1")
        _require(self.banks_per_rank >= 1, "banks must be >= 1")
        _require(_is_power_of_two(self.channels), "channels: power of two")
        _require(_is_power_of_two(self.ranks_per_channel),
                 "ranks: power of two")
        _require(_is_power_of_two(self.banks_per_rank),
                 "banks: power of two")
        _require(_is_power_of_two(self.tile_cols_per_bank),
                 "tile_cols_per_bank: power of two")
        _require(self.sub_buffers >= 1, "sub_buffers must be >= 1")
        for label in ("activate_cycles", "buffer_access_cycles",
                      "write_cycles", "burst_cycles"):
            _require(getattr(self, label) >= 1, f"{label} must be >= 1")
        _require(self.column_decode_extra >= 0,
                 "column_decode_extra must be >= 0")
        _require(0 < self.write_queue_low < self.write_queue_high,
                 "write queue watermarks must satisfy 0 < low < high")
        _require(self.speed_factor > 0, "speed_factor must be positive")

    def scaled(self, cycles: int) -> int:
        """Apply the speed factor to an array timing value."""
        return max(1, round(cycles / self.speed_factor))

    def faster(self, factor: float) -> "MemoryConfig":
        """A copy of this config with all array timings sped up."""
        return replace(self, speed_factor=self.speed_factor * factor)


#: Operating modes of the die-stacked tier (Bakhshalipour et al.,
#: "Die-Stacked DRAM: Memory, Cache, or MemCache?"): one structure,
#: three personalities, selected by configuration instead of forked
#: designs.
TIER_MODES = ("disabled", "cache", "flat", "hybrid")


@dataclass(frozen=True)
class TierConfig:
    """A die-stacked DRAM tier between the LLC and the MDA memory.

    Modes (see ``docs/DESIGN.md``, "Die-stacked tier"):

    * ``disabled`` — the LLC talks straight to the MDA memory (the
      paper's baseline hierarchy; the default).
    * ``cache`` — a tag-in-DRAM set-associative cache of oriented
      lines.  Tags are co-located with data in the DRAM row (TDRAM,
      Babaie et al.), so one row activation resolves tag *and* data:
      a hit costs exactly the stacked-DRAM access, a miss pays the
      same probe before going below.
    * ``flat`` — an addressable fast region absorbing the hottest
      address range (the first ``size_bytes`` of the tile space);
      everything else passes through to MDA memory untouched.
    * ``hybrid`` — ``cache_fraction`` of the capacity runs as cache
      ways, the remainder as flat memory (a configurable MemCache
      split).

    With ``rbla`` on, cache installs follow the row-buffer-locality-
    aware policy of Meza et al.: a miss whose slow-side access would
    have been an open-buffer hit is *not* installed (MDA serves it
    cheaply anyway), while lines from buffer-conflicting regions
    install once the region has conflicted ``rbla_threshold`` times.

    Attributes:
        mode: one of :data:`TIER_MODES`.
        size_bytes: total tier capacity.  Cache/hybrid capacity must
            be a whole number of ways (``assoc * 64`` bytes); flat
            capacity is tile-granular (512 bytes).  0 with mode
            ``flat`` means "no fast range" and disables the tier.
        assoc: cache-mode set associativity (in lines).
        row_bytes: stacked-DRAM row size (the open-row granularity).
        banks: stacked-DRAM bank count.
        activate_cycles: row activation (tag+data, TDRAM folded).
        access_cycles: open-row read to critical word.
        write_cycles: open-row write.
        cache_fraction: hybrid-mode share of capacity run as cache
            ways (1.0 makes hybrid identical to ``cache`` mode).
        rbla: enable the Meza-style install policy.
        rbla_threshold: slow-side row conflicts a region accumulates
            before its lines start installing.
    """

    mode: str = "disabled"
    size_bytes: int = 0
    assoc: int = 8
    row_bytes: int = 2048
    banks: int = 8
    activate_cycles: int = 24
    access_cycles: int = 12
    write_cycles: int = 18
    cache_fraction: float = 0.5
    rbla: bool = True
    rbla_threshold: int = 2

    def __post_init__(self) -> None:
        _require(self.mode in TIER_MODES,
                 f"tier mode must be one of {TIER_MODES}, "
                 f"got {self.mode!r}")
        _require(self.size_bytes >= 0, "tier size_bytes must be >= 0")
        _require(self.assoc >= 1, "tier assoc must be >= 1")
        _require(_is_power_of_two(self.row_bytes)
                 and self.row_bytes >= LINE_BYTES,
                 f"tier row_bytes must be a power of two >= "
                 f"{LINE_BYTES}")
        _require(_is_power_of_two(self.banks),
                 "tier banks must be a power of two")
        for label in ("activate_cycles", "access_cycles",
                      "write_cycles"):
            _require(getattr(self, label) >= 1,
                     f"tier {label} must be >= 1")
        _require(0.0 <= self.cache_fraction <= 1.0,
                 "tier cache_fraction must be in [0, 1]")
        _require(self.rbla_threshold >= 1,
                 "tier rbla_threshold must be >= 1")
        way_bytes = self.assoc * LINE_BYTES
        if self.mode in ("cache", "hybrid"):
            _require(self.size_bytes > 0,
                     f"tier mode {self.mode!r} needs size_bytes > 0")
            _require(self.size_bytes % way_bytes == 0,
                     f"tier size must be a multiple of one way "
                     f"({way_bytes} bytes)")
        if self.mode == "flat":
            _require(self.size_bytes % TILE_BYTES == 0,
                     f"tier flat size must be a multiple of "
                     f"{TILE_BYTES} bytes")

    @property
    def active(self) -> bool:
        """Whether a tier component exists at all.

        ``flat`` with zero capacity is *identical* to ``disabled`` —
        no tier object, no stat groups, bit-identical runs.
        """
        return self.mode != "disabled" and self.size_bytes > 0

    @property
    def cache_bytes(self) -> int:
        """Capacity run as cache ways (mode-resolved)."""
        if self.mode == "cache":
            return self.size_bytes
        if self.mode == "hybrid":
            way_bytes = self.assoc * LINE_BYTES
            ways = int(self.size_bytes * self.cache_fraction) \
                // way_bytes
            return ways * way_bytes
        return 0

    @property
    def flat_bytes(self) -> int:
        """Capacity run as flat addressable memory (mode-resolved)."""
        if self.mode == "flat":
            return self.size_bytes
        if self.mode == "hybrid":
            return self.size_bytes - self.cache_bytes
        return 0

    @property
    def taxonomy(self) -> str:
        """Tier taxonomy tag, e.g. ``+DC$`` (see ``describe()``)."""
        return {"cache": "+DC$", "flat": "+DFlat",
                "hybrid": "+DC$/Flat"}.get(self.mode, "")


@dataclass(frozen=True)
class CpuConfig:
    """Trace-driven CPU timing model.

    Stands in for the paper's gem5 OoO x86 core: the core retires one
    trace operation per ``cycles_per_op`` when data is ready, and can
    overlap up to ``mlp_window`` outstanding misses (a stand-in for the
    OoO load queue; the default matches the L1 MSHR capacity).
    """

    cycles_per_op: int = 1
    mlp_window: int = 16

    def __post_init__(self) -> None:
        _require(self.cycles_per_op >= 1, "cycles_per_op must be >= 1")
        _require(self.mlp_window >= 1, "mlp_window must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """A full simulated system: cache levels (L1 first), memory, CPU."""

    levels: List[CacheLevelConfig]
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    name: str = "system"
    tier: TierConfig = field(default_factory=TierConfig)

    def __post_init__(self) -> None:
        _require(len(self.levels) >= 1, "need at least one cache level")
        for upper, lower in zip(self.levels, self.levels[1:]):
            _require(upper.size_bytes <= lower.size_bytes,
                     f"{upper.name} larger than {lower.name}")
            _require(not (upper.physical_dims == 2
                          and lower.physical_dims == 1),
                     "a 2P2L level above a 1-D level is not modeled")
            _require(not (upper.logical_dims == 2 and lower.logical_dims == 1),
                     "a logically 2-D level above a logically 1-D level "
                     "would drop orientation information")

    @property
    def llc(self) -> CacheLevelConfig:
        return self.levels[-1]

    @property
    def logical_dims(self) -> int:
        """Logical dimensionality presented to software (L1's)."""
        return self.levels[0].logical_dims

    def describe(self) -> str:
        """One-line summary, e.g. "1P2L/1P2L/2P2L +DC$ + MDA"."""
        chain = "/".join(level.taxonomy for level in self.levels)
        if self.tier.active:
            return f"{self.name}: {chain} {self.tier.taxonomy} + MDA"
        return f"{self.name}: {chain}"


DEFAULT_MLP_WINDOW = CpuConfig().mlp_window


# -- config overrides ---------------------------------------------------------
#
# The simulation service accepts per-request SystemConfig overrides as
# dotted paths ("cpu.mlp_window", "memory.sub_buffers", "llc.assoc").
# Overrides funnel through apply_overrides so every entry point applies
# them identically and every value is re-validated by the dataclass
# __post_init__ checks above.

#: Override targets: dotted-path prefix -> SystemConfig attribute.
#: ``llc`` addresses the last cache level; ``cpu``, ``memory``, and
#: ``tier`` their sub-configs.  Structural fields (the level stack
#: itself) are not overridable — they are what the design name selects.
OVERRIDE_SCOPES = ("cpu", "memory", "llc", "tier")

#: Fields that cannot be overridden even inside a valid scope (they
#: change identity, not behavior).
_OVERRIDE_BLOCKED = frozenset({"name"})


def _check_override(obj, field_name: str, value) -> None:
    """Schema check for one override pair against its target config."""
    if field_name in _OVERRIDE_BLOCKED or field_name.startswith("_"):
        raise ConfigError(f"field {field_name!r} is not overridable")
    fields = {f.name for f in obj.__dataclass_fields__.values()}
    if field_name not in fields:
        raise ConfigError(
            f"unknown field {field_name!r} on {type(obj).__name__}")
    if not isinstance(value, (bool, int, float, str)):
        raise ConfigError(
            f"override value for {field_name!r} must be a scalar, "
            f"got {type(value).__name__}")


def apply_overrides(system: "SystemConfig", overrides) -> "SystemConfig":
    """A copy of ``system`` with dotted-path overrides applied.

    ``overrides`` maps ``"scope.field"`` (scope in
    :data:`OVERRIDE_SCOPES`) to a scalar value, e.g.
    ``{"cpu.mlp_window": 8, "memory.sub_buffers": 4,
    "llc.mshr_entries": 32}``.  Overrides within one scope apply
    atomically — interdependent fields such as ``tier.mode`` and
    ``tier.size_bytes`` validate together, not one replace at a time.
    Every resulting config re-runs its ``__post_init__`` validation;
    any malformed path, unknown field, or invalid value raises
    :class:`ConfigError`.
    """
    if not overrides:
        return system
    targets = {"cpu": system.cpu, "memory": system.memory,
               "llc": system.levels[-1], "tier": system.tier}
    staged: Dict[str, Dict[str, object]] = \
        {scope: {} for scope in OVERRIDE_SCOPES}
    for path in sorted(overrides):
        value = overrides[path]
        scope, dot, field_name = str(path).partition(".")
        if not dot or not field_name or "." in field_name:
            raise ConfigError(
                f"override path {path!r} must be 'scope.field' with "
                f"scope in {OVERRIDE_SCOPES}")
        if scope not in staged:
            raise ConfigError(
                f"unknown override scope {scope!r}; expected one of "
                f"{OVERRIDE_SCOPES}")
        _check_override(targets[scope], field_name, value)
        staged[scope][field_name] = value

    def _apply(scope: str):
        changes = staged[scope]
        return replace(targets[scope], **changes) if changes \
            else targets[scope]

    levels = list(system.levels)
    levels[-1] = _apply("llc")
    return replace(system, cpu=_apply("cpu"), memory=_apply("memory"),
                   levels=levels, tier=_apply("tier"))
