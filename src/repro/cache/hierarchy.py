"""Assembles a cache hierarchy from a :class:`SystemConfig`.

Maps taxonomy points to classes (paper Section IV-C):

* ``1P1L`` -> :class:`Cache1P1L` (Design 0 levels, with the baseline's
  stride prefetcher when configured);
* ``1P2L`` -> :class:`Cache1P2L` (Design 1 levels, Different-Set or
  Same-Set mapping);
* ``2P2L`` -> :class:`Cache2P2L` (Design 2 LLC, dense or sparse fill).

Levels are chained L1 -> ... -> LLC -> memory port, and the hierarchy
object is the single entry point the CPU model uses.  When the
system's :class:`~repro.common.config.TierConfig` is active, a
:class:`~repro.tier.DieStackedTier` slots in between the LLC and the
memory port — :attr:`CacheHierarchy.port` (the kernel chain's
bottom) then *is* the tier, so every replay path sees the same
component in the same program order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.config import CacheLevelConfig, SystemConfig
from ..common.errors import ConfigError
from ..common.stats import StatRegistry
from ..common.types import AccessResult, Request
from ..mem.mda_memory import MdaMemory
from ..tier import DieStackedTier
from .base import CacheLevel, MemoryPort
from .cache_1p1l import Cache1P1L
from .cache_1p2l import Cache1P2L
from .cache_2p2l import Cache2P2L


def build_cache_level(config: CacheLevelConfig, level_index: int,
                      stats: StatRegistry,
                      replacement: str = "lru") -> CacheLevel:
    """Instantiate the class matching a level config's taxonomy point."""
    if config.physical_dims == 2:
        return Cache2P2L(config, level_index, stats, replacement)
    if config.logical_dims == 2:
        return Cache1P2L(config, level_index, stats, replacement)
    return Cache1P1L(config, level_index, stats, replacement)


class CacheHierarchy:
    """A connected chain of cache levels over an MDA memory."""

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 replacement: str = "lru") -> None:
        self._config = config
        self._stats = stats
        self._replacement = replacement
        self._memory = MdaMemory(config.memory, stats,
                                 allow_column=True)
        self._port = MemoryPort(self._memory, stats)
        self._tier: Optional[DieStackedTier] = None
        if config.tier.active:
            self._tier = DieStackedTier(config.tier, stats,
                                        self._memory, self._port,
                                        len(config.levels) + 1)
        self._levels: List[CacheLevel] = []
        for idx, level_cfg in enumerate(config.levels, start=1):
            self._levels.append(
                build_cache_level(level_cfg, idx, stats, replacement))
        for upper, lower in zip(self._levels, self._levels[1:]):
            upper.connect(lower)
        self._levels[-1].connect(self._tier or self._port)

    @property
    def levels(self) -> List[CacheLevel]:
        return list(self._levels)

    @property
    def l1(self) -> CacheLevel:
        return self._levels[0]

    @property
    def llc(self) -> CacheLevel:
        return self._levels[-1]

    @property
    def memory(self) -> MdaMemory:
        return self._memory

    @property
    def port(self):
        """What sits below the LLC (the kernel chain bottom): the
        die-stacked tier when one is configured, else the raw memory
        port."""
        return self._tier or self._port

    @property
    def tier(self) -> Optional[DieStackedTier]:
        """The die-stacked tier, or ``None`` when disabled."""
        return self._tier

    @property
    def replacement(self) -> str:
        """The replacement policy every level was built with."""
        return self._replacement

    def level(self, name: str) -> CacheLevel:
        """Find a level by its configured name (e.g. "L2")."""
        for lvl in self._levels:
            if lvl.config.name == name:
                return lvl
        raise ConfigError(f"no cache level named {name!r}")

    def access(self, req: Request, now: int) -> AccessResult:
        """Issue one CPU request at absolute cycle ``now``."""
        return self._levels[0].access(req, now)

    def finish(self, now: int) -> int:
        """Drain memory-side state; returns the final horizon."""
        return self._memory.finish(now)

    def flush(self, now: int) -> int:
        """Flush every cache level top-down (then the tier), then
        drain memory."""
        for level in self._levels:
            level.flush(now)
        if self._tier is not None:
            self._tier.flush(now)
        return self._memory.finish(now)

    def occupancy_by_level(self) -> Dict[str, Tuple[int, int]]:
        """(row, column) line occupancy per level (paper Fig. 15)."""
        return {lvl.config.name: lvl.orientation_occupancy()
                for lvl in self._levels}
