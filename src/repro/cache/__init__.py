"""MDACache cache hierarchy: the paper's primary contribution."""

from .base import CacheLevel, FULL_MASK
from .cache_1p1l import Cache1P1L
from .cache_1p2l import Cache1P2L
from .cache_2p2l import BlockState, Cache2P2L
from .duplication import (
    check_duplication_invariant,
    copies_of_word,
    duplicate_pairs,
)
from .hierarchy import CacheHierarchy, build_cache_level
from .mshr import MshrFile
from .prefetcher import StridePrefetcher
from .replacement import (
    FifoSet,
    LruSet,
    RandomSet,
    ReplacementSet,
    make_replacement_set,
)

__all__ = [
    "BlockState",
    "Cache1P1L",
    "Cache1P2L",
    "Cache2P2L",
    "CacheHierarchy",
    "CacheLevel",
    "FULL_MASK",
    "FifoSet",
    "LruSet",
    "MshrFile",
    "RandomSet",
    "ReplacementSet",
    "StridePrefetcher",
    "build_cache_level",
    "check_duplication_invariant",
    "copies_of_word",
    "duplicate_pairs",
    "make_replacement_set",
]
