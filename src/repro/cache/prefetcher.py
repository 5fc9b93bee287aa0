"""Reference-indexed stride prefetcher.

The paper evaluates the 1P1L baseline *with* prefetching enabled ("the
baseline 1P1L cache hierarchy is evaluated with prefetching enabled") and
the MDA designs without, to show that column access is "fundamentally
distinct from prefetching".  This is a classic PC-indexed (here:
reference-id-indexed) stride prefetcher: per static reference it tracks
the last address and last stride; after ``train_threshold`` consecutive
identical strides it prefetches ``degree`` lines ahead.

Note the paper's observation (Section IX-A) that a column walk over a
1-D layout is a page-sized-stride pattern — exactly what this prefetcher
learns — but each prefetch still moves a whole row-oriented line, so the
bandwidth cost stays 8x that of a true column fetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.config import PrefetcherConfig
from ..common.stats import StatGroup
from ..common.types import LINE_BYTES, Orientation, line_id_of


@dataclass
class _StrideEntry:
    last_addr: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Per-reference stride detection and prefetch address generation."""

    def __init__(self, config: PrefetcherConfig, stats: StatGroup) -> None:
        self._config = config
        self._stats = stats
        self._table: Dict[int, _StrideEntry] = {}

    def observe(self, ref_id: int, addr: int) -> List[int]:
        """Train on a demand access; returns row line ids to prefetch."""
        if not self._config.enabled:
            return []
        entry = self._table.get(ref_id)
        if entry is None:
            self._evict_if_full()
            self._table[ref_id] = _StrideEntry(last_addr=addr)
            return []
        stride = addr - entry.last_addr
        entry.last_addr = addr
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1,
                                   self._config.train_threshold)
        else:
            entry.stride = stride
            entry.confidence = 1
            return []
        if entry.confidence < self._config.train_threshold:
            return []
        lines: List[int] = []
        seen = set()
        for k in range(1, self._config.degree + 1):
            target = addr + k * stride
            if target < 0:
                break
            line = line_id_of(target, Orientation.ROW)
            if line not in seen:
                seen.add(line)
                lines.append(line)
        self._stats.add("prefetches_generated", len(lines))
        return lines

    def _evict_if_full(self) -> None:
        if len(self._table) >= self._config.table_entries:
            oldest = next(iter(self._table))
            del self._table[oldest]
            self._stats.add("table_evictions")

    def covered_bytes(self) -> Optional[int]:
        """Bytes a full-degree prefetch burst moves (for reporting)."""
        if not self._config.enabled:
            return None
        return self._config.degree * LINE_BYTES
