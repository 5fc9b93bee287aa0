"""Statistics collection.

Every component owns a :class:`StatGroup`; groups nest into a
:class:`StatRegistry` that the simulator exposes on its results object.
Counters are :class:`Counter` cells; hot paths pre-bind a cell once via
:meth:`StatGroup.counter` and bump it without any per-event dict lookup
or key hashing.  Time series support the occupancy-over-time plots
(paper Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: Shared latency-histogram bucket scheme: one counter per power-of-two
#: bucket, ``bucket = int(value).bit_length()`` (value 0 lands in bucket
#: 0, 1 in bucket 1, 2-3 in bucket 2, ...).  The replay paths
#: (``run`` / ``run_packed`` / ``run_kernel``) record per-request cycle
#: latencies under these keys, and the service layer reuses the same
#: scheme for its per-stage wall-clock histograms so every histogram in
#: the system is bucket-compatible.
LAT_HIST_KEYS = tuple(f"lat_hist_b{b:02d}" for b in range(160))


def lat_bucket(value: int) -> int:
    """Bucket index of ``value`` under the shared log2 scheme."""
    bucket = int(value).bit_length()
    last = len(LAT_HIST_KEYS) - 1
    return bucket if bucket < last else last


@dataclass(slots=True)
class Sample:
    """One point of a sampled time series."""

    time: int
    value: float


class Counter:
    """A single mutable counter cell.

    Components on hot paths hold a bound ``Counter`` and call
    :meth:`add` (or bump :attr:`value` directly), instead of paying a
    group lookup plus dict hashing for every event.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class StatGroup:
    """A flat bag of named counters and series for one component."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, List[Sample]] = {}

    # -- counters ----------------------------------------------------------

    def counter(self, key: str) -> Counter:
        """The (created-on-demand) counter cell for ``key``.

        The returned handle stays valid for the group's lifetime,
        including across :meth:`reset` (which zeroes cells in place).
        """
        cell = self._counters.get(key)
        if cell is None:
            cell = self._counters[key] = Counter()
        return cell

    def add(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        cell = self._counters.get(key)
        if cell is None:
            cell = self._counters[key] = Counter()
        cell.value += amount

    def get(self, key: str, default: int = 0) -> int:
        cell = self._counters.get(key)
        return default if cell is None else cell.value

    def set(self, key: str, value: int) -> None:
        self.counter(key).value = value

    def counters(self) -> Dict[str, int]:
        """A copy of all counters."""
        return {key: cell.value for key, cell in self._counters.items()}

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` with a 0.0 fallback."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    # -- time series -------------------------------------------------------

    def sample(self, key: str, time: int, value: float) -> None:
        """Append a time-series sample."""
        self._series.setdefault(key, []).append(Sample(time, value))

    def series(self, key: str) -> List[Sample]:
        return list(self._series.get(key, []))

    def series_keys(self) -> List[str]:
        return sorted(self._series)

    # -- misc ---------------------------------------------------------------

    def reset(self) -> None:
        # Zero cells in place so pre-bound handles stay live.
        for cell in self._counters.values():
            cell.value = 0
        self._series.clear()

    def __repr__(self) -> str:
        return f"StatGroup({self.name!r}, {len(self._counters)} counters)"


class StatRegistry:
    """Named collection of stat groups for one simulation run."""

    def __init__(self) -> None:
        self._groups: Dict[str, StatGroup] = {}

    def group(self, name: str) -> StatGroup:
        """Get or create the group ``name``."""
        if name not in self._groups:
            self._groups[name] = StatGroup(name)
        return self._groups[name]

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def __getitem__(self, name: str) -> StatGroup:
        return self._groups[name]

    def items(self) -> Iterator[Tuple[str, StatGroup]]:
        return iter(sorted(self._groups.items()))

    def flat(self) -> Dict[str, int]:
        """All counters as ``"group.key" -> value``."""
        out: Dict[str, int] = {}
        for name, grp in self._groups.items():
            for key, value in grp.counters().items():
                out[f"{name}.{key}"] = value
        return out

    def reset(self) -> None:
        for grp in self._groups.values():
            grp.reset()

    def report(self) -> str:
        """Human-readable multi-line dump of every counter."""
        lines: List[str] = []
        for name, grp in self.items():
            counters = grp.counters()
            if not counters:
                continue
            lines.append(f"[{name}]")
            width = max(len(key) for key in counters)
            for key in sorted(counters):
                lines.append(f"  {key:<{width}}  {counters[key]}")
        return "\n".join(lines)
