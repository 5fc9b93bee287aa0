"""Future-work experiment: hardware-software collaborative tiling.

Paper Section X: "the compiler can tile a loop nest such that the tile
size (in each dimension) matches the 2-D block size used by the 2P2L
cache...  We expect such hardware-software collaborative tiling to
generate better results than software tiling or hardware tiling (2P2L)
alone."

Four points per workload:

* ``1P2L``            — hardware 2-D lines, untiled loops;
* ``1P2L+tiling``     — software tiling alone;
* ``2P2L``            — hardware tiling (2-D blocks) alone;
* ``2P2L+tiling``     — the collaborative point, loops tiled 16x16x16,
  twice the 8-line 2-D block: big enough to amortize the per-tile
  accumulator traffic, small enough that a working tile set fits the
  scaled caches.

Every point is a planned :class:`RunKey`; the tiled ones replay the
``"tiled16"`` trace variant, the untiled ones are Fig. 11 points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.results import format_table, mean, normalized
from .runner import ExperimentRunner, RunKey, replay_key

#: Matrix kernels whose loops are rectangular and 8-divisible.
WORKLOADS = ("sgemm", "ssyr2k", "ssyrk")
#: (label, design, trace variant) of each point beyond the baseline.
POINTS = (("1P2L", "1P2L", ""), ("1P2L+tiling", "1P2L", "tiled16"),
          ("2P2L", "2P2L", ""), ("2P2L+tiling", "2P2L", "tiled16"))


@dataclass
class FutureTilingResult:
    """Cycles per (variant, workload), normalized to untiled 1P1L."""

    baseline: Dict[str, int] = field(default_factory=dict)
    cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)

    VARIANTS = tuple(label for label, _, _ in POINTS)

    def normalized_cycles(self, variant: str, workload: str) -> float:
        return normalized(self.cycles[variant][workload],
                          self.baseline[workload])

    def average_normalized(self, variant: str) -> float:
        return mean(self.normalized_cycles(variant, w)
                    for w in self.baseline)

    def collaborative_wins(self) -> bool:
        """Does 2P2L+tiling beat both single-sided variants on
        average (the paper's expectation)?"""
        collab = self.average_normalized("2P2L+tiling")
        return (collab <= self.average_normalized("2P2L")
                and collab <= self.average_normalized("1P2L+tiling"))

    def report(self) -> str:
        rows: List[List[object]] = []
        for workload in self.baseline:
            rows.append([workload,
                         *(self.normalized_cycles(v, workload)
                           for v in self.VARIANTS)])
        rows.append(["average",
                     *(self.average_normalized(v)
                       for v in self.VARIANTS)])
        table = format_table(("workload", *self.VARIANTS), rows)
        verdict = ("collaborative tiling wins on average"
                   if self.collaborative_wins()
                   else "collaborative tiling does NOT win on average")
        return f"{table}\n\n{verdict}"


def plan_future_tiling(workloads: Optional[List[str]] = None,
                       size: str = "large",
                       llc_mb: float = 1.0) -> List[RunKey]:
    keys = []
    for workload in workloads or WORKLOADS:
        keys.append(RunKey("1P1L", workload, size, llc_mb, False,
                           "default", 0))
        for _, design, trace in POINTS:
            keys.append(RunKey(design, workload, size, llc_mb, False,
                               "default", 0, trace=trace))
    return keys


def run_future_tiling(runner: Optional[ExperimentRunner] = None,
                      workloads: Optional[List[str]] = None,
                      size: str = "large",
                      llc_mb: float = 1.0) -> FutureTilingResult:
    """Without a runner each point replays uncached (:func:`replay_key`)."""
    labels = {(design, trace): label for label, design, trace in POINTS}
    result = FutureTilingResult()
    for key in plan_future_tiling(workloads, size, llc_mb):
        run = runner.run_key(key) if runner else replay_key(key)
        label = labels.get((key.design, key.trace))
        if label is None:
            result.baseline[key.workload] = run.cycles
        else:
            result.cycles.setdefault(label, {})[key.workload] = \
                run.cycles
    return result


def main(argv=None) -> None:
    from .plans import figure_runner
    print(run_future_tiling(
        figure_runner("future_tiling", argv)).report())


if __name__ == "__main__":
    main()
