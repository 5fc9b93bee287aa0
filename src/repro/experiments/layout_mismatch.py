"""Layout-mismatch experiment (paper Section IV-C, Design 0 note).

"Our experiments indicate that running a 1P1L cache hierarchy with a
*P2L optimized memory could incur average slowdowns on the order of 2x,
due to the mismatch between data layout and access pattern as well as
extra data traffic caused by padding."

Reproduced by compiling for logical dimension 1 (row preference only,
no column vectorization) while laying the arrays out with the MDA-tiled
layout.  **Known fidelity gap** (see EXPERIMENTS.md): the paper's
penalty comes from power-of-two pitch padding (conflict misses, padded
traffic) and broken long-stream vectorization in real compiled code.
At this model's scale — vector groups exactly one tile wide, matrix
shapes already multiples of 8 — those costs vanish, and the tiled
layout instead behaves like software cache-blocking, so the measured
ratio can fall *below* 1.  The experiment reports the measured ratio
either way; the deviation and its cause are recorded rather than
papered over.

Both points are planned run keys: the matched one is Fig. 11's 1P1L
baseline, the mismatched one replays the ``"legacy"`` trace variant
(1-D compilation over the tiled layout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.results import format_table, mean, normalized
from ..workloads.registry import workload_names
from .runner import ExperimentRunner, RunKey, replay_key


@dataclass
class LayoutMismatchResult:
    matched: Dict[str, int] = field(default_factory=dict)
    mismatched: Dict[str, int] = field(default_factory=dict)

    def slowdown(self, workload: str) -> float:
        return normalized(self.mismatched[workload],
                          self.matched[workload])

    def average_slowdown(self) -> float:
        return mean(self.slowdown(w) for w in self.matched)

    def report(self) -> str:
        rows: List[List[object]] = []
        for workload in self.matched:
            rows.append([workload, self.matched[workload],
                         self.mismatched[workload],
                         self.slowdown(workload)])
        rows.append(["average", "", "", self.average_slowdown()])
        return format_table(
            ("workload", "1-D layout cycles", "2-D layout cycles",
             "slowdown"), rows)


def plan_layout_mismatch(workloads: Optional[List[str]] = None,
                         size: str = "large",
                         llc_mb: float = 1.0) -> List[RunKey]:
    keys = []
    for workload in workloads or workload_names():
        for trace in ("", "legacy"):
            keys.append(RunKey("1P1L", workload, size, llc_mb, False,
                               "default", 0, trace=trace))
    return keys


def run_layout_mismatch(runner: Optional[ExperimentRunner] = None,
                        workloads: Optional[List[str]] = None,
                        size: str = "large",
                        llc_mb: float = 1.0) -> LayoutMismatchResult:
    """Without a runner each point replays uncached (:func:`replay_key`)."""
    result = LayoutMismatchResult()
    for key in plan_layout_mismatch(workloads, size, llc_mb):
        run = runner.run_key(key) if runner else replay_key(key)
        side = result.mismatched if key.trace else result.matched
        side[key.workload] = run.cycles
    return result


def main(argv=None) -> None:
    from .plans import figure_runner
    print(run_layout_mismatch(
        figure_runner("layout_mismatch", argv)).report())


if __name__ == "__main__":
    main()
