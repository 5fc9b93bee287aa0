"""Extension experiment: dynamic orientation prediction on legacy code.

Paper Section IV-C notes the 1P2L lookup scheme "would be compatible
with a dynamically predicted orientation preference with no additional
overheads on the cache hit path".  This experiment quantifies the
payoff on the scenario where prediction matters most: **legacy
binaries** — code compiled without MDA annotations, every access
carrying the default row preference and column walks left as strided
scalars — running over the MDA-compliant tiled layout.

Three systems per workload, all fed the same legacy (logical-1-D,
scalar-column) trace on the tiled layout:

* ``1P1L``     — the conventional hierarchy (no column capability);
* ``1P2L``     — MDA cache but static (all-row) annotations: column
  capability present yet never exercised;
* ``1P2L_Dyn`` — the runtime predictor recovers column-line fills and
  their MSHR coalescing without recompilation.

Measured outcome (EXPERIMENTS.md): the predictor recovers most of the
*hit rate* — L1 fills drop ~2-3x versus static row annotations — but
end-to-end cycles do not improve under this CPU model, because the
recovered hits wait on a single in-flight column fill where the static
row path overlapped eight independent fills.  An honest negative
result that supports the paper's choice of static annotation mappings.

Every point is a planned :class:`RunKey` replaying the ``"legacy"``
trace variant, so the three designs share one materialized trace per
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.results import format_table, mean, normalized
from .runner import ExperimentRunner, RunKey, replay_key

DESIGNS = ("1P1L", "1P2L", "1P2L_Dyn")
#: Kernels with heavy scalar column walks in legacy compilation
#: (ssyrk also qualifies but its serialized legacy trace is large;
#: pass workloads=["ssyrk"] explicitly to include it).
WORKLOADS = ("sgemm", "sobel")


@dataclass
class DynamicOrientationResult:
    cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    mem_reads: Dict[str, Dict[str, int]] = field(default_factory=dict)
    l1_fills: Dict[str, Dict[str, int]] = field(default_factory=dict)
    workloads: List[str] = field(default_factory=list)

    def normalized_cycles(self, design: str, workload: str) -> float:
        return normalized(self.cycles[design][workload],
                          self.cycles["1P1L"][workload])

    def average_normalized(self, design: str) -> float:
        return mean(self.normalized_cycles(design, w)
                    for w in self.workloads)

    def prediction_payoff(self) -> float:
        """Average cycles of 1P2L_Dyn relative to static-row 1P2L."""
        ratios = [normalized(self.cycles["1P2L_Dyn"][w],
                             self.cycles["1P2L"][w])
                  for w in self.workloads]
        return mean(ratios)

    def fill_reduction(self) -> float:
        """Average L1 fill traffic of 1P2L_Dyn vs static-row 1P2L."""
        ratios = [normalized(self.l1_fills["1P2L_Dyn"][w],
                             self.l1_fills["1P2L"][w])
                  for w in self.workloads]
        return mean(ratios)

    def report(self) -> str:
        rows: List[List[object]] = []
        for workload in self.workloads:
            rows.append([
                workload,
                *(self.normalized_cycles(d, workload)
                  for d in DESIGNS[1:]),
                self.l1_fills["1P2L"][workload],
                self.l1_fills["1P2L_Dyn"][workload],
            ])
        rows.append(["average",
                     *(self.average_normalized(d) for d in DESIGNS[1:]),
                     "", ""])
        table = format_table(
            ("workload", "1P2L (static rows)", "1P2L_Dyn",
             "L1 fills static", "L1 fills dyn"), rows)
        return (f"{table}\n\ndynamic vs static annotations: "
                f"{self.prediction_payoff():.3f}x cycles, "
                f"{self.fill_reduction():.3f}x L1 fill traffic")


def plan_dynamic_orientation(workloads: Optional[List[str]] = None,
                             size: str = "large",
                             llc_mb: float = 1.0) -> List[RunKey]:
    return [RunKey(design, workload, size, llc_mb, False, "default", 0,
                   trace="legacy")
            for workload in workloads or WORKLOADS
            for design in DESIGNS]


def run_dynamic_orientation(runner: Optional[ExperimentRunner] = None,
                            workloads: Optional[List[str]] = None,
                            size: str = "large",
                            llc_mb: float = 1.0) \
        -> DynamicOrientationResult:
    """Without a runner each point replays uncached (:func:`replay_key`)."""
    result = DynamicOrientationResult()
    result.workloads = list(workloads or WORKLOADS)
    for key in plan_dynamic_orientation(result.workloads, size, llc_mb):
        run = runner.run_key(key) if runner else replay_key(key)
        design, workload = key.design, key.workload
        result.cycles.setdefault(design, {})[workload] = run.cycles
        result.mem_reads.setdefault(design, {})[workload] = \
            run.memory_reads()
        result.l1_fills.setdefault(design, {})[workload] = \
            run.stats.group("cache.L1").get("fills")
    return result


def main(argv=None) -> None:
    from .plans import figure_runner
    print(run_dynamic_orientation(
        figure_runner("dynamic_orientation", argv)).report())


if __name__ == "__main__":
    main()
