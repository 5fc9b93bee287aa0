"""Fig. 15: column- vs row-line cache occupancy over time.

Tracks the fraction of resident column-oriented lines per cache level
while sgemm and ssyrk run on the 1P2L hierarchy (1 MB-scaled LLC).
Paper observations to match in shape:

* sgemm — "the column preference is stable over the execution period"
  and low at L1 ("only a few of those columns are present in the cache
  at a time, while row-oriented data cycles through");
* ssyrk — "it first increases and then decreases (due to neighboring
  loop nests exhibiting different preferences in the later part of the
  execution)".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.results import format_table
from ..core.simulator import ensure_trace
from .runner import ExperimentRunner

WORKLOADS = ("sgemm", "ssyrk")
DEFAULT_SAMPLES = 40


@dataclass
class OccupancySeries:
    """Column-occupancy fraction over time for one level."""

    points: List[Tuple[int, float]] = field(default_factory=list)

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def peak(self) -> float:
        return max(self.values(), default=0.0)

    def final(self) -> float:
        values = self.values()
        return values[-1] if values else 0.0


@dataclass
class Fig15Result:
    """series[workload][level] -> column occupancy over cycles."""

    series: Dict[str, Dict[str, OccupancySeries]] = \
        field(default_factory=dict)

    def report(self) -> str:
        from ..core.charts import sparkline
        blocks = []
        for workload, levels in self.series.items():
            spark_lines = [
                f"  {name}: {sparkline(levels[name].values(), 0.0, 1.0)}"
                for name in sorted(levels)
            ]
            blocks.append(f"{workload}: column-occupancy sparklines "
                          f"(0..1)\n" + "\n".join(spark_lines))
        for workload, levels in self.series.items():
            rows: List[List[object]] = []
            names = sorted(levels)
            length = max(len(levels[n].points) for n in names)
            for idx in range(length):
                row: List[object] = []
                for name in names:
                    points = levels[name].points
                    if idx < len(points):
                        cycles, frac = points[idx]
                        if not row:
                            row.append(cycles)
                        row.append(frac)
                    else:
                        row.append("")
                rows.append(row)
            table = format_table(("cycles", *names), rows)
            blocks.append(f"{workload}: column occupancy fraction\n"
                          f"{table}")
        return "\n\n".join(blocks)


def run_fig15(runner: Optional[ExperimentRunner] = None,
              workloads: Optional[List[str]] = None,
              size: str = "large",
              design: str = "1P2L",
              samples: int = DEFAULT_SAMPLES) -> Fig15Result:
    runner = runner or ExperimentRunner()
    result = Fig15Result()
    for workload in workloads or WORKLOADS:
        # Choose the sampling stride from the trace's length so every
        # run yields roughly `samples` points.
        probe = runner.run(design, workload, size,
                           sample_every=stride_for(workload, size,
                                                   samples))
        per_level: Dict[str, OccupancySeries] = {}
        for sample in probe.samples:
            for level, (rows, cols) in sample.by_level.items():
                total = rows + cols
                frac = cols / total if total else 0.0
                per_level.setdefault(level, OccupancySeries()) \
                    .points.append((sample.cycles, frac))
        result.series[workload] = per_level
    return result


def stride_for(workload: str, size: str, samples: int) -> int:
    """Ops between occupancy samples, targeting ``samples`` points.

    Reads the length of the very trace the sampled point replays
    (:func:`ensure_trace`: memo, then trace store, then generation),
    so the plan, the report and the replay share one trace.
    """
    length = len(ensure_trace(workload, size, 2)[1])
    return max(1, length // samples)


def main(argv=None) -> None:
    from .plans import figure_runner
    print(run_fig15(figure_runner('fig15', argv)).report())


if __name__ == "__main__":
    main()
