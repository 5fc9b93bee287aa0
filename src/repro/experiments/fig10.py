"""Fig. 10: access orientation and size preferences, by data volume.

For each benchmark and both input sizes, the trace is classified into
the paper's four categories — Row Scalar, Row Vector, Column Scalar,
Column Vector — weighted by bytes accessed.  The paper's headline: every
benchmark exercises column preference, and "column preferences
constitute about 40% of total data accesses" on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.results import format_table, mean
from ..sw.tracegen import TraceMix, generate_packed_trace, trace_mix
from ..workloads.registry import build_workload, workload_names

SIZES = ("small", "large")


@dataclass
class Fig10Result:
    """Per-(workload, size) access mixes."""

    mixes: Dict[str, Dict[str, TraceMix]] = field(default_factory=dict)
    sizes: List[str] = field(default_factory=lambda: list(SIZES))

    def column_fraction(self, workload: str, size: str) -> float:
        return self.mixes[workload][size].column_fraction

    def average_column_fraction(self, size: str) -> float:
        return mean(self.mixes[w][size].column_fraction
                    for w in self.mixes)

    def report(self) -> str:
        rows: List[List[object]] = []
        for size in self.sizes:
            for workload in self.mixes:
                fractions = self.mixes[workload][size].fractions()
                rows.append([
                    size, workload,
                    fractions["row_scalar"], fractions["row_vector"],
                    fractions["col_scalar"], fractions["col_vector"],
                    self.mixes[workload][size].column_fraction,
                ])
            rows.append([size, "average", "", "", "", "",
                         self.average_column_fraction(size)])
        return format_table(
            ("input", "workload", "row_scalar", "row_vector",
             "col_scalar", "col_vector", "col_total"), rows)


def run_fig10(workloads: Optional[List[str]] = None,
              sizes: Optional[List[str]] = None) -> Fig10Result:
    """Classify the logically 2-D trace of each benchmark."""
    result = Fig10Result(sizes=list(sizes or SIZES))
    for workload in workloads or workload_names():
        result.mixes[workload] = {}
        for size in result.sizes:
            program = build_workload(workload, size)
            trace = generate_packed_trace(program, logical_dims=2)
            result.mixes[workload][size] = trace_mix(trace)
    return result


def main() -> None:
    print(run_fig10().report())


if __name__ == "__main__":
    main()
