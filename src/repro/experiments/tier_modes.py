"""Die-stacked tier mode comparison (extension beyond the paper).

The paper's Section IX points at main-memory techniques layered under
the LLC; this experiment sweeps the polymorphic die-stacked tier
(:mod:`repro.tier`) through its three personalities — tag-in-DRAM
**cache**, addressable **flat** region, and a 50/50 **hybrid** — on a
1P2L hierarchy, against the tier-less 1P2L and 2P2L designs, across
the workload registry.  Cycles are normalized to the 1P1L baseline,
matching the other figures' presentation.

The tier variants ride on :class:`RunKey` overrides (``tier.mode``,
``tier.size_bytes``, ...), the same dotted-path vocabulary the
simulation service accepts, so every point memoizes, caches and
fans out like any other planned configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.charts import bar_chart
from ..core.results import format_table, mean, normalized
from ..workloads.registry import workload_names
from .runner import ExperimentRunner, RunKey
# perfbench's tracer wraps ``tier_modes.simulate_run_key`` by name.
from .runner import simulate_run_key  # noqa: F401

#: Stacked capacity of every tier variant.  Caches here are scaled
#: 64x down from the paper's (see DESIGN.md), so 64 KiB stands in for
#: a 4 MB die-stack: 4x the scaled 1 MB-label LLC, yet smaller than
#: most large-size working sets (64-128 KiB) — flat placement fully
#: absorbs some kernels and splits others, so the three personalities
#: genuinely diverge.
DEFAULT_TIER_BYTES = 64 * 1024


def tier_overrides(mode: str) -> Tuple[Tuple[str, object], ...]:
    """The override tuple configuring one tier personality."""
    pairs = [("tier.mode", mode),
             ("tier.size_bytes", DEFAULT_TIER_BYTES)]
    if mode == "hybrid":
        pairs.append(("tier.cache_fraction", 0.5))
    return tuple(sorted(pairs))


#: (design, label, overrides) per compared variant.  Labels follow the
#: :meth:`SystemConfig.describe` taxonomy suffixes.
VARIANTS: Tuple[Tuple[str, str, Tuple[Tuple[str, object], ...]], ...] = (
    ("1P2L", "1P2L", ()),
    ("2P2L", "2P2L", ()),
    ("1P2L", "1P2L+DC$", tier_overrides("cache")),
    ("1P2L", "1P2L+DFlat", tier_overrides("flat")),
    ("1P2L", "1P2L+DC$/Flat", tier_overrides("hybrid")),
)

LABELS = tuple(label for _, label, _ in VARIANTS)

#: The tier counters the report aggregates per variant.
_TIER_COUNTERS = ("fetches", "hits", "flat_hits", "rbla_bypasses",
                  "slow_open_hits")


def plan_tier_modes(workloads: Optional[List[str]] = None,
                    size: str = "large",
                    llc_mb: float = 1.0) -> List[RunKey]:
    keys = []
    for workload in workloads or workload_names():
        keys.append(RunKey("1P1L", workload, size, llc_mb,
                           False, "default", 0))
        for design, _, overrides in VARIANTS:
            keys.append(RunKey(design, workload, size, llc_mb,
                               False, "default", 0, overrides))
    return keys


@dataclass
class TierModesResult:
    baseline: Dict[str, int] = field(default_factory=dict)
    cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: label -> summed tier counters across workloads.
    tier: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def normalized_cycles(self, label: str, workload: str) -> float:
        return normalized(self.cycles[label][workload],
                          self.baseline[workload])

    def average_normalized(self, label: str) -> float:
        return mean(self.normalized_cycles(label, w)
                    for w in self.baseline)

    def tier_hit_rate(self, label: str) -> float:
        """Fraction of below-LLC fetches the tier served itself."""
        counters = self.tier.get(label, {})
        fetches = counters.get("fetches", 0)
        if not fetches:
            return 0.0
        served = counters.get("hits", 0) + counters.get("flat_hits", 0)
        return served / fetches

    def best_label(self) -> str:
        """The variant with the lowest average normalized cycles."""
        return min(LABELS, key=self.average_normalized)

    def report(self) -> str:
        rows: List[List[object]] = []
        for workload in self.baseline:
            rows.append([workload,
                         *(self.normalized_cycles(label, workload)
                           for label in LABELS)])
        rows.append(["average",
                     *(self.average_normalized(label)
                       for label in LABELS)])
        table = format_table(("workload", *LABELS), rows)
        chart = bar_chart([(label, self.average_normalized(label))
                           for label in LABELS], max_value=1.0)
        tier_lines = []
        for label in LABELS:
            counters = self.tier.get(label, {})
            if not counters.get("fetches"):
                continue
            tier_lines.append(
                f"  {label}: hit rate "
                f"{100 * self.tier_hit_rate(label):.1f}%, "
                f"rbla bypasses {counters.get('rbla_bypasses', 0)}, "
                f"slow-side open-buffer hits "
                f"{counters.get('slow_open_hits', 0)}")
        tier_block = ("\n\ntier service (summed over workloads):\n"
                      + "\n".join(tier_lines)) if tier_lines else ""
        return (f"{table}\n\naverage cycles vs 1P1L baseline "
                f"(shorter bar = faster):\n{chart}{tier_block}\n\n"
                f"best variant: {self.best_label()}")


def run_tier_modes(runner: Optional[ExperimentRunner] = None,
                   workloads: Optional[List[str]] = None,
                   size: str = "large",
                   llc_mb: float = 1.0) -> TierModesResult:
    runner = runner or ExperimentRunner()
    result = TierModesResult()
    for workload in workloads or workload_names():
        base = runner.run("1P1L", workload, size, llc_mb)
        result.baseline[workload] = base.cycles
        for design, label, overrides in VARIANTS:
            run = runner.run_key(RunKey(design, workload, size, llc_mb,
                                        False, "default", 0, overrides))
            result.cycles.setdefault(label, {})[workload] = run.cycles
            flat = run.stats.flat()
            bucket = result.tier.setdefault(label, {})
            for name in _TIER_COUNTERS:
                bucket[name] = bucket.get(name, 0) \
                    + flat.get(f"tier.{name}", 0)
    return result


def main(argv=None) -> None:
    from .plans import figure_runner
    print(run_tier_modes(figure_runner('tier_modes', argv)).report())


if __name__ == "__main__":
    main()
