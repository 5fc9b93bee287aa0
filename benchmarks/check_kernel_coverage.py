#!/usr/bin/env python
"""CI gate: no figure configuration silently de-kernelizes.

Usage::

    PYTHONPATH=src python benchmarks/check_kernel_coverage.py [BASELINE]

Recomputes the replay-engine dispatch of every planned figure
configuration (``repro.experiments.run_all.coverage_report``, the same
classification ``run_all --dry-run`` prints) and diffs it against the
committed baseline (default:
``benchmarks/kernel_coverage_baseline.json``).

A configuration whose engine *downgrades* — kernel to packed — fails
the build: a refactor quietly pushed a hot figure config off the fast
replay path.  A baseline configuration missing from the current plan
also fails (the plan changed; the baseline must be regenerated
deliberately via ``python -m repro.experiments.run_all --dry-run
--quiet``).  Upgrades and brand-new configurations are reported
informationally and pass.

Exit status: 0 = OK, 1 = coverage regression, 2 = usage / unreadable
baseline.
"""

import json
import sys

#: Replay engines, slowest first; a move to a lower rank is a failure.
ENGINE_RANK = {"packed": 0, "kernel": 1}

DEFAULT_BASELINE = "benchmarks/kernel_coverage_baseline.json"


def _load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def check(baseline, current):
    """Diff dispatch maps; returns a list of hard failures."""
    failures = []
    for label, base_engine in sorted(baseline.items()):
        curr_engine = current.get(label)
        if curr_engine is None:
            failures.append(f"{label}: in the baseline ({base_engine}) "
                            f"but no longer planned — regenerate the "
                            f"baseline if this is deliberate")
            continue
        base_rank = ENGINE_RANK.get(base_engine, 0)
        curr_rank = ENGINE_RANK.get(curr_engine, 0)
        if curr_rank < base_rank:
            failures.append(f"{label}: dispatched to {base_engine}, "
                            f"now {curr_engine}")
        elif curr_rank > base_rank:
            print(f"  better {label}: {base_engine} -> {curr_engine} "
                  f"(regenerate the baseline to lock this in)")
        else:
            print(f"  ok     {label}: {curr_engine}")
    for label in sorted(set(current) - set(baseline)):
        print(f"  new    {label}: {current[label]} (no baseline)")
    return failures


def print_rank_diff(baseline, current, out=None):
    """Full per-config rank movement table (old rank -> new rank).

    Printed on failure so the log shows every config's movement, not
    just the regressed ones — a dispatch change usually moves several
    configs at once, and the passing rows locate which layer moved.
    """
    out = out or sys.stderr
    print("  per-config dispatch ranks (old -> new):", file=out)
    for label in sorted(set(baseline) | set(current)):
        base_engine = baseline.get(label)
        curr_engine = current.get(label)
        base = (f"{base_engine}({ENGINE_RANK.get(base_engine, 0)})"
                if base_engine is not None else "absent")
        curr = (f"{curr_engine}({ENGINE_RANK.get(curr_engine, 0)})"
                if curr_engine is not None else "absent")
        marker = "  " if base == curr else "->"
        print(f"    {marker} {label}: {base} -> {curr}", file=out)


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path = argv[1] if len(argv) == 2 else DEFAULT_BASELINE
    baseline = _load(baseline_path)
    from repro.experiments.run_all import coverage_report
    current = coverage_report()
    print(f"kernel coverage gate: live plan vs baseline "
          f"{baseline_path}")
    failures = check(baseline, current)
    if failures:
        for failure in failures:
            print(f"  FAIL   {failure}", file=sys.stderr)
        print_rank_diff(baseline, current)
        return 1
    print("  coverage gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
