#!/usr/bin/env python
"""CI gate: compare a fresh BENCH_engine.json against the baseline.

Usage::

    python benchmarks/check_bench_regression.py BASELINE CURRENT

Compares the throughput metrics (``*_requests_per_sec``) of a freshly
measured artifact against the committed baseline.  A metric more than
``FAIL_THRESHOLD`` below its baseline fails the build; anything below
baseline but within the threshold prints a soft warning (CI runners
are shared and noisy — a hard gate at parity would flap).  Latency
metrics (``service_chaos_p*_ms``, lower is better) gate the other
direction with a loose ``LATENCY_FAIL_FACTOR``.  Metrics new to the
current artifact are reported informationally; metrics present in the
baseline but missing from the current run fail, since that means a
bench silently stopped running.

Works for both artifacts: ``BENCH_engine.json`` (replay loops) and
``BENCH_service.json`` (the chaos serving bench) — keys missing from
*both* sides are simply skipped, so each job passes its own pair.

Exit status: 0 = OK (possibly with warnings), 1 = regression or
missing metric, 2 = usage / unreadable artifact.
"""

import json
import sys

#: Hard-fail when a throughput metric drops by more than this fraction.
FAIL_THRESHOLD = 0.25

#: Gated metrics: higher is better, measured in requests/second.
THROUGHPUT_KEYS = (
    "hot_loop_requests_per_sec",
    "kernel_loop_requests_per_sec",
    "kernel_2p2l_requests_per_sec",
    "tier_replay_requests_per_sec",
    "service_chaos_requests_per_sec",
)

#: Gated latency metrics: lower is better, milliseconds.  The factor
#: is deliberately loose (these are end-to-end service latencies under
#: injected faults on shared CI runners); the gate exists to catch a
#: tail-latency blowup like a wedged worker the master never restarts,
#: not a noisy-neighbour wobble.
LATENCY_KEYS = (
    "service_chaos_p50_ms",
    "service_chaos_p99_ms",
)
LATENCY_FAIL_FACTOR = 4.0


def _load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def check(baseline, current):
    """Compare artifacts; returns a list of hard failures."""
    failures = []
    for key in THROUGHPUT_KEYS:
        base = baseline.get(key)
        curr = current.get(key)
        if not isinstance(base, (int, float)) or base <= 0:
            if isinstance(curr, (int, float)):
                print(f"  new    {key}: {curr:,.0f} req/s "
                      f"(no baseline)")
            continue
        if not isinstance(curr, (int, float)):
            failures.append(f"{key}: present in baseline "
                            f"({base:,.0f} req/s) but missing from "
                            f"the current artifact")
            continue
        ratio = curr / base
        if ratio < 1.0 - FAIL_THRESHOLD:
            failures.append(f"{key}: {curr:,.0f} req/s is "
                            f"{(1.0 - ratio) * 100:.1f}% below the "
                            f"baseline {base:,.0f} req/s "
                            f"(limit {FAIL_THRESHOLD * 100:.0f}%)")
        elif ratio < 1.0:
            print(f"  warn   {key}: {curr:,.0f} req/s is "
                  f"{(1.0 - ratio) * 100:.1f}% below baseline "
                  f"{base:,.0f} req/s (within the "
                  f"{FAIL_THRESHOLD * 100:.0f}% tolerance)")
        else:
            print(f"  ok     {key}: {curr:,.0f} req/s "
                  f"(baseline {base:,.0f}, {(ratio - 1) * 100:+.1f}%)")
    for key in LATENCY_KEYS:
        base = baseline.get(key)
        curr = current.get(key)
        if not isinstance(base, (int, float)) or base <= 0:
            if isinstance(curr, (int, float)):
                print(f"  new    {key}: {curr:,.0f} ms (no baseline)")
            continue
        if not isinstance(curr, (int, float)):
            failures.append(f"{key}: present in baseline "
                            f"({base:,.0f} ms) but missing from the "
                            f"current artifact")
            continue
        ratio = curr / base
        if ratio > LATENCY_FAIL_FACTOR:
            failures.append(f"{key}: {curr:,.0f} ms is {ratio:.1f}x "
                            f"the baseline {base:,.0f} ms (limit "
                            f"{LATENCY_FAIL_FACTOR:.0f}x)")
        elif ratio > 1.0:
            print(f"  warn   {key}: {curr:,.0f} ms is {ratio:.2f}x "
                  f"baseline {base:,.0f} ms (within the "
                  f"{LATENCY_FAIL_FACTOR:.0f}x tolerance)")
        else:
            print(f"  ok     {key}: {curr:,.0f} ms "
                  f"(baseline {base:,.0f} ms)")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = _load(argv[1])
    current = _load(argv[2])
    print(f"bench regression gate: {argv[2]} vs baseline {argv[1]}")
    failures = check(baseline, current)
    if failures:
        for failure in failures:
            print(f"  FAIL   {failure}", file=sys.stderr)
        return 1
    print("  bench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
