"""The benchmark's own points, pinned in tier-1.

``perfbench/reference.json`` records a sha256 of (cycles, full flat
stats) for every point a perfbench run can draw, and every benchmark
run checks its answers against it.  The golden result digests
(``tests/golden/``) cover the planned small keys only, so this suite
replays the 94 points of ``perfbench/common.all_points()`` through
``simulate_run_key`` and checks each against that table:

* the 72 serve-zipf configs — among them 48 1P2L_Dyn points on 2-D
  traces across four LLC sizes, two memories and three
  ``cpu.mlp_window`` settings, which no golden key replays (the golden
  table holds only ``legacy``-trace 1P2L_Dyn keys);
* the 3 serve-zipf warm-ups;
* the 19 replay-large strata, the large-input points the benchmark
  times.

It only reads ``perfbench/``: the points, the key builder and the
digest come from the benchmark's own modules.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.experiments.runner import simulate_run_key

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import common  # noqa: E402
import worker  # noqa: E402

POINTS = common.all_points()


@pytest.fixture(scope="module")
def reference():
    """``label -> digest`` from ``perfbench/reference.json``."""
    return common.load_reference()["points"]


def test_every_point_is_in_the_reference_table(reference):
    assert len(POINTS) == 94
    assert len({common.label(point) for point in POINTS}) == 94
    assert all(common.label(point) in reference for point in POINTS)


@pytest.mark.parametrize("point", POINTS, ids=common.label)
def test_point_matches_reference(point, reference):
    result = simulate_run_key(worker.build_key(point))
    assert common.digest(result.cycles, result.stats.flat()) \
        == reference[common.label(point)]
