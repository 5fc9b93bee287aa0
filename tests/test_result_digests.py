"""Golden result digests: the oracle for simulated numbers.

``tests/golden/result_digests.json`` pins, for every key the planned
suite replays at small size (each ``plans.PLANNERS`` planner called
with ``size="small"``, the ``legacy`` and ``tiled16`` trace variants
included), the sha256 of::

    json.dumps([cycles, stats.flat()], sort_keys=True,
               separators=(",", ":"))

— the recipe of the repository benchmark's point digests, so the two
tables compare directly.  Any change to a cache level, the MSHR file,
the replay engines, the memory or the tier that moves one cycle or one
counter of one point fails here.  An intended change of the simulated
numbers regenerates the file with::

    PYTHONPATH=src python tests/test_result_digests.py --write

and says why in CHANGES.md: stored run-cache entries were computed
under the old semantics and must be refreshed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

from repro.experiments import plans
from repro.experiments.runner import RunKey, simulate_run_key

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "result_digests.json")


def label(key: RunKey) -> str:
    """Every identity field of a key, ``|``-joined: the file's key."""
    overrides = ",".join(f"{path}={value}"
                         for path, value in key.overrides)
    return "|".join((key.design, key.workload, key.size,
                     repr(key.llc_mb), str(int(key.resident)),
                     key.memory, str(key.sample_every), overrides,
                     key.trace))


def planned_keys() -> List[RunKey]:
    """Every distinct key the planners yield at small size."""
    return list(dict.fromkeys(key for planner in plans.PLANNERS.values()
                              for key in planner(size="small")))


def digest(key: RunKey) -> str:
    result = simulate_run_key(key)
    blob = json.dumps([result.cycles, result.stats.flat()],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def current() -> Dict[str, str]:
    return {label(key): digest(key) for key in planned_keys()}


def test_planned_results_match_golden_digests():
    with open(GOLDEN) as handle:
        want = json.load(handle)
    keys = planned_keys()
    assert len(keys) == len({label(key) for key in keys}), \
        "two planned keys share a label"
    assert sorted(label(key) for key in keys) == sorted(want), \
        "the set of planned keys changed; regenerate the golden file"
    moved = [label(key) for key in keys
             if digest(key) != want[label(key)]]
    assert not moved, f"simulated results changed: {moved}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write"]:
        print(f"usage: {sys.argv[0]} --write", file=sys.stderr)
        return 2
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    table = current()
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
