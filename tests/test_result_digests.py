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

The same replay also checks that every key's counters conserve
traffic (:data:`LAWS`): each memory line read or write is one port
transfer of 64 bytes, one bank access and one buffer hit or miss, and
each L1 demand access is one hit or miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

from repro.common.types import LINE_BYTES, WORDS_PER_LINE
from repro.core.simulator import RunResult
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


def digest(result: RunResult) -> str:
    blob = json.dumps([result.cycles, result.stats.flat()],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: ``(left, factor, right)``: the sum of the counters ``left`` names
#: equals ``factor`` times the sum of those ``right`` names.
LAWS = (
    ("memory.bytes_read", LINE_BYTES, "memory.line_reads"),
    ("memory.bytes_written", LINE_BYTES, "memory.line_writes"),
    ("memory.writes_drained", 1, "memory.line_writes"),
    ("memory.port.fetches", 1, "memory.line_reads"),
    ("memory.port.writebacks", 1, "memory.line_writes"),
    ("memory.banks.reads", 1, "memory.line_reads"),
    ("memory.banks.writes", 1, "memory.writes_drained"),
    ("memory.banks.buffer_hits + memory.banks.buffer_misses", 1,
     "memory.banks.reads + memory.banks.writes"),
    ("memory.banks.row_buffer_hits + memory.banks.col_buffer_hits", 1,
     "memory.banks.buffer_hits"),
    ("memory.banks.row_buffer_misses + memory.banks.col_buffer_misses",
     1, "memory.banks.buffer_misses"),
    ("cache.L1.hits + cache.L1.misses", 1, "cache.L1.demand_accesses"),
)


def conservation_errors(flat: Dict[str, int]) -> List[str]:
    """The traffic-conservation laws one run's ``stats.flat()``
    breaks, each written out."""
    def total(side: str) -> int:
        return sum(flat[name] for name in side.split(" + "))

    errors = [f"{left} != {factor} * ({right})" for left, factor, right
              in LAWS if total(left) != factor * total(right)]
    if total("memory.port.dirty_words_written") \
            > WORDS_PER_LINE * total("memory.port.writebacks"):
        errors.append("memory.port.dirty_words_written > "
                      f"{WORDS_PER_LINE} * (memory.port.writebacks)")
    return errors


def current() -> Dict[str, str]:
    return {label(key): digest(simulate_run_key(key))
            for key in planned_keys()}


def test_planned_results_match_golden_digests():
    with open(GOLDEN) as handle:
        want = json.load(handle)
    keys = planned_keys()
    assert len(keys) == len({label(key) for key in keys}), \
        "two planned keys share a label"
    assert sorted(label(key) for key in keys) == sorted(want), \
        "the set of planned keys changed; regenerate the golden file"
    moved, broken = [], []
    for key in keys:
        result = simulate_run_key(key)
        if digest(result) != want[label(key)]:
            moved.append(label(key))
        broken.extend(f"{label(key)}: {error}" for error in
                      conservation_errors(result.stats.flat()))
    assert not broken, f"counters do not conserve traffic: {broken}"
    assert not moved, f"simulated results changed: {moved}"


def test_conservation_errors_name_the_broken_law():
    key = planned_keys()[0]
    flat = simulate_run_key(key).stats.flat()
    assert conservation_errors(flat) == []
    flat["memory.banks.col_buffer_hits"] += 1
    flat["cache.L1.misses"] += 1
    assert conservation_errors(flat) == [
        "memory.banks.row_buffer_hits + memory.banks.col_buffer_hits "
        "!= 1 * (memory.banks.buffer_hits)",
        "cache.L1.hits + cache.L1.misses "
        "!= 1 * (cache.L1.demand_accesses)"]


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
