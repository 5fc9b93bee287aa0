"""Golden digests of the multicore path.

``core/multicore.py`` builds its own shared LLC, memory and tier, so
no planned key replays it.  ``tests/golden/multiprogram_digests.json``
pins, for each of the 12 runs ``run_multiprogram(size="small")``
performs (each pair of ``multiprogram.PAIRS`` on 1P1L, 1P2L and 2P2L,
plus the pair's 1P1L run with more bank sub-buffers), the sha256 of::

    json.dumps([per-core cycles, per-core ops, stats.flat()],
               sort_keys=True, separators=(",", ":"))

An intended change of the simulated numbers regenerates the file
with::

    PYTHONPATH=src python tests/test_multiprogram_digests.py --write

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict
from unittest import mock

from repro.core.multicore import MultiProgramResult
from repro.experiments import multiprogram

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "multiprogram_digests.json")


def digest(result: MultiProgramResult) -> str:
    blob = json.dumps([[core.cycles for core in result.cores],
                       [core.ops for core in result.cores],
                       result.stats.flat()],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def current() -> Dict[str, str]:
    """``pair|design|sub_buffers=N`` -> digest of every run the
    experiment performs, recorded as it calls the multicore model."""
    table: Dict[str, str] = {}
    run = multiprogram.run_multiprogrammed

    def recorded(system, programs, *args, **kwargs):
        result = run(system, programs, *args, **kwargs)
        label = "|".join(("+".join(p.name for p in programs),
                          system.name,
                          f"sub_buffers={system.memory.sub_buffers}"))
        assert label not in table, f"two runs share the label {label}"
        table[label] = digest(result)
        return result

    with mock.patch.object(multiprogram, "run_multiprogrammed",
                           recorded):
        multiprogram.run_multiprogram(size="small")
    return table


def test_multiprogram_runs_match_golden_digests():
    with open(GOLDEN) as handle:
        want = json.load(handle)
    got = current()
    assert sorted(got) == sorted(want), \
        "the set of multiprogram runs changed; regenerate the golden file"
    moved = [label for label in got if got[label] != want[label]]
    assert not moved, f"simulated results changed: {moved}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write"]:
        print(f"usage: {sys.argv[0]} --write", file=sys.stderr)
        return 2
    table = current()
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
