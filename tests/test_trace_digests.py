"""Golden trace digests: the oracle for trace generation.

``tests/golden/trace_digests.json`` pins the sha256 of
``PackedTrace.to_bytes()`` for

* every trace ``plans.PLANNERS`` names (each distinct
  ``trace_key_for`` identity of the planned suite, the ``legacy`` and
  ``tiled16`` variants included), and
* every registry workload, extras included, at small size in both
  logical dimensionalities.

Any change to the emitter, the vectorizer, a layout or a workload
definition that moves a single packed word fails here.  An intended trace
change regenerates the file with::

    PYTHONPATH=src python tests/test_trace_digests.py --write

bumps ``TRACE_STORE_VERSION`` (stored traces would otherwise be served
stale) and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import lru_cache
from typing import Dict, Tuple

import pytest

from repro.core.simulator import _variant_program
from repro.experiments import plans
from repro.experiments.runner import trace_key_for
from repro.sw.tracegen import generate_packed_trace
from repro.workloads.registry import extended_workload_names

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "trace_digests.json")

TraceKey = Tuple[str, str, int, str]


def label(key: TraceKey) -> str:
    """``workload/size/Nd[/variant]``, the golden file's key."""
    workload, size, dims, variant = key
    return "/".join((workload, size, f"{dims}d")
                    + ((variant,) if variant else ()))


def planned_keys():
    """Every distinct trace the planned suite replays."""
    plan = plans.plan_for(plans.PLANNERS)
    return list(dict.fromkeys(trace_key_for(key) for key in plan))


def registry_keys():
    return [(workload, "small", dims, "")
            for workload in extended_workload_names()
            for dims in (1, 2)]


@lru_cache(maxsize=None)
def digest(key: TraceKey) -> str:
    """sha256 of one named trace, walked fresh (no memo, no store)."""
    workload, size, dims, variant = key
    program, layout = _variant_program(workload, size, dims, variant)
    trace = generate_packed_trace(program, dims, layout)
    return hashlib.sha256(trace.to_bytes()).hexdigest()


def current() -> Dict[str, Dict[str, str]]:
    return {"planned": {label(k): digest(k) for k in planned_keys()},
            "registry_small": {label(k): digest(k)
                               for k in registry_keys()}}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("section,keys", [
    ("planned", planned_keys),
    ("registry_small", registry_keys),
])
def test_traces_match_golden_digests(golden, section, keys):
    want = golden[section]
    got = {label(key): digest(key) for key in keys()}
    assert sorted(got) == sorted(want), \
        "the set of traces changed; regenerate the golden file"
    moved = sorted(name for name in got if got[name] != want[name])
    assert not moved, f"trace words changed: {moved}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write"]:
        print(f"usage: {sys.argv[0]} --write", file=sys.stderr)
        return 2
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(current(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
