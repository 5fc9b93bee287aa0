"""Inputs, identities and digests shared by every perfbench process.

Nothing here imports ``repro``: the orchestrator (``run.py``) and the
HTTP client stay free of the simulator, and only ``worker.py`` turns a
point spec into a ``RunKey``.  A *spec* is a plain dict with the
``/simulate`` request fields (``design``, ``workload``, ``size``,
``llc_mb``, ``resident``, ``memory``, ``sample_every``, ``overrides``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Fig. 15 occupancy strides (``fig15.stride_for(w, "large", 40)``),
#: fixed here so a draw never depends on the code under test.
SAMPLED_STRIDES = {"sgemm": 1740, "ssyrk": 1868}

#: The ``tier_modes`` overrides, restated for the same reason.
TIER_BYTES = 64 * 1024


#: Replay engines, as ``TraceDrivenCpu`` names its methods; ``object``
#: is ``run`` itself, taken by any non-packed trace.
ENGINES = ("vector", "kernel", "packed", "object")

#: Flat stats summed over a workload's simulated points (``sim.*``
#: metrics and the boundary-coverage check).
SIM_COUNTERS = ("cpu.ops", "cpu.cycles", "cpu.stall_cycles",
                "cache.L1.hits", "cache.L1.demand_accesses",
                "memory.line_reads", "memory.line_writes",
                "memory.banks.row_buffer_hits",
                "memory.banks.row_buffer_misses",
                "memory.banks.col_buffer_hits",
                "memory.banks.col_buffer_misses",
                "tier.fetches", "tier.hits", "tier.flat_hits")


def spec(design: str, workload: str, size: str, llc_mb: float = 1.0,
         sample_every: int = 0, overrides: Dict[str, object] = None,
         resident: bool = False) -> Dict[str, object]:
    return {"design": design, "workload": workload, "size": size,
            "llc_mb": float(llc_mb), "resident": resident,
            "memory": "default", "sample_every": sample_every,
            "overrides": dict(sorted((overrides or {}).items()))}


def tier_overrides(mode: str) -> Dict[str, object]:
    pairs = {"tier.mode": mode, "tier.size_bytes": TIER_BYTES}
    if mode == "hybrid":
        pairs["tier.cache_fraction"] = 0.5
    return pairs


def label(point: Dict[str, object]) -> str:
    """The reference-table identity of one point spec."""
    overrides = ",".join(f"{k}={v}" for k, v in
                         sorted(point["overrides"].items()))
    return (f"{point['design']}|{point['workload']}|{point['size']}|"
            f"{point['llc_mb']}|{int(point['resident'])}|"
            f"{point['memory']}|{point['sample_every']}|{overrides}")


def digest(cycles: int, flat_stats: Dict[str, object]) -> str:
    """sha256 of (cycles, full flat stats) of one simulated point."""
    blob = json.dumps([cycles, flat_stats], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, Dict[str, str]]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


# -- replay-large: one large-input point per stratum -------------------------

#: Candidates per stratum.  Each stratum keeps points of similar host
#: cost (1P2L-family sgemm/ssyrk points take 0.9-1.8 s each), so the
#: seed changes which point runs but not how long a pass takes.  Left
#: out for cost: strmm (2-3x faster), ssyr2k and sgemm over the hybrid
#: tier (2x slower), and 1P1L on any large BLAS trace (5-16 s).
STRATA: Dict[str, List[Dict[str, object]]] = {
    # Hit-dense 1P2L-family points, dispatched to the vector engine.
    "vector": [spec(d, w, "large")
               for d, w in itertools.product(
                   ("1P2L", "1P2L_SameSet", "2P2L"), ("sgemm", "ssyrk"))],
    # Dynamic orientation replays on the scalar kernel only.
    "dyn": [spec("1P2L_Dyn", w, "large") for w in ("sgemm", "ssyrk")],
    # The conventional baseline: prefetcher and memory controller.
    "1p1l": [spec("1P1L", "sobel", "large", llc)
             for llc in (1.0, 1.5, 2.0, 4.0)],
    # 1P2L over each die-stacked tier personality.
    "tier": [spec("1P2L", w, "large", overrides=tier_overrides(m))
             for m, w in (("cache", "sgemm"), ("flat", "sgemm"),
                          ("cache", "ssyrk"), ("flat", "ssyrk"),
                          ("hybrid", "ssyrk"))],
    # Fig. 15 occupancy sampling replays on the packed interpreter.
    "sampled": [spec("1P2L", w, "large", sample_every=stride)
                for w, stride in sorted(SAMPLED_STRIDES.items())],
}


def replay_draw(seed: int) -> List[Dict[str, object]]:
    rng = random.Random(f"replay-large/{seed}")
    return [rng.choice(STRATA[name]) for name in STRATA]


# -- serve-zipf: zipfian small-input configs ---------------------------------

#: Small-input (design, kernel, LLC, memory, MLP window) configs the
#: service is asked for.  Every one simulates in 40-70 ms at a similar
#: rate (140-240k requests per second), so a miss costs about the 20 ms
#: batch window plus one short replay: the server stays ~5% busy,
#: misses rarely queue behind each other, and neither the miss latency
#: nor the simulation rate depends on which configs a seed made popular.
SERVE_CONFIGS = (("1P2L_Dyn", "sgemm"), ("1P2L_Dyn", "ssyrk"),
                 ("1P1L", "sobel"))
SERVE_POOL = [dict(spec(d, w, "small", llc, overrides=overrides),
                   memory=memory)
              for (d, w), llc, memory, overrides in itertools.product(
                  SERVE_CONFIGS, (1.0, 1.5, 2.0, 4.0), ("default", "fast"),
                  ({}, {"cpu.mlp_window": 4}, {"cpu.mlp_window": 8}))]
#: Sent one at a time before the timed session: they generate each
#: kernel's trace and warm the replay engine in the fresh server, and
#: none of them is in the pool, so every pool config still starts cold.
SERVE_WARMUP = [spec("1P2L", "sgemm", "small"),
                spec("1P2L", "ssyrk", "small"),
                spec("1P1L", "sobel", "small", resident=True)]
SERVE_RATE = 6.0          # requests per second, open loop
SERVE_ZIPF_S = 1.1        # popularity exponent
SERVE_MIN_REQUESTS = 110  # p90 needs ten samples beyond it


def serve_schedule(seed: int, seconds: float):
    """``[(due_offset_s, spec), ...]``: Poisson arrivals, zipf configs."""
    rng = random.Random(f"serve-zipf/{seed}")
    pool = list(SERVE_POOL)
    rng.shuffle(pool)  # the seed picks which configs are popular
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S
               for rank in range(len(pool))]
    count = max(SERVE_MIN_REQUESTS, int(SERVE_RATE * seconds))
    schedule, due = [], 0.0
    for _ in range(count):
        due += rng.expovariate(SERVE_RATE)
        schedule.append((due, rng.choices(pool, weights)[0]))
    return schedule


def all_points() -> List[Dict[str, object]]:
    """Every large/serve point any seed can draw (regen-small's plan
    comes from the planners and is added by ``make_reference``)."""
    points = [p for stratum in STRATA.values() for p in stratum]
    return points + SERVE_POOL + SERVE_WARMUP
