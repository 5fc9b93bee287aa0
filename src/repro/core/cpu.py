"""Trace-driven CPU timing model.

Stands in for the paper's gem5 out-of-order x86 core (Table I).  The
model retires one trace operation per ``cycles_per_op`` and hides miss
latency behind a window of ``mlp_window`` outstanding reads — a
first-order stand-in for the OoO instruction window and load/store
queues:

* an L1 read hit is fully pipelined (no stall beyond issue cost);
* a read miss joins the outstanding window; the core only stalls when
  the window is full, and then only until the *earliest* outstanding
  miss returns;
* writes are posted (store-buffer semantics) and never stall the core,
  though their bandwidth and cache-state effects are fully modeled by
  the hierarchy.

This keeps exactly the quantities the paper's results hinge on — hit
rates, traffic, exposed memory latency, MSHR coalescing — while staying
fast enough to sweep every figure in pure Python.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..common.config import CpuConfig
from ..common.stats import StatRegistry
from ..common.types import PackedTrace, Request
from . import kernels
from ..common.stats import LAT_HIST_KEYS

#: Callback invoked as sampler(ops_retired, now_cycles).
Sampler = Callable[[int, int], None]


class TraceDrivenCpu:
    """Drives a request trace through a cache hierarchy."""

    def __init__(self, config: CpuConfig, hierarchy: CacheHierarchy,
                 stats: StatRegistry) -> None:
        self._config = config
        self._hierarchy = hierarchy
        self._stats = stats.group("cpu")
        self._engine: Optional[kernels.KernelEngine] = None

    def run(self, trace: Iterable[Request],
            sampler: Optional[Sampler] = None,
            sample_every: int = 0) -> int:
        """Execute a trace; returns total cycles including drain.

        A :class:`PackedTrace` replays on :meth:`run_kernel`, sampled
        or not, when the fused flat-store kernel covers the hierarchy
        (:func:`repro.core.kernels.supports`).  Every other trace —
        any request iterable, or a packed trace of an uncovered
        hierarchy, which iterates its requests — takes the object loop
        below: the reference model the kernel is bit-identical to.
        """
        if isinstance(trace, PackedTrace) \
                and kernels.supports(self._hierarchy):
            return self.run_kernel(trace, sampler, sample_every)
        now = 0
        ops = 0
        window: List[int] = []  # outstanding read completions (heap)
        window_size = self._config.mlp_window
        issue_cost = self._config.cycles_per_op
        l1_cfg = self._hierarchy.l1.config
        # Reads at or below this latency are considered pipelined (L1
        # hits, including the extra-probe variants); anything slower —
        # a miss, or a "hit" on data still in flight — occupies the
        # outstanding window.
        pipelined = l1_cfg.hit_latency + 3 * l1_cfg.tag_latency
        stalled = 0
        # Hot loop: pre-bind everything touched per request so each
        # iteration pays no attribute chains or counter-key hashing.
        access = self._hierarchy.l1.access
        misses_tracked = self._stats.counter("read_misses_tracked")
        heappush, heappop = heapq.heappush, heapq.heappop
        sampling = sampler is not None and sample_every > 0
        hist = [0] * len(LAT_HIST_KEYS)
        for req in trace:
            now += issue_cost
            result = access(req, now)
            ops += 1
            hist[result.latency.bit_length()] += 1
            if result.latency > pipelined and not req.is_write:
                heappush(window, now + result.latency)
                misses_tracked.value += 1
                while len(window) > window_size:
                    earliest = heappop(window)
                    if earliest > now:
                        stalled += earliest - now
                        now = earliest
            if sampling and ops % sample_every == 0:
                sampler(ops, now)
        # Retire everything still in flight and drain posted writes.
        while window:
            now = max(now, heapq.heappop(window))
        now = max(now, self._hierarchy.finish(now))
        self._stats.set("ops", ops)
        self._stats.set("cycles", now)
        self._stats.set("stall_cycles", stalled)
        self._flush_latency_histogram(hist)
        return now

    def run_kernel(self, trace: PackedTrace,
                   sampler: Optional[Sampler] = None,
                   sample_every: int = 0) -> int:
        """Execute a packed trace through the fused flat-store kernel.

        Only valid when :func:`repro.core.kernels.supports` accepts the
        hierarchy; :meth:`run` performs that dispatch.  Statistics
        (counters and latency histograms), cycles and occupancy
        samples are bit-identical to the object path — the kernel
        shares the object levels' counter cells, MSHR files, and memory
        port, and calls ``sampler`` at the same retired-op counts.
        """
        self._engine = kernels.KernelEngine(self._hierarchy)
        return self._engine.replay(trace, self._config, self._stats,
                                   sampler, sample_every)

    # The retired packed and vector engines' names, kept only because
    # ``perfbench/worker.py --trace`` wraps every ``run_*`` engine
    # method by name; nothing dispatches here.
    run_packed = run_vector = run_kernel

    def occupancy_by_level(self) -> Dict[str, Tuple[int, int]]:
        """(row, column) line occupancy per level (paper Fig. 15).

        Read from whichever engine holds the cache state: the kernel's
        flat stores once :meth:`run_kernel` has started, else the
        object levels.
        """
        if self._engine is not None:
            return self._engine.occupancy_by_level()
        return self._hierarchy.occupancy_by_level()

    def _flush_latency_histogram(self, hist: List[int]) -> None:
        """Record per-request latency buckets (bucket = bit_length)."""
        for bucket, count in enumerate(hist):
            if count:
                self._stats.set(LAT_HIST_KEYS[bucket], count)
