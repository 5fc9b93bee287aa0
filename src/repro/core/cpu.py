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
from typing import Callable, Iterable, List, Optional

from ..cache.hierarchy import CacheHierarchy
from ..common.config import CpuConfig
from ..common.stats import StatRegistry
from ..common.types import (
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
    line_words,
)
from . import kernels
from ..common.stats import LAT_HIST_KEYS

#: Callback invoked as sampler(ops_retired, now_cycles).
Sampler = Callable[[int, int], None]

_ORIENTS = (Orientation.ROW, Orientation.COLUMN)
_WIDTHS = (AccessWidth.SCALAR, AccessWidth.VECTOR)
_BOOLS = (False, True)


class _PackedRequestView:
    """Reusable request stand-in for the packed replay loop.

    Presents the exact attribute surface the cache levels read from a
    :class:`Request` (addr, orientation, width, is_write, ref_id,
    line_id, word_id, words()), but as one mutable object rewritten per
    trace word, so replay allocates nothing per request.  Safe because
    no cache level retains the request beyond the ``access`` call; the
    orientation/width fields hold the real enum members the caches
    compare with ``is``.

    ``addr`` and ``word_id`` are read only on the scalar access paths,
    so they decode lazily from the raw trace word instead of costing a
    store per replayed request.
    """

    __slots__ = ("raw", "orientation", "width", "is_write", "ref_id",
                 "line_id")

    @property
    def word_id(self):
        return self.raw >> 19

    @property
    def addr(self):
        return (self.raw >> 19) << 3

    def words(self):
        if self.width is AccessWidth.SCALAR:
            return (self.word_id,)
        return line_words(self.line_id)


class TraceDrivenCpu:
    """Drives a request trace through a cache hierarchy."""

    def __init__(self, config: CpuConfig, hierarchy: CacheHierarchy,
                 stats: StatRegistry) -> None:
        self._config = config
        self._hierarchy = hierarchy
        self._stats = stats.group("cpu")

    def run(self, trace: Iterable[Request],
            sampler: Optional[Sampler] = None,
            sample_every: int = 0) -> int:
        """Execute a trace; returns total cycles including drain.

        A :class:`PackedTrace` is dispatched to :meth:`run_kernel`
        when the fused flat-store kernel covers the design (and no
        occupancy sampler needs per-request callbacks), else to
        :meth:`run_packed` — both bit-identical to the object path
        below, which any other iterable takes.
        """
        if isinstance(trace, PackedTrace):
            if (sampler is None or sample_every <= 0) \
                    and kernels.supports(self._hierarchy):
                return self.run_kernel(trace)
            return self.run_packed(trace, sampler, sample_every)
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

    def run_kernel(self, trace: PackedTrace) -> int:
        """Execute a packed trace through the fused flat-store kernel.

        Only valid when :func:`repro.core.kernels.supports` accepts the
        hierarchy; :meth:`run` performs that dispatch.  Statistics
        (counters and latency histograms) are bit-identical to
        :meth:`run_packed` — the kernel shares the object levels'
        counter cells, MSHR files, and memory port.
        """
        engine = kernels.KernelEngine(self._hierarchy)
        return engine.replay(trace, self._config, self._stats)

    # The retired vector engine's name, kept only because
    # ``perfbench/worker.py --trace`` wraps every ``run_*`` engine
    # method by name; nothing dispatches here.
    run_vector = run_kernel

    def _flush_latency_histogram(self, hist: List[int]) -> None:
        """Record per-request latency buckets (bucket = bit_length)."""
        for bucket, count in enumerate(hist):
            if count:
                self._stats.set(LAT_HIST_KEYS[bucket], count)

    def run_packed(self, trace: PackedTrace,
                   sampler: Optional[Sampler] = None,
                   sample_every: int = 0) -> int:
        """Execute a packed trace; bit-identical to :meth:`run`.

        The specialized loop decodes each 64-bit trace word inline into
        one reused :class:`_PackedRequestView` — no per-request object
        allocation, no ``line_id`` property recomputation — and drives
        the same window/stall model as the object path.
        """
        now = 0
        ops = 0
        window: List[int] = []  # outstanding read completions (heap)
        window_size = self._config.mlp_window
        issue_cost = self._config.cycles_per_op
        l1_cfg = self._hierarchy.l1.config
        pipelined = l1_cfg.hit_latency + 3 * l1_cfg.tag_latency
        stalled = 0
        access = self._hierarchy.l1.access
        misses_tracked = self._stats.counter("read_misses_tracked")
        heappush, heappop = heapq.heappush, heapq.heappop
        sampling = sampler is not None and sample_every > 0
        view = _PackedRequestView()
        orients, widths, bools = _ORIENTS, _WIDTHS, _BOOLS
        hist = [0] * len(LAT_HIST_KEYS)
        # Traces are long runs of requests from the same static
        # reference, so the metadata bits (ref_id + flags, the low 19
        # bits) rarely change; decode them only when they do and keep
        # the derived values live across the run.
        last_meta = -1
        orient_bits = 0   # orientation bit positioned for the line id
        index_shift = 22  # shift extracting the in-tile line index
        is_write = False
        for w in trace.words:
            # Decode (see common.types packed layout).  The line id is
            # precomputed here so the caches' line_id reads are plain
            # attribute loads instead of property calls.
            meta = w & 0x7FFFF
            if meta != last_meta:
                last_meta = meta
                orient = (meta >> 18) & 1
                orient_bits = orient << 3
                # Row lines index by the in-tile row (bits 22-24 of w),
                # column lines by the in-tile column (bits 19-21).
                index_shift = 19 if orient else 22
                is_write = bools[(meta >> 16) & 1]
                view.orientation = orients[orient]
                view.width = widths[(meta >> 17) & 1]
                view.is_write = is_write
                view.ref_id = meta & 0xFFFF
            view.raw = w
            view.line_id = ((w >> 25) << 4) | orient_bits \
                | ((w >> index_shift) & 7)
            now += issue_cost
            result = access(view, now)
            ops += 1
            hist[result.latency.bit_length()] += 1
            if result.latency > pipelined and not is_write:
                heappush(window, now + result.latency)
                misses_tracked.value += 1
                while len(window) > window_size:
                    earliest = heappop(window)
                    if earliest > now:
                        stalled += earliest - now
                        now = earliest
            if sampling and ops % sample_every == 0:
                sampler(ops, now)
        while window:
            now = max(now, heapq.heappop(window))
        now = max(now, self._hierarchy.finish(now))
        self._stats.set("ops", ops)
        self._stats.set("cycles", now)
        self._stats.set("stall_cycles", stalled)
        self._flush_latency_histogram(hist)
        return now
