"""Admission control, request coalescing, and batch dispatch.

:class:`SimulationService` is the bridge between the asyncio server
and the synchronous experiment engine.  Every request takes the same
read path the engine uses offline, now three-tiered and shared across
clients:

1. **in-process memo** — the :class:`ExperimentRunner` memo (and its
   persistent ``.runcache`` behind it) answers repeated configs without
   touching the queue at all;
2. **coalescing** — a request identical to one already queued or
   simulating attaches to the in-flight future instead of enqueueing a
   duplicate (the ``coalesced_total`` metric counts these);
3. **batch dispatch** — distinct new requests are admitted to a
   *bounded* queue and dispatched as soon as the dispatcher is idle:
   whatever queued while the previous batch ran forms the next
   :class:`RunKey` plan, supervised through the existing
   :class:`Supervisor` (journal, retries, timeouts, fault taxonomy all
   carry over) on a worker thread.

Admission is explicit backpressure, never blocking: a full queue
raises :class:`AdmissionRejected` (HTTP 429) with a ``Retry-After``
estimate derived from the observed batch service rate, and a draining
server raises :class:`ServiceDraining` (HTTP 503).  The queue can
therefore never deadlock a client — every submit either completes,
coalesces, or is rejected immediately.

Coalescing is per process.  Under ``repro serve --workers N`` two
workers may each simulate the same new point once; the run cache's
atomic writes keep one entry, and later requests hit it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import (
    AdmissionRejected,
    ServiceDraining,
    SimulationFailed,
)
from ..experiments.runner import ExperimentRunner, RunKey
from ..experiments.supervisor import Supervisor
from .metrics import MICROS, MetricsRegistry


class ServiceMetrics:
    """The service's metric families on one registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 service: Optional["SimulationService"] = None) -> None:
        self.registry = registry or MetricsRegistry()
        reg = self.registry
        self.requests = reg.counter(
            "requests_total",
            "HTTP requests handled, by endpoint and status code")
        self.queue_depth = reg.gauge(
            "queue_depth", "Requests admitted and waiting for dispatch",
            fn=(lambda: service.queue_depth) if service else None)
        self.inflight = reg.gauge(
            "inflight", "Distinct configs queued or simulating",
            fn=(lambda: service.inflight) if service else None)
        self.rejected = reg.counter(
            "rejected_total",
            "Requests rejected by admission control, by reason")
        self.coalesced = reg.counter(
            "coalesced_total",
            "Requests coalesced onto an identical in-flight config")
        self.cache_hits = reg.counter(
            "cache_hits_total",
            "Requests answered from the result cache, by tier")
        self.simulated = reg.counter(
            "simulated_total", "Requests answered by a fresh simulation")
        self.sim_failed = reg.counter(
            "sim_failed_total",
            "Requests whose simulation failed permanently")
        self.batches = reg.counter(
            "batches_total", "Simulation batches dispatched")
        self.batch_size = reg.histogram(
            "batch_size", "Distinct configs per dispatched batch",
            max_buckets=14)
        self.queue_wait = reg.histogram(
            "stage_queue_wait_seconds",
            "Admission-to-dispatch wait per batched request",
            scale=1.0 / MICROS)
        self.simulate = reg.histogram(
            "stage_simulate_seconds",
            "Supervised batch execution wall time",
            scale=1.0 / MICROS)
        self.total = reg.histogram(
            "stage_total_seconds",
            "Submit-to-response wall time per request",
            scale=1.0 / MICROS)
        self.sim_cycles = reg.histogram(
            "sim_request_latency_cycles",
            "Per-request latency cycles aggregated from the replay "
            "paths' lat_hist_b* counters across simulated runs",
            max_buckets=64)
        self.cache_hit_ratio = reg.gauge(
            "cache_hit_ratio",
            "Fraction of answered requests served without simulating",
            fn=self._hit_ratio)

    def _hit_ratio(self) -> float:
        hits = self.cache_hits.total() + self.coalesced.total()
        total = hits + self.simulated.total()
        return hits / total if total else 0.0

    def observe_sim_histogram(self, flat_stats: Dict[str, int]) -> None:
        """Fold one run's ``cpu.lat_hist_b*`` counters into
        :attr:`sim_cycles`."""
        counts: Dict[int, int] = {}
        for key, value in flat_stats.items():
            if value and key.startswith("cpu.lat_hist_b"):
                counts[int(key[-2:])] = value
        if counts:
            self.sim_cycles.observe_bucket_counts(counts)


@dataclass
class _Job:
    """One admitted (non-coalesced) request awaiting dispatch."""

    key: RunKey
    future: "asyncio.Future[Any]"
    enqueued: float = field(default_factory=time.monotonic)


class SimulationService:
    """Coalescing, batching front-end over runner + supervisor.

    Args:
        runner: the engine's memo + persistent cache (tiers 1-2).
        supervisor: dispatches batches; construct it with
            ``handle_signals=False`` (the server owns signals).
        max_pending: admission-queue bound; submits beyond it are
            rejected with 429 backpressure.
        max_batch: largest RunKey plan per supervised batch.
    """

    def __init__(self, runner: ExperimentRunner,
                 supervisor: Supervisor,
                 max_pending: int = 256,
                 max_batch: int = 32,
                 metrics: Optional[ServiceMetrics] = None) -> None:
        self._runner = runner
        self._supervisor = supervisor
        self._max_pending = max(1, int(max_pending))
        self._max_batch = max(1, int(max_batch))
        self.metrics = metrics or ServiceMetrics()
        # Wire the live gauges to this instance (a ServiceMetrics made
        # without a service has no callbacks yet).
        self.metrics.queue_depth._fn = lambda: self.queue_depth
        self.metrics.inflight._fn = lambda: self.inflight
        self._pending: List[_Job] = []
        self._inflight: Dict[RunKey, "asyncio.Future[Any]"] = {}
        self._wake = asyncio.Event()
        self._draining = False
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._avg_batch_seconds = 1.0

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def runner(self) -> ExperimentRunner:
        return self._runner

    def retry_after(self) -> float:
        """Suggested client backoff, from the observed service rate."""
        batches_queued = ((self.queue_depth + self._max_batch - 1)
                          // self._max_batch) or 1
        return round(max(1.0, batches_queued * self._avg_batch_seconds),
                     1)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="repro-service-dispatch")

    async def drain(self) -> None:
        """Stop admitting, finish all in-flight work, flush the journal.

        Idempotent; returns when the queue is empty and the dispatcher
        has exited.
        """
        self._draining = True
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        journal = self._supervisor.journal
        if journal is not None:
            journal.record_event("service_drained")
            journal.close()

    # -- the read/submit path ------------------------------------------------

    async def submit(self, key: RunKey) -> Tuple[Any, str]:
        """Resolve one validated request to ``(RunResult, source)``.

        ``source`` is ``"cache"`` (tier 1/2 hit), ``"coalesced"``
        (attached to an identical config in flight in this process),
        or ``"simulated"``.  Raises :class:`ServiceDraining`,
        :class:`AdmissionRejected`, or :class:`SimulationFailed`.
        """
        started = time.monotonic()
        try:
            if self._draining:
                self.metrics.rejected.inc(reason="draining")
                raise ServiceDraining(retry_after=self.retry_after())
            before = self._runner.cache_info()
            result = self._runner.lookup(key)
            if result is not None:
                after = self._runner.cache_info()
                tier = "memo" if after.memory_hits > before.memory_hits \
                    else "disk"
                self.metrics.cache_hits.inc(tier=tier)
                return result, "cache"
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics.coalesced.inc()
                result = await asyncio.shield(existing)
                return result, "coalesced"
            if len(self._pending) >= self._max_pending:
                self.metrics.rejected.inc(reason="queue_full")
                raise AdmissionRejected(
                    f"admission queue full ({self._max_pending} pending)",
                    retry_after=self.retry_after())
            future: "asyncio.Future[Any]" = \
                asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self._pending.append(_Job(key, future))
            self._wake.set()
            result = await asyncio.shield(future)
            self.metrics.simulated.inc()
            return result, "simulated"
        finally:
            self.metrics.total.observe(
                (time.monotonic() - started) * MICROS)

    # -- dispatcher ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Natural batching: dispatch whatever is pending the moment
        the dispatcher is idle.  A request that arrives on an idle
        service goes out alone, at once; requests that queue while a
        batch runs form the next one."""
        while True:
            if not self._pending:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            batch = self._pending[:self._max_batch]
            del self._pending[:len(batch)]
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[_Job]) -> None:
        now = time.monotonic()
        self.metrics.batches.inc()
        self.metrics.batch_size.observe(len(batch))
        for job in batch:
            self.metrics.queue_wait.observe(
                (now - job.enqueued) * MICROS)
        keys = [job.key for job in batch]
        started = time.monotonic()
        try:
            report = await asyncio.to_thread(
                self._supervisor.supervise, keys, strict=False)
            errors = {ck_key: message
                      for ck_key, message in report.failed}
        except Exception as exc:  # noqa: BLE001 - fail the whole batch
            report = None
            errors = {key: f"{type(exc).__name__}: {exc}"
                      for key in keys}
        self.metrics.simulate.observe(
            (time.monotonic() - started) * MICROS)
        seconds = max(time.monotonic() - started, 1e-4)
        self._avg_batch_seconds += \
            0.4 * (seconds - self._avg_batch_seconds)
        for job in batch:
            future = self._inflight.pop(job.key, None)
            if future is None or future.done():
                continue
            result = self._runner.lookup(job.key) \
                if job.key not in errors else None
            if result is not None:
                self.metrics.observe_sim_histogram(result.stats.flat())
                future.set_result(result)
            else:
                message = errors.get(
                    job.key, "simulation produced no result")
                self.metrics.sim_failed.inc()
                future.set_exception(SimulationFailed(message))
