"""Simulation-as-a-service: the traffic-facing layer over the engine.

PRs 1-4 built a fast, fault-tolerant *offline* engine — process-pool
scheduling, packed traces, SoA kernels, supervised retries — but every
entry point was a batch CLI.  This package turns that engine into a
server: an asyncio HTTP/1.1 service (stdlib only) that accepts JSON
simulation requests, validates them against the config schema,
coalesces identical in-flight requests, batches distinct ones into
:class:`~repro.experiments.runner.RunKey` plans, and dispatches through
the existing :class:`~repro.experiments.supervisor.Supervisor` so the
retry/timeout/fault taxonomy and the journal carry over unchanged.

``repro serve --workers N`` scales that single process into a
supervised fleet: a pre-fork master binds the socket once, forks N
workers that accept from the shared fd, restarts crashed or hung
workers with capped backoff, and degrades gracefully on crash loops.
Workers share results through the run cache; two workers may each
simulate the same new point once, and the cache keeps one entry.

Modules:

* :mod:`.protocol` — request/response JSON schema and validation;
* :mod:`.batching` — admission control, coalescing, batch dispatch;
* :mod:`.metrics` — Prometheus-text-format metric primitives;
* :mod:`.server` — the asyncio HTTP server (``repro serve``);
* :mod:`.master` — pre-fork master and worker supervision;
* :mod:`.client` — sync + async clients with retry/backoff and a
  circuit breaker.
"""

from .batching import SimulationService
from .client import (
    AsyncServiceClient,
    CircuitBreaker,
    RetryConfig,
    ServiceClient,
)
from .master import PreforkMaster
from .metrics import MetricsRegistry
from .protocol import parse_request, result_payload
from .server import ServiceServer, serve_main

__all__ = [
    "AsyncServiceClient",
    "CircuitBreaker",
    "MetricsRegistry",
    "PreforkMaster",
    "RetryConfig",
    "ServiceClient",
    "ServiceServer",
    "SimulationService",
    "parse_request",
    "result_payload",
    "serve_main",
]
