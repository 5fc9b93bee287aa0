"""The asyncio HTTP/1.1 front end (``repro serve``).

A deliberately small, stdlib-only HTTP server over
:func:`asyncio.start_server`: request lines and headers are parsed by
hand, bodies are ``Content-Length``-delimited, and connections are
kept alive until the peer closes or sends ``Connection: close``.  The
surface is four routes:

* ``GET /healthz`` — liveness plus queue/drain state (JSON); 200
  while serving, 503 the moment a drain begins so probes and load
  balancers stop routing to a worker that will refuse new work;
* ``GET /metrics`` — the registry in Prometheus text format;
* ``POST /simulate`` — one simulation request (see
  :mod:`repro.service.protocol`);
* ``POST /batch`` — a JSON array of simulation requests, answered as
  an array in the same order (each element resolved independently, so
  one invalid or failed point does not poison its neighbours).

Error mapping is the service taxonomy verbatim: ``ValidationFailed``
-> 400, ``AdmissionRejected`` -> 429 + ``Retry-After``,
``ServiceDraining`` -> 503 + ``Retry-After``, ``SimulationFailed`` ->
500.  SIGTERM/SIGINT trigger a graceful drain — stop admitting, finish
in-flight batches, flush the journal, close the listener — and the
process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import (
    AdmissionRejected,
    ServiceDraining,
    ServiceError,
    SimulationFailed,
    ValidationFailed,
)
from ..experiments import faults
from .batching import SimulationService
from .protocol import error_payload, parse_request, result_payload

#: Largest accepted request body; /batch arrays stay well under this.
MAX_BODY_BYTES = 1 << 20

#: Most points a single /batch request may carry.
MAX_BATCH_ITEMS = 256

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An HTTP-layer (pre-routing) failure with a fixed status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _status_for(exc: ServiceError) -> Tuple[int, Optional[float]]:
    """Map a service exception to ``(status, retry_after)``."""
    if isinstance(exc, ValidationFailed):
        return 400, None
    if isinstance(exc, AdmissionRejected):
        return 429, exc.retry_after
    if isinstance(exc, ServiceDraining):
        return 503, exc.retry_after
    if isinstance(exc, SimulationFailed):
        return 500, None
    return 500, None


class ServiceServer:
    """HTTP front end binding a :class:`SimulationService` to a port."""

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 8371,
                 sock: Optional[socket.socket] = None,
                 tag: str = "") -> None:
        self._service = service
        self._host = host
        self._port = port
        self._sock = sock
        #: Log/fault-token prefix; set to ``w<i>`` by pre-fork workers
        #: so fault draws and stderr lines are per-worker.
        self._tag = tag
        self._name = f"repro-serve[{tag}]" if tag else "repro-serve"
        self._serial = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._drained = asyncio.Event()
        self._drain_task: Optional["asyncio.Task[None]"] = None

    @property
    def service(self) -> SimulationService:
        return self._service

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0)."""
        return self._port

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await self._service.start()
        if self._sock is not None:
            # A pre-fork master bound (and keeps) the listening
            # socket; every worker serves accepts off the shared fd.
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port)
        sockets = self._server.sockets or ()
        if sockets:
            self._port = sockets[0].getsockname()[1]
        print(f"{self._name}: listening on "
              f"http://{self._host}:{self._port}",
              file=sys.stderr, flush=True)

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, self._begin_drain, signal.Signals(signum).name)

    def _begin_drain(self, signame: str = "request") -> None:
        if self._drain_task is None:
            print(f"{self._name}: {signame} received, draining",
                  file=sys.stderr, flush=True)
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain())

    async def _drain(self) -> None:
        await self._service.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drained.set()

    async def serve_until_drained(self) -> None:
        """Block until a signal (or :meth:`shutdown`) finishes a drain."""
        await self._drained.wait()
        print(f"{self._name}: drained cleanly", file=sys.stderr,
              flush=True)

    async def shutdown(self) -> None:
        """Programmatic equivalent of SIGTERM (used by tests)."""
        self._begin_drain()
        await self.serve_until_drained()

    # -- the HTTP layer ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond(writer, exc.status,
                                        error_payload(str(exc)))
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, retry_after = await self._route(
                    method, path, body)
                self._service.metrics.requests.inc(
                    endpoint=path, status=str(status))
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                await self._respond(writer, status, payload,
                                    retry_after=retry_after,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request as ``(method, path, headers, body)``; ``None``
        on a clean EOF between requests."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        if not request_line:
            return None
        try:
            method, target, _version = \
                request_line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            try:
                name, _, value = line.decode("latin-1").partition(":")
            except UnicodeDecodeError:
                raise _HttpError(400, "malformed header") from None
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       retry_after: Optional[float] = None,
                       keep_alive: bool = True,
                       content_type: str = "application/json") -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        if retry_after is not None:
            head.append(f"Retry-After: {max(1, round(retry_after))}")
        head.append("Connection: "
                    + ("keep-alive" if keep_alive else "close"))
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii")
                     + body)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes
                     ) -> Tuple[int, Any, Optional[float]]:
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload("healthz is GET-only"), None
            draining = self._service.draining \
                or self._drain_task is not None
            payload = {
                "status": "draining" if draining else "ok",
                "queue_depth": self._service.queue_depth,
                "inflight": self._service.inflight,
            }
            # A draining worker is no longer healthy: 503 flips load
            # balancer / probe checks immediately, while the body
            # still reports the drain's progress.
            if draining:
                return 503, payload, 1.0
            return 200, payload, None
        if path == "/metrics":
            if method != "GET":
                return 405, error_payload("metrics is GET-only"), None
            return 200, self._service.metrics.registry.render(), None
        if path == "/simulate":
            if method != "POST":
                return 405, error_payload("simulate is POST-only"), None
            return await self._simulate_one(body)
        if path == "/batch":
            if method != "POST":
                return 405, error_payload("batch is POST-only"), None
            return await self._simulate_batch(body)
        return 404, error_payload(f"no such endpoint: {path}"), None

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationFailed(f"request body is not valid JSON: "
                                   f"{exc}") from exc

    async def _fault_sites(self, key: Any) -> None:
        """Fire the armed service fault sites for one point.

        Tokens are ``<tag>:<serial>`` — the worker tag plus a
        per-process request serial — so the same plan kills the same
        requests on every run of a given worker, independent of
        interleaving across workers.  The serial advances on every
        request, so tokens stay the same whether or not a plan is
        armed; with none armed, nothing else runs (not even the
        cache-key hash of the corrupt site's path).
        """
        self._serial += 1
        if faults.active_plan() is None:
            return
        token = f"{self._tag or 'w0'}:{self._serial}"
        delay = faults.maybe_slow_request(token)
        if delay > 0.0:
            await asyncio.sleep(delay)
        cache = self._service.runner.run_cache
        if cache is not None:
            faults.maybe_corrupt_served_entry(
                cache.path_for(key), token)
        faults.maybe_kill_server(token)

    async def _simulate_one(self, body: bytes
                            ) -> Tuple[int, Any, Optional[float]]:
        try:
            request = parse_request(self._parse_json(body))
            await self._fault_sites(request.key)
            result, source = await self._service.submit(request.key)
        except ServiceError as exc:
            status, retry_after = _status_for(exc)
            return status, error_payload(str(exc), retry_after), \
                retry_after
        return 200, result_payload(request.key, result, source,
                                   request.want_stats), None

    async def _simulate_batch(self, body: bytes
                              ) -> Tuple[int, Any, Optional[float]]:
        try:
            items = self._parse_json(body)
            if not isinstance(items, list):
                raise ValidationFailed(
                    "batch body must be a JSON array")
            if len(items) > MAX_BATCH_ITEMS:
                raise ValidationFailed(
                    f"at most {MAX_BATCH_ITEMS} points per batch")
        except ValidationFailed as exc:
            return 400, error_payload(str(exc)), None

        async def one(item: Any) -> Dict[str, Any]:
            try:
                request = parse_request(item)
                await self._fault_sites(request.key)
                result, source = await self._service.submit(request.key)
            except ServiceError as exc:
                status, retry_after = _status_for(exc)
                payload = error_payload(str(exc), retry_after)
                payload["status"] = status
                return payload
            return result_payload(request.key, result, source,
                                  request.want_stats)

        results: List[Dict[str, Any]] = await asyncio.gather(
            *(one(item) for item in items))
        return 200, results, None


async def _serve(service: SimulationService, host: str, port: int,
                 sock: Optional[socket.socket], tag: str) -> None:
    server = ServiceServer(service, host, port, sock=sock, tag=tag)
    server.install_signal_handlers()
    await server.start()
    await server.serve_until_drained()


def serve_main(service: SimulationService, host: str = "127.0.0.1",
               port: int = 8371,
               sock: Optional[socket.socket] = None,
               tag: str = "") -> int:
    """Run the server until a graceful drain completes; returns 0.

    ``sock`` is an already-bound listening socket (a pre-fork worker's
    inherited fd); when given, ``host``/``port`` are used only for the
    log line.
    """
    asyncio.run(_serve(service, host, port, sock, tag))
    return 0
