"""Pre-fork master for resilient multi-worker serving.

``repro serve --workers N`` must survive what a single asyncio process
cannot: a worker OOM-killed mid-request, a wedged event loop, a crash
loop after a bad deploy.  :class:`PreforkMaster` is the supervising
parent: it binds the listening socket **once**, forks N workers that
all accept from the inherited fd (the kernel load-balances accepts),
and then runs a plain synchronous supervision loop — deliberately no
asyncio in the master, because forking with a live event loop is
undefined behaviour.

Supervision reuses the experiment engine's failure taxonomy
(:mod:`repro.common.errors`): a worker that exits nonzero is a
:class:`~repro.common.errors.WorkerCrash`, one whose heartbeat file
goes stale is a :class:`~repro.common.errors.WorkerHang` (SIGKILLed,
then treated like a crash).  Both classify as transient, so the slot
is restarted with the supervisor's capped exponential backoff
(:class:`~repro.experiments.supervisor.RetryPolicy`).  A slot that
restarts too many times inside a sliding window is *crash-looping*;
the master degrades gracefully — it retires the slot and carries on
with fewer workers — but never retires the last one: the fleet only
reaches zero workers through a clean drain.

The master is not an HTTP server, so it publishes its supervision
state (restarts, live worker count, degradation) as an atomically
replaced JSON file that every worker mirrors into ``/metrics`` via
callback gauges (:func:`repro.service.metrics.register_worker_gauges`).

SIGTERM/SIGINT to the master forwards SIGTERM to every worker (each
drains gracefully: stop admitting, finish in-flight batches, exit 0)
and SIGKILLs stragglers after a grace period.  Workers share results
through the fcntl-locked run cache; each coalesces identical requests
only in-process, so two workers may simulate the same new point once
each, and the cache's atomic writes keep one entry.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..common.errors import WorkerCrash, WorkerHang, classify_error
from ..experiments.supervisor import RetryPolicy
from .batching import SimulationService
from .metrics import register_worker_gauges
from .server import serve_main

#: Filename (under OUTDIR) of the master's supervision state.
STATE_FILENAME = ".serve-state.json"

#: How often workers touch their heartbeat file, in seconds.
HEARTBEAT_INTERVAL = 0.5

#: Heartbeat age past which a worker counts as hung.  Generous: the
#: beat comes from a daemon thread, so only a process-level wedge
#: (SIGSTOP, runaway fork, dead scheduler) ever stalls it.
HEARTBEAT_TIMEOUT = 15.0

#: Restarts within :data:`CRASH_LOOP_WINDOW` that mark a crash loop.
CRASH_LOOP_RESTARTS = 5

#: Sliding window for crash-loop detection, in seconds.  Also the
#: uptime after which a slot's consecutive-failure streak resets.
CRASH_LOOP_WINDOW = 30.0


@dataclass
class _WorkerSlot:
    """One supervised worker position (stable across restarts)."""

    index: int
    hb_path: str
    pid: Optional[int] = None
    started: float = 0.0
    #: Consecutive failed lifetimes (resets after a stable uptime).
    failures: int = 0
    #: Total restarts of this slot.
    restarts: int = 0
    #: Recent restart timestamps (crash-loop detection).
    recent: List[float] = field(default_factory=list)
    #: Earliest monotonic time the next spawn may happen.
    next_start: float = 0.0
    #: Crash-looped out of the fleet.
    retired: bool = False
    #: Set when the master SIGKILLed the worker for a stale heartbeat.
    hung: bool = False


def classify_exit(code: int, hung: bool, draining: bool) -> str:
    """Map one worker exit to ``restart``/``clean``/``failed-drain``.

    The taxonomy does the deciding: a hang or nonzero exit builds the
    matching :class:`TransientRunError` and asks
    :func:`classify_error`, so the master's restart rule and the
    experiment supervisor's retry rule can never drift apart.
    """
    if draining:
        return "clean" if code == 0 else "failed-drain"
    if hung:
        exc: BaseException = WorkerHang("heartbeat stale, killed")
    elif code != 0:
        exc = WorkerCrash(f"worker exited with status {code}")
    else:
        # An unsolicited clean exit still leaves the fleet a worker
        # short; restart it, but through the same classified path.
        exc = WorkerCrash("worker exited 0 without a drain request")
    return "restart" if classify_error(exc) == "transient" \
        else "retire"


class PreforkMaster:
    """Bind once, fork N workers, supervise until a clean drain.

    Args:
        build: called **in the child** after fork as ``build(index)``;
            returns the worker's :class:`SimulationService`.  Building
            per-child keeps the master free of event loops, pools,
            and open cache handles at fork time.
        workers: initial fleet size (floored at 1).
        host/port: listening address; port 0 binds an ephemeral port.
        outdir: directory for the supervision state file.
        policy: restart backoff (defaults to the supervisor's).
        clock: injectable monotonic clock for tests.
    """

    def __init__(self, build: Callable[[int], SimulationService],
                 workers: int, host: str = "127.0.0.1",
                 port: int = 8371, outdir: str = "results",
                 policy: Optional[RetryPolicy] = None,
                 heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
                 crash_loop_restarts: int = CRASH_LOOP_RESTARTS,
                 crash_loop_window: float = CRASH_LOOP_WINDOW,
                 drain_grace: float = 30.0, poll: float = 0.1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._build = build
        self._workers = max(1, int(workers))
        self._host = host
        self._port = port
        self._outdir = outdir
        self._policy = policy or RetryPolicy(max_retries=0)
        self._hb_timeout = heartbeat_timeout
        self._loop_restarts = max(2, int(crash_loop_restarts))
        self._loop_window = float(crash_loop_window)
        self._drain_grace = drain_grace
        self._poll = poll
        self._clock = clock
        self._sock: Optional[socket.socket] = None
        self._hb_dir: Optional[str] = None
        self._slots: List[_WorkerSlot] = []
        self._draining = False
        self._drain_signame = ""
        self.restarts_total = 0
        self.state_path = os.path.join(outdir, STATE_FILENAME)

    # -- observability -------------------------------------------------------

    def _log(self, message: str) -> None:
        try:
            print(f"repro-serve-master: {message}", file=sys.stderr,
                  flush=True)
        except OSError:
            # A dead/full log consumer must never take down the
            # process that supervises the fleet.
            pass

    def _write_state(self) -> None:
        """Atomically publish supervision state for worker /metrics."""
        alive = sum(1 for slot in self._slots if slot.pid is not None)
        target = sum(1 for slot in self._slots if not slot.retired)
        state = {
            "target": target,
            "alive": alive,
            "restarts_total": self.restarts_total,
            "retired": [slot.index for slot in self._slots
                        if slot.retired],
            "draining": self._draining,
            "port": self._port,
            "pids": {str(slot.index): slot.pid
                     for slot in self._slots if slot.pid is not None},
        }
        os.makedirs(self._outdir, exist_ok=True)
        tmp = f"{self.state_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        os.replace(tmp, self.state_path)

    # -- lifecycle -----------------------------------------------------------

    def _bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        self._port = sock.getsockname()[1]
        self._sock = sock

    def _spawn(self, slot: _WorkerSlot) -> None:
        # Fresh heartbeat so a just-born worker is never "stale".
        with open(slot.hb_path, "w"):
            pass
        pid = os.fork()
        if pid == 0:  # child: never return into the master loop
            status = 1
            try:
                status = _worker_main(
                    slot.index, self._sock, slot.hb_path,
                    self.state_path, self._build,
                    self._host, self._port)
            except BaseException:  # noqa: BLE001 - child boundary
                import traceback
                traceback.print_exc()
            finally:
                os._exit(status)
        slot.pid = pid
        slot.hung = False
        slot.started = self._clock()

    def _signal_all(self, signum: int) -> None:
        for slot in self._slots:
            if slot.pid is not None:
                try:
                    os.kill(slot.pid, signum)
                except ProcessLookupError:
                    pass

    def _on_signal(self, signum: int, _frame: object) -> None:
        self._draining = True
        self._drain_signame = signal.Signals(signum).name

    # -- supervision ---------------------------------------------------------

    def _reap(self) -> bool:
        """Collect exited workers; True when anything changed."""
        changed = False
        for slot in self._slots:
            if slot.pid is None:
                continue
            try:
                pid, status = os.waitpid(slot.pid, os.WNOHANG)
            except ChildProcessError:
                pid, status = slot.pid, 0
            if pid == 0:
                continue
            code = os.waitstatus_to_exitcode(status)
            slot.pid = None
            changed = True
            verdict = classify_exit(code, slot.hung, self._draining)
            if verdict == "clean":
                self._log(f"worker {slot.index} drained (exit 0)")
                continue
            if verdict == "failed-drain":
                self._log(f"worker {slot.index} exited {code} "
                          f"during drain")
                continue
            self._schedule_restart(slot, code)
        return changed

    def _schedule_restart(self, slot: _WorkerSlot, code: int) -> None:
        now = self._clock()
        slot.failures += 1
        slot.restarts += 1
        self.restarts_total += 1
        slot.recent = [t for t in slot.recent
                       if now - t < self._loop_window] + [now]
        why = "heartbeat stale (killed)" if slot.hung \
            else f"exit status {code}"
        if len(slot.recent) >= self._loop_restarts \
                and self._can_degrade():
            slot.retired = True
            remaining = sum(1 for s in self._slots if not s.retired)
            self._log(f"worker {slot.index} crash-looping "
                      f"({len(slot.recent)} restarts in "
                      f"{self._loop_window:.0f}s); degrading to "
                      f"{remaining} worker(s)")
            return
        delay = self._policy.delay(slot.failures)
        slot.next_start = now + delay
        self._log(f"worker {slot.index} down ({why}); restart "
                  f"#{slot.restarts} in {delay:.2f}s")

    def _can_degrade(self) -> bool:
        """Retiring one more slot must leave at least one worker."""
        return sum(1 for slot in self._slots if not slot.retired) > 1

    def _check_heartbeats(self) -> bool:
        """SIGKILL workers whose heartbeat went stale; True on change."""
        changed = False
        now = time.time()
        for slot in self._slots:
            if slot.pid is None or slot.hung:
                continue
            try:
                age = now - os.path.getmtime(slot.hb_path)
            except OSError:
                continue
            if age <= self._hb_timeout:
                continue
            self._log(f"worker {slot.index} heartbeat stale "
                      f"({age:.1f}s > {self._hb_timeout:.1f}s); "
                      f"killing pid {slot.pid}")
            slot.hung = True
            changed = True
            try:
                os.kill(slot.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return changed

    def _restart_due(self) -> bool:
        """Spawn slots whose backoff expired; True on change."""
        changed = False
        now = self._clock()
        for slot in self._slots:
            if slot.pid is not None or slot.retired:
                continue
            if now < slot.next_start:
                continue
            self._spawn(slot)
            changed = True
        return changed

    def _reset_stable_streaks(self) -> None:
        now = self._clock()
        for slot in self._slots:
            if slot.pid is not None and slot.failures \
                    and now - slot.started > self._loop_window:
                slot.failures = 0
                slot.recent.clear()

    # -- drain ---------------------------------------------------------------

    def _drain(self) -> None:
        self._log(f"{self._drain_signame or 'drain'} received, "
                  f"forwarding SIGTERM to workers")
        self._write_state()
        self._signal_all(signal.SIGTERM)
        deadline = self._clock() + self._drain_grace
        while any(slot.pid is not None for slot in self._slots):
            if self._reap():
                self._write_state()
            if self._clock() >= deadline:
                self._log("drain grace expired; killing stragglers")
                self._signal_all(signal.SIGKILL)
                deadline = self._clock() + self._drain_grace
            time.sleep(self._poll)
        self._write_state()
        self._log("all workers drained")

    # -- entry point ---------------------------------------------------------

    def run(self) -> int:
        """Serve until a signal-initiated drain completes; returns 0."""
        self._bind()
        self._hb_dir = tempfile.mkdtemp(prefix="repro-serve-hb-")
        self._slots = [
            _WorkerSlot(index=i,
                        hb_path=os.path.join(self._hb_dir, f"{i}.hb"))
            for i in range(self._workers)]
        old_term = signal.signal(signal.SIGTERM, self._on_signal)
        old_int = signal.signal(signal.SIGINT, self._on_signal)
        # Readiness line first: the port is already bound, so clients
        # may connect even while workers are still forking (their
        # connections queue in the listen backlog).
        self._log(f"listening on http://{self._host}:{self._port} "
                  f"with {self._workers} worker(s)")
        try:
            for slot in self._slots:
                self._spawn(slot)
            self._write_state()
            while not self._draining:
                changed = self._reap()
                changed |= self._check_heartbeats()
                changed |= self._restart_due()
                self._reset_stable_streaks()
                if changed:
                    self._write_state()
                time.sleep(self._poll)
            self._drain()
        finally:
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)
            if self._sock is not None:
                self._sock.close()
            self._cleanup_heartbeats()
        return 0

    def _cleanup_heartbeats(self) -> None:
        if self._hb_dir is None:
            return
        for slot in self._slots:
            try:
                os.remove(slot.hb_path)
            except OSError:
                pass
        try:
            os.rmdir(self._hb_dir)
        except OSError:
            pass


def _worker_main(index: int, sock: socket.socket, hb_path: str,
                 state_path: str,
                 build: Callable[[int], SimulationService],
                 host: str, port: int) -> int:
    """Everything a forked worker runs; must end in ``os._exit``."""
    import threading

    # The master's handlers leaked across fork; drop to defaults
    # until serve_main installs the graceful-drain handlers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    def beat() -> None:
        while True:
            try:
                os.utime(hb_path, None)
            except OSError:
                try:
                    with open(hb_path, "w"):
                        pass
                except OSError:
                    pass
            time.sleep(HEARTBEAT_INTERVAL)

    threading.Thread(target=beat, daemon=True,
                     name=f"heartbeat-w{index}").start()
    service = build(index)
    register_worker_gauges(service.metrics.registry, state_path, index)
    return serve_main(service, host=host, port=port, sock=sock,
                      tag=f"w{index}")
