"""Exception hierarchy for the MDACache reproduction.

The experiment-engine additions (:class:`ExperimentError` and below)
form the retry taxonomy the supervisor uses to decide whether a failed
simulation point is worth re-dispatching: :class:`TransientRunError`
subclasses describe environmental failures (a crashed or hung worker,
a wall-clock timeout, a broken pool, a lock that never came free) that
a retry can plausibly fix, while :class:`PermanentRunError` covers
deterministic failures that would simply fail again.
:func:`classify_error` maps arbitrary exceptions onto the two classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class AddressError(ReproError):
    """An address fell outside the mapped physical space."""


class ProgramError(ReproError):
    """A kernel description (loop nest / array reference) is malformed."""


class SimulationError(ReproError):
    """An internal invariant of the simulator was violated."""


# -- experiment-engine supervision --------------------------------------------


class ExperimentError(ReproError):
    """Base class for experiment-engine (scheduler/supervisor) failures."""


class TransientRunError(ExperimentError):
    """A run failed for environmental reasons; a retry may succeed."""


class WorkerCrash(TransientRunError):
    """A pool worker died (killed, OOM, segfault) while running a point."""


class WorkerHang(TransientRunError):
    """A pool worker stopped heartbeating while running a point."""


class RunTimeout(TransientRunError):
    """A run exceeded its per-point wall-clock budget."""


class PoolBroken(TransientRunError):
    """The worker pool could not be created or had to be torn down."""


class LockTimeout(TransientRunError):
    """An advisory file lock could not be acquired within its budget."""


class PermanentRunError(ExperimentError):
    """A run failed deterministically; retrying would fail identically."""


# -- simulation service -------------------------------------------------------


class ServiceError(ReproError):
    """Base class for simulation-service (server/client) failures."""


class ValidationFailed(ServiceError):
    """A service request did not validate against the config schema.

    Maps to HTTP 400: the request is malformed or names an unknown
    design/workload/override, and retrying it unchanged cannot help.
    """


class AdmissionRejected(ServiceError):
    """The admission queue is full; the caller should back off.

    Maps to HTTP 429 with a ``Retry-After`` hint — explicit
    backpressure instead of unbounded queueing.
    """

    def __init__(self, message: str = "admission queue full",
                 retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SimulationFailed(ServiceError):
    """A served simulation point failed permanently (HTTP 500).

    The supervisor already spent the retry budget; the message carries
    the final error string from the sweep report.
    """


class ServiceDraining(ServiceError):
    """The server is draining (SIGTERM) and accepts no new work.

    Maps to HTTP 503 with a ``Retry-After`` hint; in-flight requests
    still complete.
    """

    def __init__(self, message: str = "server draining",
                 retry_after: float = 5.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpen(ServiceError):
    """The client-side circuit breaker is open.

    Raised (client side only — it never crosses the wire) when a
    request would be attempted while the breaker's cooldown is still
    running and the caller asked not to wait it out.  ``retry_after``
    is the remaining cooldown.
    """

    def __init__(self, message: str = "circuit breaker open",
                 retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SweepInterrupted(ExperimentError):
    """A sweep was stopped by SIGINT/SIGTERM; journal was flushed.

    Carried to the CLI layer, which exits with status 130 (the shell
    convention for death-by-SIGINT).
    """

    def __init__(self, message: str = "sweep interrupted",
                 report: object = None) -> None:
        super().__init__(message)
        self.report = report


class SweepFailed(ExperimentError):
    """One or more points exhausted their retry budget or failed hard."""

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


#: CLI exit status for an interrupted sweep (128 + SIGINT).
EXIT_INTERRUPTED = 130

#: CLI exit status when a sweep completed but points failed permanently.
EXIT_SWEEP_FAILED = 3

#: Exception types (beyond TransientRunError) that a retry may fix:
#: resource pressure, I/O flakes, and multiprocessing plumbing faults.
_TRANSIENT_TYPES = (OSError, MemoryError, EOFError,
                    BrokenPipeError, ConnectionError, InterruptedError)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for a failed run's exception.

    The default is permanent: the simulator is deterministic, so an
    unrecognized failure will recur on retry; only environmental error
    families earn another attempt.
    """
    if isinstance(exc, TransientRunError):
        return "transient"
    if isinstance(exc, PermanentRunError):
        return "permanent"
    if isinstance(exc, _TRANSIENT_TYPES):
        return "transient"
    return "permanent"


def is_transient(exc: BaseException) -> bool:
    """True when :func:`classify_error` deems the exception retryable."""
    return classify_error(exc) == "transient"
