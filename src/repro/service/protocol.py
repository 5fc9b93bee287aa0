"""Request/response schema of the simulation service.

One simulation request is a JSON object::

    {
      "design":       "1P2L",            # required, one of DESIGN_NAMES
      "workload":     "sobel",           # required, a registry workload
      "size":         "small",           # "small" (default) | "large"
      "llc_mb":       1.0,               # an LLC_SIZES point
      "resident":     false,             # Fig. 13 cache-resident setup
      "memory":       "default",         # "default" | "fast" (Fig. 17)
      "sample_every": 0,                 # occupancy sampling stride
      "overrides":    {"cpu.mlp_window": 8},   # SystemConfig overrides
      "stats":        false              # include full flat counters
    }

Validation happens in two stages: field-level checks against the known
design/workload/size vocabulary here, then a full
:class:`~repro.common.config.SystemConfig` construction (including
overrides, via :func:`repro.common.config.apply_overrides`) so every
dataclass ``__post_init__`` invariant is enforced before the request is
admitted.  A request that fails either stage raises
:class:`~repro.common.errors.ValidationFailed` and is answered 400 —
it never reaches the queue.

The response mirrors the request identity and carries the result::

    {"design": ..., "workload": ..., ..., "cycles": 18001, "ops": 9216,
     "l1_hit_rate": 0.93, "llc_requests": 310, "memory_bytes": 39040,
     "source": "simulated" | "cache" | "coalesced",
     "stats": {"cpu.ops": 9216, ...}}      # only when requested

``stats`` is the full flat counter dict of the run — bit-identical to
what a direct :class:`~repro.experiments.runner.ExperimentRunner` run
reports, which is how the service's end-to-end tests verify fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..common.errors import ConfigError, ValidationFailed
from ..core.simulator import RunResult
from ..core.system import DESIGN_NAMES, LLC_SIZES
from ..experiments.runner import RunKey, system_for_key
from ..workloads.registry import workload_names

#: Workload sizes the registry builds.
SIZES = ("small", "large")

#: Memory variants a run key can name.
MEMORY_VARIANTS = ("default", "fast")

#: Hard cap on overrides per request (a request is one simulation
#: point, not a sweep description).
MAX_OVERRIDES = 16


@dataclass(frozen=True)
class SimRequest:
    """One validated simulation request."""

    key: RunKey
    want_stats: bool = False


def _bool_field(payload: Mapping[str, Any], name: str,
                default: bool = False) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise ValidationFailed(
            f"field {name!r} must be a boolean, "
            f"got {type(value).__name__}")
    return value


def parse_request(payload: Any) -> SimRequest:
    """Validate one JSON request body into a :class:`SimRequest`.

    Raises :class:`ValidationFailed` with a caller-actionable message
    on any schema violation.
    """
    if not isinstance(payload, dict):
        raise ValidationFailed("request body must be a JSON object")
    unknown = set(payload) - {"design", "workload", "size", "llc_mb",
                              "resident", "memory", "sample_every",
                              "overrides", "stats"}
    if unknown:
        raise ValidationFailed(
            f"unknown request field(s): {', '.join(sorted(unknown))}")
    design = payload.get("design")
    if design not in DESIGN_NAMES:
        raise ValidationFailed(
            f"unknown design {design!r}; known: "
            f"{', '.join(DESIGN_NAMES)}")
    workload = payload.get("workload")
    if workload not in workload_names():
        raise ValidationFailed(
            f"unknown workload {workload!r}; known: "
            f"{', '.join(workload_names())}")
    size = payload.get("size", "small")
    if size not in SIZES:
        raise ValidationFailed(
            f"size must be one of {SIZES}, got {size!r}")
    llc_mb = payload.get("llc_mb", 1.0)
    if isinstance(llc_mb, int) and not isinstance(llc_mb, bool):
        llc_mb = float(llc_mb)
    if not isinstance(llc_mb, float):
        raise ValidationFailed("llc_mb must be a number")
    resident = _bool_field(payload, "resident")
    if not resident and llc_mb not in LLC_SIZES:
        raise ValidationFailed(
            f"llc_mb must be one of {sorted(LLC_SIZES)}, got {llc_mb}")
    variant = payload.get("memory", "default")
    if variant not in MEMORY_VARIANTS:
        raise ValidationFailed(
            f"memory must be one of {MEMORY_VARIANTS}, got {variant!r}")
    sample_every = payload.get("sample_every", 0)
    if not isinstance(sample_every, int) or isinstance(sample_every, bool) \
            or sample_every < 0:
        raise ValidationFailed("sample_every must be an integer >= 0")
    overrides = payload.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise ValidationFailed("overrides must be an object of "
                               "dotted-path -> scalar")
    if len(overrides) > MAX_OVERRIDES:
        raise ValidationFailed(
            f"at most {MAX_OVERRIDES} overrides per request")
    want_stats = _bool_field(payload, "stats")
    key = RunKey(design, workload, size, llc_mb, resident, variant,
                 sample_every,
                 tuple(sorted((str(k), v)
                              for k, v in overrides.items())))
    # Stage two: a full config build re-runs every dataclass invariant,
    # and apply_overrides (inside system_for_key) validates each dotted
    # override path and value type.
    try:
        system_for_key(key)
    except ConfigError as exc:
        raise ValidationFailed(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ValidationFailed(f"invalid configuration: {exc}") from exc
    return SimRequest(key=key, want_stats=want_stats)


def request_payload(key: RunKey, want_stats: bool = False) -> Dict[str, Any]:
    """The canonical JSON body describing ``key`` (client side)."""
    body: Dict[str, Any] = {
        "design": key.design,
        "workload": key.workload,
        "size": key.size,
        "llc_mb": key.llc_mb,
        "resident": key.resident,
        "memory": key.memory,
        "sample_every": key.sample_every,
    }
    if key.overrides:
        body["overrides"] = dict(key.overrides)
    if want_stats:
        body["stats"] = True
    return body


def result_payload(key: RunKey, result: RunResult,
                   source: str = "simulated",
                   want_stats: bool = False) -> Dict[str, Any]:
    """The JSON response body for one completed simulation."""
    body = request_payload(key)
    body.update({
        "cycles": result.cycles,
        "ops": result.ops,
        "l1_hit_rate": result.l1_hit_rate(),
        "llc_requests": result.llc_requests(),
        "memory_bytes": result.memory_bytes(),
        "source": source,
    })
    if want_stats:
        body["stats"] = result.stats.flat()
    return body


def error_payload(message: str,
                  retry_after: Optional[float] = None) -> Dict[str, Any]:
    """The JSON body of an error response."""
    body: Dict[str, Any] = {"error": message}
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body
