"""Run-level telemetry: identity and live events.

:mod:`repro.obs.telemetry.context`
    :class:`RunContext` (run_id / request_id), activated per thread like
    tracers and registries.
:mod:`repro.obs.telemetry.events`
    The live :class:`EventBus`: per-pair lifecycle events with
    deterministic content-hash sampling, delivered in read-merge order.
:mod:`repro.obs.telemetry.ledger`
    :func:`git_sha` and :func:`machine_fingerprint`, the commit and host
    a benchmark result was measured on.
"""

from .context import RunContext, current_run, new_run_id, run_context
from .events import (
    EVENT_SCHEMA,
    EventBus,
    JsonlSink,
    current_bus,
    publishing,
)
from .ledger import git_sha, machine_fingerprint

__all__ = [
    "EVENT_SCHEMA",
    "EventBus",
    "JsonlSink",
    "RunContext",
    "current_bus",
    "current_run",
    "git_sha",
    "machine_fingerprint",
    "new_run_id",
    "publishing",
    "run_context",
]
