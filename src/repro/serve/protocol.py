"""The serve wire protocol: ``repro.serve/1`` request/response envelopes.

One JSON object per request, one per response, transport-independent
(the HTTP and unix-socket fronts both speak exactly this).  The
protocol's central invariant is **degrade, don't die**: an analysis
request never yields a transport-level failure for analysis-level
reasons.  The response ``status`` carries the outcome in-band:

``ok``
    The analysis completed exactly.
``degraded``
    The analysis completed under its budget/faults with sound
    conservative substitutions; the reported dependences are a superset
    of the exact answer and ``degradations`` lists every substitution.
``invalid``
    The request itself was malformed (bad JSON, unknown op, unparsable
    program) — the only client-error case, mapped to HTTP 400.
``rejected``
    Admission control shed the request (queue full, drain in progress,
    injected request-drop).  ``retry_after_ms`` tells the client when to
    come back; mapped to HTTP 429.
``error``
    An unexpected internal failure.  Still HTTP 200 — the daemon
    answered, honestly, with a structured error — and the daemon itself
    keeps running.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "PROTOCOL",
    "ANALYZE_OPTION_FIELDS",
    "ProtocolError",
    "validate_request",
    "response",
    "rejected",
    "invalid",
]

#: Schema tag carried by every response.
PROTOCOL = "repro.serve/1"

#: Analysis option fields a request may set.  Execution configuration
#: (cache sizing) belongs to the server, not the
#: request; the degradation policy is pinned to "degrade" because a
#: raise-policy service would 500 — the one thing this daemon never does.
ANALYZE_OPTION_FIELDS = frozenset(
    {
        "extended",
        "refine",
        "cover",
        "kill",
        "terminate",
        "partial_refine",
        "extend_all_kinds",
        "input_deps",
        "audit",
        "assertions",
    }
)

#: Ops a request may name.
OPS = ("ping", "stats", "analyze", "query", "drain")

_BOOL_FIELDS = ANALYZE_OPTION_FIELDS - {"assertions"}


class ProtocolError(ValueError):
    """A malformed request (mapped to status "invalid" / HTTP 400)."""


def validate_request(payload: Any) -> dict:
    """Check one decoded request envelope, returning it normalized.

    Raises :class:`ProtocolError` with a client-readable message on any
    shape violation; never raises anything else.
    """

    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(OPS)})"
        )
    normalized: dict = {"op": op}
    request_id = payload.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError("request_id must be a string")
    normalized["request_id"] = request_id
    if op in ("analyze", "query"):
        program = payload.get("program")
        if not isinstance(program, str) or not program.strip():
            raise ProtocolError(f"op {op!r} needs a non-empty 'program' string")
        normalized["program"] = program
        name = payload.get("name", "request")
        if not isinstance(name, str):
            raise ProtocolError("name must be a string")
        normalized["name"] = name
        deadline = payload.get("deadline_ms")
        if deadline is not None and not _positive_finite(deadline):
            raise ProtocolError("deadline_ms must be a positive finite number")
        normalized["deadline_ms"] = deadline
        normalized["options"] = _validate_options(payload.get("options"))
    if op == "query":
        pair = payload.get("pair")
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(end, str) for end in pair)
        ):
            raise ProtocolError("op 'query' needs a pair: [SRC, DST]")
        normalized["pair"] = tuple(pair)
    return normalized


def _positive_finite(value: Any) -> bool:
    """A JSON number that is finite and > 0 (``json.loads`` accepts NaN
    and Infinity; bools are ints in Python but not numbers here)."""

    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def _validate_options(options: Any) -> dict:
    if options is None:
        return {}
    if not isinstance(options, dict):
        raise ProtocolError("options must be a JSON object")
    unknown = set(options) - ANALYZE_OPTION_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown option(s): {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(ANALYZE_OPTION_FIELDS))})"
        )
    checked: dict = {}
    for field in _BOOL_FIELDS & set(options):
        if not isinstance(options[field], bool):
            raise ProtocolError(f"option {field!r} must be a boolean")
        checked[field] = options[field]
    if "assertions" in options:
        assertions = options["assertions"]
        if not isinstance(assertions, list) or not all(
            isinstance(a, str) for a in assertions
        ):
            raise ProtocolError("option 'assertions' must be a list of strings")
        checked["assertions"] = list(assertions)
    return checked


def response(status: str, request_id: str | None = None, **body) -> dict:
    """One response envelope (``schema`` and ``status`` always present)."""

    envelope = {"schema": PROTOCOL, "status": status, "request_id": request_id}
    envelope.update(body)
    return envelope


def rejected(
    request_id: str | None,
    reason: str,
    retry_after_ms: float,
) -> dict:
    return response(
        "rejected",
        request_id,
        reason=reason,
        retry_after_ms=retry_after_ms,
    )


def invalid(request_id: str | None, message: str) -> dict:
    return response("invalid", request_id, error=message)


#: HTTP status per response status — the full mapping the transports use.
#: Analysis outcomes (ok / degraded / error) are all 200: the service
#: answered.  Only protocol misuse is 4xx, and nothing is ever 5xx.
HTTP_STATUS = {
    "ok": 200,
    "degraded": 200,
    "error": 200,
    "invalid": 400,
    "rejected": 429,
}
