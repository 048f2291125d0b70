"""The serve application: transport-independent request handling.

:class:`ServeApp` owns everything the daemon shares across requests —
one serial :class:`~repro.solver.SolverService` over one
:class:`~repro.omega.cache.SolverCache` backed by the persistent
:class:`~repro.omega.store.PersistentStore`, the admission controller,
a server-lifetime metrics registry and a bounded full-result cache —
and exposes exactly one entry point, :meth:`handle`, which both the
HTTP and unix-socket fronts call.

Degrade-don't-die, layer by layer:

1. Malformed requests → status ``invalid`` (the only 4xx).
2. Admission (queue full / drain / injected request-drop) → ``rejected``
   with a retry-after hint.
3. Analysis under per-request deadline governance (policy pinned to
   ``degrade``) → ``ok`` or ``degraded``; degraded responses carry the
   full substitution provenance and stay a superset of the exact
   answer.
4. Anything unexpected → status ``error`` in-band.  The daemon never
   turns an analysis problem into a transport failure and never exits.

Every request gets a ``serve.request_seconds`` histogram observation
and ``serve.*`` counters in the server registry, which ``/stats``
reports.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from collections import OrderedDict

from ..analysis import AnalysisOptions, analyze, parse_assertion
from ..guard import faults as _faults
from ..ir import IRError, parse
from ..obs import MetricsRegistry, collecting
from ..obs import metrics as _metrics
from ..omega.cache import SolverCache
from ..omega.store import PersistentStore
from ..reporting import result_to_dict, why_records
from ..solver import SolverService
from .admission import AdmissionController
from .protocol import (
    HTTP_STATUS,
    ProtocolError,
    invalid,
    rejected,
    response,
    validate_request,
)

__all__ = ["ServeApp", "DEFAULT_DEADLINE_MS"]

#: Per-request wall-clock budget when the request names none.  Generous
#: for the corpus (whole-program analyses run in tens of milliseconds)
#: yet bounded, so a pathological submission degrades instead of
#: wedging an admission slot.
DEFAULT_DEADLINE_MS = 10_000.0

#: Injected ``slow-client`` stall, seconds (bounded: chaos must never
#: look like a hang).
SLOW_CLIENT_STALL_S = 0.05


class ServeApp:
    """Shared state + request dispatch for the analysis service."""

    def __init__(
        self,
        *,
        store_path=None,
        max_inflight: int = 4,
        queue_depth: int = 16,
        queue_timeout_s: float = 1.0,
        default_deadline_ms: float = DEFAULT_DEADLINE_MS,
        max_deadline_ms: float | None = None,
        result_cache_size: int = 64,
    ):
        self.store = (
            PersistentStore(store_path) if store_path is not None else None
        )
        self.cache = SolverCache(store=self.store)
        # One service: the canonical-form cache is the layer the
        # persistent tier hangs off.  Concurrency comes from handler
        # threads sharing the service (the cache is lock-protected);
        # request isolation comes from per-request governors, not
        # per-request services.
        self.service = SolverService(cache=self.cache)
        self.registry = MetricsRegistry()
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            queue_depth=queue_depth,
            queue_timeout_s=queue_timeout_s,
        )
        self.default_deadline_ms = default_deadline_ms
        self.max_deadline_ms = max_deadline_ms
        self.result_cache_size = result_cache_size
        self.run_id = uuid.uuid4().hex[:12]
        self.started_at = time.time()
        self.draining = threading.Event()
        self._result_cache: OrderedDict = OrderedDict()
        self._result_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._request_counter = 0
        self.requests = 0
        self.responses: dict[str, int] = {
            "ok": 0,
            "degraded": 0,
            "error": 0,
            "invalid": 0,
            "rejected": 0,
        }
        self.result_cache_hits = 0
        self.faults_dropped = 0
        self.faults_slowed = 0

    # -- lifecycle -------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting new requests (readiness goes false)."""

        self.draining.set()

    def ready(self) -> bool:
        return not self.draining.is_set()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    # -- dispatch --------------------------------------------------------

    def handle(self, payload) -> tuple[int, dict]:
        """One request in, ``(http_status, response envelope)`` out.

        ``payload`` is the decoded JSON body (any shape) or raw bytes.
        This method never raises.
        """

        started = time.monotonic()
        with collecting(self.registry):
            self.requests += 1
            _metrics.inc("serve.requests")
            if isinstance(payload, (bytes, bytearray)):
                try:
                    payload = json.loads(payload.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as failure:
                    return self._done(
                        started, invalid(None, f"request is not JSON: {failure}")
                    )
            try:
                request = validate_request(payload)
            except ProtocolError as failure:
                request_id = None
                if isinstance(payload, dict):
                    candidate = payload.get("request_id")
                    if isinstance(candidate, str):
                        request_id = candidate
                return self._done(started, invalid(request_id, str(failure)))
            request_id = request["request_id"] or self._next_request_id()
            op = request["op"]

            # Cheap introspection ops bypass admission entirely: health
            # checks must answer while the queue is saturated.
            if op == "ping":
                return self._done(
                    started,
                    response("ok", request_id, ready=self.ready()),
                )
            if op == "stats":
                return self._done(
                    started, response("ok", request_id, stats=self.stats())
                )
            if op == "drain":
                self.drain()
                return self._done(
                    started, response("ok", request_id, draining=True)
                )

            if self.draining.is_set():
                return self._done(
                    started,
                    rejected(
                        request_id,
                        "draining",
                        self.admission.retry_after_ms(),
                    ),
                )

            plan = _faults.current_plan()
            if plan is not None and plan.maybe_serve(
                "serve.request", ("request-drop",)
            ):
                self.faults_dropped += 1
                _metrics.inc("serve.dropped")
                return self._done(
                    started,
                    rejected(
                        request_id,
                        "request-drop (injected)",
                        self.admission.retry_after_ms(),
                    ),
                )

            ticket = self.admission.admit()
            if ticket is None:
                return self._done(
                    started,
                    rejected(
                        request_id,
                        "overloaded",
                        self.admission.retry_after_ms(),
                    ),
                )
            with ticket:
                envelope = self._analysis_op(request, request_id)
            if plan is not None and plan.maybe_serve(
                "serve.respond", ("slow-client",)
            ):
                # A stalled client holds its connection, not the service:
                # the slot is already released, so the stall costs only
                # this response's latency.
                self.faults_slowed += 1
                _metrics.inc("serve.slow_clients")
                time.sleep(SLOW_CLIENT_STALL_S)
            return self._done(started, envelope, note_latency=True)

    def _done(
        self, started: float, envelope: dict, *, note_latency: bool = False
    ) -> tuple[int, dict]:
        elapsed = time.monotonic() - started
        envelope.setdefault("timing_ms", round(elapsed * 1000.0, 3))
        status = envelope["status"]
        self.responses[status] = self.responses.get(status, 0) + 1
        _metrics.observe("serve.request_seconds", elapsed)
        if status == "ok":
            _metrics.inc("serve.responses.ok")
        elif status == "degraded":
            _metrics.inc("serve.responses.degraded")
        elif status == "error":
            _metrics.inc("serve.responses.error")
        elif status == "invalid":
            _metrics.inc("serve.responses.invalid")
        if note_latency:
            self.admission.note_latency(elapsed)
        return HTTP_STATUS[status], envelope

    def _next_request_id(self) -> str:
        with self._counter_lock:
            self._request_counter += 1
            return f"{self.run_id}-r{self._request_counter}"

    # -- the analysis ops ------------------------------------------------

    def _analysis_op(self, request: dict, request_id: str) -> dict:
        """analyze / query, with the full degradation shield around it."""

        try:
            program = parse(request["program"], request["name"])
        except IRError as failure:
            return invalid(request_id, f"unparsable program: {failure}")
        except Exception as failure:  # noqa: BLE001 - invalid, not fatal
            return invalid(request_id, f"unparsable program: {failure}")

        try:
            options, options_key = self._build_options(request)
        except ValueError as failure:
            return invalid(request_id, str(failure))

        source_digest = hashlib.sha256(
            request["program"].encode()
        ).hexdigest()

        if request["op"] == "analyze":
            cached = self._result_cache_get((source_digest, options_key))
            if cached is not None:
                self.result_cache_hits += 1
                _metrics.inc("serve.result_cache.hits")
                envelope = dict(cached)
                envelope["request_id"] = request_id
                envelope["result_cache"] = "hit"
                return envelope
            _metrics.inc("serve.result_cache.misses")

        try:
            result = analyze(program, options)
        except Exception as failure:  # noqa: BLE001 - in-band, never a 500
            return response(
                "error",
                request_id,
                error=f"{type(failure).__name__}: {failure}",
                program=program.name,
            )

        degraded = result.degraded()
        status = "degraded" if degraded else "ok"
        body: dict = {
            "program": program.name,
            "result": result_to_dict(result),
            "degradations": [
                {
                    "subject": event.subject,
                    "kind": event.kind,
                    "site": event.site,
                    "budget": event.budget,
                    "answer": event.answer,
                }
                for event in (result.degradations or ())
            ],
        }
        if request["op"] == "query":
            src, dst = request["pair"]
            records = why_records(result, src, dst)
            if not records:
                return invalid(
                    request_id,
                    f"no provenance for pair {src!r} -> {dst!r}",
                )
            body["pair"] = list(request["pair"])
            body["provenance"] = [record.to_dict() for record in records]
        envelope = response(status, request_id, **body)
        if request["op"] == "analyze" and not degraded:
            # Degraded answers describe this run's budget, not the
            # program: caching them would keep serving load-shaped
            # results after the load has passed.
            self._result_cache_put((source_digest, options_key), envelope)
        if self.store is not None:
            self.store.flush()
        return envelope

    def _build_options(self, request: dict) -> tuple[AnalysisOptions, tuple]:
        requested = request["options"]
        try:
            assertions = tuple(
                parse_assertion(text)
                for text in requested.get("assertions", ())
            )
        except Exception as failure:  # noqa: BLE001 - invalid, not fatal
            raise ValueError(f"bad assertion: {failure}") from failure
        deadline = request.get("deadline_ms")
        if deadline is None:
            deadline = self.default_deadline_ms
        if self.max_deadline_ms is not None:
            deadline = min(deadline, self.max_deadline_ms)
        flags = {
            name: requested[name]
            for name in requested
            if name != "assertions"
        }
        if request["op"] == "query":
            flags["audit"] = True
        options = AnalysisOptions(
            assertions=assertions,
            solver=self.service,
            deadline_ms=deadline,
            policy="degrade",
            **flags,
        )
        options_key = (
            tuple(sorted(flags.items())),
            tuple(sorted(requested.get("assertions", ()))),
            deadline,
        )
        return options, options_key

    # -- the result cache ------------------------------------------------

    def _result_cache_get(self, key):
        with self._result_lock:
            entry = self._result_cache.get(key)
            if entry is not None:
                self._result_cache.move_to_end(key)
            return entry

    def _result_cache_put(self, key, envelope: dict) -> None:
        with self._result_lock:
            self._result_cache[key] = envelope
            self._result_cache.move_to_end(key)
            while len(self._result_cache) > self.result_cache_size:
                self._result_cache.popitem(last=False)

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """The /stats snapshot: every layer's counters in one place."""

        quantiles = {}
        histogram = self.registry.histograms.get("serve.request_seconds")
        if histogram is not None and histogram.count:
            quantiles = {
                "count": histogram.count,
                "p50": histogram.quantile(0.5),
                "p99": histogram.quantile(0.99),
                "max": histogram.max,
            }
        return {
            "run_id": self.run_id,
            "uptime_s": round(time.time() - self.started_at, 3),
            "ready": self.ready(),
            "requests": self.requests,
            "responses": dict(self.responses),
            "result_cache": {
                "hits": self.result_cache_hits,
                "size": len(self._result_cache),
                "maxsize": self.result_cache_size,
            },
            "faults": {
                "dropped": self.faults_dropped,
                "slowed": self.faults_slowed,
            },
            "request_seconds": quantiles,
            "admission": self.admission.stats(),
            "solver": self.service.stats(),
            "store": self.store.stats() if self.store is not None else None,
        }
