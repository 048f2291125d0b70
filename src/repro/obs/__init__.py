"""Observability for the Omega pipeline: spans, metrics, explain mode.

Zero-dependency and disabled by default — instrumented call sites in
``repro.omega`` and ``repro.analysis`` pay one thread-local check when
nothing is collecting.  Three cooperating parts:

``repro.obs.trace``
    ``span("omega.project", ...)`` context managers with thread-local span
    stacks and nesting, recorded by a :class:`Tracer` activated with
    :func:`tracing`; exports Chrome-trace/Perfetto JSON.
``repro.obs.metrics``
    A :class:`MetricsRegistry` of counters, gauges and fixed-bucket
    histograms, activated with :func:`collecting`; the Omega solver's
    counters are its ``omega.*`` metrics.
``repro.obs.explain``
    The structured per-dependence decision trail behind
    ``analyze(..., AnalysisOptions(explain=True))`` and the CLI's
    ``--explain`` flag.

Typical use::

    from repro.obs import MetricsRegistry, Tracer, collecting, tracing

    with collecting() as registry, tracing() as tracer:
        result = analyze(program)
    tracer.write_chrome_trace("trace.json")
    print(registry.summary())
"""

from .audit import (
    AuditLog,
    ProvenanceRecord,
    QueryFootprint,
    auditing,
    current_audit,
)
from .explain import Decision, ExplainLog
from .metrics import _registries as _metric_registries
from .metrics import (
    CATALOG,
    DEFAULT_BUCKETS,
    LATENCY_HISTOGRAMS,
    Histogram,
    MetricsRegistry,
    collecting,
    current_registry,
    inc,
    observe,
    set_gauge,
)
from .metrics import enabled as metrics_enabled
from .trace import (
    Span,
    SpanEvent,
    Tracer,
    chrome_trace,
    current_tracer,
    span,
    tracing,
)
from .trace import _state as _trace_state
from .trace import active as tracing_active


def off() -> bool:
    """True when neither tracing nor metrics is active on this thread.

    The single check hot wrappers make before taking their instrumented
    path; one call plus two thread-local list tests when everything is
    disabled.
    """

    return not _trace_state.tracers and not _metric_registries.stack


__all__ = [
    "off",
    # trace
    "Span",
    "SpanEvent",
    "Tracer",
    "chrome_trace",
    "current_tracer",
    "span",
    "tracing",
    "tracing_active",
    # metrics
    "metrics_enabled",
    "CATALOG",
    "DEFAULT_BUCKETS",
    "LATENCY_HISTOGRAMS",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "current_registry",
    "inc",
    "observe",
    "set_gauge",
    # explain
    "Decision",
    "ExplainLog",
    # audit
    "AuditLog",
    "ProvenanceRecord",
    "QueryFootprint",
    "auditing",
    "current_audit",
]
