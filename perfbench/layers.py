"""The traced run: span wrappers at layer boundaries and the layer table.

Spans come from two places, and nothing is added to ``src/``:

* the program's existing ``repro.obs`` spans (``analysis.*``,
  ``solver.query``/``solver.batch``, ``omega.is_satisfiable``,
  ``omega.eliminate_equalities``, ``omega.fourier_motzkin``,
  ``omega.project``, ``omega.gist``);
* wrappers installed here, for the duration of a traced pass only,
  around public entry points: ``parse`` and ``analyze`` as the serve app
  calls them, ``analyze`` as the engine module exports it, the
  ``SolverService`` query methods, ``Problem.canonical`` and
  ``canonicalize_problems``, ``SolverCache.get``/``put``,
  ``PersistentStore.get``/``put``/``flush``, ``AdmissionController.admit``,
  ``ServeApp.handle`` and the gist module's ``implies``/``implies_union``.

A layer's self time is the time its spans are open minus the time their
direct child spans are open; the self times of all layers plus
``trace.unattributed_s`` add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict

from repro.obs import MetricsRegistry, Tracer, collecting, span, tracing

#: Wrapped callables: (module, owner attribute or None, attribute, span).
#: With an owner, the attribute is a method of that class.
WRAPPED = (
    ("repro.serve.app", None, "parse", "ir.parse"),
    ("repro.serve.app", None, "analyze", "analysis.entry"),
    ("repro.analysis.engine", None, "analyze", "analysis.entry"),
    *(
        ("repro.solver.service", "SolverService", method, f"solver.{method}")
        for method in (
            "sat", "project", "gist", "implies", "implies_union",
            "submit_batch", "sat_batch",
        )
    ),
    ("repro.omega.constraints", "Problem", "canonical", "cache.canonical"),
    ("repro.omega.gist", None, "canonicalize_problems", "cache.canonical"),
    ("repro.omega.cache", "SolverCache", "get", "cache.get"),
    ("repro.omega.cache", "SolverCache", "put", "cache.put"),
    ("repro.omega.store", "PersistentStore", "get", "store.get"),
    ("repro.omega.store", "PersistentStore", "put", "store.put"),
    ("repro.omega.store", "PersistentStore", "flush", "store.flush"),
    ("repro.serve.admission", "AdmissionController", "admit", "serve.admit"),
    ("repro.serve.app", "ServeApp", "handle", "serve.handle"),
    ("repro.omega.gist", None, "implies", "omega.implies"),
    ("repro.omega.gist", None, "implies_union", "omega.implies"),
)

#: Span name -> the layer metric its self time is charged to.  Spans
#: not listed here (and time outside every span) are unattributed.
SPAN_LAYER = {
    "ir.parse": "ir.parse_s",
    "omega.eliminate_equalities": "omega.eliminate_s",
    "omega.fourier_motzkin": "omega.fm_s",
    "omega.is_satisfiable": "omega.sat_s",
    "omega.project": "omega.project_s",
    "omega.gist": "omega.gist_s",
    "omega.implies": "omega.gist_s",
    "cache.canonical": "cache.canon_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "store.flush": "store.put_s",
    "serve.admit": "serve.admit_wait_s",
    "serve.handle": "serve.handle_self_s",
}
PREFIX_LAYER = {"analysis.": "analysis.self_s", "solver.": "solver.self_s"}

#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "ir.parse_s": "s",
    "analysis.self_s": "s",
    "analysis.pairs": "count",
    "plan.core_reuse_frac": "ratio",
    "plan.fallbacks": "count",
    "solver.calls": "count",
    "solver.self_s": "s",
    "solver.memo_hit_frac": "ratio",
    "omega.eliminate_s": "s",
    "omega.eliminate_calls": "count",
    "omega.fm_s": "s",
    "omega.fm_calls": "count",
    "omega.sat_s": "s",
    "omega.project_s": "s",
    "omega.gist_s": "s",
    "cache.canon_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_frac": "ratio",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hit_frac": "ratio",
    "store.writes": "count",
    "serve.admit_wait_s": "s",
    "serve.handle_self_s": "s",
    "serve.result_cache_hit_frac": "ratio",
    "serve.unchanged_pair_frac": "ratio",
    "guard.degradations": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_of(span_name: str) -> str | None:
    if span_name in SPAN_LAYER:
        return SPAN_LAYER[span_name]
    for prefix, layer in PREFIX_LAYER.items():
        if span_name.startswith(prefix):
            return layer
    return None


class SelfTimeTracer(Tracer):
    """A tracer that keeps per-span-name self time instead of events.

    Spans are recorded at exit, children before their parent, so the
    durations of depth ``d + 1`` spans recorded since the last depth
    ``d`` span on a thread are exactly that span's direct children.
    Memory stays constant however many spans a pass opens.
    """

    def __init__(self) -> None:
        super().__init__()
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._children: dict[tuple[int, int], float] = {}

    def record(self, event) -> None:
        children = self._children.pop((event.thread_id, event.depth + 1), 0.0)
        self.self_time[event.name] += event.duration - children
        self.calls[event.name] += 1
        if event.depth:
            key = (event.thread_id, event.depth)
            self._children[key] = self._children.get(key, 0.0) + event.duration


def _traced(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def wrappers_installed():
    """Install every wrapper in :data:`WRAPPED`; restore on exit."""

    restore = []
    try:
        for module_name, owner_name, attribute, name in WRAPPED:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attribute]
            restore.append((owner, attribute, original))
            setattr(owner, attribute, _traced(original, name))
        yield
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


@contextlib.contextmanager
def traced():
    """Trace the enclosed calls: yields ``(tracer, registry)``."""

    tracer = SelfTimeTracer()
    registry = MetricsRegistry()
    with wrappers_installed(), collecting(registry), tracing(tracer):
        yield tracer, registry


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_table(
    tracer: SelfTimeTracer,
    registry: MetricsRegistry,
    passes: int,
    *,
    scale: float,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    """Per-pass layer metrics from one or more traced passes.

    ``traced_wall`` is the mean traced pass wall time and
    ``untraced_wall`` the mean untraced one, both scaled to the nominal
    host; span times are scaled by ``scale``.  Times and counts are
    totals divided by ``passes``, so the ``*_s`` layers plus
    ``trace.unattributed_s`` add up to ``trace.wall_s``.
    """

    count = registry.counter
    table = dict.fromkeys(LAYER_METRICS, 0.0)
    for name, seconds in tracer.self_time.items():
        layer = layer_of(name)
        if layer is not None:
            table[layer] += seconds * scale / passes
    cores = count("solver.plan.cores_reused") + count("solver.plan.cores_built")
    cache = count("omega.cache.hits") + count("omega.cache.misses")
    store = count("omega.store.hits") + count("omega.store.misses")
    results = count("serve.result_cache.hits") + count("serve.result_cache.misses")
    pairs = count("serve.incremental.pairs_reused") + count(
        "serve.incremental.pairs_changed"
    )
    table.update(
        {
            "analysis.pairs": count("analysis.pairs_analyzed") / passes,
            "plan.core_reuse_frac": _ratio(count("solver.plan.cores_reused"), cores),
            "plan.fallbacks": count("solver.plan.fallbacks") / passes,
            "solver.calls": count("solver.queries") / passes,
            # Serial services have no identity memo, so this is the share
            # of queries answered by batch de-duplication (plus memo hits
            # when a pipelined service is in use).
            "solver.memo_hit_frac": _ratio(
                count("solver.memo.hits") + count("solver.batch.dedup_hits"),
                count("solver.queries"),
            ),
            "omega.eliminate_calls": tracer.calls["omega.eliminate_equalities"] / passes,
            "omega.fm_calls": tracer.calls["omega.fourier_motzkin"] / passes,
            "cache.hit_frac": _ratio(count("omega.cache.hits"), cache),
            "store.hit_frac": _ratio(count("omega.store.hits"), store),
            "store.writes": count("omega.store.writes") / passes,
            "serve.result_cache_hit_frac": _ratio(
                count("serve.result_cache.hits"), results
            ),
            "serve.unchanged_pair_frac": _ratio(
                count("serve.incremental.pairs_reused"), pairs
            ),
            "guard.degradations": count("guard.degradations") / passes,
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    attributed = sum(
        table[layer] for layer in set(SPAN_LAYER.values()) | set(PREFIX_LAYER.values())
    )
    table["trace.unattributed_s"] = traced_wall - attributed
    return table
