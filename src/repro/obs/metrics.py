"""Metrics registry: counters, gauges and fixed-bucket histograms.

Any layer of the pipeline records named metrics through the module-level
:func:`inc` / :func:`observe` / :func:`set_gauge` helpers, and every
registry pushed with :func:`collecting` on the *current thread* receives
them.  Outside any ``collecting`` block the helpers return immediately, so
instrumented hot paths pay a single (thread-local) list check when metrics
are disabled.

Registries pre-register the :data:`CATALOG` of well-known pipeline counters
at zero, so exported snapshots always carry the full schema even when a
run never touched a counter (a ``kills_succeeded: 0`` is information; a
missing key is not).

Scoping is per-thread by design (a ``threading.local`` stack, mirroring the
span stack in :mod:`repro.obs.trace`): registries active on one thread
never see work done on another, which keeps concurrent analyses from
bleeding counts into each other.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = [
    "CATALOG",
    "DEFAULT_BUCKETS",
    "GAUGES",
    "LATENCY_HISTOGRAMS",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "current_registry",
    "enabled",
    "inc",
    "observe",
    "set_gauge",
]

#: Bucket upper bounds (seconds) for timing histograms; the final implicit
#: bucket is +inf.  Fixed boundaries keep snapshots diffable across runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Well-known counters, pre-registered at zero in every registry.
CATALOG: tuple[str, ...] = (
    # Omega solver core (repro.omega.solve).
    "omega.satisfiability_tests",
    "omega.eliminations",
    "omega.inexact_eliminations",
    "omega.splinters_examined",
    "omega.dark_shadow_hits",
    "omega.real_shadow_refutations",
    # Satisfiability tests decided by normalization and peeling alone.
    "omega.sat_predecided",
    # Elimination machinery.
    "omega.fm_calls",
    "omega.fm_inexact",
    "omega.fm_splinters_generated",
    "omega.equality_substitutions",
    # Projection.
    "omega.projections",
    "omega.projection_pieces",
    "omega.projections_splintered",
    "omega.projections_inexact",
    # Gists / implications.
    "omega.gists",
    "omega.gist_simplifications",
    "omega.gist_naive_tests",
    # Solver result cache (repro.omega.cache).
    "omega.cache.hits",
    "omega.cache.misses",
    "omega.cache.evictions",
    # Solver service boundary (repro.solver).
    "solver.queries",
    # Query planner (repro.analysis.plan).
    "solver.plan.base_systems",
    "solver.plan.base_reused",
    "solver.plan.cores_built",
    "solver.plan.cores_reused",
    "solver.plan.prefix_extensions",
    "solver.plan.prefix_reuses",
    "solver.plan.interval_answers",
    # Resource governance (repro.guard).
    "guard.budget_exhausted",
    "guard.degradations",
    "guard.faults_injected",
    # Analysis pipeline.
    "analysis.pairs_analyzed",
    "analysis.dependences_found",
    "analysis.refinements_attempted",
    "analysis.refinements_applied",
    "analysis.covers_tested",
    "analysis.covers_found",
    "analysis.cover_quick_rejects",
    "analysis.terminators_found",
    "analysis.kills_attempted",
    "analysis.kills_succeeded",
    "analysis.kill_quick_rejects",
    "analysis.kill_joins",
    "analysis.kill_omega_tests",
    "analysis.deps_killed",
    "analysis.deps_covered",
    # Precision audit (repro.obs.audit; AnalysisOptions(audit=True)).
    "omega.precision.records",
    "omega.precision.reported",
    "omega.precision.eliminated",
    "omega.precision.independent",
    "omega.precision.inexact",
    # Persistent solver store (repro.omega.store).
    "omega.store.hits",
    "omega.store.misses",
    "omega.store.writes",
    "omega.store.errors",
    "omega.store.quarantines",
    "omega.store.cold_resets",
    # Serve daemon (repro.serve).
    "serve.requests",
    "serve.responses.ok",
    "serve.responses.degraded",
    "serve.responses.error",
    "serve.responses.invalid",
    "serve.rejected",
    "serve.dropped",
    "serve.slow_clients",
    "serve.result_cache.hits",
    "serve.result_cache.misses",
)

#: Well-known gauges.  Gauges are point-in-time values, so they are not
#: pre-registered at zero (a missing gauge means "never sampled", which
#: is different from "sampled as zero").
GAUGES: tuple[str, ...] = (
    "omega.cache.size",
    "serve.inflight",
)

#: Well-known latency histograms (seconds), fed from span durations at the
#: instrumented sites whenever a registry is collecting — with or without
#: a tracer.  Quantiles come from :meth:`Histogram.quantile`.
LATENCY_HISTOGRAMS: tuple[str, ...] = (
    "omega.sat_seconds",
    "omega.fm_seconds",
    "omega.project_seconds",
    "omega.gist_seconds",
    "analysis.pair_seconds",
    "analysis.kill_seconds",
    "analysis.refine_seconds",
    "analysis.cover_seconds",
    "analysis.analyze_seconds",
    "serve.request_seconds",
)


class Histogram:
    """A fixed-boundary histogram of float observations."""

    __slots__ = ("boundaries", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, boundaries: Iterable[float] = DEFAULT_BUCKETS):
        self.boundaries = tuple(boundaries)
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("histogram boundaries must be sorted")
        # One bucket per boundary ("value <= boundary") plus the +inf bucket.
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.boundaries):
            if value <= bound:
                self.bucket_counts[index] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile by linear interpolation in buckets.

        Within the bucket containing the target rank the mass is assumed
        uniform; the first bucket's lower edge and the implicit overflow
        bucket's upper edge come from the tracked ``min`` / ``max``, and
        the result is clamped to ``[min, max]``.  Returns ``None`` on an
        empty histogram.
        """

        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        rank = q * self.count
        cumulative = 0
        for index, in_bucket in enumerate(self.bucket_counts):
            if in_bucket == 0:
                continue
            if cumulative + in_bucket >= rank:
                lower = self.boundaries[index - 1] if index > 0 else self.min
                upper = (
                    self.boundaries[index]
                    if index < len(self.boundaries)
                    else self.max
                )
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return max(min(lower, self.max), self.min)
                fraction = (rank - cumulative) / in_bucket
                value = lower + (upper - lower) * fraction
                return max(min(value, self.max), self.min)
            cumulative += in_bucket
        return self.max

    def merge(self, other: "Histogram") -> None:
        if other.boundaries != self.boundaries:
            raise ValueError("cannot merge histograms with different buckets")
        for index, found in enumerate(other.bucket_counts):
            self.bucket_counts[index] += found
        self.count += other.count
        self.total += other.total
        for bound in ("min", "max"):
            theirs = getattr(other, bound)
            if theirs is None:
                continue
            ours = getattr(self, bound)
            pick = min if bound == "min" else max
            setattr(self, bound, theirs if ours is None else pick(ours, theirs))

    def to_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms for one collection scope."""

    def __init__(self, catalog: Iterable[str] = CATALOG):
        self.counters: dict[str, int] = dict.fromkeys(catalog, 0)
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        # A registry shared by the serve daemon's handler threads receives
        # records from several threads at once; the lock keeps updates
        # atomic.
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        boundaries: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(boundaries)
            histogram.observe(value)

    # -- reading --------------------------------------------------------
    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def merge(self, other: "MetricsRegistry") -> None:
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, histogram in other.histograms.items():
            ours = self.histograms.get(name)
            if ours is None:
                ours = self.histograms[name] = Histogram(histogram.boundaries)
            ours.merge(histogram)

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """A plain-text summary table of every non-trivial metric.

        Ordering is a contract: counters, then gauges, then histograms,
        each section sorted by name — so ``--stats`` output, run-record
        snapshots and diffs are stable across runs.
        """

        width = max(
            [len(name) for name in self.counters]
            + [len(name) for name in self.gauges]
            + [len(name) for name in self.histograms]
            + [len("metric")]
        )
        lines = [f"{'metric':<{width}}  value", "-" * (width + 12)]
        for name, value in sorted(self.counters.items()):
            lines.append(f"{name:<{width}}  {value}")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"{name:<{width}}  {value:g}")
        for name, histogram in sorted(self.histograms.items()):
            p50 = histogram.quantile(0.5) or 0.0
            p99 = histogram.quantile(0.99) or 0.0
            lines.append(
                f"{name:<{width}}  count={histogram.count}"
                f" p50={p50:.3g}s p99={p99:.3g}s"
                f" max={histogram.max or 0:.3g}s"
            )
        return "\n".join(lines)


class _RegistryStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[MetricsRegistry] = []


_registries = _RegistryStack()


def enabled() -> bool:
    """True when at least one registry is collecting on this thread."""

    return bool(_registries.stack)


def current_registry() -> MetricsRegistry | None:
    """The innermost active registry on this thread, or None."""

    stack = _registries.stack
    return stack[-1] if stack else None


@contextmanager
def collecting(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Collect metrics recorded by the enclosed calls (on this thread)."""

    registry = registry if registry is not None else MetricsRegistry()
    _registries.stack.append(registry)
    try:
        yield registry
    finally:
        _registries.stack.pop()


def inc(name: str, amount: int = 1) -> None:
    """Bump a counter in every active registry (no-op when disabled)."""

    stack = _registries.stack
    if not stack:
        return
    for registry in stack:
        registry.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge in every active registry (no-op when disabled)."""

    stack = _registries.stack
    if not stack:
        return
    for registry in stack:
        registry.set_gauge(name, value)


def observe(
    name: str, value: float, boundaries: Iterable[float] = DEFAULT_BUCKETS
) -> None:
    """Record one histogram sample in every active registry (no-op when
    disabled)."""

    stack = _registries.stack
    if not stack:
        return
    for registry in stack:
        registry.observe(name, value, boundaries)
