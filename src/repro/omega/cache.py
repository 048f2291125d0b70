"""Memoizing solver facade: a bounded LRU cache over canonical problems.

The extended dependence analysis issues many near-identical integer
programming subproblems — kill tests rebuild the same coupling systems per
array pair, refinement and covering project the same dependence problems,
and gist computations spin off swarms of tiny satisfiability tests.  Pugh &
Wonnacott observe that the Omega test stays fast in practice precisely
because most dependence problems are small and repetitive; this module
turns that repetition into cache hits.

Design:

* :class:`SolverCache` is a bounded LRU map keyed on the canonical form of
  a problem (:meth:`repro.omega.constraints.Problem.canonical` — GCD
  normalization, deduplication, alpha-renaming, sorted constraints), so
  structurally identical queries collide even when variable names differ
  (pair problems mint fresh wildcards on every rebuild).
* Activation is thread-local and scoped, exactly like ``collect_stats`` /
  ``repro.obs`` registries: ``with caching(SolverCache()):`` makes the
  cache visible to every solver entry point on the current thread.  The
  analysis engine installs one per :func:`repro.analysis.analyze` call by
  default (``AnalysisOptions(cache=False)`` or ``REPRO_NO_CACHE=1``
  disables it).
* The cached operations are the solver's public entry points —
  ``is_satisfiable``, ``project``, ``gist`` and ``implies_union`` — which
  consult :func:`current_cache` themselves, so both analysis-level queries
  and the solver's own internal re-queries share hits.  Results carrying
  variables (projections, gists) are stored in canonical variable space
  and translated back through the caller's renaming on every hit, so a hit
  from an alpha-equivalent problem still speaks the caller's names.

Results are bit-identical with the cache disabled: a miss computes and
returns the untouched result, and a hit returns a semantically equal
translation whose downstream consumers (satisfiability booleans, direction
vectors, implication tests) are order- and name-insensitive.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Sequence

from ..obs import metrics as _metrics
from .constraints import Constraint, Problem, canonicalize_problems
from .errors import BudgetExhausted, OmegaComplexityError
from .terms import LinearExpr, Variable, fresh_wildcard

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "SolverCache",
    "caching",
    "current_cache",
    "cache_enabled",
    "default_cache_enabled",
    "default_cache_size",
    "is_satisfiable",
    "project",
    "gist",
    "implies",
    "implies_union",
]

#: Default LRU capacity (entries), overridable via ``REPRO_CACHE_SIZE``.
DEFAULT_CACHE_SIZE = 4096

#: Sentinel distinguishing "not cached" from a cached ``None``/``False``.
MISSING = object()


def default_cache_enabled() -> bool:
    """Cache on unless ``REPRO_NO_CACHE`` is set to a truthy value."""

    return os.environ.get("REPRO_NO_CACHE", "0").strip().lower() not in (
        "1",
        "true",
        "yes",
        "on",
    )


def default_cache_size() -> int:
    """LRU capacity from ``REPRO_CACHE_SIZE`` (default 4096 entries)."""

    raw = os.environ.get("REPRO_CACHE_SIZE", "").strip()
    if raw.isdigit() and int(raw) > 0:
        return int(raw)
    return DEFAULT_CACHE_SIZE


class Raised:
    """A cached complexity failure: replayed as the same exception.

    Carries the structured fields of :class:`OmegaComplexityError` so a
    replay is indistinguishable from the original raise.  ``exhausted``
    marks a :class:`~repro.omega.errors.BudgetExhausted` — such entries are
    used only for in-flight replay (batch cells, single-flight futures),
    never stored in a cache: a deadline failure describes the run, not the
    problem.
    """

    __slots__ = ("message", "site", "budget", "limit", "spent", "exhausted")

    def __init__(
        self,
        message: str,
        *,
        site: str | None = None,
        budget: str | None = None,
        limit: float | None = None,
        spent: float | None = None,
        exhausted: bool = False,
    ):
        self.message = message
        self.site = site
        self.budget = budget
        self.limit = limit
        self.spent = spent
        self.exhausted = exhausted

    @classmethod
    def from_exception(cls, exc: OmegaComplexityError) -> "Raised":
        return cls(
            exc.message,
            site=exc.site,
            budget=exc.budget,
            limit=exc.limit,
            spent=exc.spent,
            exhausted=isinstance(exc, BudgetExhausted),
        )

    def rebuild(self) -> OmegaComplexityError:
        """The exception this entry replays."""

        if self.exhausted:
            return BudgetExhausted(
                self.message,
                site=self.site or "unknown",
                budget=self.budget or "unknown",
                limit=self.limit,
                spent=self.spent,
            )
        return OmegaComplexityError(
            self.message,
            site=self.site,
            budget=self.budget,
            limit=self.limit,
            spent=self.spent,
        )


def unwrap(entry):
    """Return a cached value, re-raising cached complexity failures."""

    if isinstance(entry, Raised):
        raise entry.rebuild()
    return entry


class SolverCache:
    """A bounded LRU result cache for Omega solver queries.

    Activation is per-thread (see :func:`caching`), mirroring the
    metrics/tracing scoping, but the serve daemon's handler threads share
    one cache, so the LRU bookkeeping itself is lock-protected.

    An optional ``store`` (duck-typed on
    :class:`repro.omega.store.PersistentStore`: ``get`` returning
    ``MISSING`` on absence, ``put``, ``stats``) adds a persistent second
    tier: a memory miss consults the store and promotes its hit into the
    LRU; every put writes through.  The store holds canonical-space
    values — exactly what the LRU holds — so a store hit thaws through
    the same translation path and stays bit-identical.  Store failures
    are the store's problem (it degrades to misses), never the
    caller's.
    """

    __slots__ = (
        "maxsize",
        "hits",
        "misses",
        "evictions",
        "store",
        "_entries",
        "_lock",
    )

    def __init__(self, maxsize: int | None = None, store=None):
        self.maxsize = maxsize if maxsize is not None else default_cache_size()
        if self.maxsize <= 0:
            raise ValueError("cache size must be positive")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store = store
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The cached entry for ``key``, or :data:`MISSING`."""

        with self._lock:
            entry = self._entries.get(key, MISSING)
            if entry is MISSING:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is MISSING:
            _metrics.inc("omega.cache.misses")
            if self.store is not None:
                entry = self.store.get(key)
                if entry is not MISSING:
                    # Promote without re-writing through (it came from
                    # the store; put() would bounce it straight back).
                    self._promote(key, entry)
                    return entry
            return MISSING
        _metrics.inc("omega.cache.hits")
        return entry

    def _promote(self, key, value) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        for _ in range(evicted):
            _metrics.inc("omega.cache.evictions")

    def put(self, key, value) -> None:
        self._promote(key, value)
        if self.store is not None:
            self.store.put(key, value)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """A plain-dict snapshot of the cache counters."""

        snapshot = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }
        if self.store is not None:
            snapshot["store"] = self.store.stats()
        return snapshot


class _ActiveCaches(threading.local):
    def __init__(self) -> None:
        self.stack: list[SolverCache] = []


_active = _ActiveCaches()


def current_cache() -> SolverCache | None:
    """The innermost active cache on this thread, or None."""

    stack = _active.stack
    return stack[-1] if stack else None


def cache_enabled() -> bool:
    """True when a solver cache is active on this thread."""

    return bool(_active.stack)


@contextmanager
def caching(cache: SolverCache | None = None) -> Iterator[SolverCache]:
    """Activate a solver cache for the enclosed calls (on this thread).

    >>> from repro.omega import Problem, Variable, is_satisfiable
    >>> p = Problem().add_bounds(0, Variable("x"), 5)
    >>> with caching() as cache:
    ...     first = is_satisfiable(p)
    ...     again = is_satisfiable(p.copy())
    >>> (first, again, cache.hits)
    (True, True, 1)
    """

    cache = cache if cache is not None else SolverCache()
    _active.stack.append(cache)
    try:
        yield cache
    finally:
        _active.stack.pop()


# ---------------------------------------------------------------------------
# Canonical-space translation of results that carry variables
# ---------------------------------------------------------------------------


def _rename_expr(expr: LinearExpr, mapping: dict) -> LinearExpr:
    return LinearExpr(
        {mapping.get(v, v): coeff for v, coeff in expr.terms.items()},
        expr.constant,
    )


def _rename_problem(problem: Problem, mapping: dict, name: str | None = None) -> Problem:
    return Problem(
        (
            Constraint(_rename_expr(c.expr, mapping), c.relation)
            for c in problem.constraints
        ),
        name if name is not None else problem.name,
    )


def freeze_problems(
    problems: Sequence[Problem], rename: dict
) -> tuple[Problem, ...]:
    """Translate result problems into canonical variable space for storage.

    ``rename`` covers every variable of the *input* problem; variables a
    result picked up along the way (stride wildcards minted during
    elimination) are assigned reserved ``__w{i}`` wildcard slots so stored
    entries never leak a live wildcard name into another caller's problem.
    """

    mapping = dict(rename)
    fresh_index = 0
    for problem in problems:
        for constraint in problem.constraints:
            for var in constraint.expr.terms:
                if var not in mapping:
                    mapping[var] = Variable(f"__w{fresh_index}", var.kind)
                    fresh_index += 1
    return tuple(_rename_problem(p, mapping) for p in problems)


def thaw_problems(
    problems: Sequence[Problem], inverse: dict, name: str | None = None
) -> list[Problem]:
    """Translate stored canonical-space problems into a caller's variables.

    Reserved ``__w{i}`` slots (and any other canonical variable the caller
    does not map) materialize as fresh wildcards, one per retrieval, so two
    hits on the same entry never share existential variables.
    """

    mapping = dict(inverse)
    for problem in problems:
        for constraint in problem.constraints:
            for var in constraint.expr.terms:
                if var not in mapping:
                    mapping[var] = fresh_wildcard("cache")
    return [_rename_problem(p, mapping, name) for p in problems]


# ---------------------------------------------------------------------------
# The facade: analysis layers import solver entry points from here
# ---------------------------------------------------------------------------
#
# The underlying entry points in repro.omega.{solve,project,gist} consult
# current_cache() themselves, so these wrappers add no second cache layer;
# they exist so every layer that issues Omega queries routes through one
# import point that documents (and guarantees) memoized behavior.  Imports
# are deferred because those modules import this one at load time.


def is_satisfiable(problem: Problem) -> bool:
    """Memoizing facade over :func:`repro.omega.solve.is_satisfiable`."""

    from .solve import is_satisfiable as _impl

    return _impl(problem)


def project(problem: Problem, keep):
    """Memoizing facade over :func:`repro.omega.project.project`."""

    from .project import project as _impl

    return _impl(problem, keep)


def gist(p: Problem, q: Problem, **kwargs) -> Problem:
    """Memoizing facade over :func:`repro.omega.gist.gist`."""

    from .gist import gist as _impl

    return _impl(p, q, **kwargs)


def implies(q: Problem, p: Problem) -> bool:
    """Memoizing facade over :func:`repro.omega.gist.implies`."""

    from .gist import implies as _impl

    return _impl(q, p)


def implies_union(p: Problem, pieces: list[Problem], **kwargs) -> bool:
    """Memoizing facade over :func:`repro.omega.gist.implies_union`."""

    from .gist import implies_union as _impl

    return _impl(p, pieces, **kwargs)


# -- cache key construction (used by the solver entry points) ---------------


def sat_key(canonical) -> tuple:
    return ("sat", canonical.key)


def project_key(canonical, kept) -> tuple:
    present = tuple(
        sorted(canonical.indices[v] for v in kept if v in canonical.indices)
    )
    return ("project", canonical.key, present)


def gist_key(joint, stop_if_not_true: bool, use_fast_checks: bool) -> tuple:
    return ("gist", joint.key, stop_if_not_true, use_fast_checks)


def union_key(joint, max_cubes: int) -> tuple:
    return ("union", joint.key, max_cubes)
