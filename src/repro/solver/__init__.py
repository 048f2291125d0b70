"""repro.solver — the service boundary between analysis and the Omega core.

Analysis code never imports :mod:`repro.omega.cache` or
:mod:`repro.omega.solve` directly.  It imports this package, which routes
every query through the innermost active :class:`SolverService` (see
:meth:`SolverService.activate`), where it can be deduplicated, cached,
batched and governed.  When no service is active (scripts, doctests,
ad-hoc use) the module functions fall back to the omega memoizing facade,
so they behave exactly like the functions they replaced.

The vocabulary:

- :class:`SolverQuery` — one declarative query (SAT / PROJECT / GIST /
  IMPLIES) with an identity :meth:`~SolverQuery.key`.
- :class:`SolverService` — the broker: scalar facades, ``submit_batch``,
  ``sat_batch`` and ``map`` for counted per-read task loops.
- Module-level ``is_satisfiable`` / ``project`` / ``gist`` / ``implies`` /
  ``implies_union`` / ``satisfiable_batch`` / ``submit_batch`` — the
  drop-in call-site API that dispatches to the current service.
"""

from __future__ import annotations

from typing import Sequence

from ..omega import cache as _ocache
from ..omega.cache import default_cache_enabled, default_cache_size
from ..omega.constraints import Problem
from ..omega.redblack import gist_of_projection
from .plan import PlanSpace, PlanState
from .queries import QueryKind, SolverQuery, problem_key
from .service import SolverService, current_service

__all__ = [
    "PlanSpace",
    "PlanState",
    "QueryKind",
    "SolverQuery",
    "SolverService",
    "current_service",
    "default_cache_enabled",
    "default_cache_size",
    "gist",
    "gist_of_projection",
    "implies",
    "implies_union",
    "is_satisfiable",
    "problem_key",
    "project",
    "satisfiable_batch",
    "submit_batch",
]


def is_satisfiable(problem: Problem) -> bool:
    """Is ``problem`` satisfiable? (through the current service)"""

    service = current_service()
    if service is not None:
        return service.sat(problem)
    return _ocache.is_satisfiable(problem)


def project(problem: Problem, keep):
    """Project ``problem`` onto ``keep`` (through the current service)."""

    service = current_service()
    if service is not None:
        return service.project(problem, keep)
    return _ocache.project(problem, keep)


def gist(p: Problem, q: Problem, **kwargs) -> Problem:
    """``gist p given q`` (through the current service)."""

    service = current_service()
    if service is not None:
        return service.gist(p, q, **kwargs)
    return _ocache.gist(p, q, **kwargs)


def implies(q: Problem, p: Problem) -> bool:
    """Does ``q`` imply ``p``? (through the current service)"""

    service = current_service()
    if service is not None:
        return service.implies(q, p)
    return _ocache.implies(q, p)


def implies_union(p: Problem, pieces, **kwargs) -> bool:
    """Does ``p`` imply the union of ``pieces``? (through the service)"""

    service = current_service()
    if service is not None:
        return service.implies_union(p, pieces, **kwargs)
    return _ocache.implies_union(p, list(pieces), **kwargs)


def satisfiable_batch(problems: Sequence[Problem]) -> list[bool]:
    """Batched satisfiability: one bool per problem, in order.

    With an active service duplicate problems are solved once.
    """

    service = current_service()
    if service is not None:
        return service.sat_batch(problems)
    return [_ocache.is_satisfiable(problem) for problem in problems]


def submit_batch(queries: Sequence[SolverQuery]) -> list:
    """Execute declarative queries; results in submission order."""

    service = current_service()
    if service is not None:
        return service.submit_batch(queries)
    return [query.execute() for query in queries]
