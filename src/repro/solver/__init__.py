"""repro.solver — the service boundary between analysis and the Omega core.

Analysis code never imports :mod:`repro.omega.cache` or
:mod:`repro.omega.solve` directly.  It imports this package, which routes
every query through the innermost active :class:`SolverService` (see
:meth:`SolverService.activate`), where it is cached and governed.  When no
service is active (scripts, doctests, ad-hoc use) the module functions
call the omega entry points directly, which still consult an active
``caching(...)`` scope.

The vocabulary:

- :class:`SolverQuery` — one declarative SAT or PROJECT query, so a call
  site can hand a list of them to ``submit_batch``.
- :class:`SolverService` — the governance shim: one governed scalar call
  per primitive; ``sat_batch`` and ``submit_batch`` are in-order loops
  over those calls.
- Module-level ``is_satisfiable`` / ``project`` / ``gist`` / ``implies`` /
  ``implies_union`` / ``satisfiable_batch`` / ``submit_batch`` — the
  drop-in call-site API that dispatches to the current service;
  ``gist_of_projection`` (Section 3.3.2) is three of those calls.

The query planner that pre-reduces the problems analysis submits lives
on the analysis side, in :mod:`repro.analysis.plan`; its reductions are
rewrites with no answer of their own, so they do not cross this boundary.
"""

from __future__ import annotations

from typing import Sequence

from ..omega.cache import current_cache
from ..omega.constraints import Problem
from ..omega.gist import gist as _gist
from ..omega.gist import implies as _implies
from ..omega.gist import implies_union as _implies_union
from ..omega.project import project as _project
from ..omega.solve import is_satisfiable as _is_satisfiable
from .queries import QueryKind, SolverQuery
from .service import SolverService, current_service

__all__ = [
    "QueryKind",
    "SolverQuery",
    "SolverService",
    "current_cache",
    "current_service",
    "gist",
    "gist_of_projection",
    "implies",
    "implies_union",
    "is_satisfiable",
    "project",
    "satisfiable_batch",
    "submit_batch",
]


def is_satisfiable(problem: Problem) -> bool:
    """Is ``problem`` satisfiable? (through the current service)"""

    service = current_service()
    if service is not None:
        return service.sat(problem)
    return _is_satisfiable(problem)


def project(problem: Problem, keep):
    """Project ``problem`` onto ``keep`` (through the current service)."""

    service = current_service()
    if service is not None:
        return service.project(problem, keep)
    return _project(problem, keep)


def gist(p: Problem, q: Problem, **kwargs) -> Problem:
    """``gist p given q`` (through the current service)."""

    service = current_service()
    if service is not None:
        return service.gist(p, q, **kwargs)
    return _gist(p, q, **kwargs)


def gist_of_projection(p: Problem, q: Problem, keep) -> Problem:
    """``gist pi_keep(p and q) given pi_keep(p)`` (Section 3.3.2).

    Three queries through the current service: the projections of ``p``
    and of ``p and q`` onto ``keep``, each as one conjunction (the real
    shadow when it is inexact, so the answer stays conservative), and the
    gist of the second given the first.
    """

    context, _ = project(p, keep).single()
    combined, _ = project(p.conjoin(q), keep).single()
    return gist(combined, context)


def implies(q: Problem, p: Problem) -> bool:
    """Does ``q`` imply ``p``? (through the current service)"""

    service = current_service()
    if service is not None:
        return service.implies(q, p)
    return _implies(q, p)


def implies_union(p: Problem, pieces, **kwargs) -> bool:
    """Does ``p`` imply the union of ``pieces``? (through the service)"""

    service = current_service()
    if service is not None:
        return service.implies_union(p, pieces, **kwargs)
    return _implies_union(p, list(pieces), **kwargs)


def satisfiable_batch(problems: Sequence[Problem]) -> list[bool]:
    """Batched satisfiability: one bool per problem, in order."""

    service = current_service()
    if service is not None:
        return service.sat_batch(problems)
    return [_is_satisfiable(problem) for problem in problems]


def submit_batch(queries: Sequence[SolverQuery]) -> list:
    """Answer declarative queries; results in submission order."""

    service = current_service()
    if service is not None:
        return service.submit_batch(queries)
    return [
        _is_satisfiable(query.problem)
        if query.kind is QueryKind.SAT
        else _project(query.problem, query.keep)
        for query in queries
    ]
