"""Declarative solver queries: what a batch hands the service.

A kill test asks one satisfiability question per case and then projects
every satisfiable case onto the variables it keeps.  A
:class:`SolverQuery` names one such question as *data*, so the call site
can build the whole list first and hand it to
:meth:`repro.solver.SolverService.submit_batch`, which answers each one
through the service's governed scalar call of the same kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from ..omega.constraints import Problem
from ..omega.project import Projection
from ..omega.terms import Variable

__all__ = ["QueryKind", "SolverQuery", "degraded_projection"]


def degraded_projection(keep: Iterable[Variable]) -> Projection:
    """The sound conservative stand-in for an unaffordable projection.

    An *inexact* union with no pieces and an unconstrained real shadow:
    ``exact_union=False`` tells every consumer that the piece list proves
    nothing (coverage checks return False, refinement bails, kill cases are
    dropped), while the trivially-true real shadow over-approximates the
    projection so direction/distance bounds degrade to "unknown" rather
    than to something wrong.
    """

    return Projection(
        frozenset(keep),
        [],
        Problem(name="DEGRADED"),
        exact_union=False,
        splintered=True,
    )


class QueryKind(enum.Enum):
    """The solver primitives a batch can ask for."""

    SAT = "sat"
    PROJECT = "project"


@dataclass(frozen=True)
class SolverQuery:
    """One batched Omega query: is ``problem`` satisfiable, or its
    projection onto the ``keep`` variables (PROJECT only)."""

    kind: QueryKind
    problem: Problem
    keep: tuple[Variable, ...] | None = None

    @classmethod
    def sat(cls, problem: Problem) -> "SolverQuery":
        """Is ``problem`` satisfiable?"""

        return cls(QueryKind.SAT, problem)

    @classmethod
    def project(
        cls, problem: Problem, keep: Iterable[Variable]
    ) -> "SolverQuery":
        """Project ``problem`` onto the ``keep`` variables."""

        return cls(QueryKind.PROJECT, problem, keep=tuple(keep))
