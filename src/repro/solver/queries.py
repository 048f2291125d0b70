"""Declarative solver queries: the vocabulary of the service boundary.

The extended dependence analysis is built from four Omega primitives —
satisfiability, projection, gist and implication.  A :class:`SolverQuery`
names one such primitive application as *data*: what to decide, over which
problem, keeping which variables, under which options.  Queries are what
analysis code hands to :meth:`repro.solver.SolverService.submit_batch`, and
they give the service everything it needs to deduplicate work (two queries
with equal :meth:`key` are the same computation).

Keys are **identity keys**: tuples over the problems' frozen
:class:`~repro.omega.constraints.Constraint` objects, not canonical forms.
Building one costs a tuple of already-hashed dataclasses — orders of
magnitude cheaper than canonicalization — so the service's batch dedup
sits in front of the canonical-form LRU without paying the
canonicalization toll on every lookup.  Alpha-equivalent problems built
from *different* constraint objects get different keys; catching those is
the canonical cache's job, not this layer's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..omega.constraints import Problem
from ..omega.gist import gist as _gist
from ..omega.gist import implies as _implies
from ..omega.gist import implies_union as _implies_union
from ..omega.project import Projection
from ..omega.project import project as _project
from ..omega.solve import is_satisfiable as _is_satisfiable
from ..omega.terms import Variable

__all__ = ["QueryKind", "SolverQuery", "degraded_projection", "problem_key"]


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
    """The four solver primitives the analysis layers consume."""

    SAT = "sat"
    PROJECT = "project"
    GIST = "gist"
    IMPLIES = "implies"


def problem_key(problem: Problem) -> tuple:
    """The identity key of a problem: its frozen constraint tuple."""

    return tuple(problem.constraints)


@dataclass(frozen=True)
class SolverQuery:
    """One declarative Omega query (see the constructors below).

    ``problem`` is the primary operand.  ``keep`` (PROJECT) lists the
    variables to keep; ``given`` (GIST, plain IMPLIES) is the context /
    right-hand side; ``pieces`` (union IMPLIES) is the union of problems
    the left-hand side must imply; ``options`` carries keyword options as
    a sorted, hashable tuple.
    """

    kind: QueryKind
    problem: Problem
    keep: tuple[Variable, ...] | None = None
    given: Problem | None = None
    pieces: tuple[Problem, ...] | None = None
    options: tuple[tuple[str, Any], ...] = ()

    # -- constructors ---------------------------------------------------
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

    @classmethod
    def gist(cls, problem: Problem, given: Problem, **options) -> "SolverQuery":
        """``gist problem given given`` (what is new in ``problem``)."""

        return cls(
            QueryKind.GIST,
            problem,
            given=given,
            options=tuple(sorted(options.items())),
        )

    @classmethod
    def implies(cls, problem: Problem, given: Problem) -> "SolverQuery":
        """Does ``problem`` imply ``given``?"""

        return cls(QueryKind.IMPLIES, problem, given=given)

    @classmethod
    def implies_union(
        cls, problem: Problem, pieces: Sequence[Problem], **options
    ) -> "SolverQuery":
        """Does ``problem`` imply the union of ``pieces``?"""

        return cls(
            QueryKind.IMPLIES,
            problem,
            pieces=tuple(pieces),
            options=tuple(sorted(options.items())),
        )

    # -- service protocol ----------------------------------------------
    def key(self) -> tuple:
        """A hashable identity key; equal keys are the same computation."""

        if self.kind is QueryKind.SAT:
            return ("sat", problem_key(self.problem))
        if self.kind is QueryKind.PROJECT:
            return (
                "project",
                problem_key(self.problem),
                frozenset(self.keep or ()),
            )
        if self.kind is QueryKind.GIST:
            return (
                "gist",
                problem_key(self.problem),
                problem_key(self.given),
                self.options,
            )
        if self.pieces is not None:
            return (
                "implies-union",
                problem_key(self.problem),
                tuple(problem_key(piece) for piece in self.pieces),
                self.options,
            )
        return (
            "implies",
            problem_key(self.problem),
            problem_key(self.given),
        )

    def conservative(self):
        """The sound conservative answer for this query.

        This is what the service substitutes when the query exhausts its
        resource budget under the ``degrade`` policy.  Each answer errs on
        the side of *more* dependences:

        - SAT: ``True`` — the dependence problem is assumed satisfiable.
        - PROJECT: an inexact empty-union projection whose real shadow is
          unconstrained; consumers (kill reasoning, coverage, refinement)
          treat it as "nothing proven".
        - GIST: the problem itself — ``p AND given == p AND given`` holds
          trivially, so returning ``p`` unsimplified is always correct.
        - IMPLIES (plain or union): ``False`` — the implication is simply
          not proven, so no kill/cover/terminate conclusion is drawn.
        """

        if self.kind is QueryKind.SAT:
            return True
        if self.kind is QueryKind.PROJECT:
            return degraded_projection(self.keep or ())
        if self.kind is QueryKind.GIST:
            return self.problem.copy()
        return False

    def conservative_answer(self) -> str:
        """Human-readable description of :meth:`conservative`'s answer."""

        if self.kind is QueryKind.SAT:
            return "assumed satisfiable"
        if self.kind is QueryKind.PROJECT:
            return "left unprojected (inexact union)"
        if self.kind is QueryKind.GIST:
            return "left unsimplified"
        return "implication not proven"

    def execute(self):
        """Run the query against the Omega core (whose entry points
        consult an active canonical-form cache themselves)."""

        if self.kind is QueryKind.SAT:
            return _is_satisfiable(self.problem)
        if self.kind is QueryKind.PROJECT:
            return _project(self.problem, list(self.keep or ()))
        if self.kind is QueryKind.GIST:
            return _gist(self.problem, self.given, **dict(self.options))
        if self.pieces is not None:
            return _implies_union(
                self.problem, list(self.pieces), **dict(self.options)
            )
        return _implies(self.problem, self.given)
