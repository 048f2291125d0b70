"""The original two-walk projection, kept as a test oracle.

``repro.omega.project._project`` takes the Real Shadow from the same
elimination walk that builds the exact pieces.  It used to run a second,
independent real-shadow-only walk instead.  Both must give the same
answer: the same pieces, the same real shadow, the same exactness flags.
This module keeps the straightforward implementation so the contract
tests can compare the two.

The fallback's dark-shadow-only walk and the eliminable-variable rule
are copied here as they were, so the oracle imports only the Omega
primitives (equality elimination, Fourier-Motzkin, the variable chooser)
and none of the projection code it checks.

The tracks are exposed separately (:func:`reference_pieces`,
:func:`reference_real`) because both mint fresh wildcards: a caller that
wants names comparable with the one-walk projection restarts the
wildcard counter before each track.
"""

from __future__ import annotations

from repro.guard import budget as _guard
from repro.omega.constraints import NormalizeStatus, Problem
from repro.omega.eliminate import (
    choose_variable,
    eliminate_equalities,
    fourier_motzkin,
)
from repro.omega.errors import BudgetExhausted, OmegaComplexityError
from repro.omega.project import _MAX_DEPTH, _MAX_PIECES, Projection
from repro.omega.solve import is_satisfiable
from repro.omega.terms import Variable


def reference_project(problem: Problem, kept: frozenset[Variable]) -> Projection:
    """Project ``problem`` onto ``kept`` exactly as the original did."""

    pieces, exact = reference_pieces(problem, kept)
    real = reference_real(problem, kept)
    splintered = len(pieces) > 1 or not exact
    return Projection(kept, pieces, real, exact_union=exact, splintered=splintered)


def reference_pieces(
    problem: Problem, kept: frozenset[Variable]
) -> tuple[list[Problem], bool]:
    """The pieces track: ``(pieces, exact_union)``."""

    pieces: list[Problem] = []
    try:
        _pieces(problem, kept, pieces, 0)
    except BudgetExhausted:
        raise
    except OmegaComplexityError:
        pieces = []
        _project_dark_only(problem, kept, pieces)
        return pieces, False
    return pieces, True


def _pieces(
    problem: Problem, kept: frozenset[Variable], out: list[Problem], depth: int
) -> None:
    if depth > _MAX_DEPTH:
        raise OmegaComplexityError(
            "projection recursion too deep",
            site="omega.project",
            budget="recursion_depth",
            limit=_MAX_DEPTH,
            spent=depth,
        )

    outcome = eliminate_equalities(problem, protected=kept)
    if not outcome.satisfiable:
        return
    current = outcome.problem

    while True:
        _guard.checkpoint("omega.project")
        candidates = _eliminable(current, kept)
        if not candidates:
            normalized, status = current.normalized()
            if status is not NormalizeStatus.UNSATISFIABLE and is_satisfiable(
                normalized
            ):
                if len(out) >= _MAX_PIECES:
                    raise OmegaComplexityError(
                        "projection piece budget exceeded",
                        site="omega.project",
                        budget="max_pieces",
                        limit=_MAX_PIECES,
                        spent=len(out),
                    )
                _guard.spend("dnf_size", site="omega.project")
                out.append(normalized)
            return
        var, _ = choose_variable(current, candidates)
        assert var is not None
        fm = fourier_motzkin(current, var)
        if fm.exact:
            current, status = fm.real.normalized()
            if status is NormalizeStatus.UNSATISFIABLE:
                return
            outcome = eliminate_equalities(current, protected=kept)
            if not outcome.satisfiable:
                return
            current = outcome.problem
            continue
        _pieces(fm.dark, kept, out, depth + 1)
        for splinter in fm.splinters:
            _pieces(splinter, kept, out, depth + 1)
        return


def _project_dark_only(
    problem: Problem, kept: frozenset[Variable], out: list[Problem]
) -> None:
    """Fallback: a single dark-track piece (sound under-approximation)."""

    outcome = eliminate_equalities(problem, protected=kept)
    if not outcome.satisfiable:
        return
    current = outcome.problem
    while True:
        _guard.checkpoint("omega.project")
        candidates = _eliminable(current, kept)
        if not candidates:
            normalized, status = current.normalized()
            if status is not NormalizeStatus.UNSATISFIABLE:
                out.append(normalized)
            return
        var, _ = choose_variable(current, candidates)
        assert var is not None
        fm = fourier_motzkin(current, var, want_splinters=False)
        current, status = fm.dark.normalized()
        if status is NormalizeStatus.UNSATISFIABLE:
            return
        outcome = eliminate_equalities(current, protected=kept)
        if not outcome.satisfiable:
            return
        current = outcome.problem


def _eliminable(problem: Problem, kept: frozenset[Variable]) -> frozenset[Variable]:
    """Variables that still need (and can take) Fourier-Motzkin elimination.

    After equality elimination with ``kept`` protected, the only wildcards
    left inside equalities are stride-locked (they exactly encode a
    divisibility constraint on kept variables) and must stay; wildcards
    occurring solely in inequalities are ordinary FM candidates.
    """

    locked: set[Variable] = set()
    for constraint in problem.constraints:
        if constraint.is_equality:
            locked.update(v for v in constraint.variables() if v.is_wildcard)
    return frozenset(
        v for v in problem.variables() if v not in kept and v not in locked
    )


def _false() -> Problem:
    unsat = Problem(name="FALSE")
    unsat.add_ge(-1)
    return unsat


def reference_real(problem: Problem, kept: frozenset[Variable]) -> Problem:
    """The real-shadow track: a walk of its own, real shadows only."""

    outcome = eliminate_equalities(problem, protected=kept)
    if not outcome.satisfiable:
        return _false()
    current = outcome.problem
    while True:
        _guard.checkpoint("omega.project")
        candidates = _eliminable(current, kept)
        if not candidates:
            normalized, status = current.normalized()
            if status is NormalizeStatus.UNSATISFIABLE:
                return _false()
            return normalized
        var, _ = choose_variable(current, candidates)
        assert var is not None
        fm = fourier_motzkin(current, var, want_splinters=False)
        current, status = fm.real.normalized()
        if status is NormalizeStatus.UNSATISFIABLE:
            return _false()
        outcome = eliminate_equalities(current, protected=kept)
        if not outcome.satisfiable:
            return _false()
        current = outcome.problem
