"""Projection: the basic operation the paper builds everything on.

Given a problem ``S`` over variables ``V`` and a subset ``keep``,
``project(S, keep)`` computes constraints over ``keep`` with the same integer
solutions for ``keep`` as ``S``.  Because the Omega test works over the
integers, the result is in general a *union*::

    pi_keep(S) = S0 UNION S1 UNION ... UNION Sp   (subset of T)

where ``S0`` is the Dark Shadow and ``T`` the Real Shadow.  In practice
projection "rarely splinters and when it does, S0 contains almost all of the
points" — the :class:`Projection` result exposes exactly this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs import off as _obs_off
from ..obs.trace import span as _span
from . import cache as _cache
from .constraints import NormalizeStatus, Problem
from .eliminate import (
    choose_variable,
    eliminable,
    eliminate_equalities,
    fourier_motzkin,
    shadow_walk,
)
from .errors import BudgetExhausted, OmegaComplexityError
from .solve import is_satisfiable
from .terms import Variable

__all__ = ["Projection", "project", "project_away"]

_MAX_PIECES = 256
_MAX_DEPTH = 200


@dataclass
class Projection:
    """Result of projecting a problem onto a subset of its variables.

    ``pieces`` is a list of conjunctions whose union is exactly the integer
    projection (when ``exact_union`` is True).  ``pieces[0]``, when the
    projection splintered, plays the role of the paper's Dark Shadow S0 —
    unsatisfiable pieces are pruned, so the list may be empty (projection of
    an unsatisfiable problem).  ``real`` is the single-conjunction Real
    Shadow, an over-approximation.
    """

    kept: frozenset[Variable]
    pieces: list[Problem]
    real: Problem
    exact_union: bool = True
    splintered: bool = False

    @property
    def dark(self) -> Problem:
        """The dark shadow S0 (an unsatisfiable problem if no pieces)."""

        if self.pieces:
            return self.pieces[0]
        return Problem.false()

    def is_empty(self) -> bool:
        """True iff the projection certainly has no integer points.

        Only meaningful when ``exact_union`` is True; pieces are pruned for
        satisfiability during construction.
        """

        return not self.pieces

    def single(self) -> tuple[Problem, bool]:
        """The projection as one conjunction, and whether it is exact.

        An exact union gives its one piece (FALSE when it has none);
        anything else gives the Real Shadow, an over-approximation.
        """

        if self.exact_union and len(self.pieces) <= 1:
            return self.dark, True
        return self.real, False

    def interval(self, var: Variable) -> tuple[int | None, int | None]:
        """Constant bounds ``(lo, hi)`` on ``var`` (None = unbounded).

        Read off the Real Shadow, so the interval contains the true
        projection.  Meaningful for a projection onto ``var`` alone.  A
        stride equality (``d - 2*sigma = 0``, "d is even") is no interval
        bound and is skipped; any other equality pins the value.
        """

        lo: int | None = None
        hi: int | None = None
        for constraint in self.real.constraints:
            coeff = constraint.coeff(var)
            if coeff == 0 or any(v.is_wildcard for v in constraint.variables()):
                continue
            if constraint.is_equality:
                value = -constraint.expr.constant // coeff
                return value, value
            # a*v + c >= 0 with a > 0:  v >= ceil(-c/a) = -floor(c/a)
            # -a*v + c >= 0 with a > 0: v <= floor(c/a)
            if coeff > 0:
                bound = -(constraint.expr.constant // coeff)
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = constraint.expr.constant // -coeff
                hi = bound if hi is None else min(hi, bound)
        return lo, hi

    def __str__(self) -> str:
        body = " OR ".join(f"({p})" for p in self.pieces) or "FALSE"
        return body


def project(problem: Problem, keep: Iterable[Variable]) -> Projection:
    """Project ``problem`` onto the variables in ``keep``.

    Variables in ``keep`` that do not occur in the problem are harmless.
    All other variables (including any wildcards created along the way) are
    eliminated.
    """

    kept = frozenset(keep)
    cache = _cache.current_cache()
    if cache is None:
        return _project_traced(problem, kept)

    canon = problem.canonical()
    key = _cache.project_key(canon, kept)
    entry = cache.get(key)
    if entry is not _cache.MISSING:
        if not _obs_off():
            with _span("omega.project", kept=len(kept), cache="hit"):
                pass
        pieces_c, real_c, exact, splintered = _cache.unwrap(entry)
        inverse = canon.inverse()
        thawed = _cache.thaw_problems(list(pieces_c) + [real_c], inverse)
        return Projection(
            kept,
            thawed[:-1],
            thawed[-1],
            exact_union=exact,
            splintered=splintered,
        )
    projection = _project_traced(problem, kept, cache_tag="miss")
    frozen = _cache.freeze_problems(
        list(projection.pieces) + [projection.real], canon.rename
    )
    cache.put(
        key,
        (frozen[:-1], frozen[-1], projection.exact_union, projection.splintered),
    )
    return projection


def _project_traced(
    problem: Problem, kept: frozenset[Variable], cache_tag: str | None = None
) -> Projection:
    if _obs_off():
        return _project(problem, kept)
    attrs: dict = {"kept": len(kept)}
    if cache_tag is not None:
        attrs["cache"] = cache_tag
    with _span("omega.project", **attrs) as sp:
        projection = _project(problem, kept)
    _metrics.observe("omega.project_seconds", sp.duration)
    _metrics.inc("omega.projections")
    _metrics.inc("omega.projection_pieces", len(projection.pieces))
    if projection.splintered:
        _metrics.inc("omega.projections_splintered")
    if not projection.exact_union:
        _metrics.inc("omega.projections_inexact")
    return projection


def _project(problem: Problem, kept: frozenset[Variable]) -> Projection:
    pieces: list[Problem] = []
    exact = True
    try:
        real = _project_pieces(problem, kept, pieces, 0)
    except BudgetExhausted:
        # A governed budget ran out: let the exhaustion propagate so the
        # solver service can apply its degradation policy (the dark-only
        # fallback below would just keep spending against a spent budget).
        raise
    except OmegaComplexityError:
        # Give up on exactness: fall back to one dark-shadow walk, which
        # is still a sound under-approximation, and a real-shadow walk of
        # its own.
        dark = shadow_walk(problem, kept, "omega.project", dark=True)
        pieces = [] if dark is None else [dark]
        exact = False
        real = _real_shadow(problem, kept)
    splintered = len(pieces) > 1 or not exact
    return Projection(kept, pieces, real, exact_union=exact, splintered=splintered)


def project_away(problem: Problem, eliminate: Iterable[Variable]) -> Projection:
    """Project ``problem`` onto everything *except* ``eliminate``.

    This is the paper's ``pi_{not x}(S)`` notation, i.e. handling an
    embedded existential quantifier over ``eliminate``.
    """

    drop = frozenset(eliminate)
    keep = frozenset(
        v for v in problem.variables() if v not in drop and not v.is_wildcard
    )
    return project(problem, keep)


def _real_shadow(problem: Problem, kept: frozenset[Variable]) -> Problem:
    """The Real Shadow T: eliminate everything via real shadows only."""

    real = shadow_walk(problem, kept, "omega.project")
    return Problem.false() if real is None else real


def _project_pieces(
    problem: Problem,
    kept: frozenset[Variable],
    out: list[Problem],
    depth: int,
) -> Problem | None:
    """Append the exact union decomposition of the projection to ``out``.

    The top-level call (``depth == 0``) also returns the Real Shadow T.
    While every Fourier-Motzkin step is exact, the real and dark shadows
    coincide, so T is this walk's own final problem; at the first inexact
    step T continues from that step's real shadow alone.  Either way T is
    what a separate real-shadow walk would reach along the same
    elimination path, at the cost of one walk.  Recursive calls return
    None.
    """

    if depth > _MAX_DEPTH:
        raise OmegaComplexityError(
            "projection recursion too deep",
            site="omega.project",
            budget="recursion_depth",
            limit=_MAX_DEPTH,
            spent=depth,
        )

    top = depth == 0
    outcome = eliminate_equalities(problem, protected=kept)
    if not outcome.satisfiable:
        return Problem.false() if top else None
    current = outcome.problem

    while True:
        _guard.checkpoint("omega.project")
        candidates = eliminable(current, kept)
        if not candidates:
            normalized, status = current.normalized()
            if status is NormalizeStatus.UNSATISFIABLE:
                return Problem.false() if top else None
            if is_satisfiable(normalized):
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
            # A copy: callers must never share a mutable Problem between
            # ``real`` and ``pieces[0]``.
            return normalized.copy() if top else None
        var, _ = choose_variable(current, candidates)
        assert var is not None
        fm = fourier_motzkin(current, var)
        if fm.exact:
            current, status = fm.real.normalized()
            if status is NormalizeStatus.UNSATISFIABLE:
                return Problem.false() if top else None
            outcome = eliminate_equalities(current, protected=kept)
            if not outcome.satisfiable:
                return Problem.false() if top else None
            current = outcome.problem
            continue
        # pi_var(current) = dark UNION pieces-of-splinters, exactly.
        _project_pieces(fm.dark, kept, out, depth + 1)
        for splinter in fm.splinters:
            _project_pieces(splinter, kept, out, depth + 1)
        return _real_shadow(fm.real, kept) if top else None
