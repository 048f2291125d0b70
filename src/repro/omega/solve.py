"""Integer satisfiability via the Omega test.

``is_satisfiable`` decides whether a conjunction of linear constraints has an
integer solution.  The strategy follows the paper: eliminate variables one at
a time, tracking when Fourier-Motzkin is exact; when it is not, "we first
check if S0 != empty or T = empty.  Only if both tests fail are we required
to examine S1, S2, ..., Sp" — i.e. try the dark shadow, rule out via the
real shadow, and fall back to splinters.  Before any of that, a query is
normalized and the constraints of its one-sided and unit-defined
variables are peeled away (:func:`_peel`); most queries are decided
there, and only the remainder is keyed and solved.

The "T = empty" test walks the real shadow alone
(:func:`~repro.omega.eliminate.shadow_walk`, the walk projection takes for
its Real Shadow).  Every solver counter goes to the metrics registry of
:mod:`repro.obs.metrics` as an ``omega.*`` counter; collect them with
``repro.obs.collecting(MetricsRegistry())``.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs import off as _obs_off
from ..obs.trace import span as _span
from . import cache as _cache
from .constraints import Constraint, NormalizeStatus, Problem, Relation
from .eliminate import (
    choose_variable,
    eliminate_equalities,
    fourier_motzkin,
    shadow_walk,
)
from .errors import BudgetExhausted, OmegaComplexityError

__all__ = ["is_satisfiable"]

_MAX_DEPTH = 200


def is_satisfiable(problem: Problem) -> bool:
    """True iff the conjunction has at least one integer solution.

    Normalization and peeling (:func:`_peel`) decide most queries outright.
    What they leave undecided is the peeled remainder, and only that is
    keyed and solved: when a :class:`repro.omega.cache.SolverCache` is
    active on this thread the answer is memoized on the remainder's
    canonical form.  Decided queries and cache misses count as
    satisfiability tests; cache hits do not.
    """

    remainder = _predecide(problem)
    if isinstance(remainder, bool):
        if not _obs_off():
            _metrics.inc("omega.satisfiability_tests")
            _metrics.inc("omega.sat_predecided")
        return remainder

    cache = _cache.current_cache()
    if cache is None:
        if _obs_off():
            return _sat(remainder, 0)
        _metrics.inc("omega.satisfiability_tests")
        with _span(
            "omega.is_satisfiable", constraints=len(remainder.constraints)
        ) as sp:
            result = _sat(remainder, 0)
        _metrics.observe("omega.sat_seconds", sp.duration)
        return result

    key = _cache.sat_key(remainder.canonical())
    entry = cache.get(key)
    if entry is not _cache.MISSING:
        if not _obs_off():
            with _span(
                "omega.is_satisfiable",
                constraints=len(remainder.constraints),
                cache="hit",
            ):
                pass
        return _cache.unwrap(entry)
    try:
        if _obs_off():
            result = _sat(remainder, 0)
        else:
            _metrics.inc("omega.satisfiability_tests")
            with _span(
                "omega.is_satisfiable",
                constraints=len(remainder.constraints),
                cache="miss",
            ) as sp:
                result = _sat(remainder, 0)
            _metrics.observe("omega.sat_seconds", sp.duration)
    except OmegaComplexityError as exc:
        # Static complexity failures are a property of the problem and are
        # replayed from the cache; budget exhaustion is a property of the
        # *run* (deadlines are nondeterministic) and is never stored.
        if not isinstance(exc, BudgetExhausted):
            cache.put(key, _cache.Raised.from_exception(exc))
        raise
    cache.put(key, result)
    return result


def _predecide(problem: Problem) -> bool | Problem:
    """The answer when normalization and peeling decide it, else the
    peeled remainder (a non-empty normalized problem) to key and solve."""

    normal, status = problem.normalized()
    if status is NormalizeStatus.UNSATISFIABLE:
        return False
    if status is NormalizeStatus.TAUTOLOGY:
        return True
    remainder = _peel(normal)
    return remainder if remainder.constraints else True


def _peel(problem: Problem) -> Problem:
    """``problem`` without the constraints its integer answer does not need.

    Two rules drop constraints, and neither changes the integer answer:

    * **One-sided.**  A variable in no equality and with one coefficient
      sign across all inequalities can be pushed to +inf (or -inf); that
      satisfies every constraint that mentions it, whatever values the
      other variables take, so those constraints go.
    * **Unit-defined.**  A variable with coefficient +-1 that occurs in
      exactly one constraint, an equality, takes the integer value the
      equality fixes for any values of the other variables, so that
      equality goes.

    Dropping constraints can expose more such variables; the peel repeats
    until neither rule applies.

    ``problem`` must be normalized.  The remainder is a subset of its
    constraints, in order; that subset of a normal form is itself normal,
    so the remainder is marked as its own normal form.  A problem with
    nothing to peel is returned as is.
    """

    kept = peel_constraints(problem.constraints)
    if kept is problem.constraints:
        return problem
    remainder = Problem(kept, problem.name)
    snapshot = tuple(kept)
    remainder._norm = (
        snapshot,
        snapshot,
        NormalizeStatus.NORMALIZED if snapshot else NormalizeStatus.TAUTOLOGY,
    )
    return remainder


def peel_constraints(
    constraints: Sequence[Constraint],
) -> Sequence[Constraint]:
    """The constraints :func:`_peel` keeps, in order; ``constraints``
    itself when it drops none.

    The two rules are exact on any conjunction, normalized or not: the
    remainder has an integer solution iff ``constraints`` has one.
    """

    EQ = Relation.EQ
    kept = constraints
    while True:
        # Sides: 1 bounded below, 2 above, 3 both or in an equality.
        sides: dict = {}
        occurs: dict = {}
        get = sides.get
        count = occurs.get
        for constraint in kept:
            if constraint.relation is EQ:
                for var in constraint.expr.terms:
                    sides[var] = 3
                    occurs[var] = count(var, 0) + 1
            else:
                for var, coeff in constraint.expr.terms.items():
                    sides[var] = get(var, 0) | (1 if coeff > 0 else 2)
                    occurs[var] = count(var, 0) + 1
        one_sided = {var for var, side in sides.items() if side != 3}
        private = {var for var, n in occurs.items() if n == 1}
        peeled = []
        for c in kept:
            terms = c.expr.terms
            if c.relation is EQ:
                if any(
                    (coeff == 1 or coeff == -1) and var in private
                    for var, coeff in terms.items()
                ):
                    continue  # unit-defined
            elif not one_sided.isdisjoint(terms):
                continue  # one-sided
            peeled.append(c)
        if len(peeled) == len(kept):
            return kept
        kept = peeled


def _sat(problem: Problem, depth: int) -> bool:
    if depth > _MAX_DEPTH:
        raise OmegaComplexityError(
            "satisfiability recursion too deep",
            site="omega.sat",
            budget="recursion_depth",
            limit=_MAX_DEPTH,
            spent=depth,
        )

    outcome = eliminate_equalities(problem)
    if not outcome.satisfiable:
        return False
    current = outcome.problem

    while True:
        _guard.checkpoint("omega.sat")
        variables = current.variables()
        if not variables:
            # Normalization inside eliminate_equalities already decided
            # constant constraints; anything left means satisfiable.
            return True
        var, _exact_hint = choose_variable(current, variables)
        assert var is not None
        _metrics.inc("omega.eliminations")
        fm = fourier_motzkin(current, var)
        if fm.exact:
            current, status = fm.real.normalized()
            if status is NormalizeStatus.UNSATISFIABLE:
                return False
            if status is NormalizeStatus.TAUTOLOGY:
                return True
            # Exact elimination cannot introduce equalities by itself, but
            # normalization may discover a matched inequality pair.
            outcome = eliminate_equalities(current)
            if not outcome.satisfiable:
                return False
            current = outcome.problem
            if current.is_trivially_true():
                return True
            continue

        _metrics.inc("omega.inexact_eliminations")
        if _sat(fm.dark, depth + 1):
            _metrics.inc("omega.dark_shadow_hits")
            return True
        if shadow_walk(fm.real, frozenset(), "omega.sat") is None:
            _metrics.inc("omega.real_shadow_refutations")
            return False
        for splinter in fm.splinters:
            _metrics.inc("omega.splinters_examined")
            if _sat(splinter, depth + 1):
                return True
        return False
