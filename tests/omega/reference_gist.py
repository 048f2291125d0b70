"""The original fast check 4 of ``gist``, kept as a test oracle.

``repro.omega.gist._gist`` now screens fast check 4's pairs by sign
coverage, answers uncovered pairs from a memoized subset, and lets
implication tests skip the check.  None of that may change a full
gist's text or its :class:`GistStats` decision counts, nor an
implication's truth value.  This module keeps the implementation those
optimizations replaced — one three-constraint satisfiability test per
(constraint, pair) — so the contract tests can compare the two.  The
code is copied unchanged but for its imports, which are absolute here.
"""

from __future__ import annotations

import itertools

from repro.guard import budget as _guard
from repro.omega.constraints import Constraint, Problem
from repro.omega.gist import GistStats
from repro.omega.solve import is_satisfiable
from repro.omega.terms import Variable


def _implied_by_single(e: Constraint, other: Constraint) -> bool:
    """Fast check 1: is constraint ``e`` implied by the single ``other``?

    For inequalities ``e: a.x + c >= 0``:

    * another inequality with the same normal and a constant ``c' <= c``
      implies it;
    * an equality ``a.x + k = 0`` (so ``a.x = -k``) implies it iff
      ``k <= c``;
    * an equality ``-a.x + k = 0`` (so ``a.x = k``) implies it iff
      ``k + c >= 0``.

    Equalities are implied only by an identical equality.
    """

    if e.is_equality:
        return other.is_equality and (
            other.expr == e.expr or other.expr == -e.expr
        )
    key = e.expr.key()
    c = e.expr.constant
    if other.is_equality:
        if other.expr.key() == key:
            return other.expr.constant <= c
        if (-other.expr).key() == key:
            return (-other.expr).constant <= c
        return False
    if other.expr.key() == key:
        return other.expr.constant <= c
    return False


def _implied_by_pair(e: Constraint, c1: Constraint, c2: Constraint) -> bool:
    """Fast check 4: is ``e`` implied by the conjunction of two constraints?

    Decided exactly with a tiny satisfiability test on three constraints:
    ``c1 and c2 and not e``.
    """

    if e.is_equality:
        return False
    tiny = Problem([c1, c2, e.negated()])
    return not is_satisfiable(tiny)


def _gist(
    p: Problem,
    q: Problem,
    stats: GistStats,
    *,
    stop_if_not_true: bool,
    use_fast_checks: bool,
) -> Problem:
    from repro.omega.constraints import NormalizeStatus

    p_norm, p_status = p.normalized()
    if p_status is NormalizeStatus.UNSATISFIABLE:
        false = Problem(name=f"gist {p.name}")
        false.add_ge(-1)
        return false
    p_constraints: list[Constraint] = []
    for constraint in p_norm.constraints:
        if constraint.is_equality and any(
            v.is_wildcard for v in constraint.variables()
        ):
            # Stride equalities stay whole: their wildcard scopes over the
            # conjunction, so the matched-inequality-pair expansion would
            # change the meaning.
            p_constraints.append(constraint)
        else:
            p_constraints.extend(constraint.as_inequalities())

    q_norm, q_status = q.normalized()
    if q_status is NormalizeStatus.UNSATISFIABLE:
        return Problem(name=f"gist {p.name}")  # q implies anything
    q_constraints = list(q_norm.constraints)

    # ``working`` is the live remainder of p; every drop below is justified
    # against the *current* working set plus q, which keeps sequential
    # redundancy removal sound (two mutually-redundant constraints cannot
    # both disappear).
    working: list[Constraint] = list(p_constraints)
    definite: list[Constraint] = []  # constraints known to be in the gist

    if not use_fast_checks:
        # Ablation path: pure naive algorithm.
        result = []
        context_q = list(q_constraints)
        pending = list(working)
        while pending:
            _guard.checkpoint("omega.gist")
            e = pending.pop(0)
            stats.naive_tests += 1
            if _negation_satisfiable(e, pending + context_q):
                result.append(e)
                if stop_if_not_true:
                    return Problem(result, name=f"gist {p.name}")
                context_q.append(e)
            else:
                stats.dropped_naive += 1
        gist_problem = Problem(result, name=f"gist {p.name}")
        normalized, _ = gist_problem.normalized()
        normalized.name = gist_problem.name
        return normalized

    # --- Fast check 1: drop constraints implied by a single constraint. ---
    for e in list(working):
        context = [c for c in working if c is not e] + q_constraints
        if any(_implied_by_single(e, other) for other in context):
            stats.dropped_single += 1
            working.remove(e)

    if not working:
        return Problem(name=f"gist {p.name}")

    # --- Fast check 2: a variable with an upper (lower) bound in p but not
    # in q must contribute at least one such bound to the gist; when p has
    # exactly one, it is definitely in.  Fast check 3: a constraint with no
    # positively-correlated companion anywhere must be in the gist. ---
    def bound_vars(constraints: list[Constraint], sign: int) -> set[Variable]:
        found: set[Variable] = set()
        for c in constraints:
            for v, coeff in c.expr.terms.items():
                if c.is_equality or coeff * sign > 0:
                    found.add(v)
        return found

    q_uppers = bound_vars(q_constraints, -1)
    q_lowers = bound_vars(q_constraints, +1)

    for e in working:
        keep = False
        if any(v.is_wildcard for v in e.expr.terms):
            # Stride equalities quantify their wildcard existentially; the
            # "unmatched bound" and "no positive companion" arguments do
            # not apply.  Decide them with the exact naive test below.
            continue
        for v, coeff in e.expr.terms.items():
            if coeff < 0 and v not in q_uppers:
                if not any(
                    c is not e and c.expr.coeff(v) < 0 for c in working
                ):
                    keep = True
                    stats.kept_unmatched_bound += 1
                    break
            if coeff > 0 and v not in q_lowers:
                if not any(
                    c is not e and c.expr.coeff(v) > 0 for c in working
                ):
                    keep = True
                    stats.kept_unmatched_bound += 1
                    break
        if not keep:
            companions = [c for c in working if c is not e] + q_constraints
            if not any(_positive_inner_product(e, other) for other in companions):
                keep = True
                stats.kept_no_positive_pair += 1
        if keep:
            definite.append(e)
            if stop_if_not_true:
                return Problem(definite, name=f"gist {p.name}")

    undecided = [e for e in working if e not in definite]

    # --- Fast check 4: implication by a pair of constraints, tested with a
    # three-constraint satisfiability problem. ---
    for e in list(undecided):
        context = (
            [c for c in undecided if c is not e] + definite + q_constraints
        )
        for c1, c2 in itertools.combinations(context, 2):
            if _shares_variable(e, c1) or _shares_variable(e, c2):
                if _implied_by_pair(e, c1, c2):
                    stats.dropped_pairwise += 1
                    undecided.remove(e)
                    break

    # --- Naive algorithm on whatever is left. ---
    result = list(definite)
    context_q = q_constraints + definite
    pending = list(undecided)
    while pending:
        _guard.checkpoint("omega.gist")
        e = pending.pop(0)
        stats.naive_tests += 1
        if _negation_satisfiable(e, pending + context_q):
            result.append(e)
            if stop_if_not_true:
                return Problem(result, name=f"gist {p.name}")
            context_q.append(e)
        else:
            # e is redundant given the remainder: drop it.
            stats.dropped_naive += 1

    gist_problem = Problem(result, name=f"gist {p.name}")
    normalized, _ = gist_problem.normalized()
    normalized.name = gist_problem.name
    return normalized


def _negation_satisfiable(e: Constraint, context: list[Constraint]) -> bool:
    """Is ``not(e) and context`` satisfiable (integer negation of e)?"""

    from repro.omega.constraints import negation_clauses

    for clause in negation_clauses(e):
        if is_satisfiable(Problem(clause + context)):
            return True
    return False


def _positive_inner_product(e: Constraint, other: Constraint) -> bool:
    """Can ``other`` help imply ``e`` (fast check 3's correlation test)?

    An inequality correlates when its normal has a positive inner product
    with ``e``'s.  An equality bounds its expression from both sides, so
    it correlates whenever the inner product is non-zero.
    """

    total = 0
    for v, coeff in e.expr.terms.items():
        total += coeff * other.expr.coeff(v)
    if other.is_equality:
        return total != 0
    return total > 0


def _shares_variable(e: Constraint, other: Constraint) -> bool:
    return any(v in other.expr.terms for v in e.expr.terms)


#: The oracle's entry point, under the name the contract tests use.
reference_gist = _gist
