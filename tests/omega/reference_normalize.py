"""The original, unmemoized ``Problem.normalized()``, kept as a test oracle.

``Problem.normalized()`` caches keys, skips the negated-expression
allocations of the matched-pair checks and memoizes its result on the
problem.  None of that may change its output: the same constraints in
the same order, with the same term insertion order, and the same status.
This module keeps the straightforward implementation those optimizations
replaced, so the contract tests can compare the two.
"""

from __future__ import annotations

from repro.omega.constraints import Constraint, NormalizeStatus, Problem, Relation
from repro.omega.terms import LinearExpr


def reference_normalized(problem: Problem) -> tuple[Problem, NormalizeStatus]:
    """Normalize ``problem`` exactly as the original implementation did."""

    ineqs: dict[tuple, int] = {}  # normal key -> tightest constant
    ineq_exprs: dict[tuple, LinearExpr] = {}
    eqs: dict[tuple, int] = {}
    eq_exprs: dict[tuple, LinearExpr] = {}
    unsat = (Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE)

    for constraint in problem.constraints:
        expr = constraint.expr
        g = expr.coefficients_gcd()
        if g == 0:  # constant constraint
            if constraint.is_equality:
                if expr.constant != 0:
                    return unsat
            else:
                if expr.constant < 0:
                    return unsat
            continue
        if constraint.is_equality:
            if expr.constant % g:
                return unsat
            reduced = expr.exact_div(g)
            first = min(reduced.terms.items(), key=lambda it: (it[0].kind, it[0].name))
            if first[1] < 0:
                reduced = -reduced
            key = reduced.key()
            if key in eqs:
                if eqs[key] != reduced.constant:
                    return unsat
            else:
                eqs[key] = reduced.constant
                eq_exprs[key] = reduced
        else:
            if g > 1:
                reduced = expr.scale_and_floor(g)
            else:
                reduced = expr
            key = reduced.key()
            if key in ineqs:
                if reduced.constant < ineqs[key]:
                    ineqs[key] = reduced.constant
                    ineq_exprs[key] = reduced
            else:
                ineqs[key] = reduced.constant
                ineq_exprs[key] = reduced

    result = Problem(name=problem.name)
    consumed: set[tuple] = set()
    for key, constant in ineqs.items():
        if key in consumed:
            continue
        expr = ineq_exprs[key]
        neg_key = (-expr).key()
        if neg_key in ineqs and neg_key not in consumed:
            other_constant = ineqs[neg_key]
            if -constant > other_constant:
                return unsat
            if -constant == other_constant:
                consumed.add(key)
                consumed.add(neg_key)
                eq_expr = expr
                first = min(
                    eq_expr.terms.items(), key=lambda it: (it[0].kind, it[0].name)
                )
                if first[1] < 0:
                    eq_expr = -eq_expr
                ekey = eq_expr.key()
                if ekey in eqs and eqs[ekey] != eq_expr.constant:
                    return unsat
                eqs[ekey] = eq_expr.constant
                eq_exprs[ekey] = eq_expr

    for key, expr in eq_exprs.items():
        result.add(Constraint(expr, Relation.EQ))
    for key, expr in ineq_exprs.items():
        if key in consumed:
            continue
        if key in eqs:
            if eqs[key] > expr.constant:
                return unsat
            continue
        neg_key = (-expr).key()
        if neg_key in eqs:
            if eqs[neg_key] + expr.constant < 0:
                return unsat
            continue
        result.add(Constraint(expr, Relation.GE))

    if not result.constraints:
        return result, NormalizeStatus.TAUTOLOGY
    return result, NormalizeStatus.NORMALIZED
