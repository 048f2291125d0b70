"""Combined projection and gist computation (Section 3.3.2).

The analysis frequently needs ``gist pi_keep(p and q)  given  pi_keep(p)``.
Computing the two projections independently does the same elimination work
twice.  The paper's optimization: "combine p and q into a single set of
constraints, tagging the equations from p red and the equations from q
black.  We then project away the variables ... and eliminate any obviously
redundant red equations as we go.  Once we have projected away y and z, we
then compute the gist of the red equations with respect to the black
equations."

(The paper colors the *new* constraints red; here red = the q-part whose
gist we want, black = the p-part that is already known.)

Color bookkeeping during elimination:

* substituting a variable solved from a colored equality into a constraint
  taints the result with the union of colors;
* a Fourier-Motzkin combination of a lower and an upper bound is red iff
  either parent is red.

The combined pass is exact only while every elimination step is exact; on
any inexact step (or an equality needing the mod-hat wildcard machinery)
we fall back to the two independent projections, keeping the result
faithful.  The fallback and fast paths are differentially tested against
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .constraints import Constraint, Problem, Relation
from .eliminate import _solve_for_unit, choose_variable
from .gist import gist
from .project import project
from .terms import Variable

__all__ = ["gist_of_projection", "combined_projection_gist"]


class _FallBack(Exception):
    """Internal: the combined pass hit an inexact step."""


@dataclass(frozen=True)
class _Colored:
    constraint: Constraint
    red: bool


def _normalize_colored(items: list[_Colored]) -> list[_Colored] | None:
    """Light normalization preserving colors; None when unsatisfiable.

    Duplicate normals keep the tightest constant, preferring to stay
    black when both give the same bound (black knowledge subsumes red).
    """

    kept: dict[tuple, _Colored] = {}
    result: list[_Colored] = []
    for item in items:
        expr = item.constraint.expr
        g = expr.coefficients_gcd()
        if g == 0:
            if item.constraint.is_equality:
                if expr.constant != 0:
                    return None
            elif expr.constant < 0:
                return None
            continue
        if item.constraint.is_equality:
            if expr.constant % g:
                return None
            reduced = Constraint(expr.exact_div(g), Relation.EQ)
        else:
            reduced = Constraint(expr.scale_and_floor(g), Relation.GE)
        key = (reduced.relation, reduced.expr.key())
        previous = kept.get(key)
        if previous is None:
            kept[key] = _Colored(reduced, item.red)
            continue
        if reduced.is_equality:
            if previous.constraint.expr.constant != reduced.expr.constant:
                return None
            if item.red is False and previous.red:
                kept[key] = _Colored(reduced, False)
            continue
        if reduced.expr.constant < previous.constraint.expr.constant:
            kept[key] = _Colored(reduced, item.red)
        elif (
            reduced.expr.constant == previous.constraint.expr.constant
            and not item.red
        ):
            kept[key] = _Colored(reduced, False)
    result = list(kept.values())
    return result


def _eliminate_colored(
    items: list[_Colored], keep: frozenset[Variable]
) -> list[_Colored]:
    """Eliminate all non-kept variables exactly, tracking colors."""

    current = _normalize_colored(items)
    if current is None:
        raise _FallBack  # let the caller decide what FALSE means per side

    while True:
        # Equalities on eliminable variables: only unit-coefficient
        # substitutions stay exact and color-trackable.
        target = None
        for item in current:
            if not item.constraint.is_equality:
                continue
            for var, coeff in item.constraint.expr.terms.items():
                if var not in keep and coeff in (1, -1):
                    target = (item, var)
                    break
            if target:
                break
        if target is not None:
            item, var = target
            replacement = _solve_for_unit(item.constraint.expr, var)
            replaced: list[_Colored] = []
            for other in current:
                if other is item:
                    continue
                if other.constraint.coeff(var):
                    replaced.append(
                        _Colored(
                            other.constraint.substitute(var, replacement),
                            other.red or item.red,
                        )
                    )
                else:
                    replaced.append(other)
            current = _normalize_colored(replaced)
            if current is None:
                raise _FallBack
            continue

        variables = set()
        for item in current:
            variables.update(item.constraint.variables())
        candidates = [v for v in variables if v not in keep]
        if not candidates:
            return current
        if any(
            item.constraint.is_equality
            and any(v in candidates for v in item.constraint.variables())
            for item in current
        ):
            raise _FallBack  # would need the mod-hat wildcard machinery

        problem = Problem([item.constraint for item in current])
        var, exact = choose_variable(problem, candidates)
        assert var is not None
        lowers = [i for i in current if i.constraint.coeff(var) > 0]
        uppers = [i for i in current if i.constraint.coeff(var) < 0]
        others = [i for i in current if not i.constraint.coeff(var)]
        if lowers and uppers:
            for lo in lowers:
                b = lo.constraint.coeff(var)
                lo_rest = lo.constraint.expr.without(var)
                for up in uppers:
                    a = -up.constraint.coeff(var)
                    up_rest = up.constraint.expr.without(var)
                    if a != 1 and b != 1:
                        raise _FallBack  # inexact pair: shadows diverge
                    combined = up_rest * b + lo_rest * a
                    others.append(
                        _Colored(
                            Constraint(combined, Relation.GE),
                            lo.red or up.red,
                        )
                    )
        current = _normalize_colored(others)
        if current is None:
            raise _FallBack


def combined_projection_gist(
    p: Problem, q: Problem, keep: Sequence[Variable]
) -> Problem | None:
    """The fast combined pass; None when it must fall back."""

    items = [_Colored(c, False) for c in p.constraints]
    items += [_Colored(c, True) for c in q.constraints]
    try:
        projected = _eliminate_colored(items, frozenset(keep))
    except _FallBack:
        return None
    red = Problem([i.constraint for i in projected if i.red], name="red")
    black = Problem(
        [i.constraint for i in projected if not i.red], name="black"
    )
    return gist(red, black)


def gist_of_projection(
    p: Problem, q: Problem, keep: Sequence[Variable]
) -> Problem:
    """``gist pi_keep(p and q) given pi_keep(p)`` (Section 3.3.2).

    Uses the combined red/black pass when every elimination step is exact;
    otherwise computes the two projections independently (dark shadows,
    conservative when they splinter) and takes the gist.
    """

    fast = combined_projection_gist(p, q, keep)
    if fast is not None:
        return fast
    p_single, _ = project(p, keep).single()
    pq_single, _ = project(p.conjoin(q), keep).single()
    return gist(pq_single, p_single)
