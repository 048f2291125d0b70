"""Variable elimination: equalities (mod-hat substitution) and
Fourier-Motzkin with real/dark shadows and splintering.

This module implements the machinery of Pugh's Omega test [Pug91] that the
PLDI'92 paper builds on:

* **Equality elimination.**  An equality with a unit-coefficient variable is
  solved and substituted away.  Otherwise Pugh's symmetric-modulo trick
  introduces a wildcard ``sigma`` with ``m = |a_k| + 1`` so that the derived
  equality has a unit coefficient; coefficients shrink geometrically until a
  unit appears, with no growth in the solution set.

* **Fourier-Motzkin elimination.**  Combining a lower bound ``beta <= b*z``
  with an upper bound ``a*z <= alpha`` gives the *real shadow*
  ``a*beta <= b*alpha`` (a conservative over-approximation of the integer
  shadow) and the *dark shadow* ``a*beta + (a-1)(b-1) <= b*alpha`` (a
  pessimistic under-approximation).  When ``a == 1 or b == 1`` for every
  pair the two coincide and the elimination is exact.

* **Splintering.**  When the shadows differ, any integer solution missed by
  the dark shadow must lie close above some lower bound:
  ``b*z = beta + i`` for ``0 <= i <= (a_max*b - a_max - b) // a_max`` where
  ``a_max`` is the largest upper-bound coefficient on ``z``.  The exact
  shadow is ``dark_shadow UNION project(splinters)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs import off as _obs_off
from ..obs.trace import span as _span
from .constraints import Constraint, NormalizeStatus, Problem, Relation
from .errors import OmegaComplexityError, OmegaError
from .terms import LinearExpr, Variable, fresh_wildcard

_expr = LinearExpr._trusted

__all__ = [
    "mod_hat",
    "substitute",
    "eliminate_equalities",
    "EqualityEliminationResult",
    "fourier_motzkin",
    "FMResult",
    "choose_variable",
    "eliminable",
    "shadow_walk",
]

# Safety valve: equality elimination provably terminates, but a bug would
# otherwise loop forever.  Coefficients shrink by ~2/3 per iteration so even
# enormous coefficients finish in well under this many steps.
_MAX_EQUALITY_STEPS = 10_000


def mod_hat(a: int, b: int) -> int:
    """Pugh's symmetric modulo: ``a - b * floor(a/b + 1/2)`` for ``b > 0``.

    The result lies in ``[-b/2, b/2)`` (with ties broken downward), and
    satisfies ``mod_hat(a, b) == a  (mod b)``.  Crucially,
    ``mod_hat(sign*(b-1), b) == -sign`` — the property that makes equality
    elimination produce a unit coefficient.
    """

    if b <= 0:
        raise ValueError("modulus must be positive")
    return a - b * ((2 * a + b) // (2 * b))


def substitute(problem: Problem, var: Variable, replacement: LinearExpr) -> Problem:
    """A new problem with every occurrence of ``var`` replaced."""

    return Problem(
        [c.substitute(var, replacement) for c in problem.constraints], problem.name
    )


@dataclass
class EqualityEliminationResult:
    """Outcome of removing all equalities that involve eliminable variables."""

    problem: Problem
    satisfiable: bool = True
    #: Substitutions performed, in order: (variable, replacement expression).
    #: Useful for reconstructing witness assignments.
    substitutions: list[tuple[Variable, LinearExpr]] = field(default_factory=list)


def is_stride_equality(
    constraint: Constraint, problem: Problem, protected: frozenset[Variable]
) -> bool:
    """Is this equality in irreducible *stride form*?

    A stride equality expresses a divisibility fact about protected
    variables: it has exactly one unprotected variable, that variable is a
    wildcard with coefficient magnitude >= 2, and the wildcard occurs in no
    other constraint of the problem.  ``exists sigma . b*sigma + r = 0`` is
    exactly ``r == 0 (mod b)`` — not expressible as a wildcard-free
    conjunction, so such equalities are kept.
    """

    if not constraint.is_equality:
        return False
    unprotected = [v for v in constraint.variables() if v not in protected]
    if len(unprotected) != 1:
        return False
    w = unprotected[0]
    if not w.is_wildcard or abs(constraint.coeff(w)) < 2:
        return False
    occurrences = sum(1 for c in problem.constraints if c.coeff(w))
    return occurrences == 1


def _solve_for_unit(
    expr: LinearExpr, var: Variable
) -> LinearExpr:
    """Solve ``expr = 0`` for ``var`` whose coefficient is +-1."""

    coeff = expr.coeff(var)
    if coeff not in (1, -1):
        raise OmegaError(f"{var} does not have a unit coefficient in {expr}")
    rest = expr.without(var)
    # coeff*var + rest = 0  =>  var = -rest/coeff
    return (-rest) * coeff  # dividing by +-1 == multiplying


def eliminate_equalities(
    problem: Problem, protected: frozenset[Variable] = frozenset()
) -> EqualityEliminationResult:
    """Remove every equality that mentions an eliminable variable.

    Equalities whose variables are all in ``protected`` are kept verbatim
    (they are part of the answer when projecting), as are *stride*
    equalities (see :func:`is_stride_equality`), which exactly encode
    divisibility facts about protected variables.  On return, the problem
    is normalized and every remaining wildcard either occurs only in
    inequalities (where Fourier-Motzkin can handle it) or is the lone
    wildcard of a stride equality.
    """

    if _obs_off():
        return _eliminate_equalities(problem, protected)
    with _span("omega.eliminate_equalities"):
        result = _eliminate_equalities(problem, protected)
    if result.substitutions:
        _metrics.inc("omega.equality_substitutions", len(result.substitutions))
    return result


def _eliminate_equalities(
    problem: Problem, protected: frozenset[Variable]
) -> EqualityEliminationResult:
    current, status = problem.normalized()
    result = EqualityEliminationResult(current)
    if status is NormalizeStatus.UNSATISFIABLE:
        result.satisfiable = False
        return result

    steps = 0
    while True:
        steps += 1
        if steps > _MAX_EQUALITY_STEPS:
            raise OmegaComplexityError(
                "equality elimination did not terminate",
                site="omega.eliminate",
                budget="equality_steps",
                limit=_MAX_EQUALITY_STEPS,
                spent=steps,
            )
        _guard.checkpoint("omega.eliminate")

        target: Constraint | None = None
        for constraint in current.constraints:
            if not constraint.is_equality:
                continue
            if all(v in protected for v in constraint.variables()):
                continue
            if is_stride_equality(constraint, current, protected):
                continue
            target = constraint
            break
        if target is None:
            result.problem = current
            return result

        expr = target.expr
        eliminable = [(v, c) for v, c in expr.terms.items() if v not in protected]
        # Prefer substituting away a wildcard, then any unit coefficient.
        unit = None
        for v, c in sorted(
            eliminable, key=lambda item: (not item[0].is_wildcard, item[0].name)
        ):
            if c in (1, -1):
                unit = v
                break
        if unit is not None:
            replacement = _solve_for_unit(expr, unit)
            remaining = [c for c in current.constraints if c is not target]
            current = substitute(Problem(remaining, current.name), unit, replacement)
            result.substitutions.append((unit, replacement))
        elif len(eliminable) == 1:
            # Exactly one unprotected variable u with |coeff| >= 2: the
            # equality pins a_u * u = -r.  Scale every *other* constraint
            # containing u by |a_u| (sign-safe for inequalities) and replace
            # a_u * u by -r there; afterwards u occurs only in this
            # equality, which becomes a stride constraint once u is renamed
            # to a wildcard.
            u, a_u = eliminable[0]
            rest = expr.without(u)  # r, so a_u*u + r = 0
            scaled: list[Constraint] = []
            for c in current.constraints:
                if c is target or not c.coeff(u):
                    scaled.append(c)
                    continue
                c_u = c.coeff(u)
                c_rest = c.expr.without(u)
                # |a_u| * c.expr = c_u*sign(a_u)*(a_u*u) + |a_u|*c_rest
                #               -> -c_u*sign(a_u)*r + |a_u|*c_rest
                sign = 1 if a_u > 0 else -1
                new_expr = c_rest * abs(a_u) - rest * (c_u * sign)
                scaled.append(Constraint(new_expr, c.relation))
            new_target = target
            if not u.is_wildcard:
                sigma = fresh_wildcard("stride")
                new_target = target.substitute(u, LinearExpr({sigma: 1}))
                result.substitutions.append((u, LinearExpr({sigma: 1})))
            scaled = [new_target if c is target else c for c in scaled]
            current = Problem(scaled, current.name)
        else:
            # Pugh's symmetric-modulo reduction: pick the unprotected
            # variable with the smallest |coefficient|; the derived equality
            # has a unit coefficient on it, and substituting shrinks the
            # remaining coefficients geometrically.
            var, coeff = min(eliminable, key=lambda item: abs(item[1]))
            m = abs(coeff) + 1
            sigma = fresh_wildcard()
            reduced_terms = {
                v: mod_hat(c, m) for v, c in expr.terms.items() if mod_hat(c, m)
            }
            reduced = LinearExpr(reduced_terms, mod_hat(expr.constant, m))
            derived = reduced - LinearExpr({sigma: m})
            # derived = 0 has coefficient -sign(coeff) on ``var``.
            replacement = _solve_for_unit(derived, var)
            others = [c for c in current.constraints]
            current = substitute(Problem(others, current.name), var, replacement)
            result.substitutions.append((var, replacement))

        current, status = current.normalized()
        if status is NormalizeStatus.UNSATISFIABLE:
            result.satisfiable = False
            result.problem = current
            return result
        if status is NormalizeStatus.TAUTOLOGY:
            result.problem = current
            return result


@dataclass
class FMResult:
    """Outcome of eliminating one variable by Fourier-Motzkin."""

    variable: Variable
    exact: bool
    #: Problem whose integer solutions are a subset of the true projection.
    dark: Problem
    #: Problem whose integer solutions are a superset of the true projection.
    real: Problem
    #: When not exact: problems (still containing no occurrence of the
    #: variable — it was removed via an added equality) whose union with the
    #: dark shadow equals the exact integer projection.
    splinters: list[Problem] = field(default_factory=list)


def fourier_motzkin(
    problem: Problem,
    var: Variable,
    *,
    want_splinters: bool = True,
    max_splinters: int = 64,
) -> FMResult:
    """Eliminate ``var`` from a problem containing no equalities on it.

    Raises :class:`OmegaError` if an equality mentions ``var`` (callers must
    run equality elimination first) and :class:`OmegaComplexityError` if the
    splinter budget is exceeded.
    """

    _guard.checkpoint("omega.fm")
    _guard.spend("fm_steps", site="omega.fm")
    if _obs_off():
        return _fourier_motzkin(problem, var, want_splinters, max_splinters)
    _metrics.inc("omega.fm_calls")
    with _span("omega.fourier_motzkin", var=var.name) as sp:
        result = _fourier_motzkin(problem, var, want_splinters, max_splinters)
    _metrics.observe("omega.fm_seconds", sp.duration)
    if not result.exact:
        _metrics.inc("omega.fm_inexact")
        if result.splinters:
            _metrics.inc(
                "omega.fm_splinters_generated", len(result.splinters)
            )
    return result


def _fourier_motzkin(
    problem: Problem,
    var: Variable,
    want_splinters: bool,
    max_splinters: int,
) -> FMResult:
    keep: list[Constraint] = []
    lowers: list[tuple[int, LinearExpr]] = []  # b, rest: b*var + rest >= 0
    uppers: list[tuple[int, LinearExpr]] = []  # -a, rest: -a*var + rest >= 0
    for constraint in problem.constraints:
        coeff = constraint.coeff(var)
        if coeff == 0:
            keep.append(constraint)
            continue
        if constraint.is_equality:
            raise OmegaError(
                f"fourier_motzkin({var}) called with live equality {constraint}"
            )
        if coeff > 0:
            lowers.append((coeff, constraint.expr.without(var)))
        else:
            uppers.append((-coeff, constraint.expr.without(var)))

    # Unbounded on one side: the projection just drops the constraints.
    if not lowers or not uppers:
        shadow = Problem(keep, problem.name)
        return FMResult(var, True, shadow, shadow.copy())

    # Cross every lower bound b*var + lo >= 0 with every upper bound
    # -a*var + up >= 0.  The real shadow is b*up + a*lo >= 0; the dark
    # shadow tightens its constant by (a-1)*(b-1), and an exact pair
    # (a == 1 or b == 1) gives both shadows the same constraint object.
    # Terms go in in sorted variable order, so the emitted constraints do
    # not depend on the order of the bounds' terms.
    columns = sorted({v for _, rest in lowers + uppers for v in rest.terms})
    real_cs: list[Constraint] = []
    dark_cs: list[Constraint] = []
    exact = True
    GE = Relation.GE
    for b, lo in lowers:
        lo_terms = lo.terms
        for a, up in uppers:
            up_terms = up.terms
            terms = {}
            for v in columns:
                coeff = up_terms.get(v, 0) * b + lo_terms.get(v, 0) * a
                if coeff:
                    terms[v] = coeff
            constant = up.constant * b + lo.constant * a
            real_c = Constraint(_expr(terms, constant), GE)
            real_cs.append(real_c)
            adjust = (a - 1) * (b - 1)
            if adjust:
                exact = False
                dark_cs.append(Constraint(_expr(terms, constant - adjust), GE))
            else:
                dark_cs.append(real_c)
    dark = Problem([*keep, *dark_cs], problem.name)
    real = Problem([*keep, *real_cs], problem.name)

    if exact:
        return FMResult(var, True, dark, real)

    splinters: list[Problem] = []
    if want_splinters:
        a_max = max(a for a, _rest in uppers)
        for b, lo_rest in lowers:
            # For b == 1 this is negative and the loop is empty: unit lower
            # bounds leave no gap between the real and dark shadows.
            limit = (a_max * b - a_max - b) // a_max
            for i in range(limit + 1):
                if len(splinters) >= max_splinters:
                    raise OmegaComplexityError(
                        f"splinter budget exceeded eliminating {var}",
                        site="omega.fm",
                        budget="max_splinters",
                        limit=max_splinters,
                        spent=len(splinters),
                    )
                _guard.spend("splinters", site="omega.fm")
                spl = Problem(list(problem.constraints), problem.name)
                # b*var = beta + i  =>  b*var + lo_rest - i = 0
                spl.add(
                    Constraint(
                        LinearExpr({var: b}) + lo_rest - i, Relation.EQ
                    )
                )
                # "Eliminate" var by renaming it to a fresh wildcard: the
                # variable is existential from here on, and downstream
                # passes (satisfiability, projection) dispose of it via the
                # added equality.
                sigma = fresh_wildcard("spl")
                spl = substitute(spl, var, LinearExpr({sigma: 1}))
                normalized, status = spl.normalized()
                if status is not NormalizeStatus.UNSATISFIABLE:
                    splinters.append(normalized)

    return FMResult(var, False, dark, real, splinters)


def choose_variable(
    problem: Problem,
    candidates: Iterable[Variable],
    *,
    max_growth: int | None = None,
) -> tuple[Variable | None, bool]:
    """Pick the next variable to eliminate and whether it is exact.

    Preference order, following the paper's advice to "choose which variable
    to eliminate to avoid splintering when possible":

    1. a variable unbounded above or below (dropping is free and exact),
    2. an exact elimination (every lower/upper pair has a unit coefficient),
       minimizing the number of generated constraints,
    3. otherwise the variable with the cheapest estimated splintering.

    With ``max_growth`` only the first two kinds qualify, and an exact
    elimination only when it adds at most ``max_growth`` constraints;
    ``(None, False)`` when no candidate does.
    """

    best: Variable | None = None
    best_exact = False
    best_score: tuple | None = None
    for var in sorted(candidates):
        lowers, uppers = problem.bounds_on(var)
        if not lowers or not uppers:
            return var, True
        exact = all(
            c_lo.coeff(var) == 1 or -c_up.coeff(var) == 1
            for c_lo in lowers
            for c_up in uppers
        )
        growth = len(lowers) * len(uppers) - len(lowers) - len(uppers)
        if max_growth is not None and (not exact or growth > max_growth):
            continue
        if exact:
            score = (0, growth)
        else:
            worst = max(-c.coeff(var) for c in uppers) * max(
                c.coeff(var) for c in lowers
            )
            score = (1, worst, growth)
        if best_score is None or score < best_score:
            best = var
            best_exact = exact
            best_score = score
    return best, best_exact


def eliminable(problem: Problem, keep: frozenset[Variable]) -> frozenset[Variable]:
    """Variables outside ``keep`` that Fourier-Motzkin may eliminate.

    After equality elimination with ``keep`` protected, the only wildcards
    left inside equalities are stride-locked (they exactly encode a
    divisibility constraint on kept variables) and must stay; wildcards
    occurring solely in inequalities are ordinary FM candidates.
    """

    locked: set[Variable] = set()
    for constraint in problem.constraints:
        if constraint.is_equality:
            locked.update(v for v in constraint.variables() if v.is_wildcard)
    return frozenset(
        v for v in problem.variables() if v not in keep and v not in locked
    )


def shadow_walk(
    problem: Problem, keep: frozenset[Variable], site: str, *, dark: bool = False
) -> Problem | None:
    """Eliminate every variable outside ``keep`` along one shadow.

    Each step eliminates equalities (``keep`` protected), checkpoints at
    ``site``, then takes the real shadow of one Fourier-Motzkin step
    (the dark shadow when ``dark``), without splinters.  Returns the
    final normalized problem over ``keep``, or None when the shadow is
    empty.  The real walk over-approximates the integer projection (the
    paper's Real Shadow T); the dark walk under-approximates it.
    """

    current = problem
    while True:
        outcome = eliminate_equalities(current, protected=keep)
        if not outcome.satisfiable:
            return None
        current = outcome.problem
        _guard.checkpoint(site)
        candidates = eliminable(current, keep)
        if not candidates:
            normalized, status = current.normalized()
            if status is NormalizeStatus.UNSATISFIABLE:
                return None
            return normalized
        var, _ = choose_variable(current, candidates)
        fm = fourier_motzkin(current, var, want_splinters=False)
        current, status = (fm.dark if dark else fm.real).normalized()
        if status is NormalizeStatus.UNSATISFIABLE:
            return None
