"""A decision layer for the subclass of Presburger formulas the paper uses.

Presburger formulas are built from integer constants and variables,
addition, comparisons, the boolean connectives and quantifiers.  The paper
extends the Omega test with projection (for embedded existential
quantifiers) and gists (for implications); "combined with any standard
transformation of predicate calculus" this decides the formulas dependence
analysis needs, e.g.::

    forall x, exists y . p          <->  pi_{not y}(p) is a tautology
    forall x, (exists y.p) => (exists z.q)
                                    <->  pi_{not y}(p) => pi_{not z}(q)

This module provides a formula AST plus ``satisfiable``/``valid``.  The
implementation performs quantifier elimination bottom-up: formulas are
normalized into unions of conjunctions (lists of :class:`Problem`), with
existential quantifiers handled by *exact* projection (dark shadow plus
splinters), so the procedure is complete for any formula that stays within
the configured complexity budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .constraints import Constraint, Problem, eq as _eq, ge as _ge
from .errors import OmegaComplexityError
from .project import project_away
from .solve import is_satisfiable
from .terms import LinearExpr, Variable

__all__ = [
    "Formula",
    "Atom",
    "And",
    "Or",
    "Not",
    "Implies",
    "Exists",
    "Forall",
    "TRUE",
    "FALSE",
    "satisfiable",
    "valid",
    "to_problems",
]

_MAX_DISJUNCTS = 2048


class Formula:
    """Base class for Presburger formulas."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Implies(self, other)


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic affine constraint."""

    constraint: Constraint

    @staticmethod
    def ge(expr) -> "Atom":
        """``expr >= 0``."""

        return Atom(_ge(expr))

    @staticmethod
    def le(lhs, rhs) -> "Atom":
        """``lhs <= rhs``."""

        from .constraints import le as _le

        return Atom(_le(lhs, rhs))

    @staticmethod
    def lt(lhs, rhs) -> "Atom":
        """``lhs < rhs`` (over the integers: ``lhs <= rhs - 1``)."""

        from .constraints import le as _le

        return Atom(_le(LinearExpr._coerce(lhs) + 1, rhs))

    @staticmethod
    def eq(lhs, rhs=0) -> "Atom":
        """``lhs = rhs``."""

        return Atom(_eq(lhs, rhs))


@dataclass(frozen=True)
class _Nary(Formula):
    operands: tuple[Formula, ...]

    def __init__(self, *operands: Formula):
        flattened: list[Formula] = []
        for op in operands:
            if isinstance(op, self.__class__):
                flattened.extend(op.operands)
            else:
                flattened.append(op)
        object.__setattr__(self, "operands", tuple(flattened))


class And(_Nary):
    """Conjunction."""


class Or(_Nary):
    """Disjunction."""


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class Exists(Formula):
    variables: tuple[Variable, ...]
    body: Formula

    def __init__(self, variables: Iterable[Variable], body: Formula):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "body", body)


@dataclass(frozen=True)
class Forall(Formula):
    variables: tuple[Variable, ...]
    body: Formula

    def __init__(self, variables: Iterable[Variable], body: Formula):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "body", body)


class _TrueFormula(Formula):
    def __repr__(self) -> str:  # pragma: no cover
        return "TRUE"


class _FalseFormula(Formula):
    def __repr__(self) -> str:  # pragma: no cover
        return "FALSE"


TRUE = _TrueFormula()
FALSE = _FalseFormula()


def to_problems(formula: Formula) -> list[Problem]:
    """Quantifier-eliminate and normalize into a union of conjunctions.

    The returned problems mention only the formula's free variables; their
    union has exactly the formula's integer models.  Raises
    :class:`OmegaComplexityError` when the disjunct budget is exceeded.
    """

    return _qe(formula, negate=False)


def satisfiable(formula: Formula) -> bool:
    """Does the formula have an integer model (free variables existential)?"""

    return any(is_satisfiable(p) for p in to_problems(formula))


def valid(formula: Formula) -> bool:
    """Is the formula true for every assignment of its free variables?"""

    return not satisfiable(Not(formula))


def _check_budget(problems: Sequence[Problem]) -> None:
    if len(problems) > _MAX_DISJUNCTS:
        raise OmegaComplexityError(
            "formula normalization disjunct budget exceeded",
            site="omega.presburger",
            budget="max_disjuncts",
            limit=_MAX_DISJUNCTS,
            spent=len(problems),
        )


def _qe(formula: Formula, negate: bool) -> list[Problem]:
    """Normalize ``formula`` (or its negation) to a union of Problems."""

    if isinstance(formula, _TrueFormula):
        return _false_union() if negate else [_true_problem()]
    if isinstance(formula, _FalseFormula):
        return [_true_problem()] if negate else _false_union()
    if isinstance(formula, Atom):
        if not negate:
            return [Problem([formula.constraint])]
        constraint = formula.constraint
        if constraint.is_equality:
            lo, hi = constraint.as_inequalities()
            return [Problem([lo.negated()]), Problem([hi.negated()])]
        return [Problem([constraint.negated()])]
    if isinstance(formula, Not):
        return _qe(formula.operand, not negate)
    if isinstance(formula, Implies):
        rewritten = Or(Not(formula.antecedent), formula.consequent)
        return _qe(rewritten, negate)
    if isinstance(formula, And):
        if negate:
            return _qe(Or(*[Not(op) for op in formula.operands]), False)
        return _conjoin_unions([_qe(op, False) for op in formula.operands])
    if isinstance(formula, Or):
        if negate:
            return _qe(And(*[Not(op) for op in formula.operands]), False)
        union: list[Problem] = []
        for op in formula.operands:
            union.extend(_qe(op, False))
            _check_budget(union)
        return union
    if isinstance(formula, Forall):
        return _qe(Exists(formula.variables, Not(formula.body)), not negate)
    if isinstance(formula, Exists):
        if negate:
            # not exists v . body == forall v . not body; eliminate by
            # negating the eliminated form of the existential.
            inner = _qe(formula, False)
            return _negate_union(inner)
        union: list[Problem] = []
        for disjunct in _qe(formula.body, False):
            projection = project_away(disjunct, formula.variables)
            if not projection.exact_union:
                raise OmegaComplexityError(
                    "projection lost exactness during quantifier elimination"
                )
            union.extend(projection.pieces)
            _check_budget(union)
        return union
    raise TypeError(f"not a formula: {formula!r}")


def _true_problem() -> Problem:
    return Problem()


def _false_union() -> list[Problem]:
    return []


def _conjoin_unions(unions: list[list[Problem]]) -> list[Problem]:
    result: list[Problem] = [_true_problem()]
    for union in unions:
        next_result: list[Problem] = []
        for left in result:
            for right in union:
                combined = left.conjoin(right)
                normalized, status = combined.normalized()
                from .constraints import NormalizeStatus

                if status is NormalizeStatus.UNSATISFIABLE:
                    continue
                next_result.append(normalized)
            _check_budget(next_result)
        result = next_result
        if not result:
            return []
    return result


def _negate_union(union: list[Problem]) -> list[Problem]:
    """Negate a union of conjunctions into a union of conjunctions."""

    from .constraints import negation_clauses

    if not union:
        return [_true_problem()]
    cubes: list[list[Constraint]] = [[]]
    for problem in union:
        literals: list[list[Constraint]] = []
        for constraint in problem.constraints:
            literals.extend(negation_clauses(constraint))
        if not literals:
            return []  # negating TRUE
        new_cubes: list[list[Constraint]] = []
        for cube in cubes:
            for literal in literals:
                candidate = cube + literal
                trial = Problem(candidate)
                if is_satisfiable(trial):
                    new_cubes.append(candidate)
            _check_budget(new_cubes)
        cubes = new_cubes
        if not cubes:
            return []
    return [Problem(cube) for cube in cubes]
