"""Symbolic dependence analysis (Section 5 of the paper).

Three capabilities:

* **Dependence conditions** — project the dependence problem onto the
  symbolic constants to find under which conditions a dependence exists;
  use *gists* to report only what is new relative to what is already known
  (Example 7: the outer-loop-carried dependence exists only when
  ``1 <= x <= 50`` given ``50 <= n <= 100``).

* **User queries** — when index arrays or non-linear terms appear, the
  residual condition mentions uninterpreted values; we render the paper's
  dialogue ("Is it the case that for all a & b such that 1 <= a < b <= n,
  the following never happens?  Q[a] = Q[b]").

* **Array properties** — instead of a yes/no answer, the user may state
  that an array is injective, strictly increasing, a permutation, or
  value-bounded; these instantiate linear constraints per occurrence pair
  (an Ackermann-style case split) and dependence existence is re-decided.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..ir.ast import Access
from ..omega import Constraint, LinearExpr, Problem, Variable
from ..solver import gist, gist_of_projection, is_satisfiable, project
from .dependences import DependenceKind
from .plan import QueryPlan
from .problem import PairProblem, SymbolTable, UTermOccurrence
from .vectors import RestraintVector, restraint_vectors

__all__ = [
    "SymbolicCondition",
    "dependence_conditions",
    "DependenceQuery",
    "generate_query",
    "ArrayProperty",
    "PropertyRegistry",
    "property_case_splits",
    "satisfiable_with_properties",
    "symbolic_dependence_exists",
    "format_constraint",
    "format_problem",
]


def _pair_restraints(
    src: Access,
    dst: Access,
    symbols: SymbolTable | None,
    assertions: Iterable[Constraint],
    array_bounds,
) -> tuple[PairProblem, list[RestraintVector]]:
    """The pair problem and its restraint vectors, through a query plan."""

    plan = QueryPlan(symbols, assertions=assertions, array_bounds=array_bounds)
    pair = plan.pair_problem(src, dst)
    state = plan.base_state(pair.full(), pair.delta_vars)
    return pair, restraint_vectors(state, pair.delta_vars, pair.forward)


# ---------------------------------------------------------------------------
# Dependence conditions (Example 7)
# ---------------------------------------------------------------------------


@dataclass
class SymbolicCondition:
    """The conditions under which one dependence (restraint vector) exists."""

    restraint: RestraintVector
    #: New information required for the dependence, given the context.
    condition: Problem
    #: What was already known (the projection of p).
    context: Problem
    #: False when a projection lost exactness and the condition is only a
    #: conservative approximation.
    exact: bool = True

    def __str__(self) -> str:
        return f"{self.restraint}: {format_problem(self.condition)}"


def dependence_conditions(
    src: Access,
    dst: Access,
    kind: DependenceKind = DependenceKind.FLOW,
    symbols: SymbolTable | None = None,
    *,
    assertions: Iterable[Constraint] = (),
    array_bounds=None,
    keep_syms: Sequence[Variable] | None = None,
) -> list[SymbolicCondition]:
    """Conditions on symbolic constants for each restraint vector.

    Implements Figure 5: ``p`` is loop bounds + restraint + assertions (what
    must hold for a dependence carried there to be interesting); ``q`` adds
    subscript equality (the dependence exists); the answer is
    ``gist pi_keep(p and q) given pi_keep(p)``.
    """

    pair, restraints = _pair_restraints(
        src, dst, symbols, assertions, array_bounds
    )
    keep = list(keep_syms) if keep_syms is not None else pair.sym_vars()

    conditions: list[SymbolicCondition] = []
    for restraint in restraints:
        p = Problem(
            list(pair.domain.constraints)
            + restraint.constraints(pair.delta_vars),
            name="p",
        )
        # Section 3.3.2, with the projection of p kept as the context.
        context, p_exact = project(p, keep).single()
        combined, pq_exact = project(p.conjoin(pair.coupling), keep).single()
        conditions.append(
            SymbolicCondition(
                restraint,
                gist(combined, context),
                context,
                exact=p_exact and pq_exact,
            )
        )
    return conditions


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _split_expr(expr: LinearExpr, rename) -> tuple[str, str]:
    """Split an expression into (positive side, negative side) strings."""

    pos: list[str] = []
    neg: list[str] = []
    for var, coeff in sorted(
        expr.terms.items(), key=lambda item: (item[0].kind, item[0].name)
    ):
        name = rename(var)
        magnitude = abs(coeff)
        text = name if magnitude == 1 else f"{magnitude}*{name}"
        (pos if coeff > 0 else neg).append(text)
    constant = expr.constant
    if constant > 0:
        pos.append(str(constant))
    elif constant < 0:
        neg.append(str(-constant))
    return (" + ".join(pos) or "0", " + ".join(neg) or "0")


def format_constraint(constraint: Constraint, rename=None) -> str:
    """Human-oriented rendering: ``a.x + c >= 0`` as ``lhs >= rhs``."""

    rename = rename or (lambda v: v.name)
    pos, neg = _split_expr(constraint.expr, rename)
    op = "=" if constraint.is_equality else ">="
    return f"{pos} {op} {neg}"


def format_problem(problem: Problem, rename=None) -> str:
    """Render a conjunction for humans ("x >= 1 and 50 >= x")."""

    if problem.is_trivially_true():
        return "TRUE"
    return " and ".join(
        format_constraint(c, rename) for c in problem.sorted_constraints()
    )


# ---------------------------------------------------------------------------
# Queries about uninterpreted terms (Example 8)
# ---------------------------------------------------------------------------


@dataclass
class DependenceQuery:
    """A question to put to the user, in the paper's dialogue style."""

    src: Access
    dst: Access
    kind: DependenceKind
    restraint: RestraintVector
    #: Residual condition over uninterpreted values (and symbols).
    condition: Problem
    #: Known constraints over the argument variables and symbols.
    context: Problem
    #: Friendly names for occurrence variables.
    renaming: dict[Variable, str] = field(default_factory=dict)
    #: The quantified argument names shown in the "for all" clause.
    arg_names: tuple[str, ...] = ()

    def _rename(self, var: Variable) -> str:
        return self.renaming.get(var, var.name)

    @property
    def is_trivial(self) -> bool:
        """True when the residual condition does not involve the unknown
        (uninterpreted) values — there is nothing to ask the user about."""

        occurrence_vars = set(self.renaming)
        return not any(
            v in occurrence_vars
            for constraint in self.condition.constraints
            for v in constraint.variables()
        )

    def render(self) -> str:
        context_text = format_problem(self.context, self._rename)
        condition_text = format_problem(self.condition, self._rename)
        quantified = " & ".join(self.arg_names) or "values"
        return (
            f"Is it the case that for all {quantified} such that\n"
            f"  {context_text},\n"
            "the following never happens?\n\n"
            f"  {condition_text}\n"
        )

    def __str__(self) -> str:
        return self.render()


_ARG_LETTERS = "abcdefgh"


def generate_query(
    src: Access,
    dst: Access,
    kind: DependenceKind = DependenceKind.FLOW,
    symbols: SymbolTable | None = None,
    *,
    assertions: Iterable[Constraint] = (),
    array_bounds=None,
) -> list[DependenceQuery]:
    """Generate the user queries for a pair with uninterpreted terms.

    One query per restraint vector whose residual condition involves the
    unknown values.  Queries with a trivially-true condition mean the
    dependence exists regardless; an unsatisfiable residual means no
    dependence.
    """

    pair, restraints = _pair_restraints(
        src, dst, symbols, assertions, array_bounds
    )
    occurrences = pair.occurrences()

    # Friendly names: argument variables become a, b, c ... ; value
    # variables render as Q[a] / a*b / k(a).
    renaming: dict[Variable, str] = {}
    letters = iter(_ARG_LETTERS)
    for occ in occurrences:
        for arg_var in occ.arg_vars:
            if arg_var not in renaming:
                renaming[arg_var] = next(letters, arg_var.name)
    for occ in occurrences:
        arg_names = [renaming.get(a, a.name) for a in occ.arg_vars]
        if occ.term.kind == "product":
            renaming[occ.value_var] = "*".join(arg_names)
        elif occ.term.kind == "scalar":
            renaming[occ.value_var] = (
                f"{occ.term.name}({', '.join(arg_names)})"
                if arg_names
                else occ.term.name
            )
        else:
            renaming[occ.value_var] = f"{occ.term.name}[{', '.join(arg_names)}]"

    value_vars = [occ.value_var for occ in occurrences]
    arg_vars = [a for occ in occurrences for a in occ.arg_vars]
    plain_syms = [
        v for v in pair.sym_vars() if v not in set(value_vars) | set(arg_vars)
    ]

    queries: list[DependenceQuery] = []
    for restraint in restraints:
        p = Problem(
            list(pair.domain.constraints)
            + restraint.constraints(pair.delta_vars),
            name="p",
        )
        keep = value_vars + arg_vars + plain_syms
        condition = gist_of_projection(p, pair.coupling, keep)
        context_keep = arg_vars + plain_syms
        context, _ = project(p, context_keep).single()
        arg_names = tuple(
            sorted({renaming[a] for a in arg_vars if a in renaming})
        )
        queries.append(
            DependenceQuery(
                src, dst, kind, restraint, condition, context, renaming, arg_names
            )
        )
    return queries


# ---------------------------------------------------------------------------
# Array properties (Ackermann-style case splits)
# ---------------------------------------------------------------------------


class ArrayProperty(enum.Enum):
    """User-assertable properties of index arrays (Section 5)."""

    INJECTIVE = "injective"
    STRICTLY_INCREASING = "strictly_increasing"
    NONDECREASING = "nondecreasing"
    PERMUTATION = "permutation"


class PropertyRegistry:
    """User-asserted properties of index arrays / unknown functions."""

    def __init__(self) -> None:
        self._properties: dict[str, set[ArrayProperty]] = {}
        self._value_bounds: dict[str, tuple[int | Variable, int | Variable]] = {}

    def declare(self, array: str, *properties: ArrayProperty) -> "PropertyRegistry":
        self._properties.setdefault(array, set()).update(properties)
        return self

    def bound_values(self, array: str, lo, hi) -> "PropertyRegistry":
        """Assert ``lo <= array[...] <= hi`` for every element."""

        self._value_bounds[array] = (lo, hi)
        return self

    def properties(self, array: str) -> set[ArrayProperty]:
        found = set(self._properties.get(array, set()))
        if ArrayProperty.PERMUTATION in found:
            found.add(ArrayProperty.INJECTIVE)
        return found

    def value_bounds(self, array: str):
        return self._value_bounds.get(array)


def _pair_branches(
    o1: UTermOccurrence,
    o2: UTermOccurrence,
    registry: PropertyRegistry,
) -> list[list[Constraint]]:
    """Case-split constraints for one occurrence pair of the same term."""

    from ..omega import eq as oeq, le as ole

    v1, v2 = o1.value_var, o2.value_var
    props = registry.properties(o1.term.name)

    if len(o1.arg_vars) != 1 or len(o2.arg_vars) != 1:
        # Multi-argument terms (products, multi-dim index arrays): only
        # functional consistency — all arguments equal forces equal values;
        # otherwise some argument differs in one of two directions.
        branches: list[list[Constraint]] = []
        equal = [oeq(a1, a2) for a1, a2 in zip(o1.arg_vars, o2.arg_vars)]
        branches.append(equal + [oeq(v1, v2)])
        for index in range(len(o1.arg_vars)):
            a1, a2 = o1.arg_vars[index], o2.arg_vars[index]
            branches.append([ole(a1 + 1, a2)])
            branches.append([ole(a2 + 1, a1)])
        return branches

    s1, s2 = o1.arg_vars[0], o2.arg_vars[0]
    lt: list[Constraint] = [ole(s1 + 1, s2)]
    eq_branch: list[Constraint] = [oeq(s1, s2), oeq(v1, v2)]
    gt: list[Constraint] = [ole(s2 + 1, s1)]

    if ArrayProperty.STRICTLY_INCREASING in props:
        return [
            lt + [ole(v1 + 1, v2)],
            eq_branch,
            gt + [ole(v2 + 1, v1)],
        ]
    if ArrayProperty.NONDECREASING in props:
        return [
            lt + [ole(v1, v2)],
            eq_branch,
            gt + [ole(v2, v1)],
        ]
    if ArrayProperty.INJECTIVE in props:
        return [
            lt + [ole(v1 + 1, v2)],
            lt + [ole(v2 + 1, v1)],
            eq_branch,
            gt + [ole(v1 + 1, v2)],
            gt + [ole(v2 + 1, v1)],
        ]
    return [lt, eq_branch, gt]


def property_case_splits(
    occurrences: Sequence[UTermOccurrence],
    registry: PropertyRegistry,
    symbols: SymbolTable | None = None,
) -> list[list[Constraint]]:
    """All combined case splits (one list of constraints per branch).

    Also instantiates unconditional value bounds (permutation arrays get
    element bounds from :meth:`PropertyRegistry.bound_values`).
    """

    from ..omega import le as ole

    unconditional: list[Constraint] = []
    for occ in occurrences:
        bounds = registry.value_bounds(occ.term.name)
        if bounds is not None:
            lo, hi = bounds
            lo_expr = LinearExpr({symbols.sym(lo): 1}) if isinstance(lo, str) else lo
            hi_expr = LinearExpr({symbols.sym(hi): 1}) if isinstance(hi, str) else hi
            unconditional.append(ole(lo_expr, occ.value_var))
            unconditional.append(ole(occ.value_var, hi_expr))

    grouped: dict[tuple, list[UTermOccurrence]] = {}
    for occ in occurrences:
        grouped.setdefault(occ.key, []).append(occ)

    pair_splits: list[list[list[Constraint]]] = []
    for group in grouped.values():
        for o1, o2 in itertools.combinations(group, 2):
            pair_splits.append(_pair_branches(o1, o2, registry))

    if not pair_splits:
        return [unconditional]
    branches: list[list[Constraint]] = []
    for combo in itertools.product(*pair_splits):
        merged = list(unconditional)
        for constraints in combo:
            merged.extend(constraints)
        branches.append(merged)
    return branches


def satisfiable_with_properties(
    problem: Problem,
    occurrences: Sequence[UTermOccurrence],
    registry: PropertyRegistry,
    symbols: SymbolTable | None = None,
) -> bool:
    """Is the problem satisfiable under the declared array properties?"""

    symbols = symbols or SymbolTable()
    for branch in property_case_splits(occurrences, registry, symbols):
        trial = Problem(list(problem.constraints) + branch)
        if is_satisfiable(trial):
            return True
    return False


def symbolic_dependence_exists(
    src: Access,
    dst: Access,
    kind: DependenceKind = DependenceKind.FLOW,
    registry: PropertyRegistry | None = None,
    symbols: SymbolTable | None = None,
    *,
    assertions: Iterable[Constraint] = (),
    array_bounds=None,
) -> bool:
    """Decide dependence existence under uninterpreted-term properties.

    Without a registry this is the conservative default (unknown values are
    unconstrained, so a dependence is assumed whenever the affine parts
    allow it); with properties the Ackermann case split can rule it out —
    e.g. an output dependence through a permutation array is impossible.
    """

    registry = registry or PropertyRegistry()
    symbols = symbols or SymbolTable()
    pair, restraints = _pair_restraints(
        src, dst, symbols, assertions, array_bounds
    )
    base = pair.full()
    occurrences = pair.occurrences()
    for restraint in restraints:
        constrained = Problem(
            list(base.constraints) + restraint.constraints(pair.delta_vars)
        )
        if satisfiable_with_properties(constrained, occurrences, registry, symbols):
            return True
    return False
