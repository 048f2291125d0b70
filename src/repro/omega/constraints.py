"""Constraints and conjunctive constraint systems (``Problem``).

A :class:`Problem` is the Omega test's unit of work: a conjunction of linear
equalities (``expr = 0``) and inequalities (``expr >= 0``) over integer
variables.  Everything else in the library — projections, gists, Presburger
formulas, dependence problems — is built from Problems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import is_
from typing import Iterable, Mapping, Sequence

from .errors import OmegaError
from .terms import LinearExpr, Variable

__all__ = [
    "Relation",
    "Constraint",
    "Problem",
    "NormalizeStatus",
    "CanonicalProblem",
    "JointCanonical",
    "canonicalize_problems",
    "ge",
    "le",
    "eq",
]


class Relation(enum.Enum):
    """The relation of an affine expression against zero."""

    EQ = "="
    GE = ">="


@dataclass(frozen=True)
class Constraint:
    """A single linear constraint: ``expr = 0`` or ``expr >= 0``."""

    expr: LinearExpr
    relation: Relation

    @property
    def is_equality(self) -> bool:
        return self.relation is Relation.EQ

    def variables(self) -> frozenset[Variable]:
        return self.expr.variables()

    def coeff(self, var: Variable) -> int:
        return self.expr.coeff(var)

    def negated(self) -> "Constraint":
        """Negate an inequality over the integers.

        ``not (e >= 0)`` is ``e <= -1`` i.e. ``-e - 1 >= 0``.  Equalities do
        not have a single-constraint negation (it is a disjunction); callers
        that need it should split into the two inequalities first.
        """

        if self.is_equality:
            raise OmegaError("negation of an equality is a disjunction")
        return Constraint(-self.expr - 1, Relation.GE)

    def as_inequalities(self) -> tuple["Constraint", ...]:
        """An equality as the pair ``e >= 0 and -e >= 0``; a GE unchanged."""

        if self.is_equality:
            return (
                Constraint(self.expr, Relation.GE),
                Constraint(-self.expr, Relation.GE),
            )
        return (self,)

    def substitute(self, var: Variable, replacement: LinearExpr) -> "Constraint":
        """This constraint with ``var`` replaced; ``self`` when ``var`` is
        absent, so the untouched constraint keeps its cached key."""

        expr = self.expr.substitute(var, replacement)
        if expr is self.expr:
            return self
        return Constraint(expr, self.relation)

    def is_satisfied_by(self, assignment: Mapping[Variable, int]) -> bool:
        value = self.expr.evaluate(assignment)
        return value == 0 if self.is_equality else value >= 0

    def sort_key(self) -> tuple:
        """A deterministic total order over constraints, used for display.

        Equalities sort before inequalities; within a relation, constraints
        order by their (kind, name, coefficient) term tuples and then the
        constant, so a conjunction prints the same way no matter what order
        its constraints were added or discovered in.
        """

        terms = tuple(
            sorted(
                (v.kind, v.name, coeff) for v, coeff in self.expr.terms.items()
            )
        )
        return (0 if self.is_equality else 1, terms, self.expr.constant)

    def __str__(self) -> str:
        return f"{self.expr} {self.relation.value} 0"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constraint({self})"


def ge(expr: LinearExpr | Variable | int) -> Constraint:
    """``expr >= 0``."""

    return Constraint(LinearExpr._coerce(expr), Relation.GE)


def le(lhs: LinearExpr | Variable | int, rhs: LinearExpr | Variable | int) -> Constraint:
    """``lhs <= rhs``."""

    return Constraint(LinearExpr._coerce(rhs) - LinearExpr._coerce(lhs), Relation.GE)


def eq(lhs: LinearExpr | Variable | int, rhs: LinearExpr | Variable | int = 0) -> Constraint:
    """``lhs = rhs``."""

    return Constraint(LinearExpr._coerce(lhs) - LinearExpr._coerce(rhs), Relation.EQ)


def negation_clauses(constraint: Constraint) -> list[list[Constraint]]:
    """The integer negation of a constraint, as a union of conjunctions.

    * ``not (e >= 0)`` is the single clause ``[-e - 1 >= 0]``.
    * ``not (e = 0)`` is two clauses: ``[e - 1 >= 0]`` or ``[-e - 1 >= 0]``.
    * A *stride* equality ``b*w + r = 0`` with lone wildcard ``w`` means
      ``r == 0 (mod b)``; its negation is ``r == j (mod b)`` for
      ``j = 1 .. b-1``, each rendered with a fresh wildcard:
      ``b*w' + r - j = 0``.

    Constraints containing wildcards in any other configuration cannot be
    negated clause-wise (the wildcard scopes over the whole conjunction);
    :class:`~repro.omega.errors.OmegaError` is raised for those.
    """

    from .errors import OmegaError
    from .terms import fresh_wildcard

    wilds = [v for v in constraint.variables() if v.is_wildcard]
    if not wilds:
        if constraint.is_equality:
            lo, hi = constraint.as_inequalities()
            return [[lo.negated()], [hi.negated()]]
        return [[constraint.negated()]]
    if (
        constraint.is_equality
        and len(wilds) == 1
        and abs(constraint.coeff(wilds[0])) >= 2
    ):
        w = wilds[0]
        b = abs(constraint.coeff(w))
        clauses: list[list[Constraint]] = []
        for j in range(1, b):
            fresh = fresh_wildcard("neg")
            shifted = constraint.expr.substitute(w, LinearExpr({fresh: 1})) - j
            clauses.append([Constraint(shifted, Relation.EQ)])
        return clauses
    raise OmegaError(
        f"cannot negate constraint with embedded wildcard: {constraint}"
    )


class NormalizeStatus(enum.Enum):
    """Outcome of normalizing a problem."""

    NORMALIZED = "normalized"
    UNSATISFIABLE = "unsatisfiable"
    TAUTOLOGY = "tautology"  # no constraints remain


class Problem:
    """A conjunction of linear constraints over integer variables.

    Problems are lightweight mutable containers; the elimination algorithms
    copy them freely.  An empty Problem is the constraint ``True``.

    :meth:`normalized` memoizes its answer in the ``_norm`` slot as
    ``(snapshot, result, status)``: the constraint objects it read, the
    constraints it produced and the status.  A later call reuses the answer
    only while ``constraints`` holds exactly the snapshot's objects, so any
    ``add``, ``extend`` or item replacement invalidates it.  Constraints are
    immutable, which makes the identity check sufficient.  Pickling drops
    the memo.
    """

    __slots__ = ("constraints", "name", "_norm")

    def __init__(self, constraints: Iterable[Constraint] = (), name: str = ""):
        self.constraints: list[Constraint] = list(constraints)
        self.name = name
        self._norm: tuple | None = None

    def __getstate__(self) -> tuple:
        return self.constraints, self.name

    def __setstate__(self, state: tuple) -> None:
        self.constraints, self.name = state
        self._norm = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def false(cls, name: str = "FALSE") -> "Problem":
        """The unsatisfiable problem ``-1 >= 0``.

        :meth:`normalized` turns a contradiction into an *empty* problem,
        which reads as TRUE, so a FALSE answer carries this explicit
        witness instead.
        """

        return cls([Constraint(LinearExpr({}, -1), Relation.GE)], name)

    def copy(self) -> "Problem":
        duplicate = Problem(self.constraints, self.name)
        duplicate._norm = self._norm
        return duplicate

    def add(self, constraint: Constraint) -> "Problem":
        self.constraints.append(constraint)
        return self

    def add_ge(self, expr: LinearExpr | Variable | int) -> "Problem":
        return self.add(ge(expr))

    def add_le(self, lhs, rhs) -> "Problem":
        return self.add(le(lhs, rhs))

    def add_eq(self, lhs, rhs=0) -> "Problem":
        return self.add(eq(lhs, rhs))

    def add_bounds(self, lo, expr, hi) -> "Problem":
        """``lo <= expr <= hi``."""

        self.add_le(lo, expr)
        self.add_le(expr, hi)
        return self

    def conjoin(self, *others: "Problem") -> "Problem":
        """A new Problem that is the conjunction of this one and ``others``."""

        merged = self.copy()
        for other in others:
            merged.constraints.extend(other.constraints)
        return merged

    def extend(self, constraints: Iterable[Constraint]) -> "Problem":
        self.constraints.extend(constraints)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for constraint in self.constraints:
            result.update(constraint.variables())
        return frozenset(result)

    def equalities(self) -> list[Constraint]:
        return [c for c in self.constraints if c.is_equality]

    def inequalities(self) -> list[Constraint]:
        return [c for c in self.constraints if not c.is_equality]

    def is_trivially_true(self) -> bool:
        return not self.constraints

    def bounds_on(self, var: Variable) -> tuple[list[Constraint], list[Constraint]]:
        """Constraints acting as (lower bounds, upper bounds) on ``var``.

        A constraint with positive coefficient on ``var`` bounds it from
        below; negative, from above.  Equalities are not included.
        """

        lowers: list[Constraint] = []
        uppers: list[Constraint] = []
        for constraint in self.constraints:
            if constraint.is_equality:
                continue
            coeff = constraint.coeff(var)
            if coeff > 0:
                lowers.append(constraint)
            elif coeff < 0:
                uppers.append(constraint)
        return lowers, uppers

    def is_satisfied_by(self, assignment: Mapping[Variable, int]) -> bool:
        return all(c.is_satisfied_by(assignment) for c in self.constraints)

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def normalized(self) -> tuple["Problem", NormalizeStatus]:
        """Return an equivalent normalized problem and a status.

        Normalization performs, per the original Omega test description:

        * constant-constraint evaluation (``0 >= -3`` drops, ``0 >= 3`` is
          unsatisfiable),
        * GCD reduction of every constraint — an equality whose constant is
          not divisible by the coefficient gcd is unsatisfiable; an
          inequality's constant is tightened by floor division,
        * canonical signs for equalities (first coefficient positive),
        * de-duplication: identical inequality normals keep only the
          tightest constant; a matched pair of opposite inequalities
          becomes an equality; conflicting bounds or equalities are
          detected as unsatisfiable.

        The answer is memoized (see the class docstring), and the returned
        problem is marked as its own normal form, so normalizing it again
        costs one identity check.  Each call returns a fresh ``Problem``
        that the caller may mutate.
        """

        constraints = self.constraints
        memo = self._norm
        if (
            memo is not None
            and len(memo[0]) == len(constraints)
            and all(map(is_, memo[0], constraints))
        ):
            result, status = memo[1], memo[2]
        else:
            snapshot = tuple(constraints)
            result, status = _normalize(snapshot)
            self._norm = (snapshot, result, status)
        normal = Problem(result, self.name)
        normal._norm = (
            result,
            result,
            NormalizeStatus.NORMALIZED if result else NormalizeStatus.TAUTOLOGY,
        )
        return normal, status

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def sorted_constraints(self) -> list[Constraint]:
        """The constraints in the display total order (see
        :meth:`Constraint.sort_key`); insertion order does not leak into
        printed or serialized output."""

        return sorted(self.constraints, key=Constraint.sort_key)

    def __str__(self) -> str:
        if not self.constraints:
            return "TRUE"
        return " and ".join(str(c) for c in self.sorted_constraints())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<Problem{label}: {self}>"

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def canonical(self) -> "CanonicalProblem":
        """The canonical, hashable form of this conjunction.

        Two problems share a canonical form exactly when their normalized
        constraint systems are identical up to a kind-preserving renaming
        of variables: constraints are GCD-normalized and deduplicated (via
        :meth:`normalized`), variables are renamed positionally by a
        structural signature (alpha-equivalence), and constraints are
        sorted under a total order.  The result carries the renaming in
        both directions so solver caches can translate stored answers back
        into a caller's variable space.

        >>> from repro.omega.terms import Variable
        >>> x, y = Variable("x"), Variable("y")
        >>> a = Problem().add_ge(2 * x - 4).add_le(x, 9)
        >>> b = Problem().add_le(y, 9).add_ge(y - 2)   # scaled + renamed
        >>> a.canonical() == b.canonical()
        True
        >>> hash(a.canonical()) == hash(b.canonical())
        True
        """

        return canonicalize_problems([self]).narrow(0)


_UNSATISFIABLE: tuple = ((), NormalizeStatus.UNSATISFIABLE)


def _first_sign(expr: LinearExpr) -> int:
    """The coefficient of ``expr``'s first term in (kind, name) order."""

    items = iter(expr.terms.items())
    (name, kind), sign = next(items)
    for (n, k), c in items:
        if k < kind or (k == kind and n < name):
            name, kind, sign = n, k, c
    return sign


def _normalize(
    constraints: Sequence[Constraint],
) -> tuple[tuple[Constraint, ...], NormalizeStatus]:
    """The body of :meth:`Problem.normalized`: result constraints and status.

    Constraints are collected by normal key (``LinearExpr.key()``, cached
    on the expression); the constraint kept under a key carries the
    tightest constant.  The key of ``-expr`` is read from
    ``LinearExpr.negated_key()``, also cached, so ``-expr`` itself is
    built only for a matched pair that must flip sign to become an
    equality.  A constraint that normalization leaves
    unchanged is passed through as the same object.
    """

    EQ = Relation.EQ
    ineqs: dict[tuple, Constraint] = {}
    eqs: dict[tuple, Constraint] = {}

    for constraint in constraints:
        expr = constraint.expr
        g = expr.coefficients_gcd()
        if constraint.relation is EQ:
            if g == 0:  # constant constraint
                if expr.constant:
                    return _UNSATISFIABLE
                continue
            if expr.constant % g:
                return _UNSATISFIABLE
            if g > 1:
                expr = expr.exact_div(g)
            # Canonical sign: make the lexicographically-first term positive.
            if _first_sign(expr) < 0:
                expr = -expr
            key = expr.key()
            known = eqs.get(key)
            if known is None:
                eqs[key] = (
                    constraint if expr is constraint.expr else Constraint(expr, EQ)
                )
            elif known.expr.constant != expr.constant:
                return _UNSATISFIABLE
        else:
            if g == 0:
                if expr.constant < 0:
                    return _UNSATISFIABLE
                continue
            if g > 1:
                expr = expr.scale_and_floor(g)
                constraint = Constraint(expr, Relation.GE)
            key = expr.key()
            known = ineqs.get(key)
            # Same normal: a smaller constant is a tighter constraint.
            if known is None or expr.constant < known.expr.constant:
                ineqs[key] = constraint

    # Check opposite inequality pairs: a.x + c1 >= 0 and -a.x + c2 >= 0
    # mean -c1 <= a.x <= c2, inconsistent when -c1 > c2, an equality when
    # -c1 == c2.
    consumed: set[tuple] = set()
    for key, constraint in ineqs.items():
        if consumed and key in consumed:
            continue
        expr = constraint.expr
        neg_key = expr.negated_key()
        other = ineqs.get(neg_key)
        if other is None or (consumed and neg_key in consumed):
            continue
        if -expr.constant > other.expr.constant:
            return _UNSATISFIABLE
        if -expr.constant == other.expr.constant:
            consumed.add(key)
            consumed.add(neg_key)
            # a.x = -c1 as an equality with canonical sign.
            eq_key = key
            if _first_sign(expr) < 0:
                expr, eq_key = -expr, neg_key
            known = eqs.get(eq_key)
            if known is not None and known.expr.constant != expr.constant:
                return _UNSATISFIABLE
            eqs[eq_key] = Constraint(expr, EQ)

    result = list(eqs.values())
    for key, constraint in ineqs.items():
        if consumed and key in consumed:
            continue
        if eqs:
            constant = constraint.expr.constant
            # An inequality implied by an equality with the same normal
            # drops.  The equality a.x + k = 0 says a.x = -k; the
            # inequality a.x + c >= 0 says a.x >= -c, implied when k <= c.
            known = eqs.get(key)
            if known is not None:
                if known.expr.constant > constant:
                    return _UNSATISFIABLE
                continue
            # equality: -a.x + k = 0 => a.x = k; inequality a.x >= -c
            # holds iff k >= -c i.e. k + c >= 0.
            known = eqs.get(constraint.expr.negated_key())
            if known is not None:
                if known.expr.constant + constant < 0:
                    return _UNSATISFIABLE
                continue
        result.append(constraint)

    if not result:
        return (), NormalizeStatus.TAUTOLOGY
    return tuple(result), NormalizeStatus.NORMALIZED


#: Key marking a problem whose normalization proved it unsatisfiable.
_UNSAT_KEY: tuple = ("UNSAT",)


class JointCanonical:
    """Canonical form of one or more problems over a shared variable order.

    Produced by :func:`canonicalize_problems`; ``keys[i]`` is the canonical
    key of the i-th problem, and ``key`` combines them all (plus the shared
    variable-kind vector) into a single hashable value.  ``indices`` gives
    every original variable's positional index; ``rename`` maps it to its
    canonical stand-in ``__c{index}`` (kind preserved).  ``rename`` is
    built on first access: a satisfiability query only needs the key.
    """

    __slots__ = ("keys", "kinds", "indices", "statuses", "key", "_rename")

    def __init__(
        self,
        keys: tuple[tuple, ...],
        kinds: tuple[str, ...],
        indices: dict[Variable, int],
        statuses: tuple["NormalizeStatus", ...],
    ):
        self.keys = keys
        self.kinds = kinds
        self.indices = indices
        self.statuses = statuses
        self.key = (keys, kinds)
        self._rename: dict[Variable, Variable] | None = None

    @property
    def rename(self) -> dict[Variable, Variable]:
        """The original-to-canonical variable mapping (built once)."""

        rename = self._rename
        if rename is None:
            rename = self._rename = {
                var: Variable(f"__c{position}", var.kind)
                for var, position in self.indices.items()
            }
        return rename

    def inverse(self) -> dict[Variable, Variable]:
        """The canonical-to-original variable mapping."""

        return {canon: orig for orig, canon in self.rename.items()}

    def narrow(self, index: int) -> "CanonicalProblem":
        """A single-problem :class:`CanonicalProblem` view of one group."""

        return CanonicalProblem(
            (self.keys[index], self.kinds), self, self.statuses[index]
        )


class CanonicalProblem:
    """The canonical form of a single :class:`Problem`.

    Structural ``__eq__``/``__hash__`` compare only the canonical ``key``:
    alpha-equivalent problems (and problems whose constraints normalize to
    the same system) collide.  The original-to-canonical variable renaming
    is retained for cache result translation; ``indices`` and ``rename``
    are the ones of the :class:`JointCanonical` it was narrowed from,
    shared rather than copied.
    """

    __slots__ = ("key", "_joint", "status")

    def __init__(self, key: tuple, joint: JointCanonical, status: "NormalizeStatus"):
        self.key = key
        self._joint = joint
        self.status = status

    @property
    def indices(self) -> dict[Variable, int]:
        return self._joint.indices

    @property
    def rename(self) -> dict[Variable, Variable]:
        return self._joint.rename

    @property
    def is_unsatisfiable(self) -> bool:
        return self.status is NormalizeStatus.UNSATISFIABLE

    def inverse(self) -> dict[Variable, Variable]:
        return self._joint.inverse()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalProblem):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CanonicalProblem({self.key!r})"


def canonicalize_problems(problems: Sequence[Problem]) -> JointCanonical:
    """Canonicalize several problems under one shared variable renaming.

    Needed when a cache key spans multiple conjunctions that share
    variables (``gist p given q``, implication against a union): the
    renaming must be computed jointly so that a variable common to two
    groups maps to the same canonical index in both.

    Each problem is normalized first; a problem that normalizes to
    *unsatisfiable* contributes the distinguished ``("UNSAT",)`` key and no
    constraints.  Variable order is decided by a structural signature (the
    multiset of name-free constraint fingerprints each variable occurs in,
    with its coefficients), with name/kind as the final tie-break — so the
    canonical form is invariant under any renaming that the signatures can
    distinguish, which in practice covers the near-identical subproblems
    the dependence analysis re-issues.
    """

    EQ = Relation.EQ
    UNSATISFIABLE = NormalizeStatus.UNSATISFIABLE
    groups: list[Sequence[Constraint]] = []
    statuses: list[NormalizeStatus] = []
    occurrences: dict[Variable, list[tuple]] = {}
    for tag, problem in enumerate(problems):
        norm, status = problem.normalized()
        statuses.append(status)
        if status is UNSATISFIABLE:
            groups.append(())
            continue
        constraints = norm.constraints
        groups.append(constraints)
        for constraint in constraints:
            expr = constraint.expr
            terms = expr.terms
            # A name-free fingerprint of the constraint within the group.
            fingerprint = (
                tag,
                0 if constraint.relation is EQ else 1,
                expr.constant,
                tuple(sorted([(v.kind, coeff) for v, coeff in terms.items()])),
            )
            for var, coeff in terms.items():
                found = occurrences.get(var)
                if found is None:
                    occurrences[var] = [(fingerprint, coeff)]
                else:
                    found.append((fingerprint, coeff))

    for found in occurrences.values():
        found.sort()
    ordered = sorted(
        occurrences,
        key=lambda v: ((v.kind, occurrences[v]), v.kind, v.name),
    )
    indices = {var: position for position, var in enumerate(ordered)}
    kinds = tuple([var.kind for var in ordered])

    keys: list[tuple] = []
    for constraints, status in zip(groups, statuses):
        if status is UNSATISFIABLE:
            keys.append(_UNSAT_KEY)
            continue
        entries = []
        for constraint in constraints:
            expr = constraint.expr
            entries.append(
                (
                    0 if constraint.relation is EQ else 1,
                    tuple(
                        sorted([(indices[v], coeff) for v, coeff in expr.terms.items()])
                    ),
                    expr.constant,
                )
            )
        entries.sort()
        keys.append(tuple(entries))

    return JointCanonical(tuple(keys), kinds, indices, tuple(statuses))
