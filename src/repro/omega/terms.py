"""Variables and affine (linear integer) expressions.

These are the atoms of the Omega test: every constraint handled by the core
engine is an affine expression over integer variables, compared against zero.
Variables come in three kinds:

``var``
    An ordinary quantified variable (e.g. a loop iteration variable copy).
``sym``
    A symbolic constant (the paper's ``Sym`` set): loop-invariant scalar
    values such as ``n`` and ``m``.  Symbolic analysis projects problems onto
    these.
``wild``
    A wildcard (existentially quantified auxiliary) variable introduced
    internally, e.g. the sigma variables created by equality elimination.
    Wildcards are never protected during elimination.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Variable",
    "LinearExpr",
    "VarKind",
    "fresh_wildcard",
    "term",
    "const",
]


VarKind = str

_VALID_KINDS = ("var", "sym", "wild")

_wildcard_counter = itertools.count(1)


class Variable(tuple):
    """An integer-valued variable, identified by name and kind.

    A ``Variable`` is the immutable pair ``(name, kind)``: a ``tuple``
    subclass, so hashing, equality and ordering run in C on every
    coefficient-dict lookup.  ``hash(v) == hash((name, kind))`` and
    variables order by ``(name, kind)``.  One consequence: a variable
    equals the plain tuple of its fields, ``Variable("x") == ("x",
    "var")``, so containers must not mix variables with such tuples.
    """

    __slots__ = ()

    def __new__(cls, name: str, kind: VarKind = "var") -> "Variable":
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        return tuple.__new__(cls, (name, kind))

    def __getnewargs__(self) -> tuple[str, VarKind]:
        return tuple(self)

    name = property(itemgetter(0))
    kind = property(itemgetter(1))

    @property
    def is_wildcard(self) -> bool:
        return self.kind == "wild"

    @property
    def is_symbolic(self) -> bool:
        return self.kind == "sym"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name

    # Arithmetic sugar: ``x + 1``, ``2 * x - y`` build LinearExpr values.
    def _as_expr(self) -> "LinearExpr":
        return _expr({self: 1}, 0)

    def __add__(self, other: object) -> "LinearExpr":
        return self._as_expr() + other

    __radd__ = __add__

    def __sub__(self, other: object) -> "LinearExpr":
        return self._as_expr() - other

    def __rsub__(self, other: object) -> "LinearExpr":
        return (-self._as_expr()) + other

    def __mul__(self, other: object) -> "LinearExpr":
        return self._as_expr() * other

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpr":
        return -self._as_expr()


def fresh_wildcard(stem: str = "sigma") -> Variable:
    """Return a fresh, globally-unique wildcard variable."""

    return Variable(f"_{stem}{next(_wildcard_counter)}", "wild")


class LinearExpr:
    """An immutable affine expression ``sum(coeff * var) + constant``.

    Coefficients and the constant are Python ints (arbitrary precision, which
    matters: Fourier-Motzkin combinations multiply coefficients together).
    Zero-coefficient terms are never stored.  The hash, the sorted
    :meth:`key`, :meth:`negated_key` and :meth:`coefficients_gcd` are
    computed once and cached; pickling drops the caches (string hashes
    differ between processes).
    """

    __slots__ = ("_terms", "_const", "_hash", "_key", "_neg_key", "_gcd")

    def __init__(self, terms: Mapping[Variable, int] | None = None, constant: int = 0):
        clean: dict[Variable, int] = {}
        if terms:
            for var, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient for {var} must be int, got {coeff!r}")
                if coeff:
                    clean[var] = coeff
        self._terms = clean
        self._const = int(constant)
        self._hash = self._key = self._neg_key = self._gcd = None

    @classmethod
    def _trusted(cls, terms: dict[Variable, int], constant: int) -> "LinearExpr":
        """An expression over ``terms`` as given, without validation.

        For this class's own arithmetic, whose results already hold only
        nonzero ``int`` coefficients and an ``int`` constant; ``terms``
        is taken over, not copied.
        """

        self = object.__new__(cls)
        self._terms = terms
        self._const = constant
        self._hash = self._key = self._neg_key = self._gcd = None
        return self

    def __getstate__(self) -> tuple:
        return self._terms, self._const

    def __setstate__(self, state: tuple) -> None:
        self._terms, self._const = state
        self._hash = self._key = self._neg_key = self._gcd = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def constant(self) -> int:
        return self._const

    @property
    def terms(self) -> Mapping[Variable, int]:
        return self._terms

    def coeff(self, var: Variable) -> int:
        return self._terms.get(var, 0)

    def variables(self) -> frozenset[Variable]:
        return frozenset(self._terms)

    def is_constant(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Variable, int]]:
        return iter(self._terms.items())

    def coefficients_gcd(self) -> int:
        """gcd of the variable coefficients (0 for a constant expression)."""

        g = self._gcd
        if g is None:
            g = self._gcd = gcd(*self._terms.values())
        return g

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: object) -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Variable):
            return LinearExpr({value: 1})
        if isinstance(value, int):
            return LinearExpr({}, value)
        raise TypeError(f"cannot interpret {value!r} as a linear expression")

    def __add__(self, other: object) -> "LinearExpr":
        rhs = self._coerce(other)
        terms = dict(self._terms)
        for var, coeff in rhs._terms.items():
            merged = terms.get(var, 0) + coeff
            if merged:
                terms[var] = merged
            else:
                terms.pop(var, None)
        return _expr(terms, self._const + rhs._const)

    __radd__ = __add__

    def __sub__(self, other: object) -> "LinearExpr":
        return self + (-self._coerce(other))

    def __rsub__(self, other: object) -> "LinearExpr":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "LinearExpr":
        return _expr({v: -c for v, c in self._terms.items()}, -self._const)

    def __mul__(self, factor: object) -> "LinearExpr":
        if not isinstance(factor, int):
            if isinstance(factor, (LinearExpr, Variable)):
                from .errors import NonlinearConstraintError

                raise NonlinearConstraintError(
                    "products of variables are not affine; abstract the "
                    "non-linear term into a symbolic variable first",
                    term=factor,
                )
            raise TypeError("linear expressions can only be scaled by integers")
        if factor == 0:
            return _expr({}, 0)
        return _expr(
            {v: c * factor for v, c in self._terms.items()}, self._const * factor
        )

    __rmul__ = __mul__

    def scale_and_floor(self, divisor: int) -> "LinearExpr":
        """Divide all coefficients exactly and floor-divide the constant.

        Used when tightening an inequality ``g*a.x + c >= 0`` to
        ``a.x + floor(c/g) >= 0``; the caller guarantees ``divisor`` divides
        every variable coefficient.
        """

        if divisor <= 0:
            raise ValueError("divisor must be positive")
        terms: dict[Variable, int] = {}
        for var, coeff in self._terms.items():
            q, r = divmod(coeff, divisor)
            if r:
                raise ValueError(f"{divisor} does not divide coefficient of {var}")
            terms[var] = q
        return _expr(terms, self._const // divisor)

    def exact_div(self, divisor: int) -> "LinearExpr":
        """Divide coefficients *and* constant exactly."""

        if divisor == 0:
            raise ValueError("division by zero")
        terms: dict[Variable, int] = {}
        for var, coeff in self._terms.items():
            q, r = divmod(coeff, divisor)
            if r:
                raise ValueError(f"{divisor} does not divide coefficient of {var}")
            terms[var] = q
        q, r = divmod(self._const, divisor)
        if r:
            raise ValueError(f"{divisor} does not divide constant {self._const}")
        return _expr(terms, q)

    def substitute(self, var: Variable, replacement: "LinearExpr") -> "LinearExpr":
        """Return this expression with ``var`` replaced by ``replacement``."""

        coeff = self._terms.get(var, 0)
        if not coeff:
            return self
        terms = dict(self._terms)
        del terms[var]
        return _expr(terms, self._const) + replacement * coeff

    def without(self, var: Variable) -> "LinearExpr":
        """This expression with ``var``'s term dropped."""

        terms = dict(self._terms)
        terms.pop(var, None)
        return _expr(terms, self._const)

    def evaluate(self, assignment: Mapping[Variable, int]) -> int:
        """Evaluate under a total assignment for this expression's variables."""

        total = self._const
        for var, coeff in self._terms.items():
            total += coeff * assignment[var]
        return total

    # ------------------------------------------------------------------
    # Identity and display
    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """A hashable key identifying the variable-coefficient part only."""

        key = self._key
        if key is None:
            key = self._key = tuple(
                sorted([(v[0], v[1], c) for v, c in self._terms.items()])
            )
        return key

    def negated_key(self) -> tuple:
        """``(-self).key()``: :meth:`key` with every coefficient negated.

        The order is the same, because a term's ``(name, kind)`` is unique
        within a key and the sort never reaches the coefficient.
        """

        key = self._neg_key
        if key is None:
            key = self._neg_key = tuple([(n, k, -c) for n, k, c in self.key()])
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self._const == other._const and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.key(), self._const))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearExpr({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for var, coeff in sorted(
            self._terms.items(), key=lambda item: (item[0].kind, item[0].name)
        ):
            if coeff == 1:
                text = var.name
            elif coeff == -1:
                text = f"-{var.name}"
            else:
                text = f"{coeff}{var.name}"
            if parts and not text.startswith("-"):
                parts.append(f"+{text}")
            else:
                parts.append(text)
        if self._const or not parts:
            if parts and self._const >= 0:
                parts.append(f"+{self._const}")
            else:
                parts.append(str(self._const))
        return "".join(parts)


_expr = LinearExpr._trusted


def term(var: Variable, coeff: int = 1) -> LinearExpr:
    """Convenience constructor for a single-term expression."""

    return LinearExpr({var: coeff}, 0)


def const(value: int) -> LinearExpr:
    """Convenience constructor for a constant expression."""

    return LinearExpr({}, value)


def sum_exprs(exprs: Iterable[LinearExpr]) -> LinearExpr:
    """Sum an iterable of expressions (empty sum is 0)."""

    total = LinearExpr()
    for expr in exprs:
        total = total + expr
    return total
