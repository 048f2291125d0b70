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
from dataclasses import dataclass, field
from math import gcd
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


@dataclass(frozen=True, order=True)
class Variable:
    """An integer-valued variable, identified by name and kind."""

    name: str
    kind: VarKind = "var"

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")

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
        return LinearExpr({self: 1}, 0)

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
    :meth:`key` and :meth:`coefficients_gcd` are computed once and cached;
    pickling drops the caches (string hashes differ between processes).
    """

    __slots__ = ("_terms", "_const", "_hash", "_key", "_gcd")

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
        self._hash: int | None = None
        self._key: tuple | None = None
        self._gcd: int | None = None

    def __getstate__(self) -> tuple:
        return self._terms, self._const

    def __setstate__(self, state: tuple) -> None:
        self._terms, self._const = state
        self._hash = self._key = self._gcd = None

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
        return LinearExpr(terms, self._const + rhs._const)

    __radd__ = __add__

    def __sub__(self, other: object) -> "LinearExpr":
        return self + (-self._coerce(other))

    def __rsub__(self, other: object) -> "LinearExpr":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "LinearExpr":
        return LinearExpr({v: -c for v, c in self._terms.items()}, -self._const)

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
            return LinearExpr({}, 0)
        return LinearExpr(
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
        return LinearExpr(terms, self._const // divisor)

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
        return LinearExpr(terms, q)

    def substitute(self, var: Variable, replacement: "LinearExpr") -> "LinearExpr":
        """Return this expression with ``var`` replaced by ``replacement``."""

        coeff = self._terms.get(var, 0)
        if not coeff:
            return self
        terms = dict(self._terms)
        del terms[var]
        base = LinearExpr(terms, self._const)
        return base + replacement * coeff

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
                sorted((v.name, v.kind, c) for v, c in self._terms.items())
            )
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
