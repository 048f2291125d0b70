"""The Fourier-Motzkin row kernel: dense integer bound combination.

Eliminating a variable by Fourier-Motzkin crosses every lower bound
``b*z + lo >= 0`` with every upper bound ``-a*z + up >= 0`` and emits the
real shadow ``b*up + a*lo >= 0`` (plus the dark-shadow tightening
``- (a-1)(b-1)`` on the constant when neither coefficient is 1).  That
cross product is the elimination inner loop — pure integer row
arithmetic over python ints, which are arbitrary-precision, so
coefficient growth can never overflow.

The bounds are laid out as dense rows (one column per variable, sorted,
plus the constant), combined pairwise, and rebuilt into
:class:`~repro.omega.constraints.Constraint` objects in pair order with
a fixed term insertion order, so the emitted constraint lists are
deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .constraints import Constraint, Relation
from .terms import LinearExpr, Variable

__all__ = ["combine_shadows"]


def _columns(
    lowers: Sequence[tuple[int, LinearExpr]],
    uppers: Sequence[tuple[int, LinearExpr]],
) -> list[Variable]:
    """The shared column order: every rest variable, sorted."""

    seen: set[Variable] = set()
    for _, rest in lowers:
        seen.update(rest.terms)
    for _, rest in uppers:
        seen.update(rest.terms)
    return sorted(seen)


def _dense_rows(
    bounds: Sequence[tuple[int, LinearExpr]], columns: Sequence[Variable]
) -> list[list[int]]:
    """One row per bound: column coefficients then the constant."""

    return [
        [rest.coeff(var) for var in columns] + [rest.constant]
        for _, rest in bounds
    ]


def _emit(
    columns: Sequence[Variable],
    row: Sequence[int],
    adjust: int,
) -> tuple[Constraint, Constraint]:
    """Rebuild the (real, dark) constraints of one combined row.

    ``adjust`` is the dark-shadow tightening ``(a-1)*(b-1)``; when it is
    zero the pair is exact and the dark constraint *is* the real one
    (the same object, as the historical sparse loop produced).
    """

    terms = {var: coeff for var, coeff in zip(columns, row) if coeff}
    real = Constraint(LinearExpr(terms, row[-1]), Relation.GE)
    if not adjust:
        return real, real
    return real, Constraint(LinearExpr(terms, row[-1] - adjust), Relation.GE)


def combine_shadows(
    lowers: Sequence[tuple[int, LinearExpr]],
    uppers: Sequence[tuple[int, LinearExpr]],
) -> tuple[list[Constraint], list[Constraint], bool]:
    """Cross every lower bound with every upper bound.

    ``lowers`` holds ``(b, lo)`` pairs for ``b*z + lo >= 0`` and
    ``uppers`` ``(a, up)`` pairs for ``-a*z + up >= 0`` (both
    coefficients positive).  Returns ``(real, dark, exact)``: the real-
    and dark-shadow constraint lists in pair order (lower-major,
    upper-minor) and whether every pair was exact (``a == 1 or b == 1``).
    Exact pairs contribute the *same* constraint object to both lists.
    """

    columns = _columns(lowers, uppers)
    rows_up = _dense_rows(uppers, columns)
    real: list[Constraint] = []
    dark: list[Constraint] = []
    exact = True
    for (b, _), lo in zip(lowers, _dense_rows(lowers, columns)):
        for (a, _), up in zip(uppers, rows_up):
            adjust = (a - 1) * (b - 1)
            combined = [u * b + l * a for u, l in zip(up, lo)]
            real_c, dark_c = _emit(columns, combined, adjust)
            real.append(real_c)
            dark.append(dark_c)
            if adjust:
                exact = False
    return real, dark, exact
