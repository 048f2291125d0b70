"""Shared machinery for the baseline dependence tests.

Baselines reason about one subscript dimension at a time, over the
*difference* ``src_subscript(i) - dst_subscript(j)`` where the source and
destination iteration variables are distinct unknowns.  Symbolic constants
shared by both sides cancel when their coefficients match; any residual
symbolic term makes the classical tests answer MAYBE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from ..ir.ast import Access

__all__ = ["Verdict", "DimensionProblem", "dimension_problems", "VarRange"]


class Verdict(enum.Enum):
    """A classical test's answer: definite NO, or MAYBE (truthy)."""

    NO = "no dependence"
    MAYBE = "maybe"

    def __bool__(self) -> bool:  # truthy == dependence possible
        return self is Verdict.MAYBE


@dataclass(frozen=True)
class VarRange:
    """Integer interval for one loop variable; None means unbounded."""

    lo: int | None
    hi: int | None

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None


@dataclass
class DimensionProblem:
    """One subscript dimension of an access pair, in difference form.

    ``src_coeffs`` / ``dst_coeffs`` map loop-variable *names* (source and
    destination sides separately) to coefficients in
    ``src_sub - dst_sub + constant = 0`` (destination coefficients are
    already negated).  ``sym_coeffs`` holds residual symbolic-constant
    coefficients; non-empty means the classical tests cannot conclude.
    ``nonlinear`` marks dimensions containing uninterpreted terms.
    """

    src_coeffs: dict[str, int]
    dst_coeffs: dict[str, int]
    sym_coeffs: dict[str, int]
    constant: int
    nonlinear: bool = False

    def loop_coefficients(self) -> list[int]:
        return list(self.src_coeffs.values()) + list(self.dst_coeffs.values())

    def single_common_variable(self, common: Sequence[str]) -> str | None:
        """The lone loop variable if this is an SIV dimension, else None.

        SIV means: exactly one loop variable occurs across both sides, and
        it is a common loop variable.
        """

        involved = set(self.src_coeffs) | set(self.dst_coeffs)
        if len(involved) == 1:
            (var,) = involved
            if var in common:
                return var
        return None


def qualified_loop_names(
    src: Access, dst: Access
) -> tuple[dict[str, str], dict[str, str], list[str]]:
    """Rename maps keeping common loops shared and private loops distinct.

    Two different loops named ``i`` in separate nests must not collide in
    the difference equation; loops common to both statements (same Loop
    object) keep their plain name on both sides.  Returns
    ``(src_map, dst_map, common_names)``.
    """

    common: list[str] = []
    for src_loop, dst_loop in zip(src.statement.loops, dst.statement.loops):
        if src_loop is dst_loop:
            common.append(src_loop.var)
        else:
            break
    src_map: dict[str, str] = {}
    for level, loop in enumerate(src.statement.loops):
        if level < len(common):
            src_map[loop.var] = loop.var
        else:
            src_map[loop.var] = f"{loop.var}#src"
    dst_map: dict[str, str] = {}
    for level, loop in enumerate(dst.statement.loops):
        if level < len(common):
            dst_map[loop.var] = loop.var
        else:
            dst_map[loop.var] = f"{loop.var}#dst"
    return src_map, dst_map, common


def dimension_problems(src: Access, dst: Access) -> list[DimensionProblem]:
    """The per-dimension difference problems for an access pair."""

    problems: list[DimensionProblem] = []
    src_map, dst_map, _common = qualified_loop_names(src, dst)
    for s_sub, d_sub in zip(src.ref.subscripts, dst.ref.subscripts):
        src_coeffs: dict[str, int] = {}
        dst_coeffs: dict[str, int] = {}
        syms: dict[str, int] = {}
        for name, coeff in s_sub.coeffs.items():
            if name in src_map:
                key = src_map[name]
                src_coeffs[key] = src_coeffs.get(key, 0) + coeff
            else:
                syms[name] = syms.get(name, 0) + coeff
        for name, coeff in d_sub.coeffs.items():
            if name in dst_map:
                key = dst_map[name]
                dst_coeffs[key] = dst_coeffs.get(key, 0) - coeff
            else:
                syms[name] = syms.get(name, 0) - coeff
        syms = {k: v for k, v in syms.items() if v}
        problems.append(
            DimensionProblem(
                {k: v for k, v in src_coeffs.items() if v},
                {k: v for k, v in dst_coeffs.items() if v},
                syms,
                s_sub.constant - d_sub.constant,
                nonlinear=bool(s_sub.uterms or d_sub.uterms),
            )
        )
    return problems


def constant_loop_ranges(
    access: Access, rename: dict[str, str] | None = None
) -> dict[str, VarRange]:
    """Constant bounds per loop variable, when statically evident.

    A bound counts as constant only when it is a literal integer; anything
    affine in outer variables or symbols yields an open interval — exactly
    the conservative treatment classical implementations use.  ``rename``
    maps loop-variable names to the qualified keys used by
    :func:`dimension_problems`.
    """

    rename = rename or {}
    ranges: dict[str, VarRange] = {}
    for loop in access.statement.loops:
        lo: int | None = None
        hi: int | None = None
        if len(loop.lowers) == 1 and loop.lowers[0].is_constant:
            lo = loop.lowers[0].constant
        if len(loop.uppers) == 1 and loop.uppers[0].is_constant:
            hi = loop.uppers[0].constant
        ranges[rename.get(loop.var, loop.var)] = VarRange(lo, hi)
    return ranges


def pair_loop_ranges(src: Access, dst: Access) -> dict[str, VarRange]:
    """Combined, collision-free ranges for both sides of a pair."""

    src_map, dst_map, _common = qualified_loop_names(src, dst)
    ranges = constant_loop_ranges(src, src_map)
    ranges.update(constant_loop_ranges(dst, dst_map))
    return ranges
