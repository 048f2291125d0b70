"""Execution-order constraints between statement instances.

``A(i) << B(j)`` is a *disjunction* over carrier levels (prefix of common
loop variables equal, then strictly earlier at one level; or all equal and
A textually before B).  The Section 4 tests need conjunctions, so callers
enumerate the cases this module generates.
"""

from __future__ import annotations

from typing import Sequence

from ..omega import Constraint, Variable, eq, le
from .problem import InstanceContext, common_depth, syntactically_forward

__all__ = ["execution_order_cases", "order_case_constraints"]


def order_case_constraints(
    a_vars: Sequence[Variable],
    b_vars: Sequence[Variable],
    depth: int,
    carrier: int,
) -> list[Constraint]:
    """Constraints for "A before B, carried at ``carrier``".

    ``carrier`` in 1..depth pins the first ``carrier - 1`` common loop
    variables equal and requires strict increase at level ``carrier``;
    ``carrier == 0`` means the loop-independent case: all common loop
    variables equal (textual order must be checked separately).
    """

    constraints: list[Constraint] = []
    if carrier == 0:
        for level in range(depth):
            constraints.append(eq(a_vars[level], b_vars[level]))
        return constraints
    for level in range(carrier - 1):
        constraints.append(eq(a_vars[level], b_vars[level]))
    constraints.append(le(a_vars[carrier - 1] + 1, b_vars[carrier - 1]))
    return constraints


def execution_order_cases(
    a_ctx: InstanceContext, b_ctx: InstanceContext
) -> list[list[Constraint]]:
    """All conjunctive cases of ``A(i) << B(j)`` for two instances.

    One case per carrier level, plus the loop-independent case when A is
    syntactically before B.
    """

    depth = common_depth(a_ctx.access, b_ctx.access)
    a_vars = a_ctx.loop_vars
    b_vars = b_ctx.loop_vars
    cases: list[list[Constraint]] = []
    for carrier in range(1, depth + 1):
        cases.append(order_case_constraints(a_vars, b_vars, depth, carrier))
    if syntactically_forward(a_ctx.access, b_ctx.access):
        cases.append(order_case_constraints(a_vars, b_vars, depth, 0))
    return cases
