"""Problem simplification and witness extraction.

``simplify`` removes redundant constraints (a gist against TRUE) after
normalization — useful for presenting projections and conditions to
humans.  ``find_witness`` produces an explicit integer solution for a
satisfiable problem by binary-searching each variable's feasible interval
while pinning previous choices, which both tests and diagnostics use.
"""

from __future__ import annotations

from .constraints import NormalizeStatus, Problem
from .errors import OmegaError
from .gist import gist
from .project import project
from .solve import is_satisfiable
from .terms import LinearExpr, Variable

__all__ = ["simplify", "find_witness"]


def simplify(problem: Problem) -> Problem:
    """An equivalent problem without redundant constraints.

    Normalizes first (GCD tightening, duplicate merging); then keeps a
    minimal subset of constraints via the gist machinery.  Unsatisfiable
    problems simplify to the canonical FALSE problem ``-1 >= 0``.
    """

    normalized, status = problem.normalized()
    if status is NormalizeStatus.UNSATISFIABLE:
        return Problem.false(problem.name or "FALSE")
    if status is NormalizeStatus.TAUTOLOGY:
        return Problem(name=problem.name)
    if not is_satisfiable(normalized):
        return Problem.false(problem.name or "FALSE")
    result = gist(normalized, Problem())
    result.name = problem.name
    return result


def find_witness(
    problem: Problem, *, search_radius: int = 1 << 20
) -> dict[Variable, int] | None:
    """An explicit integer solution, or None when unsatisfiable.

    Wildcard variables are treated like any others (the witness includes
    them).  Unbounded directions are searched within ``search_radius``;
    a satisfiable problem whose every solution lies outside that radius
    raises :class:`OmegaError` rather than answering wrongly.
    """

    if not is_satisfiable(problem):
        return None

    assignment: dict[Variable, int] = {}
    current = problem.copy()
    for var in sorted(problem.variables()):
        lo, hi = project(current, [var]).interval(var)
        search_lo = lo if lo is not None else -search_radius
        search_hi = hi if hi is not None else search_radius
        value = _first_feasible(current, var, search_lo, search_hi)
        if value is None:
            raise OmegaError(
                f"no feasible value for {var} within +-{search_radius}"
            )
        assignment[var] = value
        current = Problem(
            [c.substitute(var, LinearExpr({}, value)) for c in current.constraints],
            current.name,
        )
        if not is_satisfiable(current):  # pragma: no cover - defensive
            raise OmegaError("witness search lost satisfiability")
    if not problem.is_satisfied_by(assignment):  # pragma: no cover
        raise OmegaError("witness does not satisfy the problem")
    return assignment


def _first_feasible(
    problem: Problem, var: Variable, lo: int, hi: int
) -> int | None:
    """Smallest value in [lo, hi] keeping the problem satisfiable."""

    def feasible_at_most(bound: int) -> bool:
        trial = problem.copy().add_le(var, bound)
        trial.add_le(lo, var)
        return is_satisfiable(trial)

    if not feasible_at_most(hi):
        return None
    low, high = lo, hi
    while low < high:
        mid = (low + high) // 2
        if feasible_at_most(mid):
            high = mid
        else:
            low = mid + 1
    return low
