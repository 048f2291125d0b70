"""Direction, distance and restraint vectors (Section 2 of the paper).

A *direction vector* summarizes the possible signs of the dependence
distance per common loop; when the distance is pinned we show the constant
(the paper prints ``(0,0,1,0)``).  A single direction vector is not always
exact — ``di = dj`` compresses to ``(0+,0+)`` which falsely suggests
``(0,+)`` — so we enumerate sign combinations with the Omega test, then
greedily merge boxes only when the merge adds no spurious combination
("partially compressed direction vectors").

A *restraint vector* (Section 2.1.2) is a conjunction of per-level sign
constraints that filters out every lexicographically-negative (or
zero-but-syntactically-backward) solution while keeping every forward one.
When no single restraint vector works the dependence is split, one
dependence per restraint vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..omega import Constraint, LinearExpr, Problem, Variable, ge, le
from ..solver import project
from .plan import PlanState

__all__ = [
    "DirComponent",
    "DirectionVector",
    "RestraintVector",
    "PLUS",
    "MINUS",
    "ZERO",
    "ZERO_PLUS",
    "STAR",
    "direction_vectors",
    "restraint_vectors",
    "component_bounds",
    "lexicographically_bad_exists",
]


@dataclass(frozen=True)
class DirComponent:
    """Allowed distance range for one loop: ``lo <= d <= hi`` (None = open)."""

    lo: int | None
    hi: int | None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty direction component {self.lo}:{self.hi}")

    def constraints(self, delta: Variable) -> list[Constraint]:
        found: list[Constraint] = []
        if self.lo is not None:
            found.append(ge(LinearExpr({delta: 1}, -self.lo)))
        if self.hi is not None:
            found.append(ge(LinearExpr({delta: -1}, self.hi)))
        return found

    @property
    def is_exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def is_star(self) -> bool:
        return self.lo is None and self.hi is None

    def admits(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def admits_sign(self, sign: int) -> bool:
        """Does the component allow some value with the given sign?"""

        if sign < 0:
            return self.lo is None or self.lo < 0
        if sign > 0:
            return self.hi is None or self.hi > 0
        return self.admits(0)

    def merge(self, other: "DirComponent") -> "DirComponent":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return DirComponent(lo, hi)

    def __str__(self) -> str:
        if self.is_star:
            return "*"
        if self.is_exact:
            return str(self.lo)
        if self.lo is not None and self.hi is not None:
            if (self.lo, self.hi) == (0, 1):
                return "0:1"
            return f"{self.lo}:{self.hi}"
        if self.lo == 0:
            return "0+"
        if self.lo == 1:
            return "+"
        if self.hi == 0:
            return "0-"
        if self.hi == -1:
            return "-"
        if self.lo is not None:
            return f"{self.lo}+"
        return f"{self.hi}-"


PLUS = DirComponent(1, None)
MINUS = DirComponent(None, -1)
ZERO = DirComponent(0, 0)
ZERO_PLUS = DirComponent(0, None)
ZERO_MINUS = DirComponent(None, 0)
STAR = DirComponent(None, None)


class DirectionVector(tuple):
    """A tuple of :class:`DirComponent` with paper-style rendering."""

    def __new__(cls, components: Iterable[DirComponent]):
        return super().__new__(cls, tuple(components))

    def constraints(self, deltas: Sequence[Variable]) -> list[Constraint]:
        found: list[Constraint] = []
        for component, delta in zip(self, deltas):
            found.extend(component.constraints(delta))
        return found

    @property
    def is_loop_independent(self) -> bool:
        return all(c.is_exact and c.lo == 0 for c in self)

    def admits(self, distance: Sequence[int]) -> bool:
        return all(c.admits(v) for c, v in zip(self, distance))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self) + ")"


RestraintVector = DirectionVector  # same structure, different role


# ---------------------------------------------------------------------------
# Direction vector computation
# ---------------------------------------------------------------------------


def component_bounds(problem: Problem, delta: Variable) -> DirComponent:
    """Constant bounds on one distance variable, via projection.

    Projects the problem onto ``delta`` alone (eliminating symbolic
    constants too, so the bounds are absolute integers) and reads the
    interval off the real shadow (:meth:`Projection.interval`) — safe,
    since the real shadow is a superset of the true projection.

    The searches ask their plan state instead (``PlanState.bounds``),
    which reads a separable core's interval directly and projects any
    other core conjoined with the box.  A core comes from exact steps
    only (equality substitution, unit-pair Fourier-Motzkin), so it has
    the same integer projection onto the distances as the full problem:
    when the one-variable projection is exact, its interval is that
    projection's integer hull, whichever problem it starts from.
    ``tests/analysis/test_distance_bounds.py`` checks the state's and the
    full problem's intervals equal on every box and refinement level of
    the corpus, CHOLSKY, the paper examples and fuzzed programs, inexact
    projections included.
    """

    return DirComponent(*project(problem, [delta]).interval(delta))


_SIGNS = (MINUS, ZERO, PLUS)


def direction_vectors(
    state: PlanState, deltas: Sequence[Variable]
) -> list[DirectionVector]:
    """Enumerate exact sign combinations, then compress into boxes.

    The result is a set of partially compressed direction vectors whose
    union exactly covers the satisfiable sign combinations: merging never
    introduces a sign combination that the problem cannot realize.  Each
    box is then narrowed to the constant distance bounds the problem
    admits inside it (:func:`component_bounds`).

    The problem is ``state``, a :class:`repro.analysis.plan.PlanState`
    that keeps every variable of ``deltas`` (a dependence's own
    ``Dependence.state``): the sign trials ask small shared-prefix cores
    instead of rebuilding the full conjunction per branch, and each box's
    bounds are the state's bounds under the box's constraints.
    """

    if not deltas:
        return [DirectionVector(())] if state.sat() else []

    combos: list[tuple[DirComponent, ...]] = []

    def explore(prefix: tuple[DirComponent, ...], state: PlanState):
        level = len(prefix)
        if level == len(deltas):
            combos.append(prefix)
            return
        extras = [sign.constraints(deltas[level]) for sign in _SIGNS]
        feasible = state.sat_batch(extras)
        for sign, extra, satisfiable in zip(_SIGNS, extras, feasible):
            if satisfiable:
                # A child at the deepest level only records its combo, so
                # extending (and reducing) its state would be dead work.
                child = (
                    state.extend(extra, drop=deltas[level])
                    if level + 1 < len(deltas)
                    else state
                )
                explore(prefix + (sign,), child)

    explore((), state)
    if not combos:
        return []

    vectors: list[DirectionVector] = []
    for box in _merge_boxes(combos, set(combos)):
        extra = DirectionVector(box).constraints(deltas)
        refined: list[DirComponent] = []
        for component, delta in zip(box, deltas):
            lo, hi = state.bounds(extra, delta)
            refined.append(
                DirComponent(
                    lo if lo is not None else component.lo,
                    hi if hi is not None else component.hi,
                )
            )
        vectors.append(DirectionVector(refined))
    return vectors


def _merge_boxes(
    boxes: list[tuple[DirComponent, ...]], realizable: set[tuple[DirComponent, ...]]
) -> list[tuple[DirComponent, ...]]:
    """Greedily merge sign boxes along single dimensions, exactly.

    Two boxes differing in one component merge when every sign combination
    of the merged box is realizable — the paper's criterion for compressing
    without falsely suggesting e.g. (0,+) from {(+,+),(0,0)}.
    """

    def signs_in(component: DirComponent) -> list[DirComponent]:
        return [s for s in _SIGNS if _sign_within(s, component)]

    def box_combos(box: tuple[DirComponent, ...]):
        import itertools as it

        pools = [signs_in(c) for c in box]
        return it.product(*pools)

    current = list(dict.fromkeys(boxes))
    changed = True
    while changed:
        changed = False
        for a_index in range(len(current)):
            for b_index in range(a_index + 1, len(current)):
                a, b = current[a_index], current[b_index]
                diff = [i for i in range(len(a)) if a[i] != b[i]]
                if len(diff) != 1:
                    continue
                i = diff[0]
                merged_component = a[i].merge(b[i])
                merged = a[:i] + (merged_component,) + a[i + 1 :]
                if all(c in realizable for c in box_combos(merged)):
                    current.pop(b_index)
                    current.pop(a_index)
                    current.append(merged)
                    changed = True
                    break
            if changed:
                break
    return current


def _sign_within(sign: DirComponent, component: DirComponent) -> bool:
    if sign is MINUS:
        return component.lo is None or component.lo < 0
    if sign is ZERO:
        return component.admits(0)
    return component.hi is None or component.hi > 0


# ---------------------------------------------------------------------------
# Restraint vectors
# ---------------------------------------------------------------------------


def lexicographically_bad_exists(
    state: PlanState,
    deltas: Sequence[Variable],
    forward: bool,
    start: int = 0,
) -> bool:
    """Does the problem of ``state`` (a plan state keeping ``deltas``)
    admit a lexicographically-negative distance, or an all-zero distance
    when the pair is not syntactically forward?"""

    for level in range(start, len(deltas)):
        delta = deltas[level]
        if state.sat([le(LinearExpr({delta: 1}), -1)]):
            return True
        # The extended state is only probed by a later level or by the
        # final all-zero check of a non-forward pair.
        if level + 1 < len(deltas) or not forward:
            state = state.extend(ZERO.constraints(delta), drop=delta)
    return not forward and state.sat()


def restraint_vectors(
    state: PlanState, deltas: Sequence[Variable], forward: bool
) -> list[RestraintVector]:
    """Compute a set of restraint vectors for a dependence problem.

    Each returned vector's constraints exclude every lexicographically
    backward solution; their union covers every forward solution.  The
    greedy search prefers a single vector with few constraints (``(0+,*)``
    beats splitting into ``(+,*) , (0,+)``) and splits only when forced,
    exactly as Section 2.1.2 prescribes.

    The problem is ``state``, a plan state keeping ``deltas`` (the pair's
    root state); every satisfiability question is asked of its states.
    """

    def recurse(
        level: int, state: PlanState
    ) -> list[tuple[DirComponent, ...]]:
        if not state.sat():
            return []
        if level == len(deltas):
            return [()] if forward else []
        delta = deltas[level]
        can_negative = state.sat([le(LinearExpr({delta: 1}), -1)])
        zero_state = state.extend(ZERO.constraints(delta), drop=delta)
        zero_bad = lexicographically_bad_exists(
            zero_state, deltas, forward, level + 1
        )
        if not zero_bad:
            head = ZERO_PLUS if can_negative else STAR
            return [(head,) + (STAR,) * (len(deltas) - level - 1)]
        # Splitting: strictly-positive head (rest unconstrained) plus the
        # zero-head restraints of the residual problem.
        results: list[tuple[DirComponent, ...]] = []
        if state.sat(PLUS.constraints(delta)):
            results.append((PLUS,) + (STAR,) * (len(deltas) - level - 1))
        for tail in recurse(level + 1, zero_state):
            results.append((ZERO,) + tail)
        return results

    return [DirectionVector(v) for v in recurse(0, state)]
