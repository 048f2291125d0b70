"""Dependence objects and their computation.

``compute_dependences(src, dst, kind, ...)`` builds the pair problem, finds
restraint vectors, and returns one :class:`Dependence` per restraint vector
(the paper: "such dependences are split into several dependences, one for
each restraint vector"), each carrying its direction vectors and status
flags that later phases (refinement, covering, killing) update.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..ir.ast import Access
from ..omega import Problem, Variable
from .plan import PlanState, QueryPlan
from .problem import PairProblem
from .vectors import (
    DirectionVector,
    RestraintVector,
    direction_vectors,
    restraint_vectors,
)

__all__ = ["DependenceKind", "DependenceStatus", "Dependence", "compute_dependences"]


class DependenceKind(enum.Enum):
    """The classic dependence classification."""

    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    INPUT = "input"


class DependenceStatus(enum.Enum):
    """Whether the extended analysis eliminated a dependence, and how."""

    LIVE = "live"
    KILLED = "killed"       # an intervening write provably intercepts it
    COVERED = "covered"     # eliminated because a covering write precedes it
    REFUTED = "refuted"     # ruled out by a user-answered symbolic query


@dataclass
class Dependence:
    """One dependence (for one restraint vector) between two accesses."""

    kind: DependenceKind
    src: Access
    dst: Access
    pair: PairProblem
    restraint: RestraintVector
    #: domain + coupling + restraint constraints: all instances of this
    #: dependence (lexicographically forward by construction).
    problem: Problem
    #: The plan state of ``problem`` keeping every distance variable (the
    #: pair's root core conjoined with the restraint): the searches over
    #: this dependence probe it instead of reducing ``problem`` again.
    state: PlanState = field(compare=False, repr=False)
    directions: list[DirectionVector] = field(default_factory=list)

    status: DependenceStatus = DependenceStatus.LIVE
    refined: bool = False
    #: The direction vectors before refinement (when refined).
    unrefined_directions: list[DirectionVector] = field(default_factory=list)
    #: True when this dependence covers its destination (every location the
    #: destination accesses was previously written by the source).  On an
    #: anti dependence the engine stores ``terminates_source`` here instead
    #: (with ``extend_all_kinds`` and ``terminate``): the destination write
    #: overwrites every location the source read.  The covering join of
    #: the kill phase reads only flow dependences' flag.
    covers: bool = False
    #: The dependence that killed/covered this one, when dead.
    eliminated_by: "Dependence | None" = None

    @property
    def deltas(self) -> tuple[Variable, ...]:
        return self.pair.delta_vars

    @property
    def is_loop_independent(self) -> bool:
        return all(
            vector.is_loop_independent for vector in self.directions
        ) and bool(self.directions)

    def carrier_level(self) -> int | None:
        """The single loop level carrying this dependence, if unique.

        Level 1 is the outermost common loop; ``None`` when the carrier is
        not unique across direction vectors; ``0`` for loop-independent.
        """

        levels: set[int] = set()
        for vector in self.directions:
            level = 0
            for index, component in enumerate(vector, start=1):
                if component.is_exact and component.lo == 0:
                    continue
                if component.lo is not None and component.lo >= 1:
                    level = index
                    break
                level = -1  # ambiguous sign at this level
                break
            if level == -1:
                return None
            levels.add(level)
        if len(levels) == 1:
            return levels.pop()
        return None

    def direction_text(self) -> str:
        if not self.deltas:
            return ""
        return ", ".join(str(v) for v in self.directions)

    def subject(self) -> str:
        """The stable explain/audit/guard key — no mutable status tags."""

        return f"{self.kind.value}: {self.src} -> {self.dst}"

    def tags(self) -> str:
        letters = ""
        if self.covers:
            letters += "C"
        if self.status is DependenceStatus.COVERED:
            letters += "c"
        if self.status is DependenceStatus.KILLED:
            letters += "k"
        if self.refined:
            letters += "r"
        return letters

    def describe(self) -> str:
        tag = f" [{self.tags()}]" if self.tags() else ""
        return (
            f"{self.kind.value}: {self.src} -> {self.dst} "
            f"{self.direction_text()}{tag}"
        )

    def __str__(self) -> str:
        return self.describe()


def compute_dependences(
    src: Access,
    dst: Access,
    kind: DependenceKind,
    plan: QueryPlan | None = None,
) -> list[Dependence]:
    """All dependences of ``kind`` from src to dst (one per restraint vector).

    Returns an empty list when the pair problem has no lexicographically
    forward solutions — i.e. there is no dependence.

    ``plan`` supplies the symbols, assertions and array bounds, shared
    instance contexts and the memo of exactly reduced cores that every
    satisfiability question is asked of; without one the pair runs on a
    fresh plan with an empty symbol table.  The answers do not depend on
    the plan; only the problems submitted to the solver shrink, and the
    questions a separable core answers from intervals are not submitted
    at all.  Each :class:`Dependence` carries the *full* constrained
    problem, which refinement, cover and kill tests project, and its plan
    state, which the searches ask.
    """

    plan = plan or QueryPlan()
    pair = plan.pair_problem(src, dst)
    base = pair.full()
    deltas = pair.delta_vars
    state = plan.base_state(base, deltas)
    if not state.sat():
        return []

    restraints = restraint_vectors(state, deltas, pair.forward)
    feasible = [state.sat(r.constraints(deltas)) for r in restraints]
    found: list[Dependence] = []
    for restraint, satisfiable in zip(restraints, feasible):
        if not satisfiable:
            continue
        extra = restraint.constraints(deltas)
        restrained = state.extend(extra)
        directions = [
            v
            for v in direction_vectors(restrained, deltas)
            if _forward_vector(v, pair.forward)
        ]
        if deltas and not directions:
            continue
        constrained = Problem(list(base.constraints) + extra, name=base.name)
        found.append(
            Dependence(
                kind, src, dst, pair, restraint, constrained, restrained,
                directions,
            )
        )
    return found


def _forward_vector(vector: DirectionVector, forward: bool) -> bool:
    """Keep only vectors with a lexicographically-acceptable part.

    Restraint constraints already exclude backward solutions; this filter
    drops the presentation-only vectors that would render as pure zero for
    a non-forward pair.
    """

    if not len(vector):
        return forward
    if vector.is_loop_independent:
        return forward
    return True
