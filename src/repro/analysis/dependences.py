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
from typing import Iterable

from ..ir.ast import Access
from ..omega import Constraint, Problem, Variable
from ..solver import is_satisfiable, satisfiable_batch
from .plan import QueryPlan
from .problem import PairProblem, SymbolTable
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
    directions: list[DirectionVector] = field(default_factory=list)

    status: DependenceStatus = DependenceStatus.LIVE
    refined: bool = False
    #: The direction vectors before refinement (when refined).
    unrefined_directions: list[DirectionVector] = field(default_factory=list)
    #: True when this dependence covers its destination (every location the
    #: destination accesses was previously written by the source).
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
    symbols: SymbolTable | None = None,
    *,
    assertions: Iterable[Constraint] = (),
    array_bounds=None,
    want_directions: bool = True,
    plan: QueryPlan | None = None,
) -> list[Dependence]:
    """All dependences of ``kind`` from src to dst (one per restraint vector).

    Returns an empty list when the pair problem has no lexicographically
    forward solutions — i.e. there is no dependence.

    ``plan`` supplies shared instance contexts and the memo of exactly
    reduced cores that every satisfiability probe runs against; it
    carries its own symbols, assertions and array bounds, so those
    arguments only shape the throwaway plan built without one.  The
    questions asked — count, kind and order — and their answers do not
    depend on the plan; only the submitted problems shrink.  The
    :class:`Dependence` objects always carry the *full* constrained
    problems, since downstream refinement, cover and kill tests project
    them.
    """

    plan = plan or QueryPlan(
        symbols, assertions=assertions, array_bounds=array_bounds
    )
    pair = plan.pair_problem(src, dst)
    base = pair.full()
    state = plan.base_state(base, pair.delta_vars)
    if not is_satisfiable(state.probe()):
        return []

    restraints = restraint_vectors(
        base, pair.delta_vars, pair.forward, state=state
    )
    constrained_problems = [
        Problem(
            list(base.constraints) + restraint.constraints(pair.delta_vars),
            name=base.name,
        )
        for restraint in restraints
    ]
    feasible = satisfiable_batch(
        [
            state.probe(restraint.constraints(pair.delta_vars))
            for restraint in restraints
        ]
    )
    found: list[Dependence] = []
    for restraint, constrained, satisfiable in zip(
        restraints, constrained_problems, feasible
    ):
        if not satisfiable:
            continue
        directions: list[DirectionVector] = []
        if want_directions:
            directions = [
                v
                for v in direction_vectors(
                    constrained,
                    pair.delta_vars,
                    state=state.extend(restraint.constraints(pair.delta_vars)),
                )
                if _forward_vector(v, pair.forward)
            ]
            if pair.delta_vars and not directions:
                continue
        found.append(
            Dependence(kind, src, dst, pair, restraint, constrained, directions)
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
