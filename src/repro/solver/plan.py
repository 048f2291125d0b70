"""Shared partial-elimination state for planned dependence queries.

This module sits *below* the service boundary: it memoizes
:func:`repro.omega.partial.partial_eliminate` cores across the pairs of a
query plan (see :mod:`repro.analysis.plan`), so two pairs over the same
iteration space — or two sibling branches of one pair's direction-vector
tree — reuse the Fourier-Motzkin prefix instead of re-eliminating the
loop-bound variables from scratch.

The division of labor matters for the audit layer: the *probes* (small
reduced problems) still go through :mod:`repro.solver`'s service
functions, one per question, so degradation shields and per-subject
query footprints work per probe.  Only the reduction work itself — a pure
rewrite with no observable answer — happens here, outside the audited
boundary.  That makes it best-effort under governance: each reduction
runs under its own per-query work meter, and one that runs out of budget
(or hits an injected fault) leaves the core unreduced for that request
only.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..omega.constraints import Constraint, Problem
from ..omega.errors import BudgetExhausted
from ..omega.partial import PartialElimination, partial_eliminate

__all__ = ["PlanSpace", "PlanState"]


def _core_key(problem: Problem, keep: Sequence) -> tuple:
    """A structural identity for (problem, keep) reduction requests."""

    return (
        tuple(sorted(c.sort_key() for c in problem.constraints)),
        tuple(sorted((v.kind, v.name) for v in keep)),
    )


class PlanSpace:
    """The per-analysis memo of partial-elimination cores."""

    def __init__(self, *, max_growth: int = 8):
        self.max_growth = max_growth
        self._cores: dict[tuple, PartialElimination] = {}

    def core(self, problem: Problem, keep: Sequence) -> PartialElimination:
        """The reduced core for ``problem`` protecting ``keep`` (memoized)."""

        key = _core_key(problem, keep)
        cached = self._cores.get(key)
        if cached is not None:
            _metrics.inc("solver.plan.cores_reused")
            return cached
        gov = _guard.active()
        try:
            # A fresh meter: the reduction pays for its own FM/splinter
            # work only, not for what the previous probe left on the meter.
            with gov.fresh_query() if gov is not None else nullcontext():
                core = partial_eliminate(
                    problem, keep, max_growth=self.max_growth
                )
        except BudgetExhausted:
            # The run's failure, not the problem's (the rule SolverCache
            # applies too): answer unreduced and leave the slot empty, so a
            # later request for the same core reduces it.
            return PartialElimination(problem, frozenset(keep), 0)
        self._cores[key] = core
        _metrics.inc("solver.plan.cores_built")
        return core

    def base_state(self, problem: Problem, deltas: Sequence) -> "PlanState":
        """The root state for one pair: its full problem reduced onto the
        dependence-distance variables."""

        core = self.core(problem, deltas)
        return PlanState(self, core, tuple(deltas), core.eliminated)


@dataclass(frozen=True)
class PlanState:
    """One node of the shared-prefix tree: a core plus its protected set.

    ``probe`` builds the small problem actually submitted to the solver
    service; ``extend`` descends one level (conjoining branch constraints
    and optionally un-protecting a now-pinned distance variable), going
    through the space's memo so sibling branches *and* sibling pairs of
    the same group hit the same reduced prefix.
    """

    space: PlanSpace
    core: PartialElimination
    kept: tuple
    #: Variables eliminated along the whole prefix (root core included).
    eliminated: int = 0

    def probe(self, constraints: Iterable[Constraint] = ()) -> Problem:
        if self.eliminated:
            _metrics.inc("solver.plan.prefix_reuses")
        return self.core.probe(constraints)

    def extend(
        self, constraints: Iterable[Constraint], drop=None
    ) -> "PlanState":
        kept = (
            tuple(v for v in self.kept if v != drop)
            if drop is not None
            else self.kept
        )
        _metrics.inc("solver.plan.prefix_extensions")
        derived = self.space.core(self.core.probe(constraints), kept)
        return PlanState(
            self.space, derived, kept, self.eliminated + derived.eliminated
        )
