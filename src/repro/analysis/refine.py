"""Refinement of dependence distances (Section 4.4).

A dependence from write A to access B refines to distance set D when every
iteration of B receiving the dependence also receives it from a source
within D.  Candidate Ds fix the distance loop-by-loop from the outside in
to the *minimum* feasible value — which makes the refined dependence carry
the most recent writes, enabling the simplified test::

    forall k, Sym:
      (exists i . i in [A] and A(i) << B(k) and A(i) sub= B(k))
        =>  (exists j . j in [A] and A(j) <<_D B(k) and A(j) sub= B(k))

Both sides are projections onto (k, Sym); the implication is checked with
gists / union implications, handling splintered projections.

As a documented extension (``partial=True``) we also try small *ranges*
(e.g. ``0:1``) when an exact fix fails; the paper notes its generator "will
not automatically find the partial refinement in Example 5" — ours does.
"""

from __future__ import annotations

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs.audit import note_conservative as _note_conservative
from ..obs.trace import span as _span
from ..omega import Problem, Variable
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from ..solver import implies_union, project
from .dependences import Dependence
from .vectors import DirComponent, DirectionVector, direction_vectors

__all__ = ["refine_dependence", "RefinementOutcome"]

_PARTIAL_WIDTH = 2  # how far above the minimum a range refinement may reach


class RefinementOutcome:
    """Result wrapper: the (possibly) refined dependence plus telemetry."""

    def __init__(self, dependence: Dependence, attempted: bool):
        self.dependence = dependence
        self.attempted = attempted


def _lhs_keep(dep: Dependence) -> list[Variable]:
    keep = list(dep.pair.dst_ctx.loop_vars)
    keep.extend(dep.pair.sym_vars())
    return keep


def _implication_holds(
    lhs_pieces: list[Problem], rhs_pieces: list[Problem]
) -> bool:
    if not rhs_pieces:
        return not lhs_pieces
    try:
        return all(implies_union(piece, rhs_pieces) for piece in lhs_pieces)
    except BudgetExhausted:
        # Only reachable under the strict ("raise") policy — the solver
        # service degrades this to False itself otherwise.
        raise
    except OmegaComplexityError:
        return False  # conservative: do not refine


def refine_dependence(
    dep: Dependence, *, partial: bool = False
) -> RefinementOutcome:
    """Attempt to refine a dependence; returns the refined dependence.

    The input dependence is not mutated; when refinement succeeds a new
    :class:`Dependence` is returned with ``refined=True`` and the original
    direction vectors preserved in ``unrefined_directions``.  The
    distance bounds, the candidates' feasibility and the refined
    direction vectors are all asked of ``dep.state``, the dependence's
    own plan state; the refined dependence carries that state extended
    with the pinned levels.
    """

    with _span("analysis.refine", src=dep.src, dst=dep.dst) as sp:
        outcome = _refine(dep, partial)
    if sp.duration:
        _metrics.observe("analysis.refine_seconds", sp.duration)
    if outcome.attempted:
        _metrics.inc("analysis.refinements_attempted")
    if outcome.dependence is not dep:
        _metrics.inc("analysis.refinements_applied")
    return outcome


def _refine(dep: Dependence, partial: bool) -> RefinementOutcome:
    deltas = dep.deltas
    if not deltas:
        return RefinementOutcome(dep, False)

    keep = _lhs_keep(dep)
    lhs_projection = project(dep.problem, keep)
    if not lhs_projection.exact_union:
        # Cannot prove the simplified-test implication from an inexact
        # union: leave the dependence unrefined, soundly.
        _note_conservative(
            _guard.current_subject(), "refine-inexact-projection"
        )
        return RefinementOutcome(dep, True)
    lhs_pieces = lhs_projection.pieces

    # Bounds and feasibility are questions about the distances alone, so
    # they are asked of the dependence's plan state; the implication's
    # projections keep loop variables and symbols the core has
    # eliminated, so they stay on the full problem.
    root = dep.state
    fixed: list[DirComponent] = []
    narrowed = False
    for delta in deltas:
        pinned = DirectionVector(fixed).constraints(deltas)
        bounds = DirComponent(*root.bounds(pinned, delta))
        if bounds.lo is None:
            break
        if bounds.is_exact:
            # Already pinned; nothing to test at this level.
            fixed.append(bounds)
            continue
        candidates = [DirComponent(bounds.lo, bounds.lo)]
        if partial:
            hi_limit = bounds.hi if bounds.hi is not None else bounds.lo + _PARTIAL_WIDTH
            for hi in range(bounds.lo + 1, min(bounds.lo + _PARTIAL_WIDTH, hi_limit) + 1):
                candidates.append(DirComponent(bounds.lo, hi))
        accepted: DirComponent | None = None
        for candidate in candidates:
            extra = pinned + candidate.constraints(delta)
            if not root.sat(extra):
                continue
            trial = Problem(
                list(dep.problem.constraints) + extra, name=dep.problem.name
            )
            rhs_projection = project(trial, keep)
            if _implication_holds(lhs_pieces, rhs_projection.pieces):
                accepted = candidate
                break
        if accepted is None:
            break
        fixed.append(accepted)
        if (accepted.lo, accepted.hi) != (bounds.lo, bounds.hi):
            narrowed = True

    if not fixed or not narrowed:
        return RefinementOutcome(dep, True)

    pinned = DirectionVector(fixed).constraints(deltas)
    state = root.extend(pinned)
    new_directions = direction_vectors(state, deltas)
    if new_directions == dep.directions:
        return RefinementOutcome(dep, True)
    refined = Dependence(
        dep.kind,
        dep.src,
        dep.dst,
        dep.pair,
        dep.restraint,
        Problem(list(dep.problem.constraints) + pinned, name=dep.problem.name),
        state,
        new_directions,
        refined=True,
        unrefined_directions=list(dep.directions),
    )
    return RefinementOutcome(refined, True)
