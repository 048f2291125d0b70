"""Covering and terminating dependences (Sections 4.2 and 4.3).

A dependence from write A to access B *covers* B iff every location B
accesses was previously written by A::

    forall j, Sym:  j in [B]
      =>  exists i . i in [A] and A(i) << B(j) and A(i) sub= B(j)

The mirror image: a dependence from A to write B *terminates* A iff every
location A accesses is subsequently overwritten by B.

The quick test from Section 4.5 applies first: a dependence that cannot
have distance 0 in some common loop cannot cover the first trip through
that loop, so the general test is skipped (the engine then relies on kill
tests instead, exactly as the paper describes).
"""

from __future__ import annotations

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs.audit import note_conservative as _note_conservative
from ..obs.trace import span as _span
from ..omega import Problem, Variable
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from ..solver import implies, implies_union, is_satisfiable, project
from .dependences import Dependence

__all__ = ["covers_destination", "terminates_source", "cover_quick_reject"]


def cover_quick_reject(dep: Dependence) -> bool:
    """True when the quick test rules out covering.

    "If a dependence from A to B does not include the distance 0 in some
    loop l, it can not cover the execution of B the first time through l."
    """

    for level in range(len(dep.deltas)):
        if not any(vector[level].admits(0) for vector in dep.directions):
            _metrics.inc("analysis.cover_quick_rejects")
            return True
    return False


def _check_universal_coverage(
    dep: Dependence, keep: list[Variable], lhs: Problem
) -> bool:
    """Does ``lhs`` imply the projection of the dependence onto ``keep``?"""

    if not is_satisfiable(lhs):
        return True
    projection = project(dep.problem, keep)
    if not projection.pieces:
        return False
    try:
        return implies_union(lhs, projection.pieces)
    except BudgetExhausted:
        # Only reachable under the strict ("raise") policy — the solver
        # service degrades this to False itself otherwise.
        raise
    except OmegaComplexityError:
        # Sound fallback: test against the dark shadow only.
        _note_conservative(
            _guard.current_subject(), "cover-dark-shadow-fallback"
        )
        return implies(lhs, projection.dark)


def covers_destination(dep: Dependence, *, use_quick_test: bool = True) -> bool:
    """Does this dependence cover its destination access?"""

    if use_quick_test and cover_quick_reject(dep):
        return False
    _metrics.inc("analysis.covers_tested")
    with _span("analysis.cover", src=dep.src, dst=dep.dst) as sp:
        keep = list(dep.pair.dst_ctx.loop_vars) + dep.pair.sym_vars()
        lhs = Problem(
            list(dep.pair.dst_ctx.domain.constraints)
            + list(dep.pair.assertions),
            name=f"[{dep.dst}]",
        )
        covers = _check_universal_coverage(dep, keep, lhs)
    if sp.duration:
        _metrics.observe("analysis.cover_seconds", sp.duration)
    if covers:
        _metrics.inc("analysis.covers_found")
    return covers


def terminates_source(dep: Dependence) -> bool:
    """Does the destination write overwrite everything the source accessed?

    Only meaningful when the destination is a write (output or anti
    dependences, or flow dependences considered from the source's side).
    """

    if not dep.dst.is_write or cover_quick_reject(dep):
        return False
    with _span("analysis.terminate", src=dep.src, dst=dep.dst):
        keep = list(dep.pair.src_ctx.loop_vars) + dep.pair.sym_vars()
        lhs = Problem(
            list(dep.pair.src_ctx.domain.constraints)
            + list(dep.pair.assertions),
            name=f"[{dep.src}]",
        )
        terminates = _check_universal_coverage(dep, keep, lhs)
    if terminates:
        _metrics.inc("analysis.terminators_found")
    return terminates
