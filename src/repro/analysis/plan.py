"""The single-pass query planner: share base systems and FM prefixes.

``QueryPlan`` is built once per analysis run, governed or not, and threads
through :func:`repro.analysis.dependences.compute_dependences` into the
direction-vector search.  It contributes two kinds of sharing:

*Base systems.*  Every candidate pair re-derives the same iteration-space
constraints for its two statement instances.  The plan builds each
statement instance's constraint system once per role prefix and reuses
it across every pair (flow/anti/output/input) that access takes part in.
Sharing is restricted to *pure* instances — affine subscripts and bounds,
unit steps — whose construction mints no fresh occurrence or wildcard
variables, so a shared instance is constraint-for-constraint identical to
the one :func:`repro.analysis.problem.build_pair_problem` builds on its
own and results stay bit-identical.

*FM prefixes.*  Each pair's full problem is exactly reduced onto its
distance variables (:mod:`repro.omega.partial`) through the
:class:`repro.solver.plan.PlanSpace` memo, so the expensive elimination
prefix is computed once and reused by every sibling branch of
the direction-vector tree and by every other pair with the same
iteration space.  Reductions are best-effort: one that runs out of budget
or hits an injected fault leaves its core unreduced (see
:meth:`repro.solver.plan.PlanSpace.core`).

The planner changes *which problems* are submitted for the sign probes,
never the question order or the answers: every probe is one service
query, with its own degradation shield and audit footprint.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from ..ir.ast import Access, Program
from ..obs import metrics as _metrics
from ..solver.plan import PlanSpace
from .problem import (
    InstanceContext,
    PairProblem,
    SymbolTable,
    build_instance,
    build_pair_problem,
)

__all__ = ["QueryPlan"]


def _affine(expr) -> bool:
    return not getattr(expr, "uterms", ())


class QueryPlan:
    """Shared statement instances plus the shared solver-side plan state."""

    def __init__(
        self,
        program: Program,
        symbols: SymbolTable,
        *,
        assertions: Iterable = (),
        array_bounds: Mapping[str, tuple] | None = None,
    ):
        self.program = program
        self.symbols = symbols
        self.assertions = tuple(assertions)
        self.array_bounds = array_bounds
        self.space = PlanSpace()
        self._instances: dict[tuple[int, str], InstanceContext] = {}
        self._pure: dict[int, bool] = {}
        self._lock = threading.Lock()

    # -- shared base systems --------------------------------------------
    def _is_pure(self, access: Access) -> bool:
        """Does building this instance mint no fresh global variables?

        Impure instances (uninterpreted terms in bounds or subscripts,
        non-unit steps) draw from global occurrence/wildcard counters, so
        sharing one would shift the numbering an unshared build produces;
        they are rebuilt per pair.
        """

        cached = self._pure.get(id(access))
        if cached is not None:
            return cached
        pure = all(_affine(sub) for sub in access.ref.subscripts)
        if pure:
            for loop in access.statement.loops:
                if loop.step != 1:
                    pure = False
                    break
                if not all(
                    _affine(bound)
                    for bound in tuple(loop.lowers) + tuple(loop.uppers)
                ):
                    pure = False
                    break
        if pure and self.array_bounds and access.ref.array in self.array_bounds:
            for lo, hi in self.array_bounds[access.ref.array]:
                if not (_affine(lo) and _affine(hi)):
                    pure = False
                    break
        self._pure[id(access)] = pure
        return pure

    def instance(self, access: Access, prefix: str) -> InstanceContext:
        """The (possibly shared) instance context for one access role."""

        if not self._is_pure(access):
            return build_instance(
                access, prefix, self.symbols, self.array_bounds
            )
        key = (id(access), prefix)
        with self._lock:
            ctx = self._instances.get(key)
            if ctx is None:
                ctx = build_instance(
                    access, prefix, self.symbols, self.array_bounds
                )
                self._instances[key] = ctx
                _metrics.inc("solver.plan.base_systems")
            else:
                _metrics.inc("solver.plan.base_reused")
        return ctx

    def pair_problem(self, src: Access, dst: Access) -> PairProblem:
        """The pair problem, derived from the shared instances."""

        return build_pair_problem(
            src,
            dst,
            self.symbols,
            assertions=self.assertions,
            array_bounds=self.array_bounds,
            src_ctx=self.instance(src, "i"),
            dst_ctx=self.instance(dst, "j"),
        )
