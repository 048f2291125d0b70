"""The query planner: share base systems, reduce once, probe many times.

Every dependence query goes through a ``QueryPlan``.  The engine builds
one per analysis run, governed or not, and passes it to
:func:`repro.analysis.dependences.compute_dependences` and the kill
tester; each :class:`repro.analysis.dependences.Dependence` carries its
own :class:`PlanState`, which refinement and the vector searches probe.
The plan contributes two kinds of sharing:

*Base systems.*  Every candidate pair re-derives the same iteration-space
constraints for its two statement instances.  The plan builds each
statement instance's constraint system once per role prefix and reuses
it across every pair (flow/anti/output/input) that access takes part in.
Sharing is restricted to *pure* instances — affine subscripts and bounds,
unit steps — whose construction mints no fresh occurrence or wildcard
variables, so a shared instance is constraint-for-constraint identical to
the one :func:`repro.analysis.problem.build_pair_problem` builds on its
own and results stay bit-identical.

*Reduced cores.*  The vector searches ask dozens of questions per pair,
each of the form ``sat(P ∧ E)`` where ``P`` is the pair's full problem
and ``E`` constrains only the dependence-distance variables.
:func:`partial_eliminate` performs the shared prefix of that work once:
it eliminates every variable outside a protected ``keep`` set using only
**exact** reductions — equality substitution, and Fourier-Motzkin steps
where every lower/upper pair has a unit coefficient, the condition under
which the dark and real shadows coincide (Section 2.3.1 of the paper).
An exact step preserves the integer solutions over the remaining
variables, so for any ``E`` over the ``keep`` variables

    sat(core ∧ E)  ==  sat(P ∧ E).

Inexact eliminations are not taken: the variable stays in the core and
later probes pay for it.  The plan memoizes cores structurally, so
sibling branches of one pair's search and pairs with the same iteration
space share one reduction.  A :class:`PlanState` is one node of that
shared-prefix tree: ``probe`` builds the problem a search submits,
``extend`` descends one branch.

Reductions are best-effort: each runs on its own per-query work meter,
one that runs out of budget (or hits an injected fault) leaves that
request's core unreduced and unmemoized, and a complexity blow-up leaves
it unreduced.  The reductions are pure rewrites with no answer of their
own; the probes still go through :mod:`repro.solver`, one service query
each, with its own degradation shield and audit footprint.  The planner
changes *which problems* are submitted, never the questions asked or
their answers.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..guard import budget as _guard
from ..ir.ast import Access
from ..obs import metrics as _metrics
from ..omega.constraints import Constraint, NormalizeStatus, Problem
from ..omega.eliminate import (
    choose_variable,
    eliminate_equalities,
    fourier_motzkin,
)
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from .problem import (
    InstanceContext,
    PairProblem,
    SymbolTable,
    build_instance,
    build_pair_problem,
)

__all__ = ["PlanState", "QueryPlan", "partial_eliminate"]

#: The most constraints one Fourier-Motzkin step of a reduction may add.
MAX_GROWTH = 8


def partial_eliminate(problem: Problem, keep: Iterable) -> tuple[Problem, int]:
    """Exactly eliminate as many non-``keep`` variables as possible.

    Returns the reduced core and the number of variables eliminated (0
    when no reduction was possible and the core is ``problem`` itself).
    Runs equality elimination (protecting ``keep``) and then repeated
    exact Fourier-Motzkin steps, re-normalizing and re-eliminating
    equalities after each, until only inexact or too-costly
    (``MAX_GROWTH`` new constraints) eliminations remain.  A complexity
    blow-up returns the problem unreduced.  :class:`BudgetExhausted` (a
    deadline, a work meter, an injected fault) propagates: it belongs to
    the run, not the problem, so the caller decides what to memoize.
    """

    kept = frozenset(keep)
    try:
        return _reduce(problem, kept)
    except BudgetExhausted:
        raise
    except OmegaComplexityError:
        return problem, 0


def _reduce(problem: Problem, keep: frozenset) -> tuple[Problem, int]:
    outcome = eliminate_equalities(problem, protected=keep)
    if not outcome.satisfiable:
        return Problem.false(problem.name), 1
    current = outcome.problem
    eliminated = len(outcome.substitutions)
    while True:
        # Equality elimination has run: the equalities left are
        # protected-only or strides, whose variables FM must not touch.
        pinned = set(keep)
        for constraint in current.constraints:
            if constraint.is_equality:
                pinned.update(constraint.variables())
        var, _ = choose_variable(
            current,
            [v for v in current.variables() if v not in pinned],
            max_growth=MAX_GROWTH,
        )
        if var is None:
            return current, eliminated
        result = fourier_motzkin(current, var, want_splinters=False)
        # Exact by construction (unit pairs), so dark == real == projection.
        shadow, status = result.dark.normalized()
        eliminated += 1
        if status is NormalizeStatus.UNSATISFIABLE:
            return Problem.false(problem.name), eliminated
        if status is NormalizeStatus.TAUTOLOGY:
            return Problem(name=problem.name), eliminated
        outcome = eliminate_equalities(shadow, protected=keep)
        if not outcome.satisfiable:
            return Problem.false(problem.name), eliminated
        current = outcome.problem
        eliminated += len(outcome.substitutions)


def _conjoin(problem: Problem, extra: Iterable[Constraint]) -> Problem:
    extra = list(extra)
    if not extra:
        return problem
    return Problem(list(problem.constraints) + extra, problem.name)


def _core_key(problem: Problem, keep: Sequence) -> tuple:
    """A structural identity for (problem, keep) reduction requests: the
    constraint and kept-variable sets, independent of order."""

    return frozenset(problem.constraints), frozenset(keep)


def _affine(expr) -> bool:
    return not getattr(expr, "uterms", ())


class QueryPlan:
    """Shared statement instances plus the memo of reduced cores."""

    def __init__(
        self,
        symbols: SymbolTable | None = None,
        *,
        assertions: Iterable = (),
        array_bounds: Mapping[str, tuple] | None = None,
    ):
        self.symbols = symbols or SymbolTable()
        self.assertions = tuple(assertions)
        self.array_bounds = array_bounds
        self._instances: dict[tuple[int, str], InstanceContext] = {}
        self._pure: dict[int, bool] = {}
        self._cores: dict[tuple, tuple[Problem, int]] = {}
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

    # -- reduced cores ----------------------------------------------------
    def core(self, problem: Problem, keep: Sequence) -> tuple[Problem, int]:
        """The reduced core of ``problem`` protecting ``keep`` (memoized),
        with the number of variables the reduction eliminated."""

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
                core = partial_eliminate(problem, keep)
        except BudgetExhausted:
            # The run's failure, not the problem's (the rule SolverCache
            # applies too): answer unreduced and leave the slot empty, so a
            # later request for the same core reduces it.
            return problem, 0
        self._cores[key] = core
        _metrics.inc("solver.plan.cores_built")
        return core

    def release(self) -> None:
        """Drop the memo of reduced cores and the shared instances; later
        requests rebuild them."""

        self._cores.clear()
        self._instances.clear()
        self._pure.clear()

    def base_state(self, problem: Problem, keep: Sequence) -> "PlanState":
        """The root state for ``problem`` reduced onto ``keep``: a pair's
        full problem onto its dependence-distance variables, or a kill
        test's problem onto the loop variables its order cases constrain."""

        core, eliminated = self.core(problem, keep)
        return PlanState(self, core, tuple(keep), eliminated)


@dataclass(frozen=True)
class PlanState:
    """One node of the shared-prefix tree: a core plus its protected set.

    ``probe`` builds the problem submitted to the solver service;
    ``extend`` descends one level (conjoining branch constraints and
    optionally un-protecting a now-pinned distance variable), going
    through the plan's memo so sibling branches *and* sibling pairs of
    the same group hit the same reduced prefix.
    """

    plan: QueryPlan
    core: Problem
    kept: tuple
    #: Variables eliminated along the whole prefix (root core included).
    eliminated: int = 0

    def probe(self, extra: Iterable[Constraint] = ()) -> Problem:
        """The core conjoined with extra constraints over kept variables."""

        if self.eliminated:
            _metrics.inc("solver.plan.prefix_reuses")
        return _conjoin(self.core, extra)

    def extend(self, extra: Iterable[Constraint], drop=None) -> "PlanState":
        """The state for ``core ∧ extra``, no longer protecting ``drop``.

        Dropping is sound only when no later probe constrains that
        variable again (the searches drop each distance variable once its
        sign is pinned at that level).
        """

        kept = tuple(v for v in self.kept if v != drop)
        _metrics.inc("solver.plan.prefix_extensions")
        core, eliminated = self.plan.core(_conjoin(self.core, extra), kept)
        return PlanState(self.plan, core, kept, self.eliminated + eliminated)
