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
shared-prefix tree, and it is what the searches ask: ``sat`` decides
``core ∧ E``, ``bounds`` reads one distance's interval, ``extend``
descends one branch.

*Interval answers.*  A state checks its core once.  The core is
*separable* when each of its constraints mentions exactly one variable
and that variable is kept (``d1 = 0 ∧ d2 >= 1``); a stride wildcard, the
FALSE witness or a variable outside ``keep`` make it not separable.
Since the core is exact over the kept variables, a separable core's
integer points are the product of one integer interval per kept
variable.  Every question whose extra constraints each mention one
kept variable then follows from the intervals: ``sat`` is "every
interval, intersected with the extra bounds, is non-empty", ``bounds``
is the intersected interval (what projecting ``core ∧ E`` onto that one
variable reads off), and ``extend`` intersects and drops the variable
without another reduction.  Any other question goes to the solver
service as ``probe(extra)``, one query each, with its degradation
shield and audit footprint.

Reductions are best-effort: each runs on its own per-query work meter,
one that runs out of budget (or hits an injected fault) leaves that
request's core unreduced and unmemoized, and a complexity blow-up leaves
it unreduced.  The reductions are pure rewrites with no answer of their
own.  The planner changes which problems reach the solver, and which
questions need to reach it at all, never the answers: an interval
answer is the answer the solver gives on ``probe(extra)``
(``tests/analysis/test_interval_states.py`` compares the two on every
question a separable state answers over the corpus, CHOLSKY, the paper
examples and fuzzed programs).  Only the audit's per-subject query
counts see the difference.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable, Mapping, Sequence

from ..guard import budget as _guard
from ..ir.ast import Access
from ..obs import metrics as _metrics
from ..omega.constraints import Constraint, NormalizeStatus, Problem, eq, ge
from ..omega.eliminate import (
    choose_variable,
    eliminate_equalities,
    fourier_motzkin,
)
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from ..omega.terms import LinearExpr
from ..solver import is_satisfiable, project
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


def _intersect(intervals: Mapping, constraints: Iterable[Constraint]):
    """A copy of ``intervals`` (variable -> ``(lo, hi)``, None =
    unbounded) narrowed by ``constraints``, or None unless each
    constraint mentions exactly one variable of ``intervals``."""

    found = dict(intervals)
    for constraint in constraints:
        narrowed = _narrow(found, constraint)
        if narrowed is None:
            return None
        found[narrowed[0]] = narrowed[1]
    return found


def _narrow(intervals: Mapping, constraint: Constraint):
    """``(var, interval)``: the interval of the one variable
    ``constraint`` mentions, narrowed by it; None unless the constraint
    mentions exactly one variable of ``intervals``."""

    terms = constraint.expr.terms
    if len(terms) != 1:
        return None
    ((var, coeff),) = terms.items()
    interval = intervals.get(var)
    if interval is None:
        return None
    lo, hi = interval
    constant = constraint.expr.constant
    if constraint.is_equality:
        # coeff*var + constant = 0: one value, or none off the lattice.
        if constant % coeff:
            return var, (1, 0)
        value = -constant // coeff
        lo = value if lo is None else max(lo, value)
        hi = value if hi is None else min(hi, value)
    elif coeff > 0:
        # coeff*var + constant >= 0:  var >= ceil(-constant / coeff).
        bound = -(constant // coeff)
        lo = bound if lo is None else max(lo, bound)
    else:
        # -|coeff|*var + constant >= 0:  var <= floor(constant / |coeff|).
        bound = constant // -coeff
        hi = bound if hi is None else min(hi, bound)
    return var, (lo, hi)


def _empty(interval: tuple) -> bool:
    """Is the interval ``(lo, hi)`` (None = unbounded) empty?"""

    lo, hi = interval
    return lo is not None and hi is not None and lo > hi


def _interval_constraints(var, interval: tuple) -> list[Constraint]:
    lo, hi = interval
    if lo is not None and lo == hi:
        return [eq(LinearExpr({var: 1}, -lo))]
    found = []
    if lo is not None:
        found.append(ge(LinearExpr({var: 1}, -lo)))
    if hi is not None:
        found.append(ge(LinearExpr({var: -1}, hi)))
    return found


class PlanState:
    """One node of the shared-prefix tree: a core plus its protected set.

    ``sat`` and ``bounds`` answer questions about
    ``core ∧ extra``: from the state's intervals when the core is
    separable and every extra constraint bounds one kept variable, and
    through the solver service on ``probe(extra)`` otherwise.
    ``extend`` descends one level (conjoining branch constraints and
    optionally un-protecting a now-pinned distance variable): a separable
    state intersects its intervals; any other goes through the plan's
    memo, so sibling branches *and* sibling pairs of the same group hit
    the same reduced prefix.
    """

    __slots__ = ("plan", "kept", "eliminated", "intervals", "_core", "_name")

    def __init__(
        self,
        plan: QueryPlan,
        core: Problem | None,
        kept: tuple,
        eliminated: int = 0,
        intervals: dict | None = None,
        name: str = "",
    ):
        self.plan = plan
        self.kept = kept
        #: Variables eliminated along the whole prefix (root core included).
        self.eliminated = eliminated
        #: Kept variable -> its interval ``(lo, hi)`` (None = unbounded)
        #: when the core is separable, else None.  A state derived by an
        #: interval ``extend`` has no core yet and gets its intervals
        #: passed in.  An empty interval is never dropped, so an empty
        #: product stays empty after its variable is un-protected.
        self.intervals = (
            # Separable: every constraint mentions exactly one variable,
            # and that variable is kept.
            _intersect(dict.fromkeys(kept, (None, None)), core.constraints)
            if core is not None
            else intervals
        )
        self._core = core
        self._name = core.name if core is not None else name

    @property
    def core(self) -> Problem:
        """The reduced core; a state derived from intervals builds it
        from them on first use."""

        if self._core is None:
            constraints: list[Constraint] = []
            for var, interval in self.intervals.items():
                constraints.extend(_interval_constraints(var, interval))
            self._core = Problem(constraints, self._name)
        return self._core

    @property
    def separable(self) -> bool:
        """Does the state answer from intervals?"""

        return self.intervals is not None

    def probe(self, extra: Iterable[Constraint] = ()) -> Problem:
        """The core conjoined with extra constraints over kept variables."""

        if self.eliminated:
            _metrics.inc("solver.plan.prefix_reuses")
        return _conjoin(self.core, extra)

    def _narrowed(self, extra: Iterable[Constraint]) -> dict | None:
        """The intervals intersected with ``extra``, or None when the
        state is not separable or some extra constraint does not bound
        exactly one kept variable."""

        if self.intervals is None:
            return None
        return _intersect(self.intervals, extra)

    def sat(self, extra: Iterable[Constraint] = ()) -> bool:
        """Is ``core ∧ extra`` satisfiable?"""

        extra = list(extra)
        intervals = self._narrowed(extra)
        if intervals is None:
            return is_satisfiable(self.probe(extra))
        _metrics.inc("solver.plan.interval_answers")
        return not any(map(_empty, intervals.values()))

    def bounds(self, extra: Iterable[Constraint], var) -> tuple:
        """The constant bounds ``(lo, hi)`` on kept ``var`` over
        ``core ∧ extra`` (None = unbounded): the interval of its
        projection onto ``var`` alone, read off the real shadow, or
        ``(None, None)`` when ``core ∧ extra`` is empty.

        The core comes from exact steps only, so it has the full
        problem's integer projection onto the kept variables;
        ``tests/analysis/test_distance_bounds.py`` checks the state's and
        the full problem's intervals are equal on every box and
        refinement level, inexact projections included."""

        extra = list(extra)
        intervals = self._narrowed(extra)
        if intervals is None or var not in intervals:
            return project(self.probe(extra), [var]).interval(var)
        _metrics.inc("solver.plan.interval_answers")
        if any(map(_empty, intervals.values())):
            return None, None
        return intervals[var]

    def extend(self, extra: Iterable[Constraint], drop=None) -> "PlanState":
        """The state for ``core ∧ extra``, no longer protecting ``drop``.

        Dropping is sound only when no later probe constrains that
        variable again (the searches drop each distance variable once its
        sign is pinned at that level).
        """

        extra = list(extra)
        kept = tuple(v for v in self.kept if v != drop)
        _metrics.inc("solver.plan.prefix_extensions")
        intervals = self._narrowed(extra)
        if intervals is not None:
            eliminated = self.eliminated
            if drop in intervals and not _empty(intervals[drop]):
                del intervals[drop]
                eliminated += 1
            return PlanState(
                self.plan, None, kept, eliminated, intervals, self._name
            )
        core, eliminated = self.plan.core(_conjoin(self.core, extra), kept)
        return PlanState(self.plan, core, kept, self.eliminated + eliminated)
