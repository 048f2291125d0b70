"""Plan states that answer from intervals agree with the solver.

A :class:`repro.analysis.plan.PlanState` whose core is *separable* (each
constraint mentions exactly one variable, and that variable is kept)
answers ``sat``, ``bounds`` and ``extend`` from per-variable integer
intervals instead of submitting ``probe(extra)`` to the solver service.
The unit cases pin the separability check.  The population cases hook
every question a separable state answers during ``analyze()`` of the
timing corpus, CHOLSKY, the paper examples and the fuzzed programs of
``test_engine`` and ``test_cache_determinism``, and compare the interval
answer with the solver's answer on the same problem, twice:

- on ``probe(extra)``, the state's own core (built from the intervals
  when the state was derived by an interval ``extend``);
- on the *reference* problem: the real core of the nearest state that a
  reduction built, conjoined with every constraint the interval
  ``extend`` chain added since (a dropped variable stays in it,
  existentially), so an interval ``extend`` that intersected wrongly
  shows too.

Only undegraded answers are compared: no fault plan or budget is active
for these ``analyze()`` calls, and each population asserts that nothing
degraded.  The service's undegraded answer is the Omega core's, which is
what the comparison calls.
"""

import random

import pytest
from hypothesis import given, settings

from repro.analysis import AnalysisOptions, analyze
from repro.analysis import plan as plan_mod
from repro.analysis.plan import PlanState, QueryPlan
from repro.ir import parse
from repro.obs import MetricsRegistry, collecting
from repro.omega import (
    Constraint,
    LinearExpr,
    Problem,
    Relation,
    Variable,
    eq,
    ge,
    is_satisfiable,
    le,
    project,
)
from repro.programs import PAPER_EXAMPLES, cholsky, timing_corpus
from tests.analysis.test_cache_determinism import random_program
from tests.analysis.test_engine import random_programs

D, E, J = Variable("d"), Variable("e"), Variable("j")
SIGMA = Variable("sigma", "wild")


def state(core, kept):
    return PlanState(QueryPlan(), core, tuple(kept))


def solver_bounds(problem, var):
    return project(problem, [var]).interval(var)


# ---------------------------------------------------------------------------
# The separability check
# ---------------------------------------------------------------------------


class TestSeparability:
    def test_single_variable_bounds_are_separable(self):
        s = state(Problem().add_eq(D).add_ge(E - 1), [D, E])
        assert s.separable
        assert s.intervals == {D: (0, 0), E: (1, None)}

    def test_a_stride_wildcard_is_not_separable(self):
        stride = state(Problem().add_eq(D - 2 * SIGMA), [D])
        assert not stride.separable
        # The reduction of ``d = 2i, 1 <= i <= 10`` onto d keeps a stride.
        i = Variable("i")
        problem = Problem().add_eq(D - 2 * i).add_bounds(1, i, 10)
        reduced = QueryPlan().base_state(problem, [D])
        assert not reduced.separable
        assert not reduced.sat([eq(D - 3)])
        assert reduced.sat([eq(D - 4)])

    def test_the_false_witness_is_not_separable(self):
        dead = state(Problem.false(), [D])
        assert not dead.separable
        assert not dead.sat()

    def test_a_variable_outside_keep_is_not_separable(self):
        assert not state(Problem().add_ge(J - 1), [D]).separable
        assert not state(Problem().add_ge(D - J), [D, J]).separable

    def test_an_unbounded_distance(self):
        core = Problem().add_ge(D - 1)
        s = state(core, [D, E])
        assert s.intervals == {D: (1, None), E: (None, None)}
        for extra, var in (([], D), ([], E), ([le(E, -100)], E)):
            assert s.bounds(extra, var) == solver_bounds(
                s.probe(extra), var
            )
        assert s.sat([le(E, -100)])
        assert not s.sat([le(D, 0)])

    def test_the_empty_core_is_separable_and_unbounded(self):
        s = state(Problem(), [D])
        assert s.intervals == {D: (None, None)}
        assert s.sat() and s.bounds([], D) == (None, None)

    def test_a_non_unit_single_variable_equality(self):
        pinned = state(Problem().add_eq(2 * D - 4), [D])
        assert pinned.intervals == {D: (2, 2)}
        assert pinned.bounds([], D) == solver_bounds(pinned.probe(), D)
        off_lattice = state(Problem().add_eq(2 * D - 3), [D])
        assert off_lattice.separable
        assert not off_lattice.sat()
        assert off_lattice.bounds([], D) == (None, None)
        assert solver_bounds(Problem().add_eq(2 * D - 3), D) == (None, None)

    def test_non_unit_inequalities_round_inward(self):
        core = Problem([
            Constraint(LinearExpr({D: 2}, -3), Relation.GE),   # d >= 2
            Constraint(LinearExpr({D: -3}, 20), Relation.GE),  # d <= 6
        ])
        s = state(core, [D])
        assert s.intervals == {D: (2, 6)}
        assert s.bounds([], D) == solver_bounds(core, D)


class TestIntervalAnswers:
    def test_questions_over_other_variables_go_to_the_solver(self):
        s = state(Problem().add_bounds(0, D, 5), [D, E])
        with collecting(MetricsRegistry()) as registry:
            assert s.sat([ge(D - E)])             # two variables
            assert s.sat([ge(J)])                 # not kept
            assert s.sat([ge(D - 5)])             # interval-answered
        assert registry.counter("solver.plan.interval_answers") == 1

    def test_extend_intersects_without_a_reduction(self):
        plan = QueryPlan()
        root = PlanState(plan, Problem().add_bounds(-3, D, 3), (D, E))
        with collecting(MetricsRegistry()) as registry:
            child = root.extend([ge(D - 1)], drop=D)
            assert child.kept == (E,)
            assert child.intervals == {E: (None, None)}
            assert child.sat([ge(E)])
        assert registry.counter("solver.plan.cores_built") == 0
        assert registry.counter("solver.plan.cores_reused") == 0
        assert registry.counter("solver.plan.prefix_extensions") == 1

    def test_an_empty_dropped_interval_keeps_the_product_empty(self):
        root = state(Problem().add_bounds(-3, D, 3), [D, E])
        dead = root.extend([ge(D - 4)], drop=D)
        assert dead.kept == (E,)
        assert not dead.sat()
        assert not is_satisfiable(dead.probe())
        assert dead.bounds([], E) == (None, None)
        # Dropping the last kept variable of an empty product.
        assert not dead.extend([eq(E)], drop=E).sat()

    def test_a_state_built_from_intervals_has_an_equivalent_core(self):
        root = state(Problem().add_bounds(-3, D, 3).add_ge(E - 2), [D, E])
        child = root.extend([eq(D - 1)])
        assert child.intervals == {D: (1, 1), E: (2, None)}
        for extra in ([], [le(E, 1)], [eq(D - 2)], [ge(E - 9)]):
            assert child.sat(extra) == is_satisfiable(child.probe(extra))


# ---------------------------------------------------------------------------
# Populations: every interval answer equals the solver's
# ---------------------------------------------------------------------------


class Population:
    """Checks every question a separable state answers from intervals."""

    def __init__(self, monkeypatch):
        self.sats = 0
        self.bounds = 0
        #: id(state) -> (state, the reference problem's constraints).
        self._reference: dict[int, tuple] = {}
        self._registry = None
        self._patch(monkeypatch)

    def _answers(self) -> int:
        return self._registry.counter("solver.plan.interval_answers")

    def reference(self, state):
        entry = self._reference.get(id(state))
        if entry is not None and entry[0] is state:
            return list(entry[1])
        return list(state.core.constraints)

    def _patch(self, monkeypatch):
        real_sat = plan_mod.PlanState.sat
        real_bounds = plan_mod.PlanState.bounds
        real_extend = plan_mod.PlanState.extend

        def sat(state, extra=()):
            extra = list(extra)
            before = self._answers()
            answer = real_sat(state, extra)
            if self._answers() > before:
                assert answer == is_satisfiable(state.probe(extra))
                reference = Problem(self.reference(state) + extra)
                assert answer == is_satisfiable(reference), reference
                self.sats += 1
            return answer

        def bounds(state, extra, var):
            extra = list(extra)
            before = self._answers()
            answer = real_bounds(state, extra, var)
            if self._answers() > before:
                assert answer == solver_bounds(state.probe(extra), var)
                reference = Problem(self.reference(state) + extra)
                assert answer == solver_bounds(reference, var), reference
                self.bounds += 1
            return answer

        def extend(state, extra, drop=None):
            extra = list(extra)
            child = real_extend(state, extra, drop)
            if state.separable:
                self._reference[id(child)] = (
                    child, self.reference(state) + extra,
                )
            return child

        monkeypatch.setattr(plan_mod.PlanState, "sat", sat)
        monkeypatch.setattr(plan_mod.PlanState, "bounds", bounds)
        monkeypatch.setattr(plan_mod.PlanState, "extend", extend)

    def analyze_all(self, programs, options=None):
        self._registry = MetricsRegistry()
        with collecting(self._registry):
            for program in programs:
                analyze(program, options)
                self._reference.clear()
        counters = self._registry.to_dict()["counters"]
        assert counters.get("guard.degradations", 0) == 0
        assert counters["solver.plan.interval_answers"] == (
            self.sats + self.bounds
        )


@pytest.fixture
def population(monkeypatch):
    return Population(monkeypatch)


def test_timing_corpus(population):
    population.analyze_all(timing_corpus())
    assert population.sats > 0
    assert population.bounds > 0


def test_cholsky(population):
    population.analyze_all([cholsky()])
    assert population.sats > 0
    assert population.bounds > 0


def test_paper_examples(population):
    population.analyze_all(make() for make in PAPER_EXAMPLES.values())
    assert population.sats > 0
    assert population.bounds > 0


def test_cache_determinism_fuzz_programs(population):
    # The population of test_cache_determinism's fuzz test.
    rng = random.Random(19920617)
    population.analyze_all(random_program(rng, index) for index in range(220))
    assert population.sats > 0
    assert population.bounds > 0


@settings(max_examples=40, deadline=None)
@given(random_programs())
def test_engine_random_programs(source):
    # The strategy of test_engine's soundness test, with range refinement.
    with pytest.MonkeyPatch.context() as monkeypatch:
        population = Population(monkeypatch)
        population.analyze_all(
            [parse(source)], AnalysisOptions(partial_refine=True)
        )
