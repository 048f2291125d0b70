"""Governed runs take the query planner: best-effort cores, sound answers.

Core reductions (``QueryPlan.core``) sit below the solver service and
have no answer of their own, so under a budget or a fault plan they are
best-effort: a reduction that runs out of budget, or hits an injected
fault, leaves that request's core unreduced — and must not pin the
unreduced core for later requests, since the failure belongs to the run,
not the problem.  Each reduction runs on its own per-query work meter.

Whatever degrades, a governed answer must stay a superset of the
undegraded run and of the ground truth: the value-based flows the
interpreter (``repro.ir.interp``) observes at concrete symbol values.
"""

import random

import pytest

from repro.analysis.engine import AnalysisOptions, analyze
from repro.analysis.plan import QueryPlan
from repro.guard import Budget, FaultPlan, governed, injecting
from repro.ir import run_program, value_based_flows
from repro.omega import Problem, Variable
from repro.programs import PAPER_EXAMPLES, cholsky
from repro.solver import SolverService
from tests.analysis.test_cache_determinism import random_program
from tests.guard.test_chaos import live_deps

I, J = Variable("i"), Variable("j")
D = Variable("d")


def nest_problem():
    """d = j - i over 1 <= i, j <= 10: one substitution plus one FM step."""

    return (
        Problem()
        .add_bounds(1, I, 10)
        .add_bounds(1, J, 10)
        .add_eq(D - J + I)
    )


class TestCoreFallback:
    def test_a_fault_in_a_reduction_is_not_pinned(self):
        query_plan = QueryPlan()
        problem = nest_problem()
        plan = FaultPlan(seed=1, rate=1.0, kinds=("timeout", "budget"))
        with injecting(plan):
            faulted, eliminated = query_plan.core(problem, [D])
        assert plan.injected
        assert eliminated == 0
        assert faulted is problem
        # The fault was the run's: the next request reduces, and that
        # reduction is the one memoized.
        reduced = query_plan.core(problem, [D])
        assert reduced[1] > 0
        assert query_plan.core(problem, [D]) is reduced

    def test_an_exhausted_budget_in_a_reduction_is_not_pinned(self):
        query_plan = QueryPlan()
        problem = nest_problem()
        with governed(Budget(fm_steps=0)):
            _, starved = query_plan.core(problem, [D])
        assert starved == 0
        _, reduced = query_plan.core(problem, [D])
        assert reduced > 0

    def test_a_reduction_meters_its_own_work(self):
        # One FM step each: the probe before the reduction and the
        # reduction itself.  Charged to one meter they would exceed the
        # per-query allowance of 1; each on its own meter, both fit.
        service = SolverService()
        with service.activate(), governed(Budget(fm_steps=1)):
            assert service.sat(Problem().add_bounds(1, I, 10))
            state = QueryPlan().base_state(nest_problem(), [D])
            assert state.eliminated > 0
            assert service.sat(state.probe())
        assert service.degraded == 0


# ---------------------------------------------------------------------------
# Superset soundness: governed answers vs the undegraded run and the truth
# ---------------------------------------------------------------------------

#: Deterministic budgets tight enough to degrade most programs.
TIGHT_BUDGETS = {
    "fm1": Budget(fm_steps=1),
    "fm3": Budget(fm_steps=3),
    "splinters0": Budget(splinters=0),
    "dnf1": Budget(dnf_size=1),
}

#: Concrete values for the interpreter; unlisted symbols get 4.
SYMBOLS = dict(n=5, m=6, N=3, M=2, NMAT=1, NRHS=1, EPS=1, maxB=3, x=1, y=2)


def uncovered_flows(program, result):
    """Value-based flow instances no live dependence admits."""

    symbols = {
        name: SYMBOLS.get(name, 4) for name in program.symbolic_constants
    }
    live = result.live_flow()
    missed = []
    for flow in value_based_flows(run_program(program, symbols)):
        if not any(
            dep.src is flow.source
            and dep.dst is flow.destination
            and (
                not dep.deltas
                or any(v.admits(flow.distance) for v in dep.directions)
            )
            for dep in live
        ):
            missed.append(flow)
    return missed


def assert_superset(program, baseline, governed_result, label):
    assert live_deps(governed_result) >= live_deps(baseline), label
    assert not uncovered_flows(program, governed_result), label


def governed_runs(program, seed):
    """(label, result) for every tight budget and one chaos plan."""

    for name, budget in TIGHT_BUDGETS.items():
        yield name, analyze(program, AnalysisOptions(budget=budget))
    with injecting(FaultPlan(seed=seed, rate=0.05)):
        chaotic = analyze(program)
    yield "chaos", chaotic


@pytest.mark.parametrize("number", sorted(PAPER_EXAMPLES))
def test_paper_examples_governed_superset_of_truth(number):
    program = PAPER_EXAMPLES[number]()
    baseline = analyze(program)
    assert not uncovered_flows(program, baseline)
    for label, result in governed_runs(program, number):
        assert_superset(program, baseline, result, f"{program.name}/{label}")


def test_cholsky_governed_superset_of_truth():
    program = cholsky()
    baseline = analyze(program)
    degraded = 0
    for label, result in governed_runs(program, 1992):
        assert_superset(program, baseline, result, label)
        degraded += result.degraded()
    assert degraded  # the budgets actually bite


def test_fuzzed_programs_governed_superset_of_truth():
    """The chaos fuzzer's population, under every tight budget and chaos."""

    rng = random.Random(19920617)
    degraded = 0
    for index in range(60):
        program = random_program(rng, index)
        baseline = analyze(program)
        for label, result in governed_runs(program, 1000 + index):
            assert_superset(
                program, baseline, result, f"{program.name}/{label}"
            )
            degraded += result.degraded()
    assert degraded
