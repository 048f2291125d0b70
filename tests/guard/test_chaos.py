"""Chaos suite: seeded fault injection across the whole analysis pipeline.

The property under test (the tentpole's soundness contract): with faults
injected at every named checkpoint site, ``analyze()`` still terminates,
never raises under the default ``degrade`` policy, and the dependences it
reports are a *superset* of the fault-free run's — degradation may keep a
false dependence alive, but can never lose a true one.

The CI ``chaos`` leg re-runs this file with ``REPRO_FAULTS`` set; the
seed and rate below are the local defaults when the environment does not
choose.
"""

import random

import pytest

from repro.analysis.dependences import DependenceStatus
from repro.analysis.engine import AnalysisOptions, analyze
from repro.guard import BudgetExhausted, FaultPlan, injecting, plan_from_env
from repro.programs import PAPER_EXAMPLES, example2
from tests.analysis.test_cache_determinism import random_program

#: Environment override (the CI chaos legs) or the local default plan.
_ENV_PLAN = plan_from_env()
BASE_SEED = _ENV_PLAN.seed if _ENV_PLAN is not None else 20260806
RATE = _ENV_PLAN.rate if _ENV_PLAN is not None else 0.05
KINDS = _ENV_PLAN.kinds if _ENV_PLAN is not None else ("timeout", "budget")


def chaos_plan(offset=0):
    """A fresh, deterministic plan (plans hold per-site call counters)."""

    return FaultPlan(seed=BASE_SEED + offset, rate=RATE, kinds=KINDS)


def live_deps(result):
    live = set()
    for kind, deps in (
        ("flow", result.flow),
        ("anti", result.anti),
        ("output", result.output),
    ):
        for dep in deps:
            if dep.status is DependenceStatus.LIVE:
                live.add((kind, str(dep.src), str(dep.dst)))
    return live


@pytest.mark.parametrize("number", sorted(PAPER_EXAMPLES))
def test_paper_examples_survive_chaos_soundly(number):
    program = PAPER_EXAMPLES[number]()
    baseline = live_deps(analyze(program))
    with injecting(chaos_plan(number)):
        chaotic = analyze(program)
    assert live_deps(chaotic) >= baseline, program.name
    if chaotic.degraded():
        assert all(event.site for event in chaotic.degradations)


def test_fuzzed_programs_survive_chaos_soundly():
    """>= 200 random programs: terminate, no raise, superset of exact."""

    rng = random.Random(19920617)  # same population as the cache fuzz suite
    checked = 0
    degraded_runs = 0
    injected_total = 0
    for index in range(220):
        program = random_program(rng, index)
        baseline = live_deps(analyze(program))
        plan = chaos_plan(1000 + index)
        with injecting(plan):
            chaotic = analyze(program)
        assert live_deps(chaotic) >= baseline, program.name
        checked += 1
        degraded_runs += 1 if chaotic.degraded() else 0
        injected_total += len(plan.injected)
    assert checked >= 200
    # The population must actually exercise the fault paths.
    assert injected_total > 0
    assert degraded_runs > 0


def test_total_chaos_still_terminates():
    """Every checkpoint fails, every query degrades — and analyze returns."""

    plan = FaultPlan(seed=3, rate=1.0, kinds=("timeout", "budget"))
    with injecting(plan):
        result = analyze(example2())
    assert result.degraded()
    assert plan.injected
    assert all(event.site for event in result.degradations)


def test_strict_policy_raises_under_chaos():
    plan = FaultPlan(seed=7, rate=1.0, kinds=("timeout",))
    with injecting(plan):
        with pytest.raises(BudgetExhausted) as err:
            analyze(example2(), AnalysisOptions(policy="raise"))
    assert err.value.budget == "deadline"
    assert err.value.site
