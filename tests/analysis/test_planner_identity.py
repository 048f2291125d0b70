"""The planner under governance must be invisible when nothing runs out.

Every ``analyze()`` run goes through the single-pass query planner.  A
governed run — a budget, a deadline or a fault plan — additionally arms
the checkpoint machinery, meters each core reduction on its own and
shields each probe.  When no budget runs out and no fault fires, none of
that may show: dependences, statuses, explain trails and audit
provenance stay byte-identical to the default run, uncached
and under a ``caching(SolverCache())`` scope.  The fuzzed corpus guards
shapes no curated example happens to cover.
"""

import random
from contextlib import nullcontext

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.guard import Budget, FaultPlan, injecting
from repro.omega import SolverCache, caching
from repro.obs import MetricsRegistry, collecting
from repro.programs import PAPER_EXAMPLES, cholsky, corpus_programs
from repro.reporting import result_to_dict

from .test_cache_determinism import random_program

#: Governed configurations whose budget never runs out: (options, fault
#: plan).  A fault plan alone governs a run under ``Budget.unlimited()``.
GOVERNED = {
    "unlimited": (dict(budget=Budget.unlimited()), None),
    "deadline": (dict(deadline_ms=1e9), None),
    "silent-faults": ({}, 0.0),
}


def snapshot(result):
    data = result_to_dict(result)
    # A governed run carries an (empty) degradation log, an ungoverned
    # one none at all; everything else must match byte for byte.
    data.pop("degradations")
    if result.explain is not None:
        data["explain"] = result.explain.render()
    if result.provenance:
        data["provenance_repr"] = [repr(r) for r in result.provenance]
    return data


def observe(program, faults=None, cache=False, **options):
    """The snapshot of one run (with ``cache``, in its own solver-cache
    scope)."""

    scope = (
        injecting(FaultPlan(seed=1, rate=faults))
        if faults is not None
        else nullcontext()
    )
    cached = caching(SolverCache()) if cache else nullcontext()
    with scope, cached:
        result = analyze(program, AnalysisOptions(**options))
    if faults is not None or options.keys() & {"budget", "deadline_ms"}:
        assert result.degradations is not None
        assert not result.degraded()
    return snapshot(result)


def assert_governed_identical(program, **options):
    expected = observe(program, **options)
    for name, (governance, faults) in GOVERNED.items():
        governed = observe(program, faults, **options, **governance)
        assert governed == expected, name


def fuzzed_programs(count=8):
    rng = random.Random(19920617)
    return [random_program(rng, index) for index in range(count)]


@pytest.mark.parametrize(
    "make_program",
    PAPER_EXAMPLES.values(),
    ids=[f"example{number}" for number in PAPER_EXAMPLES],
)
def test_paper_examples_identical(make_program):
    for cache in (True, False):
        assert_governed_identical(
            make_program(), cache=cache, explain=True, audit=True
        )


@pytest.mark.parametrize(
    "program", corpus_programs(), ids=lambda program: program.name
)
def test_corpus_identical(program):
    for cache in (True, False):
        assert_governed_identical(
            program, cache=cache, explain=True, audit=True
        )


@pytest.mark.parametrize(
    "program", fuzzed_programs(), ids=lambda program: program.name
)
def test_fuzzed_programs_identical_with_audit(program):
    for cache in (True, False):
        assert_governed_identical(
            program, cache=cache, audit=True, input_deps=True
        )


@pytest.mark.parametrize("cache", (True, False))
def test_cholsky_identical_across_cache_settings(cache):
    assert_governed_identical(cholsky(), cache=cache, explain=True, audit=True)


def test_planner_emits_the_memoized_graph():
    for options in (AnalysisOptions(), AnalysisOptions(deadline_ms=1e9)):
        result = analyze(cholsky(), options)
        graph = result.graph()
        assert result.graph() is graph  # memoized, built during the traversal
        assert result.graph(live_only=False) is not graph  # kwargs rebuild


def test_governed_run_takes_the_planner():
    """Same plan, same cores, same questions: governance adds no work."""

    def plan_counters(options):
        registry = MetricsRegistry()
        with collecting(registry):
            analyze(cholsky(), options)
        return {
            name: value
            for name, value in registry.counters.items()
            if name.startswith("solver.plan.") or name == "solver.queries"
        }

    ungoverned = plan_counters(AnalysisOptions())
    governed = plan_counters(AnalysisOptions(deadline_ms=1e9))
    assert governed == ungoverned
    assert governed["solver.plan.cores_built"] > 0
    assert governed["solver.plan.cores_reused"] > 0
