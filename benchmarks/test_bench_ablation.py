"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Gist fast checks** (Section 3.3): the paper lists four fast checks
   that "often completely determine a gist".  Full gists run the naive
   algorithm alone; implication tests run checks 1-3 first.  We time an
   implication test both ways: ``implies`` (checks 1-3, then the
   short-circuited naive test) against the full naive gist.
2. **Kill quick tests** (Section 4.5): the output-dependence and distance
   compatibility pre-filters that let most kill tests skip the Omega test.
3. **Partial (range) refinement**: our documented extension; off
   reproduces the paper's generator, on finds Example 5's (0:1,1).
"""

import pytest

from repro.analysis import (
    AnalysisOptions,
    DependenceKind,
    QueryPlan,
    analyze,
    compute_dependences,
)
from repro.analysis.kills import KillTester
from repro.omega import Problem, Variable, gist, implies
from repro.programs import example5
from repro.programs.corpus import contrived_total_overwrite

from .conftest import write_artifact


def _gist_workload():
    n = Variable("n", "sym")
    i1, j1 = Variable("i1"), Variable("j1")
    p = Problem().add_bounds(1, i1, n).add_le(i1 + 1, j1).add_le(j1, n)
    q = Problem().add_bounds(1, i1, n).add_bounds(1, j1, n).add_ge(n - 10)
    return p, q


def test_bench_gist_with_fast_checks(benchmark):
    p, q = _gist_workload()
    assert not benchmark(lambda: implies(q, p))


def test_bench_gist_naive_only(benchmark):
    p, q = _gist_workload()
    result = benchmark(lambda: gist(p, q))
    assert not result.is_trivially_true()


def _kill_setup():
    program = contrived_total_overwrite()
    plan = QueryPlan()
    writes = program.writes()
    read = [r for r in program.reads() if r.array == "a"][0]
    victim = compute_dependences(writes[0], read, DependenceKind.FLOW, plan)[0]
    killer = compute_dependences(writes[1], read, DependenceKind.FLOW, plan)[0]
    output_pairs = {(writes[0], writes[1]), (writes[0], writes[0])}
    return plan, output_pairs, victim, killer


def test_bench_kill_with_quick_tests(benchmark):
    plan, output_pairs, victim, killer = _kill_setup()

    def run():
        tester = KillTester(plan, output_pairs)
        return tester.kills(victim, killer).killed

    assert benchmark(run)


def test_bench_kill_quick_reject_path(benchmark):
    # No output dependence recorded: the quick test answers instantly.
    plan, _pairs, victim, killer = _kill_setup()

    def run():
        tester = KillTester(plan, set())
        return tester.kills(victim, killer).killed

    assert not benchmark(run)


def test_bench_refinement_exact_only(benchmark):
    program = example5()
    result = benchmark.pedantic(
        lambda: analyze(program, AnalysisOptions(partial_refine=False)),
        rounds=1,
        iterations=1,
    )
    (dep,) = result.live_flow()
    assert dep.direction_text() == "(0+,1)"  # paper's generator gives up


def test_bench_refinement_with_ranges(benchmark):
    program = example5()
    result = benchmark.pedantic(
        lambda: analyze(program, AnalysisOptions(partial_refine=True)),
        rounds=1,
        iterations=1,
    )
    (dep,) = result.live_flow()
    assert dep.direction_text() == "(0:1,1)"  # the extension finds it
    write_artifact(
        "ablation_refinement.txt",
        "Example 5 refinement ablation:\n"
        "  exact-fix generator (paper): (0+,1) — no refinement\n"
        "  range extension (ours):      (0:1,1)\n",
    )
