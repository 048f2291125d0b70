"""Refinement unit tests beyond the paper's named examples."""

import pytest

from repro.analysis import (
    AnalysisOptions,
    DependenceKind,
    analyze,
    compute_dependences,
    refine_dependence,
)
from repro.ir import parse


def single_flow_dep(source, **kwargs):
    program = parse(source)
    deps = compute_dependences(
        program.writes()[0], program.reads()[0], DependenceKind.FLOW, **kwargs
    )
    assert len(deps) == 1
    return deps[0]


class TestRefineBasics:
    def test_already_exact_distance_untouched(self):
        dep = single_flow_dep("for i := 1 to n do a(i) := a(i-1)")
        outcome = refine_dependence(dep)
        assert not outcome.dependence.refined
        assert outcome.dependence.direction_text() == "(1)"

    def test_no_deltas_no_refinement(self):
        program = parse(
            """
            a(1) :=
            := a(1)
            """
        )
        deps = compute_dependences(
            program.writes()[0], program.reads()[0], DependenceKind.FLOW
        )
        outcome = refine_dependence(deps[0])
        assert not outcome.attempted

    def test_outer_unrelated_loop_refines_to_zero(self):
        dep = single_flow_dep(
            """
            for t := 1 to steps do
              for i := 2 to n do
                a(i) := a(i-1)
            """
        )
        refined = refine_dependence(dep).dependence
        assert refined.refined
        assert refined.direction_text() == "(0,1)"

    def test_refinement_not_possible_without_closer_write(self):
        # Write at i, read at 2i: each cell written once per t; the
        # distance in i is not constant but there is no more recent
        # source to refine to within the i loop.
        dep = single_flow_dep(
            """
            for t := 1 to steps do
              for i := 1 to n do
                a(2*i) := a(i)
            """
        )
        refined = refine_dependence(dep).dependence
        # Outer loop refines to 0 (same t provides the latest write).
        assert refined.directions[0][0].is_exact

    def test_refinement_keeps_problem_satisfiable(self):
        from repro.omega import is_satisfiable

        dep = single_flow_dep(
            """
            for i := 1 to n do
              for j := 2 to m do
                a(j) := a(j-1)
            """
        )
        refined = refine_dependence(dep).dependence
        assert is_satisfiable(refined.problem)

    def test_unrefined_vectors_preserved(self):
        dep = single_flow_dep(
            """
            for i := 1 to n do
              for j := 2 to m do
                a(j) := a(j-1)
            """
        )
        refined = refine_dependence(dep).dependence
        assert refined.unrefined_directions == dep.directions


class TestRefineAgainstGroundTruth:
    """Refined distance vectors must still cover every actual flow."""

    CASES = [
        ("for i := 1 to n do for j := 2 to m do a(j) := a(j-1)", dict(n=4, m=6)),
        ("for i := 1 to n do for j := n+2-i to m do a(j) := a(j-1)", dict(n=4, m=8)),
        ("for i := 1 to n do for j := i to m do a(j) := a(j-1)", dict(n=4, m=8)),
        ("for i := 1 to n do for j := 2 to m do a(i-j) := a(i-j)", dict(n=5, m=5)),
        ("for t := 1 to s do for i := 2 to n do a(i) := a(i-1) + a(i+1)", dict(s=3, n=6)),
    ]

    @pytest.mark.parametrize("source,symbols", CASES)
    def test_value_flows_covered(self, source, symbols):
        from repro.ir import run_program, value_based_flows

        program = parse(source)
        result = analyze(program, AnalysisOptions(partial_refine=True))
        live = result.live_flow()
        trace = run_program(program, symbols)
        for flow in value_based_flows(trace):
            candidates = [
                d
                for d in live
                if d.src is flow.source and d.dst is flow.destination
            ]
            assert any(
                (not d.deltas)
                or any(v.admits(flow.distance) for v in d.directions)
                for d in candidates
            ), f"uncovered actual flow {flow.source} -> {flow.destination} {flow.distance}"


class TestRefineUsesTheDependenceState:
    """Refinement probes the state its dependence carries: outside the
    kill tests (which reduce their own order-case problems), the only root
    reductions of a run are the one per ``compute_dependences`` call."""

    def test_no_root_reduced_inside_refinement(self, monkeypatch):
        from repro.analysis import engine
        from repro.analysis.kills import KillTester
        from repro.analysis.plan import QueryPlan
        from repro.programs import cholsky, timing_corpus

        counts = {
            "pairs": 0,
            "roots": 0,
            "refines": 0,
            "roots_in_refine": 0,
            "roots_in_kill": 0,
        }
        refining = []
        killing = []
        real_base_state = QueryPlan.base_state
        real_compute = engine.compute_dependences
        real_refine = engine.refine_dependence
        real_decide = KillTester._decide

        def base_state(plan, problem, deltas):
            counts["roots"] += 1
            if refining:
                counts["roots_in_refine"] += 1
            if killing:
                counts["roots_in_kill"] += 1
            return real_base_state(plan, problem, deltas)

        def compute(*args, **kwargs):
            counts["pairs"] += 1
            return real_compute(*args, **kwargs)

        def refine(dep, **kwargs):
            counts["refines"] += 1
            refining.append(dep)
            try:
                return real_refine(dep, **kwargs)
            finally:
                refining.pop()

        def decide(tester, victim, killer):
            killing.append(victim)
            try:
                return real_decide(tester, victim, killer)
            finally:
                killing.pop()

        monkeypatch.setattr(QueryPlan, "base_state", base_state)
        monkeypatch.setattr(KillTester, "_decide", decide)
        monkeypatch.setattr(engine, "compute_dependences", compute)
        monkeypatch.setattr(engine, "refine_dependence", refine)
        for program in timing_corpus() + [cholsky()]:
            analyze(program)
        assert counts["refines"] > 0
        assert counts["roots_in_refine"] == 0
        assert counts["roots"] - counts["roots_in_kill"] == counts["pairs"]
