"""The closer-cover positive quick kill (Section 4.5, last paragraph)."""

import pytest

from repro.analysis import (
    DependenceKind,
    QueryPlan,
    SymbolTable,
    compute_dependences,
    covers_destination,
)
from repro.analysis.kills import KillTester, closer_cover_quick_kill
from repro.ir import parse, run_program, value_based_flows


def flow_deps(program, src_label, dst_label, symbols):
    writes = [w for w in program.writes() if w.statement.label == src_label]
    reads = [r for r in program.reads() if r.statement.label == dst_label]
    found = []
    for w in writes:
        for r in reads:
            if w.array == r.array:
                found.extend(
                    compute_dependences(w, r, DependenceKind.FLOW, QueryPlan(symbols))
                )
    return found


SOURCE = """
for t := 1 to steps do {
  for i := 1 to n do a(i) := b(i, t)
  for i := 1 to n do := a(i)
}
"""


class TestCloserCover:
    def build(self):
        program = parse(SOURCE)
        symbols = SymbolTable()
        (victim,) = flow_deps(program, "s1", "s2", symbols)
        # Make the victim the cross-iteration version of the same pair:
        # the covering same-iteration dependence is "closer".
        return program, symbols, victim

    def test_quick_kill_applies_for_closer_cover(self):
        program, symbols, dep = self.build()
        # Split the dependence manually: the refined (0,...) dependence
        # covers; a hypothetical (1+,...) victim from the same write is
        # strictly farther.
        from repro.analysis.refine import refine_dependence

        refined = refine_dependence(dep).dependence
        refined.covers = covers_destination(refined)
        assert refined.covers
        # Construct the "stale" victim: same pair, distance >= 1 at t.
        from repro.analysis.vectors import PLUS, STAR, DirectionVector
        from repro.omega import Problem

        stale_problem = Problem(list(dep.problem.constraints))
        stale_problem.extend(PLUS.constraints(dep.deltas[0]))
        from repro.analysis.dependences import Dependence

        from repro.analysis.vectors import direction_vectors

        stale_state = dep.state.extend(PLUS.constraints(dep.deltas[0]))
        stale = Dependence(
            dep.kind,
            dep.src,
            dep.dst,
            dep.pair,
            dep.restraint,
            stale_problem,
            stale_state,
            direction_vectors(stale_state, dep.deltas),
        )
        assert closer_cover_quick_kill(stale, refined)

    def test_quick_kill_requires_cover_flag(self):
        _program, _symbols, dep = self.build()
        assert not closer_cover_quick_kill(dep, dep)

    def test_quick_kill_never_contradicts_ground_truth(self):
        # Whenever the quick kill fires inside the engine, the victim must
        # indeed carry no actual value flow.
        from repro.analysis import AnalysisOptions, analyze

        program = parse(SOURCE)
        result = analyze(program)
        dead = {(d.src, d.dst) for d in result.dead_flow()}
        trace = run_program(program, {"steps": 3, "n": 4})
        actual = {(f.source, f.destination) for f in value_based_flows(trace)}
        assert not (dead & actual)

    def test_mismatched_depths_rejected(self):
        program = parse(
            """
            a(1) :=
            for i := 1 to n do := a(1)
            """
        )
        symbols = SymbolTable()
        (dep,) = flow_deps(program, "s1", "s2", symbols)
        assert not closer_cover_quick_kill(dep, dep)
