"""Tests for dependence computation and the Dependence object."""

import pytest

from repro.analysis import (
    DependenceKind,
    DependenceStatus,
    QueryPlan,
    SymbolTable,
    compute_dependences,
)
from repro.ir import parse


def pair(source, kind=DependenceKind.FLOW):
    program = parse(source)
    if kind is DependenceKind.FLOW:
        src, dst = program.writes()[0], program.reads()[0]
    elif kind is DependenceKind.ANTI:
        src, dst = program.reads()[0], program.writes()[0]
    else:
        writes = program.writes()
        src = writes[0]
        dst = writes[min(1, len(writes) - 1)]
    return program, src, dst


class TestComputeDependences:
    def test_simple_flow(self):
        _p, w, r = pair("for i := 1 to n do a(i) := a(i-1)")
        (dep,) = compute_dependences(w, r, DependenceKind.FLOW)
        assert dep.kind is DependenceKind.FLOW
        assert dep.direction_text() == "(1)"
        assert dep.status is DependenceStatus.LIVE

    def test_no_dependence_when_never_equal(self):
        _p, w, r = pair("for i := 1 to n do a(2*i) := a(2*i+1)")
        assert compute_dependences(w, r, DependenceKind.FLOW) == []

    def test_no_dependence_backward_only(self):
        # Read of a(i+1) before any write of it: anti only, flow backward.
        _p, w, r = pair("for i := 1 to n do a(i) := a(i+1)")
        assert compute_dependences(w, r, DependenceKind.FLOW) == []
        deps = compute_dependences(r, w, DependenceKind.ANTI)
        assert len(deps) == 1
        assert deps[0].direction_text() == "(1)"

    def test_loop_independent_anti(self):
        _p, w, r = pair("for i := 1 to n do a(i) := a(i)")
        (dep,) = compute_dependences(r, w, DependenceKind.ANTI)
        assert dep.direction_text() == "(0)"

    def test_self_output_requires_overwrite(self):
        program = parse("for i := 1 to n do a(i) := b(i)")
        w = program.writes()[0]
        assert compute_dependences(w, w, DependenceKind.OUTPUT) == []
        program2 = parse("for i := 1 to n do for j := 1 to m do a(i) := b(j)")
        w2 = program2.writes()[0]
        (dep,) = compute_dependences(w2, w2, DependenceKind.OUTPUT)
        assert dep.direction_text() == "(0,+)"

    def test_splits_on_restraints(self):
        # Example 7's shape: two restraint vectors, two dependences.
        program = parse(
            """
            array A[1:n, 1:m]
            for L1 := x to n do
              for L2 := 1 to m do
                A(L1, L2) := A(L1-x, y)
            """
        )
        w = program.writes()[0]
        r = program.reads()[0]
        deps = compute_dependences(
            w, r, DependenceKind.FLOW, QueryPlan(array_bounds=program.array_bounds)
        )
        assert sorted(str(d.restraint) for d in deps) == ["(+,*)", "(0,+)"]

    def test_assertions_can_remove_dependence(self):
        from repro.omega import Variable, le

        program = parse(
            """
            for i := 1 to n do a(i) := a(i+k0)
            """
        )
        w, r = program.writes()[0], program.reads()[0]
        # Flow from a(i) to a(i+k0) requires k0 <= -1 (source earlier).
        k0 = Variable("k0", "sym")
        assert compute_dependences(w, r, DependenceKind.FLOW)
        assert not compute_dependences(
            w, r, DependenceKind.FLOW, QueryPlan(assertions=[le(1, k0)])
        )

    def test_symbol_table_reuse(self):
        symbols = SymbolTable()
        _p, w, r = pair("for i := 1 to n do a(i) := a(i-1)")
        compute_dependences(w, r, DependenceKind.FLOW, QueryPlan(symbols))
        assert symbols.sym("n") is symbols.sym("n")
        assert "n" in {v.name for v in symbols.all()}


class TestDependenceObject:
    def test_tags_and_describe(self):
        _p, w, r = pair("for i := 1 to n do a(i) := a(i-1)")
        (dep,) = compute_dependences(w, r, DependenceKind.FLOW)
        assert dep.tags() == ""
        dep.covers = True
        dep.refined = True
        assert dep.tags() == "Cr"
        dep.status = DependenceStatus.KILLED
        assert "k" in dep.tags()
        assert "->" in dep.describe()

    def test_loop_independent_flag(self):
        program = parse(
            """
            for i := 1 to n do {
              a(i) := b(i)
              := a(i)
            }
            """
        )
        (dep,) = compute_dependences(
            program.writes()[0], program.reads()[1], DependenceKind.FLOW
        )
        assert dep.is_loop_independent
        assert dep.carrier_level() == 0

    def test_carrier_level_carried(self):
        _p, w, r = pair("for i := 1 to n do a(i) := a(i-1)")
        (dep,) = compute_dependences(w, r, DependenceKind.FLOW)
        assert dep.carrier_level() == 1

    def test_carrier_level_inner(self):
        _p, w, r = pair(
            "for i := 1 to n do for j := 2 to m do a(i, j) := a(i, j-1)"
        )
        (dep,) = compute_dependences(w, r, DependenceKind.FLOW)
        assert dep.carrier_level() == 2

    def test_depth_zero_dependence(self):
        program = parse(
            """
            a(5) :=
            := a(5)
            """
        )
        (dep,) = compute_dependences(
            program.writes()[0], program.reads()[0], DependenceKind.FLOW
        )
        assert dep.deltas == ()
        assert dep.direction_text() == ""
