"""Covering, terminating and killing tests."""

import pytest

from repro.analysis import (
    AnalysisOptions,
    DependenceKind,
    DependenceStatus,
    KillTester,
    QueryPlan,
    SymbolTable,
    analyze,
    compute_dependences,
    cover_quick_reject,
    covers_destination,
    kill_quick_reject,
    terminates_source,
)
from repro.ir import parse


def deps_between(program, src_label, dst_label, kind=DependenceKind.FLOW, array=None):
    symbols = SymbolTable()
    sources = [
        a
        for a in (program.writes() if kind is not DependenceKind.ANTI else program.reads())
        if a.statement.label == src_label and (array is None or a.array == array)
    ]
    dsts = [
        a
        for a in (program.reads() if kind is DependenceKind.FLOW else program.writes())
        if a.statement.label == dst_label and (array is None or a.array == array)
    ]
    found = []
    for s in sources:
        for d in dsts:
            if s.array == d.array:
                found.extend(compute_dependences(s, d, kind, QueryPlan(symbols)))
    return found


def missed_flows(source, n=3, **contents):
    """The flows the interpreter observes that ``analyze()`` kills.

    Each keyword names an index array and lists its contents from index
    1; every other array element reads 0.  A flow is missed when no live
    dependence between its two accesses admits its distance.
    """

    from repro.ir import run_program, value_based_flows

    program = parse(source)

    def initial(address):
        name, index = address
        values = contents.get(name)
        return 0 if values is None else values[index[0] - 1]

    live = analyze(program).live_flow()
    trace = run_program(program, {"n": n}, initial)
    return sorted(
        (
            flow.source.statement.label,
            flow.destination.statement.label,
            flow.distance,
        )
        for flow in value_based_flows(trace)
        if not any(
            dep.src is flow.source
            and dep.dst is flow.destination
            and any(v.admits(flow.distance) for v in dep.directions)
            for dep in live
        )
    )


class TestCovering:
    def test_full_overwrite_covers(self):
        program = parse(
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do := a(i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2")
        assert covers_destination(dep)

    def test_partial_overwrite_does_not_cover(self):
        program = parse(
            """
            for i := 2 to n do a(i) := b(i)
            for i := 1 to n do := a(i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2")
        assert not covers_destination(dep)

    def test_strided_write_does_not_cover(self):
        program = parse(
            """
            for i := 1 to n do a(2*i) := b(i)
            for i := 2 to 2*n do := a(i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2")
        assert not covers_destination(dep)

    def test_strided_write_covers_strided_read(self):
        program = parse(
            """
            for i := 1 to n do a(2*i) := b(i)
            for i := 1 to n do := a(2*i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2")
        assert covers_destination(dep)

    def test_quick_reject_when_zero_distance_impossible(self):
        program = parse(
            """
            for i := 1 to n do {
              a(i+1) := b(i)
              := a(i)
            }
            """
        )
        (dep,) = deps_between(program, "s1", "s2")
        assert cover_quick_reject(dep)
        assert not covers_destination(dep)

    def test_cover_with_symbolic_bounds(self):
        # Paper Example 2 core: write covers a shifted read range.
        program = parse(
            """
            for i := 1 to n do a(i-1) := b(i)
            for i := 2 to n-1 do := a(i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2")
        assert covers_destination(dep)


class TestTerminating:
    def test_full_overwrite_terminates(self):
        program = parse(
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do a(i) := c(i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2", DependenceKind.OUTPUT)
        assert terminates_source(dep)

    def test_partial_overwrite_does_not_terminate(self):
        program = parse(
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n-1 do a(i) := c(i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2", DependenceKind.OUTPUT)
        assert not terminates_source(dep)

    def test_terminate_requires_write_destination(self):
        program = parse(
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do := a(i)
            """
        )
        (dep,) = deps_between(program, "s1", "s2")
        assert not terminates_source(dep)


class TestKilling:
    def analyze_kill(self, source, victim_labels, killer_label):
        program = parse(source)
        result = analyze(program)
        by_pair = {}
        for dep in result.flow:
            by_pair[(dep.src.statement.label, dep.dst.statement.label)] = dep
        return program, result, by_pair

    def test_example1_shape_kill(self):
        _program, _result, by_pair = self.analyze_kill(
            """
            a(n) :=
            for i := n to n+10 do a(i) :=
            for i := n to n+20 do := a(i)
            """,
            [("s1", "s3")],
            "s2",
        )
        assert by_pair[("s1", "s3")].status is DependenceStatus.KILLED
        assert by_pair[("s2", "s3")].status is DependenceStatus.LIVE

    def test_partial_overwrite_no_kill(self):
        _program, _result, by_pair = self.analyze_kill(
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do a(2*i) := c(i)
            for i := 1 to n do := a(i)
            """,
            [],
            "s2",
        )
        # The strided write cannot kill the dense one.
        assert by_pair[("s1", "s3")].status is DependenceStatus.LIVE
        assert by_pair[("s2", "s3")].status is DependenceStatus.LIVE

    def test_triangular_kill_is_partial(self):
        _program, _result, by_pair = self.analyze_kill(
            """
            for i := 1 to n do for j := 1 to n do a(i, j) := b(i, j)
            for i := 1 to n do for j := 1 to i do a(i, j) := c(i, j)
            for i := 1 to n do for j := 1 to n do := a(i, j)
            """,
            [],
            "s2",
        )
        # The triangular overwrite covers only j <= i: no full kill.
        assert by_pair[("s1", "s3")].status is DependenceStatus.LIVE

    def test_self_kill_within_loop(self):
        # Second write in the same iteration kills the first.
        _program, _result, by_pair = self.analyze_kill(
            """
            for i := 1 to n do {
              a(i) := b(i)
              a(i) := c(i)
              d(i) := a(i)
            }
            """,
            [("s1", "s3")],
            "s2",
        )
        assert by_pair[("s1", "s3")].status is not DependenceStatus.LIVE
        assert by_pair[("s2", "s3")].status is DependenceStatus.LIVE

    def test_quick_reject_no_output_dependence(self):
        program = parse(
            """
            for i := 1 to n do a(2*i) := b(i)
            for i := 1 to n do a(2*i+1) := c(i)
            for i := 1 to 2*n do := a(i)
            """
        )
        symbols = SymbolTable()
        writes = program.writes()
        read = program.reads()[-1]
        victim = compute_dependences(writes[0], read, DependenceKind.FLOW, QueryPlan(symbols))[0]
        killer = compute_dependences(writes[1], read, DependenceKind.FLOW, QueryPlan(symbols))[0]
        # Writes touch disjoint (even/odd) cells: no output dependence.
        assert kill_quick_reject(victim, killer, output_pairs=set())

    def test_kill_requires_intervening_position(self):
        # The overwrite happens after the read: no kill.
        _program, _result, by_pair = self.analyze_kill(
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do := a(i)
            for i := 1 to n do a(i) := c(i)
            """,
            [],
            "s3",
        )
        assert by_pair[("s1", "s2")].status is DependenceStatus.LIVE

    def test_kill_across_outer_loop(self):
        # Writes of iteration t are overwritten at the start of t+1 before
        # any read of t+1: flow from s1 to s2 is only intra-iteration.
        _program, result, by_pair = self.analyze_kill(
            """
            for t := 1 to steps do {
              for i := 1 to n do a(i) := b(i, t)
              for i := 1 to n do := a(i)
            }
            """,
            [],
            "s1",
        )
        dep = by_pair[("s1", "s2")]
        assert dep.status is DependenceStatus.LIVE
        assert dep.direction_text() == "(0)"


class TestGroundTruthCorpus:
    """Analysis vs interpreter over kill/cover-heavy kernels."""

    CASES = [
        (
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do a(i) := c(i)
            for i := 1 to n do d(i) := a(i)
            """,
            dict(n=6),
        ),
        (
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do a(2*i) := c(i)
            for i := 1 to n do := a(i)
            """,
            dict(n=7),
        ),
        (
            """
            for i := 1 to n do {
              a(i+1) := b(i)
              a(i) := c(i)
            }
            for i := 2 to n do := a(i)
            """,
            dict(n=6),
        ),
        (
            """
            for t := 1 to s do {
              for i := 2 to n-1 do x(i) := a(i-1) + a(i+1)
              for i := 2 to n-1 do a(i) := x(i)
            }
            """,
            dict(s=3, n=7),
        ),
    ]

    @pytest.mark.parametrize("source,symbols", CASES)
    def test_live_deps_cover_actual_flows_and_dead_have_none(
        self, source, symbols
    ):
        from repro.ir import run_program, value_based_flows

        program = parse(source)
        result = analyze(program)
        live_pairs = {(d.src, d.dst) for d in result.live_flow()}
        dead_pairs = {
            (d.src, d.dst) for d in result.dead_flow()
        } - live_pairs
        trace = run_program(program, symbols)
        actual = {(f.source, f.destination) for f in value_based_flows(trace)}
        assert actual <= live_pairs
        assert not (actual & dead_pairs)

    #: Index arrays in the killer's loop bounds: (program, contents).
    INDEX_BOUND_CASES = {
        "len": (
            """
            array x[1:n]
            for i := 1 to n do
              for k := 1 to len(i) do
                x(i) := x(i) - x(col(k))
            """,
            dict(len=[2, 2, 2], col=[1, 2]),
        ),
        "csr": (
            """
            array x[1:n]
            for i := 1 to n do
              for k := rowptr(i) to rowptr(i+1)-1 do
                x(i) := x(i) - x(col(k))
            """,
            dict(rowptr=[1, 3, 4, 6], col=[1, 2, 1, 2, 3]),
        ),
        # Row 1 is empty: s1's x(1) reaches s3 with no s2 in between.
        "forward-substitution": (
            """
            for i := 1 to n do {
              x(i) := b(i)
              for k := rowptr(i) to rowptr(i+1)-1 do
                x(i) := x(i) - a(k) * x(col(k))
              x(i) := x(i) * d(i)
            }
            """,
            dict(rowptr=[1, 1, 2, 4], col=[1, 1, 2]),
        ),
    }

    @pytest.mark.parametrize("case", list(INDEX_BOUND_CASES))
    def test_index_array_loop_bound_keeps_observed_flows(self, case):
        source, contents = self.INDEX_BOUND_CASES[case]
        assert missed_flows(source, **contents) == []

    @pytest.mark.parametrize(
        "declaration", ["", "array x[1:n]"], ids=["unbounded", "bounded"]
    )
    def test_write_through_an_index_array_keeps_observed_flows(
        self, declaration
    ):
        # p permutes 1 and 2, so iteration 1's x(p(1)) := b(1) writes
        # x(2), not x(1): s1's x(1) still reaches s3.
        missed = missed_flows(
            declaration
            + """
            for i := 1 to n do {
              x(i) := a(i)
              x(p(i)) := b(i)
              c(i) := x(i)
            }
            """,
            p=[2, 1, 3],
        )
        assert missed == []
