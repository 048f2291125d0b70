"""Symbolic dependence analysis tests beyond the paper's worked examples,
plus pins of the Example 7/8 artifacts and Section 5 under the solver
service (governed, degraded, audited)."""

import pathlib

import pytest

from repro.analysis import DependenceKind, SymbolTable
from repro.analysis.symbolic import (
    ArrayProperty,
    PropertyRegistry,
    dependence_conditions,
    format_constraint,
    format_problem,
    generate_query,
    property_case_splits,
    satisfiable_with_properties,
    symbolic_dependence_exists,
)
from repro.guard import Budget, governed, subject
from repro.ir import parse
from repro.obs import AuditLog, auditing
from repro.omega import Problem, Variable, eq, ge, le
from repro.programs import example7, example8
from repro.solver import SolverService

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


class TestFormatting:
    def test_constraint_sides(self):
        x = Variable("x", "sym")
        assert format_constraint(ge(x - 3)) == "x >= 3"
        assert format_constraint(le(x, 3)) == "3 >= x"
        assert format_constraint(eq(x, 3)) == "x = 3"
        assert format_constraint(eq(2 * x + 3, 0)) == "2*x + 3 = 0"

    def test_problem_true(self):
        assert format_problem(Problem()) == "TRUE"

    def test_renaming(self):
        v = Variable("i_Q_1", "sym")
        text = format_constraint(eq(v, 5), rename=lambda var: "Q[a]")
        assert text == "Q[a] = 5"


class TestDependenceConditions:
    def test_trip_count_condition(self):
        program = parse("for i := 2 to n do a(i) := a(i-1)")
        (cond,) = dependence_conditions(
            program.writes()[0], program.reads()[0]
        )
        # p (the loops run at all) gives n >= 2; the dependence needs one
        # more iteration: the gist is exactly n >= 3.
        assert format_problem(cond.condition) == "n >= 3"

    def test_unconditional_once_trip_count_asserted(self):
        program = parse("for i := 2 to n do a(i) := a(i-1)")
        n = Variable("n", "sym")
        (cond,) = dependence_conditions(
            program.writes()[0],
            program.reads()[0],
            assertions=[ge(n - 3)],
        )
        assert cond.condition.is_trivially_true()

    def test_shift_by_symbol(self):
        # Flow a(i) -> a(i-k0) requires k0 >= 1 (and enough iterations).
        program = parse("for i := 1 to n do a(i) := a(i - k0)")
        conds = dependence_conditions(
            program.writes()[0],
            program.reads()[0],
            keep_syms=[Variable("k0", "sym")],
        )
        assert conds
        text = format_problem(conds[0].condition)
        assert "k0 >= 1" in text

    def test_known_assertion_subsumed(self):
        program = parse("for i := 1 to n do a(i) := a(i - k0)")
        k0 = Variable("k0", "sym")
        conds = dependence_conditions(
            program.writes()[0],
            program.reads()[0],
            assertions=[ge(k0 - 1)],
            keep_syms=[k0],
        )
        # k0 >= 1 is already known: nothing new is required.
        assert all(
            "k0 >= 1" not in format_problem(c.condition) for c in conds
        )

    def test_condition_respects_loop_trip_count(self):
        # Dependence carried over distance k0 needs k0 < n iterations.
        program = parse("for i := 1 to n do a(i) := a(i - k0)")
        k0 = Variable("k0", "sym")
        n = Variable("n", "sym")
        conds = dependence_conditions(
            program.writes()[0],
            program.reads()[0],
            keep_syms=[k0, n],
        )
        text = format_problem(conds[0].condition)
        assert "n >= k0 + 1" in text


class TestQueries:
    def test_trivial_query_for_affine_pair(self):
        program = parse("for i := 1 to n do a(i) := a(i-1)")
        (query,) = generate_query(program.writes()[0], program.reads()[0])
        assert query.is_trivial

    def test_product_query_naming(self):
        program = parse(
            "for i := 1 to n do for j := 1 to n do a(i*j) := a(i*j - 1)"
        )
        queries = generate_query(program.writes()[0], program.reads()[0])
        assert queries
        texts = [q.render() for q in queries]
        assert any("*" in t and "never happens" in t for t in texts)

    def test_scalar_query_naming(self):
        program = parse(
            """
            for i := 1 to n do {
              a(k) := a(k - 1)
              k := k + 1
            }
            """
        )
        w = [a for a in program.writes() if a.array == "a"][0]
        r = [a for a in program.reads() if a.array == "a"][0]
        queries = generate_query(w, r)
        assert queries
        assert any("k(" in q.render() for q in queries)


class TestPropertySplits:
    def build_occurrences(self, source, array="Q"):
        program = parse(source)
        from repro.analysis import build_pair_problem

        pair = build_pair_problem(
            program.writes()[0],
            program.writes()[0],
            array_bounds=program.array_bounds,
        )
        return pair, [o for o in pair.occurrences() if o.term.name == array]

    def test_split_count_plain(self):
        pair, occs = self.build_occurrences(
            "for i := 1 to n do a(Q(i)) := 1"
        )
        registry = PropertyRegistry()
        splits = property_case_splits(occs, registry, pair.symbols)
        assert len(splits) == 3  # <, =, > for the one pair

    def test_split_count_injective(self):
        pair, occs = self.build_occurrences(
            "for i := 1 to n do a(Q(i)) := 1"
        )
        registry = PropertyRegistry().declare("Q", ArrayProperty.INJECTIVE)
        splits = property_case_splits(occs, registry, pair.symbols)
        assert len(splits) == 5

    def test_no_occurrences_single_branch(self):
        registry = PropertyRegistry()
        assert property_case_splits([], registry, SymbolTable()) == [[]]

    def test_value_bounds_instantiated(self):
        pair, occs = self.build_occurrences(
            "for i := 1 to n do a(Q(i)) := 1"
        )
        registry = PropertyRegistry().bound_values("Q", 1, 5)
        splits = property_case_splits(occs, registry, pair.symbols)
        # Each branch carries the 2 * |occs| bound constraints.
        assert all(len(branch) >= 2 * len(occs) for branch in splits)

    def test_permutation_implies_injective(self):
        registry = PropertyRegistry().declare("Q", ArrayProperty.PERMUTATION)
        assert ArrayProperty.INJECTIVE in registry.properties("Q")


class TestSymbolicExistence:
    def setup_method(self):
        self.program = parse(
            """
            array a[1:n]
            array Q[1:n]
            for i := 1 to n do a(Q(i)) := a(Q(i)) + 1
            """
        )
        self.write = [x for x in self.program.writes() if x.array == "a"][0]
        self.read = [x for x in self.program.reads() if x.array == "a"][0]

    def test_self_output_exists_without_properties(self):
        assert symbolic_dependence_exists(
            self.write,
            self.write,
            DependenceKind.OUTPUT,
            array_bounds=self.program.array_bounds,
        )

    def test_injective_rules_out_self_output(self):
        registry = PropertyRegistry().declare("Q", ArrayProperty.INJECTIVE)
        assert not symbolic_dependence_exists(
            self.write,
            self.write,
            DependenceKind.OUTPUT,
            registry,
            array_bounds=self.program.array_bounds,
        )

    def test_same_iteration_flow_survives_injectivity(self):
        # a(Q(i)) reads then writes the same cell in one iteration: the
        # loop-carried flow dies under injectivity, but the anti/flow
        # relation via equal subscripts remains for distinct iterations
        # only if Q collides — check the carried flow specifically.
        registry = PropertyRegistry().declare("Q", ArrayProperty.INJECTIVE)
        assert not symbolic_dependence_exists(
            self.write,
            self.read,
            DependenceKind.FLOW,
            registry,
            array_bounds=self.program.array_bounds,
        )

    def test_value_bounds_can_force_collision(self):
        # Pigeonhole-flavored: with Q values pinned to a single cell, the
        # self-output dependence certainly exists (conservative MAYBE
        # remains MAYBE, but the splits must remain satisfiable).
        registry = PropertyRegistry().bound_values("Q", 3, 3)
        assert symbolic_dependence_exists(
            self.write,
            self.write,
            DependenceKind.OUTPUT,
            registry,
            array_bounds=self.program.array_bounds,
        )


class TestSatisfiableWithProperties:
    def test_plain_problem_no_occurrences(self):
        x = Variable("x")
        p = Problem().add_bounds(0, x, 5)
        assert satisfiable_with_properties(p, [], PropertyRegistry())

    def test_unsat_problem(self):
        x = Variable("x")
        p = Problem().add_bounds(5, x, 0)
        assert not satisfiable_with_properties(p, [], PropertyRegistry())


# ---------------------------------------------------------------------------
# Examples 7 and 8 (the results/example{7,8}_*.txt artifacts)
# ---------------------------------------------------------------------------


def example7_conditions():
    """Example 7's conditions, computed as the artifact's benchmark does."""

    program = example7()
    write = [a for a in program.writes() if a.array == "A"][0]
    read = [a for a in program.reads() if a.array == "A"][0]
    n = Variable("n", "sym")
    return dependence_conditions(
        write,
        read,
        DependenceKind.FLOW,
        assertions=[le(50, n), le(n, 100)],
        array_bounds=program.array_bounds,
        keep_syms=[Variable(name, "sym") for name in ("x", "y", "m")],
    )


def example8_queries():
    """Example 8's output and flow queries, in that order."""

    program = example8()
    write = [a for a in program.writes() if a.array == "A"][0]
    read = [a for a in program.reads() if a.array == "A"][0]
    return [
        query
        for sink, kind in (
            (write, DependenceKind.OUTPUT),
            (read, DependenceKind.FLOW),
        )
        for query in generate_query(
            write, sink, kind, array_bounds=program.array_bounds
        )
    ]


EXAMPLE7 = {
    "(+,*)": "50 >= x and x >= 1",
    "(0,+)": "x = 0 and m >= y + 1",
}

EXAMPLE8 = [
    "Is it the case that for all a & b such that\n"
    "  b >= a + 1 and n >= a and a >= 1 and n >= b and b >= 1 and n >= 1,\n"
    "the following never happens?\n\n"
    "  Q[a] = Q[b]\n",
    "Is it the case that for all a & b such that\n"
    "  b >= a + 2 and n >= a and a >= 1 and n + 1 >= b and b >= 2"
    " and n >= 1,\n"
    "the following never happens?\n\n"
    "  Q[a] + 1 = Q[b]\n",
]


class TestPaperArtifacts:
    def test_example7_conditions(self):
        conditions = example7_conditions()
        found = {
            str(c.restraint): format_problem(c.condition) for c in conditions
        }
        assert found == EXAMPLE7
        assert all(c.exact for c in conditions)
        artifact = (RESULTS / "example7_conditions.txt").read_text()
        for restraint, text in EXAMPLE7.items():
            assert f" {restraint}: {text}    [paper:" in artifact

    def test_example8_queries(self):
        rendered = [query.render() for query in example8_queries()]
        assert rendered == EXAMPLE8
        artifact = (RESULTS / "example8_queries.txt").read_text()
        for text in EXAMPLE8:
            assert text in artifact


class TestSection5ThroughTheService:
    def test_degrades_instead_of_raising(self):
        service = SolverService()
        with service.activate(), governed(
            Budget(deadline_ms=0), policy="degrade"
        ) as gov:
            conditions = example7_conditions()
            queries = example8_queries()
        # No condition is claimed: the dependences are assumed to exist.
        assert len(conditions) == 2 and len(queries) == 2
        for condition in conditions:
            assert condition.condition.is_trivially_true()
            assert not condition.exact
        assert all(query.is_trivial for query in queries)
        kinds = {event.kind for event in gov.log}
        assert {"project", "gist"} <= kinds
        assert service.degraded == len(gov.log.events)

    def test_projections_and_gists_are_audited(self):
        log = AuditLog()
        with SolverService().activate(), auditing(log):
            with subject("example7"):
                conditions = example7_conditions()
            with subject("example8"):
                queries = example8_queries()
        ex7 = log.footprints["example7"].queries
        ex8 = log.footprints["example8"].queries
        # Per condition: two projections and one gist; per query, one
        # more projection for its context.
        assert ex7["project"] == 2 * len(conditions)
        assert ex7["gist"] == len(conditions)
        assert ex8["project"] == 3 * len(queries)
        assert ex8["gist"] == len(queries)
