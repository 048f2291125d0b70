"""Solver counters and variable-choice behavior."""

import pytest

from repro.obs import MetricsRegistry, collecting
from repro.obs.metrics import current_registry
from repro.omega import Problem, Variable, is_satisfiable
from repro.omega.eliminate import choose_variable

x = Variable("x")
y = Variable("y")
z = Variable("z")


class TestStatsCounters:
    def test_exact_problem_no_inexact_steps(self):
        p = Problem().add_bounds(0, x, 5).add_le(x, y).add_le(y, 10)
        with collecting(MetricsRegistry()) as stats:
            is_satisfiable(p)
        assert stats.counter("omega.eliminations") >= 1
        assert stats.counter("omega.inexact_eliminations") == 0
        assert stats.counter("omega.splinters_examined") == 0

    def test_inexact_problem_counts_shadows(self):
        # Coefficients force non-unit lower/upper pairs on every variable.
        p = (
            Problem()
            .add_ge(3 * z - 2 * x)
            .add_ge(2 * y - 5 * z)
            .add_ge(5 * x - 3 * y - 1)
            .add_bounds(0, x, 9)
            .add_bounds(0, y, 9)
            .add_bounds(0, z, 9)
        )
        with collecting(MetricsRegistry()) as stats:
            is_satisfiable(p)
        # Some elimination was inexact; either the dark shadow answered or
        # splinters were consulted.
        assert stats.counter("omega.eliminations") >= 1

    def test_dark_shadow_hit_recorded(self):
        p = (
            Problem()
            .add_ge(3 * z - x)
            .add_ge(y - 2 * z)
            .add_bounds(0, x, 12)
            .add_bounds(6, y, 12)
        )
        with collecting(MetricsRegistry()) as stats:
            assert is_satisfiable(p)
        if stats.counter("omega.inexact_eliminations"):
            assert stats.counter("omega.dark_shadow_hits") + stats.counter("omega.splinters_examined") >= 1

    def test_current_stats_inside_context(self):
        assert current_registry() is None
        with collecting(MetricsRegistry()) as stats:
            assert current_registry() is stats
            is_satisfiable(Problem().add_bounds(0, x, 5))
        assert current_registry() is None
        is_satisfiable(Problem().add_bounds(0, y, 5))
        assert stats.counter("omega.satisfiability_tests") == 1

    def test_satisfiability_test_counter(self):
        with collecting(MetricsRegistry()) as stats:
            is_satisfiable(Problem().add_ge(x))
            is_satisfiable(Problem().add_ge(y))
        assert stats.counter("omega.satisfiability_tests") == 2


class TestChooseVariable:
    def test_unbounded_always_first(self):
        p = (
            Problem()
            .add_ge(x - y)  # x only bounded below
            .add_bounds(0, y, 5)
            .add_ge(3 * z - y)
            .add_ge(y - 2 * z)
        )
        var, exact = choose_variable(p, [x, z])
        assert var == x and exact

    def test_exact_beats_inexact(self):
        p = (
            Problem()
            .add_bounds(0, x, 5)      # unit bounds: exact
            .add_ge(3 * z - x)
            .add_ge(x - 2 * z)        # z has non-unit pair: inexact
        )
        var, exact = choose_variable(p, [x, z])
        # x's pairs always include a unit coefficient.
        assert exact or var == x

    def test_growth_minimized_among_exact(self):
        p = Problem()
        # x: 1 lower, 3 uppers (growth 3-4=-1); y: 2 lowers, 2 uppers
        # (growth 4-4=0): prefer x.
        p.add_ge(x).add_le(x, 5).add_le(x, y).add_le(x, z)
        p.add_ge(y).add_ge(y - 1).add_le(y, 9).add_le(y, 8)
        var, exact = choose_variable(p, [x, y])
        assert exact
        assert var == x

    def test_deterministic_tie_break(self):
        p = Problem().add_bounds(0, x, 5).add_bounds(0, y, 5)
        var1, _ = choose_variable(p, [x, y])
        var2, _ = choose_variable(p, [y, x])
        assert var1 == var2  # sorted candidate order
