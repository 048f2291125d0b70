"""Satisfiability tests, including randomized differential checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, collecting
from repro.omega import Problem, Variable, ge, is_satisfiable

from tests.util import boxed, brute_force_satisfiable

x = Variable("x")
y = Variable("y")
z = Variable("z")
w = Variable("w")


class TestBasicSatisfiability:
    def test_empty_problem(self):
        assert is_satisfiable(Problem())

    def test_single_variable(self):
        assert is_satisfiable(Problem().add_bounds(0, x, 5))
        assert not is_satisfiable(Problem().add_bounds(5, x, 0))

    def test_tight_integer_gap(self):
        # 1 <= 2x <= 1 has no integer solution.
        assert not is_satisfiable(Problem().add_bounds(1, 2 * x, 1))

    def test_gap_with_solution(self):
        assert is_satisfiable(Problem().add_bounds(1, 2 * x, 2))

    def test_equality_chain(self):
        p = Problem().add_eq(x, y).add_eq(y, z).add_bounds(3, z, 3)
        assert is_satisfiable(p)

    def test_parity_conflict(self):
        # x even and x odd.
        p = Problem().add_eq(x, 2 * y).add_eq(x, 2 * z + 1)
        assert not is_satisfiable(p)

    def test_diophantine_gcd(self):
        assert not is_satisfiable(Problem().add_eq(6 * x + 9 * y, 5))
        assert is_satisfiable(Problem().add_eq(6 * x + 9 * y, 3))

    def test_classic_dark_shadow_case(self):
        # 2y <= x, x <= 2y + 1, 3z <= x... a case with non-unit pairs:
        # no integer x with 5 <= 3x and 2x <= 7 => x in [5/3, 7/2]: x=2,3
        p = Problem().add_ge(3 * x - 5).add_ge(7 - 2 * x)
        assert is_satisfiable(p)

    def test_omega_nightmare(self):
        # Pugh's "omega nightmare" instance: a pair of congruences that
        # interact so both shadows are consulted.
        p = (
            Problem()
            .add_bounds(1, x, 40)
            .add_eq(x, 3 * y + 1)
            .add_eq(x, 5 * z + 2)
        )
        assert is_satisfiable(p)  # x = 7 works (7 = 3*2+1 = 5*1+2)

    def test_no_solution_congruences(self):
        # x == 0 (mod 2) and x == 1 (mod 2) within bounds.
        p = Problem().add_bounds(0, x, 100).add_eq(x, 2 * y).add_eq(x - 1, 2 * z)
        assert not is_satisfiable(p)

    def test_unbounded_is_satisfiable(self):
        assert is_satisfiable(Problem().add_ge(x - y))

    def test_three_variable_feasible_region(self):
        p = (
            Problem()
            .add_bounds(0, x, 10)
            .add_bounds(0, y, 10)
            .add_le(x + y, z)
            .add_le(z, 3)
        )
        assert is_satisfiable(p)

    def test_infeasible_combination(self):
        p = (
            Problem()
            .add_ge(x + y - 10)  # x + y >= 10
            .add_le(x, 4)
            .add_le(y, 4)
        )
        assert not is_satisfiable(p)

    def test_needs_splinter_examination(self):
        # Dark shadow empty, real shadow nonempty, but integer solution
        # exists only on a splinter: 3 | x and x/3 pinned between 2y-ish
        # bounds.  Constructed so FM on y is inexact.
        p = (
            Problem()
            .add_bounds(0, x, 11)
            .add_ge(3 * y - x)      # 3y >= x
            .add_ge(x + 2 - 3 * y)  # 3y <= x + 2
            .add_eq(2 * y, x)       # x even, y = x/2
        )
        # y = x/2 and x <= 3y <= x+2 -> x <= 1.5x <= x+2 -> 0 <= x <= 4.
        assert is_satisfiable(p)


class TestStats:
    def test_stats_collection(self):
        with collecting(MetricsRegistry()) as stats:
            is_satisfiable(Problem().add_bounds(0, x, 5))
        assert stats.counter("omega.satisfiability_tests") == 1
        assert stats.counter("omega.eliminations") >= 1

    def test_nested_stats(self):
        with collecting(MetricsRegistry()) as outer:
            with collecting(MetricsRegistry()) as inner:
                is_satisfiable(Problem().add_bounds(0, x, 5))
            is_satisfiable(Problem().add_bounds(0, y, 5))
        assert inner.counter("omega.satisfiability_tests") == 1
        assert outer.counter("omega.satisfiability_tests") == 2

    def test_merge(self):
        a = MetricsRegistry()
        a.inc("omega.satisfiability_tests")
        b = MetricsRegistry()
        b.inc("omega.satisfiability_tests", 2)
        b.inc("omega.eliminations", 3)
        a.merge(b)
        assert a.counter("omega.satisfiability_tests") == 3
        assert a.counter("omega.eliminations") == 3


# ---------------------------------------------------------------------------
# Differential testing against brute force
# ---------------------------------------------------------------------------

VARS = [x, y, z]


@st.composite
def small_problems(draw, max_constraints=5, coeff_bound=4, const_bound=12):
    n_constraints = draw(st.integers(1, max_constraints))
    n_vars = draw(st.integers(1, 3))
    variables = VARS[:n_vars]
    problem = Problem()
    for _ in range(n_constraints):
        coeffs = [
            draw(st.integers(-coeff_bound, coeff_bound)) for _ in variables
        ]
        constant = draw(st.integers(-const_bound, const_bound))
        expr = sum(
            (c * v for c, v in zip(coeffs, variables)),
            start=Variable("_dummy") * 0,
        ) + constant
        if draw(st.booleans()):
            problem.add_ge(expr)
        else:
            problem.add_eq(expr)
    return problem, variables


@settings(max_examples=300, deadline=None)
@given(small_problems())
def test_satisfiability_matches_brute_force(case):
    problem, variables = case
    radius = 6
    finite = boxed(problem, variables, radius)
    expected = brute_force_satisfiable(finite, variables, radius)
    assert is_satisfiable(finite) == expected


@settings(max_examples=150, deadline=None)
@given(small_problems(max_constraints=4, coeff_bound=6, const_bound=20))
def test_satisfiability_matches_brute_force_wide_coeffs(case):
    problem, variables = case
    radius = 5
    finite = boxed(problem, variables, radius)
    expected = brute_force_satisfiable(finite, variables, radius)
    assert is_satisfiable(finite) == expected
