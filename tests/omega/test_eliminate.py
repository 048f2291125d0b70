"""Unit tests for mod-hat, equality elimination, and Fourier-Motzkin."""

import random

import pytest

from repro.omega import (
    OmegaError,
    Problem,
    Variable,
    eliminate_equalities,
    fourier_motzkin,
    mod_hat,
    substitute,
)
from repro.omega.constraints import Constraint, Relation
from repro.omega.eliminate import choose_variable
from repro.omega.terms import LinearExpr

from tests.util import brute_force_solutions

x = Variable("x")
y = Variable("y")
z = Variable("z")


class TestModHat:
    def test_range(self):
        for a in range(-30, 31):
            for b in range(1, 12):
                r = mod_hat(a, b)
                assert -b / 2 <= r < b / 2 or r == b / 2 - 0 or abs(r) * 2 <= b

    def test_congruence(self):
        for a in range(-30, 31):
            for b in range(1, 12):
                assert (mod_hat(a, b) - a) % b == 0

    def test_unit_property(self):
        # mod_hat(sign*(m-1), m) == -sign: the key to equality elimination.
        # Only needed for m >= 3 (m = |a_k|+1 with |a_k| >= 2: the mod-hat
        # path is only taken when no unit coefficient exists).
        for m in range(3, 20):
            assert mod_hat(m - 1, m) == -1
            assert mod_hat(-(m - 1), m) == 1

    def test_specific_values(self):
        assert mod_hat(2, 3) == -1
        assert mod_hat(1, 3) == 1
        assert mod_hat(-1, 3) == -1
        assert mod_hat(0, 5) == 0

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            mod_hat(3, 0)


class TestSubstitute:
    def test_substitute_in_problem(self):
        p = Problem().add_ge(x - y).add_eq(x, 3)
        result = substitute(p, x, y + 1)
        assert x not in result.variables()


class TestEqualityElimination:
    def test_unit_coefficient_direct(self):
        p = Problem().add_eq(x - y - 2).add_bounds(0, x, 10)
        result = eliminate_equalities(p)
        assert result.satisfiable
        assert not result.problem.equalities()
        # Solutions for y must be 0-2 <= y <= 10-2.
        sols = brute_force_solutions(result.problem, [y], 20)
        assert sols == {(v,) for v in range(-2, 9)}

    def test_detects_unsat_via_gcd(self):
        p = Problem().add_eq(2 * x, 2 * y + 1)
        result = eliminate_equalities(p)
        assert not result.satisfiable

    def test_mod_hat_path_preserves_solutions(self):
        # 3x + 5y = 7 with bounds; no unit coefficient initially... (5 and 3)
        p = Problem().add_eq(3 * x + 5 * y, 7).add_bounds(-10, x, 10).add_bounds(
            -10, y, 10
        )
        reference = brute_force_solutions(p, [x, y], 10)
        result = eliminate_equalities(p)
        assert result.satisfiable
        assert not result.problem.equalities()
        assert reference  # sanity: there are solutions, e.g. x=4, y=-1

    def test_protected_variables_survive(self):
        n = Variable("n", "sym")
        p = Problem().add_eq(x, n).add_bounds(0, x, 10)
        result = eliminate_equalities(p, protected=frozenset({n}))
        assert result.satisfiable
        assert n in result.problem.variables()
        assert x not in result.problem.variables()

    def test_equality_on_only_protected_vars_is_kept(self):
        n = Variable("n", "sym")
        m = Variable("m", "sym")
        p = Problem().add_eq(n, m)
        result = eliminate_equalities(p, protected=frozenset({n, m}))
        assert result.satisfiable
        assert result.problem.equalities()

    def test_multiple_equalities(self):
        p = (
            Problem()
            .add_eq(x, y + 1)
            .add_eq(y, z + 1)
            .add_bounds(0, z, 5)
        )
        result = eliminate_equalities(p)
        assert result.satisfiable
        sols = brute_force_solutions(result.problem, [z], 10)
        assert sols == {(v,) for v in range(0, 6)}

    def test_contradictory_equalities(self):
        p = Problem().add_eq(x, 1).add_eq(x, 2)
        assert not eliminate_equalities(p).satisfiable

    def test_large_coefficients(self):
        # Pugh's classic: no unit coefficients anywhere.
        p = (
            Problem()
            .add_eq(7 * x + 12 * y + 31 * z, 17)
            .add_eq(3 * x + 5 * y + 14 * z, 7)
            .add_bounds(-40, x, 40)
            .add_bounds(-40, y, 40)
            .add_bounds(-40, z, 40)
        )
        result = eliminate_equalities(p)
        assert result.satisfiable
        assert not result.problem.equalities()


class TestFourierMotzkin:
    def test_rejects_equality_on_variable(self):
        p = Problem().add_eq(x, y)
        with pytest.raises(OmegaError):
            fourier_motzkin(p, x)

    def test_unbounded_variable_drops_constraints(self):
        p = Problem().add_ge(x - y).add_bounds(0, y, 5)
        fm = fourier_motzkin(p, x)  # x has a lower bound only
        assert fm.exact
        assert x not in fm.dark.variables()
        assert len(fm.dark) == 2

    def test_exact_when_unit_coefficients(self):
        p = Problem().add_bounds(0, x, 10).add_le(x, y).add_le(y, x + 3)
        fm = fourier_motzkin(p, x)
        assert fm.exact
        assert not fm.splinters

    def test_shadow_of_paper_example(self):
        # Projecting {0 <= a <= 5, b < a <= 5b} onto a: eliminate b.
        # The upper bound on b has a unit coefficient, so the elimination
        # is exact; GCD tightening of 4a - 5 >= 0 gives the paper's answer
        # {2 <= a <= 5}.
        a, b = Variable("a"), Variable("b")
        p = (
            Problem()
            .add_bounds(0, a, 5)
            .add_le(b + 1, a)
            .add_le(a, 5 * b)
        )
        fm = fourier_motzkin(p, b)
        assert fm.exact
        shadow, _ = fm.real.normalized()
        sols = brute_force_solutions(shadow, [a], 10)
        assert sols == {(v,) for v in range(2, 6)}

    def test_dark_shadow_subset_of_real(self):
        p = (
            Problem()
            .add_ge(3 * x - y)  # y <= 3x
            .add_ge(2 * y - 5 * x)  # y >= 5x/2
            .add_bounds(0, x, 20)
        )
        fm = fourier_motzkin(p, y)
        dark_sols = brute_force_solutions(fm.dark, [x], 25)
        real_sols = brute_force_solutions(fm.real, [x], 25)
        assert dark_sols <= real_sols

    def test_inexact_elimination_produces_splinters(self):
        # An elimination guaranteed to splinter: 2z and 3z bounds.
        p = (
            Problem()
            .add_ge(3 * z - x)  # 3z >= x
            .add_ge(y - 2 * z)  # 2z <= y
            .add_bounds(0, x, 12)
            .add_bounds(0, y, 12)
        )
        fm = fourier_motzkin(p, z)
        assert not fm.exact
        # Splinters replace z with a fresh wildcard pinned by an equality.
        for spl in fm.splinters:
            assert z not in spl.variables()
            assert any(c.is_equality for c in spl.constraints)

    def test_exact_union_matches_brute_force(self):
        # Full projection (dark shadow + projected splinters) must agree
        # with brute force even when the elimination is inexact.
        from repro.omega import project
        from tests.util import brute_force_projection, union_members

        p = (
            Problem()
            .add_ge(3 * z - x)  # 3z >= x
            .add_ge(y - 2 * z)  # 2z <= y
            .add_bounds(0, x, 12)
            .add_bounds(0, y, 12)
            .add_bounds(-20, z, 20)
        )
        reference = brute_force_projection(p, [x, y, z], [x, y], 20)
        reference = {pt for pt in reference if all(-12 <= c <= 12 for c in pt)}
        projection = project(p, [x, y])
        assert projection.exact_union
        got = union_members(projection.pieces, [x, y], 12)
        assert got == reference


def random_bounds(rng, count, magnitude=9):
    """``count`` random (coeff, rest) pairs over a shared variable set."""

    names = [Variable(name) for name in ("i", "j", "k", "n")]
    bounds = []
    for _ in range(count):
        coeff = rng.randint(1, magnitude)
        terms = {
            var: rng.randint(-magnitude, magnitude)
            for var in rng.sample(names, rng.randint(0, len(names)))
        }
        bounds.append((coeff, LinearExpr(terms, rng.randint(-50, 50))))
    return bounds


def bounds_problem(lowers, uppers):
    """``b*z + lo >= 0`` for each lower, ``-a*z + up >= 0`` for each upper."""

    p = Problem()
    for b, lo in lowers:
        p.add(Constraint(LinearExpr({z: b}) + lo, Relation.GE))
    for a, up in uppers:
        p.add(Constraint(LinearExpr({z: -a}) + up, Relation.GE))
    return p


class TestShadowCrossProduct:
    """The lower x upper cross product of one Fourier-Motzkin step."""

    def test_exact_on_huge_coefficients(self):
        # Coefficients far beyond 64 bits must come through exactly.
        big = 1 << 64
        lowers = [(3, LinearExpr({x: big}, 1))]
        uppers = [(2, LinearExpr({x: -big}, 5))]
        fm = fourier_motzkin(bounds_problem(lowers, uppers), z)
        assert not fm.exact
        (constraint,) = fm.real.constraints
        # real = b*up + a*lo with b=3, a=2.
        assert constraint.expr.coeff(x) == 3 * -big + 2 * big
        assert constraint.expr.constant == 3 * 5 + 2 * 1
        (tightened,) = fm.dark.constraints
        assert tightened.expr.constant == constraint.expr.constant - 2

    def test_pairs_match_sparse_arithmetic_in_order(self):
        # Lower-major, upper-minor, each pair exactly ``b*up + a*lo``,
        # with the terms in sorted variable order.
        rng = random.Random(425)
        for _ in range(40):
            lowers = random_bounds(rng, rng.randint(1, 4))
            uppers = random_bounds(rng, rng.randint(1, 4))
            fm = fourier_motzkin(
                bounds_problem(lowers, uppers), z, want_splinters=False
            )
            real, dark = [], []
            for b, lo in lowers:
                for a, up in uppers:
                    combined = up * b + lo * a
                    real.append(Constraint(combined, Relation.GE))
                    dark.append(
                        Constraint(combined - (a - 1) * (b - 1), Relation.GE)
                    )
            assert fm.real.constraints == real
            assert fm.dark.constraints == dark
            assert fm.exact == all(
                a == 1 or b == 1 for b, _ in lowers for a, _ in uppers
            )
            for r, d in zip(fm.real.constraints, fm.dark.constraints):
                assert (r is d) == (r == d)
                assert list(r.expr.terms) == sorted(r.expr.terms)

    def test_exact_pairs_share_the_constraint_object(self):
        fm = fourier_motzkin(
            bounds_problem(
                [(1, LinearExpr({y: 1}, 0))], [(5, LinearExpr({y: -1}, 9))]
            ),
            z,
        )
        assert fm.exact
        assert fm.real.constraints[0] is fm.dark.constraints[0]


class TestChooseVariable:
    def test_prefers_unbounded(self):
        p = Problem().add_ge(x - y).add_bounds(0, y, 5).add_le(3 * z, y).add_le(
            y, 5 * z
        )
        var, exact = choose_variable(p, [x, z])
        assert var == x
        assert exact

    def test_prefers_exact(self):
        p = (
            Problem()
            .add_bounds(0, x, 5)
            .add_le(3 * z, x)
            .add_le(x, 5 * z)
            .add_bounds(0, z, 5)
        )
        var, exact = choose_variable(p, [x, z])
        assert var == x  # x's eliminations are all unit-coefficient
        assert exact

    def test_none_for_empty_candidates(self):
        var, _ = choose_variable(Problem(), [])
        assert var is None

    def test_max_growth_admits_only_cheap_exact_eliminations(self):
        p = (
            Problem()
            .add_bounds(0, x, 5)
            .add_le(3 * z, x)
            .add_le(x, 5 * z)
            .add_bounds(0, z, 5)
        )
        # x is exact and adds 2*2 - 2 - 2 = 0 constraints; z is inexact.
        assert choose_variable(p, [x, z], max_growth=0) == (x, True)
        assert choose_variable(p, [x, z], max_growth=-1) == (None, False)
        # An unbounded variable qualifies whatever the limit.
        assert choose_variable(p.add_ge(y - x), [x, y], max_growth=-1) == (
            y,
            True,
        )
