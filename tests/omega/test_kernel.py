"""The Fourier-Motzkin row kernel: dense rows, exact sparse results.

``combine_shadows`` lays the bounds out as dense integer rows, combines
every lower/upper pair and rebuilds the constraints.  These tests check
it against the plain sparse ``LinearExpr`` arithmetic it stands for —
same values, same order, same shared real/dark objects on exact pairs —
and that arbitrary-precision coefficients come through exactly.
"""

import random

from repro.omega import Problem, Variable
from repro.omega.constraints import Constraint, Relation
from repro.omega.kernel import combine_shadows
from repro.omega.terms import LinearExpr

VARS = [Variable(name) for name in ("i", "j", "k", "n")]


def random_bounds(rng, count, magnitude=9):
    """``count`` random (coeff, rest) pairs over a shared variable set."""

    bounds = []
    for _ in range(count):
        coeff = rng.randint(1, magnitude)
        terms = {
            var: rng.randint(-magnitude, magnitude)
            for var in rng.sample(VARS, rng.randint(0, len(VARS)))
        }
        bounds.append((coeff, LinearExpr(terms, rng.randint(-50, 50))))
    return bounds


def sparse_shadows(lowers, uppers):
    """The real/dark shadows by sparse expression arithmetic."""

    real, dark = [], []
    for b, lo in lowers:
        for a, up in uppers:
            combined = up * b + lo * a
            real.append(Constraint(combined, Relation.GE))
            dark.append(
                Constraint(combined - (a - 1) * (b - 1), Relation.GE)
            )
    return real, dark


class TestRawCrossProduct:
    def test_combine_shadows_exact_on_huge_coefficients(self):
        # Coefficients far beyond 64 bits must come through exactly.
        x = Variable("x")
        big = 1 << 64
        lowers = [(3, LinearExpr({x: big}, 1))]
        uppers = [(2, LinearExpr({x: -big}, 5))]
        real, dark, exact = combine_shadows(lowers, uppers)
        assert not exact
        (constraint,) = real
        # real = b*up + a*lo with b=3, a=2.
        assert constraint.expr.coeff(x) == 3 * -big + 2 * big
        assert constraint.expr.constant == 3 * 5 + 2 * 1
        (tightened,) = dark
        assert tightened.expr.constant == constraint.expr.constant - 2


class TestCombineShadowsParity:
    def test_kernels_emit_identical_constraints(self):
        # The dense row kernel and sparse arithmetic agree pair by pair,
        # in lower-major, upper-minor order.
        rng = random.Random(425)
        for _ in range(40):
            lowers = random_bounds(rng, rng.randint(1, 4))
            uppers = random_bounds(rng, rng.randint(1, 4))
            real, dark, exact = combine_shadows(lowers, uppers)
            assert (real, dark) == sparse_shadows(lowers, uppers)
            assert exact == all(
                a == 1 or b == 1 for b, _ in lowers for a, _ in uppers
            )
            for r, d in zip(real, dark):
                assert (r is d) == (r == d)

    def test_exact_pairs_share_the_constraint_object(self):
        y = Variable("y")
        real, dark, exact = combine_shadows(
            [(1, LinearExpr({y: 1}, 0))], [(5, LinearExpr({y: -1}, 9))]
        )
        assert exact
        assert real[0] is dark[0]


class TestEndToEndParity:
    def test_python_kernel_answers_are_sane(self):
        problem = Problem().add_ge(2 * VARS[0] - 4).add_le(3 * VARS[0], 21)
        from repro.omega.solve import is_satisfiable

        assert is_satisfiable(problem)
