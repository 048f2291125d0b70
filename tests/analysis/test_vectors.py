"""Direction/distance/restraint vector tests."""

import pytest

from repro.analysis.vectors import (
    MINUS,
    PLUS,
    STAR,
    ZERO,
    ZERO_PLUS,
    DirComponent,
    DirectionVector,
    component_bounds,
    direction_vectors,
    lexicographically_bad_exists,
    restraint_vectors,
)
from repro.analysis.plan import QueryPlan
from repro.omega import Problem, Variable, eq, ge, le

d1 = Variable("d1")
d2 = Variable("d2")


def state(problem, deltas):
    """The root plan state the searches take for ``problem``."""

    return QueryPlan().base_state(problem, deltas)


class TestDirComponent:
    def test_rendering(self):
        assert str(PLUS) == "+"
        assert str(MINUS) == "-"
        assert str(ZERO) == "0"
        assert str(ZERO_PLUS) == "0+"
        assert str(STAR) == "*"
        assert str(DirComponent(1, 1)) == "1"
        assert str(DirComponent(0, 1)) == "0:1"
        assert str(DirComponent(2, 5)) == "2:5"
        assert str(DirComponent(None, 0)) == "0-"

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError):
            DirComponent(3, 1)

    def test_admits(self):
        assert PLUS.admits(1)
        assert not PLUS.admits(0)
        assert STAR.admits(-100)
        assert DirComponent(0, 1).admits(1)
        assert not DirComponent(0, 1).admits(2)

    def test_constraints(self):
        problem = Problem(PLUS.constraints(d1))
        assert problem.is_satisfied_by({d1: 1})
        assert not problem.is_satisfied_by({d1: 0})

    def test_merge(self):
        merged = ZERO.merge(PLUS)
        assert merged.lo == 0
        assert merged.hi is None

    def test_exactness(self):
        assert DirComponent(3, 3).is_exact
        assert not ZERO_PLUS.is_exact


class TestDirectionVectors:
    def base(self):
        # d1 = d2, 0 <= d1 <= 5 — the paper's compression example shape.
        return (
            Problem()
            .add_eq(d1, d2)
            .add_bounds(0, d1, 5)
        )

    def test_coupled_not_overcompressed(self):
        vectors = direction_vectors(state(self.base(), [d1, d2]), [d1, d2])
        rendered = sorted(str(v) for v in vectors)
        # (0,0) and (+,+) must stay separate: merging into (0+,0+) would
        # falsely suggest (0,+) and (+,0).
        assert rendered == ["(0,0)", "(1:5,1:5)"]

    def test_box_possible_when_exact(self):
        # Independent distances compress into one box.
        p = Problem().add_bounds(0, d1, 1).add_bounds(0, d2, 1)
        vectors = direction_vectors(state(p, [d1, d2]), [d1, d2])
        assert len(vectors) == 1
        assert str(vectors[0]) == "(0:1,0:1)"

    def test_exact_distance_detected(self):
        p = Problem().add_eq(d1, 1)
        (vector,) = direction_vectors(state(p, [d1]), [d1])
        assert str(vector) == "(1)"

    def test_empty_problem_no_deltas(self):
        assert direction_vectors(state(Problem(), []), []) == [DirectionVector(())]

    def test_unsat_yields_nothing(self):
        p = Problem().add_bounds(3, d1, 1)
        assert direction_vectors(state(p, [d1]), [d1]) == []

    def test_unbounded_distance(self):
        p = Problem().add_ge(d1 - 1)
        (vector,) = direction_vectors(state(p, [d1]), [d1])
        assert vector[0].lo == 1
        assert vector[0].hi is None


class TestComponentBounds:
    def test_constant_interval(self):
        p = Problem().add_bounds(2, d1, 7)
        bounds = component_bounds(p, d1)
        assert (bounds.lo, bounds.hi) == (2, 7)

    def test_exact(self):
        p = Problem().add_eq(d1, 4)
        bounds = component_bounds(p, d1)
        assert bounds.is_exact and bounds.lo == 4

    def test_symbolic_elimination(self):
        n = Variable("n", "sym")
        p = Problem().add_bounds(1, d1, n).add_bounds(5, n, 5)
        bounds = component_bounds(p, d1)
        assert (bounds.lo, bounds.hi) == (1, 5)

    def test_unbounded_side(self):
        p = Problem().add_ge(d1)
        bounds = component_bounds(p, d1)
        assert bounds.lo == 0 and bounds.hi is None

    def test_gcd_tightening(self):
        p = Problem().add_ge(2 * d1 - 3).add_le(2 * d1, 9)
        bounds = component_bounds(p, d1)
        assert (bounds.lo, bounds.hi) == (2, 4)


class TestRestraintVectors:
    def test_no_bad_solutions_star(self):
        p = Problem().add_bounds(1, d1, 5)  # always positive: no filter
        (restraint,) = restraint_vectors(state(p, [d1]), [d1], forward=False)
        assert str(restraint) == "(*)"
        assert not restraint.constraints([d1])

    def test_negative_filtered_with_zero_plus(self):
        p = Problem().add_bounds(-5, d1, 5)
        (restraint,) = restraint_vectors(state(p, [d1]), [d1], forward=True)
        assert str(restraint) == "(0+)"

    def test_zero_excluded_when_backward(self):
        p = Problem().add_bounds(-5, d1, 5)
        (restraint,) = restraint_vectors(state(p, [d1]), [d1], forward=False)
        assert str(restraint) == "(+)"

    def test_example7_split(self):
        # d1 free, d2 free; dependence backward at (0, <=0): restraints
        # (+,*) and (0,+), the paper's Example 7 pair.
        p = Problem().add_bounds(-9, d1, 9).add_bounds(-9, d2, 9)
        restraints = restraint_vectors(state(p, [d1, d2]), [d1, d2], forward=False)
        assert sorted(str(r) for r in restraints) == ["(+,*)", "(0,+)"]

    def test_coupled_single_restraint(self):
        # d1 = d2: adding d1 >= 1 suffices (Example 6 shape, backward pair).
        p = Problem().add_eq(d1, d2).add_bounds(-9, d1, 9)
        restraints = restraint_vectors(state(p, [d1, d2]), [d1, d2], forward=False)
        assert sorted(str(r) for r in restraints) == ["(+,*)"]

    def test_forward_zero_kept(self):
        p = Problem().add_eq(d1, d2).add_bounds(-9, d1, 9)
        restraints = restraint_vectors(state(p, [d1, d2]), [d1, d2], forward=True)
        # d1 >= 0 suffices: remaining zero-prefix solutions are (0,0),
        # acceptable for a syntactically forward pair.
        assert sorted(str(r) for r in restraints) == ["(0+,*)"]

    def test_unsat_problem(self):
        p = Problem().add_bounds(3, d1, 1)
        assert restraint_vectors(state(p, [d1]), [d1], forward=True) == []

    def test_restraints_cover_forward_and_exclude_backward(self):
        # Exhaustive check on a small grid.
        p = Problem().add_bounds(-3, d1, 3).add_bounds(-3, d2, 3).add_le(
            d1 + d2, 4
        )
        for forward in (True, False):
            restraints = restraint_vectors(state(p, [d1, d2]), [d1, d2], forward)
            for v1 in range(-3, 4):
                for v2 in range(-3, 4):
                    point = {d1: v1, d2: v2}
                    if not p.is_satisfied_by(point):
                        continue
                    lex_positive = (v1, v2) > (0, 0)
                    lex_zero = (v1, v2) == (0, 0)
                    acceptable = lex_positive or (lex_zero and forward)
                    admitted = any(
                        Problem(r.constraints([d1, d2])).is_satisfied_by(point)
                        for r in restraints
                    )
                    if acceptable:
                        assert admitted, (forward, v1, v2)
                    else:
                        assert not admitted, (forward, v1, v2)


class TestLexBadExists:
    def test_detects_negative(self):
        p = Problem().add_bounds(-1, d1, 1)
        assert lexicographically_bad_exists(state(p, [d1]), [d1], forward=True)

    def test_detects_zero_for_backward(self):
        p = Problem().add_eq(d1, 0)
        assert lexicographically_bad_exists(state(p, [d1]), [d1], forward=False)
        assert not lexicographically_bad_exists(state(p, [d1]), [d1], forward=True)

    def test_all_positive_fine(self):
        p = Problem().add_bounds(1, d1, 9)
        assert not lexicographically_bad_exists(state(p, [d1]), [d1], forward=False)
