"""Deciding satisfiability before keying it: the peel is exact.

``is_satisfiable`` normalizes its problem, drops every constraint of a
one-sided variable (no equality, one coefficient sign) and every
equality that alone mentions a variable with coefficient +-1, and keys
and solves only what is left.  These tests hold it to the un-peeled
solver (``_sat`` on the original problem) on the problems the analysis
issues over a slice of the corpus and on seeded random small systems,
and pin the remainder's shape: nothing one-sided or unit-defined left,
a fixed point, and no copy when there is nothing to peel.
"""

import random

import pytest

from repro.obs import MetricsRegistry, collecting
from repro.omega import Problem, Variable, is_satisfiable
from repro.omega.cache import caching
from repro.omega.constraints import Constraint, NormalizeStatus, Relation
from repro.omega.errors import OmegaComplexityError
from repro.omega.solve import _peel, _predecide, _sat, peel_constraints
from repro.omega.terms import LinearExpr
from tests.omega.test_canonical_contract import harvest

x, y, z = Variable("x"), Variable("y"), Variable("z")
n = Variable("n", "sym")
w1, w2 = Variable("_pw1", "wild"), Variable("_pw2", "wild")
POOL = [x, y, z, n, w1]


def one_sided(problem):
    """Variables in no equality whose inequality coefficients share a sign."""

    signs: dict = {}
    for constraint in problem.constraints:
        for var, coeff in constraint.expr.terms.items():
            side = 0 if constraint.is_equality else (1 if coeff > 0 else -1)
            signs.setdefault(var, set()).add(side)
    return {var for var, sides in signs.items() if sides in ({1}, {-1})}


def unit_defined(problem):
    """Variables with coefficient +-1 in an equality and in no other
    constraint."""

    occurs: dict = {}
    for constraint in problem.constraints:
        for var in constraint.expr.terms:
            occurs[var] = occurs.get(var, 0) + 1
    return {
        var
        for constraint in problem.equalities()
        for var, coeff in constraint.expr.terms.items()
        if abs(coeff) == 1 and occurs[var] == 1
    }


def outcome(run):
    try:
        return run()
    except OmegaComplexityError:
        return "raised"


def random_problem(rng):
    """A small system: mixed-sign inequalities, equalities, strides."""

    constraints = []
    for _ in range(rng.randint(1, 6)):
        chosen = rng.sample(POOL, rng.randint(1, 3))
        terms = {var: rng.choice([-3, -2, -1, 1, 1, 2, 3]) for var in chosen}
        relation = Relation.EQ if rng.random() < 0.25 else Relation.GE
        constraints.append(
            Constraint(LinearExpr(terms, rng.randint(-6, 6)), relation)
        )
    if rng.random() < 0.3:
        # A stride: x - r = b * w2, i.e. x == r (mod b).
        b = rng.randint(2, 4)
        stride = LinearExpr({x: 1, w2: -b}, -rng.randint(0, b - 1))
        constraints.append(Constraint(stride, Relation.EQ))
    if rng.random() < 0.5:
        # Box some variables so the un-peeled solver stays quick.
        for var in rng.sample([x, y, z], rng.randint(1, 3)):
            constraints.append(Constraint(LinearExpr({var: 1}, 8), Relation.GE))
            constraints.append(Constraint(LinearExpr({var: -1}, 8), Relation.GE))
    rng.shuffle(constraints)
    return Problem(constraints, "random")


RANDOM = [random_problem(random.Random(seed)) for seed in range(400)]


def defining_problem(rng):
    """A random system plus equalities that define fresh variables.

    Each fresh variable has coefficient +-1 in its equality; about half
    also occur in an inequality, so they are not private to it.
    """

    constraints = list(random_problem(rng).constraints)
    for index in range(rng.randint(1, 3)):
        fresh = Variable(f"u{index}")
        chosen = rng.sample(POOL, rng.randint(0, 2))
        terms = {var: rng.choice([-3, -2, -1, 1, 2, 3]) for var in chosen}
        terms[fresh] = rng.choice([-1, 1])
        constraints.append(
            Constraint(LinearExpr(terms, rng.randint(-6, 6)), Relation.EQ)
        )
        if rng.random() < 0.5:
            other = rng.choice([x, y, z])
            bound = LinearExpr({fresh: rng.choice([-2, -1, 1, 2]), other: 1})
            constraints.append(Constraint(bound, Relation.GE))
    rng.shuffle(constraints)
    return Problem(constraints, "defining")


DEFINING = [defining_problem(random.Random(seed)) for seed in range(400)]


def corpus_problems():
    groups, _, projections = harvest()
    seen = [p for group in groups for p in group]
    seen.extend(problem for problem, _ in projections)
    return seen


def check_exact(problem):
    want = outcome(lambda: _sat(problem, 0))
    got = outcome(lambda: is_satisfiable(problem))
    if want != "raised":
        assert got == want, str(problem)


class TestExactness:
    def test_random_systems_match_the_unpeeled_solver(self):
        for problem in RANDOM:
            check_exact(problem)

    def test_unit_defined_systems_match_the_unpeeled_solver(self):
        for problem in DEFINING:
            check_exact(problem)

    def test_unit_defined_systems_exercise_the_rule(self):
        dropped = 0
        for problem in DEFINING:
            normal, status = problem.normalized()
            if status is not NormalizeStatus.NORMALIZED:
                continue
            remainder = _peel(normal)
            dropped += len(normal.equalities()) - len(remainder.equalities())
        assert dropped > 100

    def test_peel_is_exact_on_unnormalized_conjunctions(self):
        # ``peel_constraints`` takes any conjunction, normalized or not.
        for problem in RANDOM + DEFINING:
            kept = peel_constraints(problem.constraints)
            want = outcome(lambda: _sat(problem, 0))
            got = outcome(lambda: _sat(Problem(list(kept)), 0))
            if "raised" not in (want, got):
                assert got == want, str(problem)

    def test_random_systems_match_under_a_cache(self):
        with caching():
            for problem in RANDOM:
                check_exact(problem)

    def test_corpus_problems_match_the_unpeeled_solver(self):
        problems = corpus_problems()
        assert len(problems) > 500
        for problem in problems:
            check_exact(problem)

    def test_random_systems_exercise_every_outcome(self):
        decided = [_predecide(p) for p in RANDOM]
        assert any(d is True for d in decided)
        assert any(d is False for d in decided)
        assert any(
            isinstance(d, Problem)
            and len(d.constraints) < len(p.normalized()[0].constraints)
            for p, d in zip(RANDOM, decided)
        )


class TestRemainder:
    @pytest.mark.parametrize("source", ["random", "corpus"])
    def test_no_one_sided_variable_left_and_idempotent(self, source):
        problems = RANDOM if source == "random" else corpus_problems()
        for problem in problems:
            normal, status = problem.normalized()
            if status is not NormalizeStatus.NORMALIZED:
                continue
            remainder = _peel(normal)
            assert not one_sided(remainder), str(problem)
            assert not unit_defined(remainder), str(problem)
            assert _peel(remainder) is remainder
            assert set(remainder.constraints) <= set(normal.constraints)
            # Every dropped equality had a variable with coefficient +-1
            # that nothing left mentions.
            left = remainder.variables()
            for equality in set(normal.equalities()) - set(
                remainder.equalities()
            ):
                assert any(
                    abs(coeff) == 1 and var not in left
                    for var, coeff in equality.expr.terms.items()
                ), str(problem)

    def test_remainder_is_its_own_normal_form(self):
        for problem in RANDOM:
            normal, status = problem.normalized()
            if status is not NormalizeStatus.NORMALIZED:
                continue
            remainder = _peel(normal)
            again, again_status = Problem(remainder.constraints).normalized()
            assert again.constraints == remainder.constraints
            marked, marked_status = remainder.normalized()
            assert marked.constraints == remainder.constraints
            assert marked_status is again_status

    def test_unpeelable_problem_passes_through_without_a_copy(self):
        box = Problem(name="box").add_bounds(0, x, 5).add_le(y, x).add_ge(y)
        normal, _ = box.normalized()
        assert _peel(normal) is normal
        assert _predecide(box).constraints == normal.constraints

    def test_peeling_cascades(self):
        # z is one-sided; dropping z - y >= 0 leaves y one-sided too;
        # dropping y - x >= 0 leaves x bounded on both sides.
        p = Problem().add_bounds(0, x, 5).add_ge(y - x).add_ge(z - y)
        remainder = _predecide(p)
        assert isinstance(remainder, Problem)
        assert set(remainder.variables()) == {x}
        assert len(remainder.constraints) == 2

    def test_decisions(self):
        assert _predecide(Problem().add_bounds(5, x, 0)) is False
        assert _predecide(Problem().add_ge(x - 3)) is True
        assert _predecide(Problem().add_ge(x - y).add_ge(2 * y + z)) is True
        coupled = Problem().add_eq(x, 2 * y).add_ge(x - 3)
        assert isinstance(_predecide(coupled), Problem)

    def test_unit_defined_equality_is_peeled(self):
        # d is private to the distance equality d + i - j = 0 with
        # coefficient 1: it drops, then i and j are one-sided.
        d, i, j = Variable("d"), Variable("i"), Variable("j")
        assert _predecide(Problem().add_eq(d + i - j)) is True
        boxed = Problem().add_eq(d + i - j).add_bounds(0, i, 5).add_le(j, i)
        remainder = _predecide(boxed)
        assert isinstance(remainder, Problem)
        assert remainder.equalities() == []

    def test_lone_non_unit_equality_is_not_peeled(self):
        # 2x = 3y fixes neither variable for every value of the other.
        lone = Problem().add_eq(2 * x, 3 * y)
        remainder = _predecide(lone)
        assert isinstance(remainder, Problem)
        assert remainder.constraints == lone.normalized()[0].constraints


class TestObservability:
    def test_peel_decided_problem_bumps_the_counter(self):
        with collecting(MetricsRegistry()) as registry:
            assert is_satisfiable(Problem().add_ge(x - y).add_ge(y - 3))
        assert registry.counter("omega.sat_predecided") == 1
        assert registry.counter("omega.satisfiability_tests") == 1

    def test_equality_coupled_problem_does_not(self):
        coupled = Problem().add_eq(x, 2 * y).add_bounds(1, x, 1)
        with collecting(MetricsRegistry()) as registry:
            assert not is_satisfiable(coupled)
        assert registry.counter("omega.sat_predecided") == 0
        assert registry.counter("omega.satisfiability_tests") == 1
