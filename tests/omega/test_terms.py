"""Unit tests for variables and linear expressions."""

import copy
import pickle
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from repro.omega import LinearExpr, Variable, const, fresh_wildcard, term
from repro.omega.constraints import _first_sign
from repro.omega.terms import sum_exprs


class TestVariable:
    def test_equality_by_name_and_kind(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")
        assert Variable("x", "sym") != Variable("x", "var")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", "bogus")

    def test_kind_predicates(self):
        assert Variable("n", "sym").is_symbolic
        assert not Variable("n", "sym").is_wildcard
        assert fresh_wildcard().is_wildcard

    def test_fresh_wildcards_are_distinct(self):
        assert fresh_wildcard() != fresh_wildcard()

    def test_hashable(self):
        assert len({Variable("x"), Variable("x"), Variable("y")}) == 2

    def test_ordering_is_by_name(self):
        assert sorted([Variable("b"), Variable("a")]) == [
            Variable("a"),
            Variable("b"),
        ]

    def test_hash_is_the_hash_of_name_and_kind(self):
        for name, kind in [("x", "var"), ("n", "sym"), ("_sigma3", "wild")]:
            assert hash(Variable(name, kind)) == hash((name, kind))

    def test_ordering_is_by_name_then_kind(self):
        pool = [
            Variable(name, kind)
            for name in ("b", "a", "_w", "n")
            for kind in ("wild", "var", "sym")
        ]
        assert sorted(pool) == sorted(pool, key=lambda v: (v.name, v.kind))

    @pytest.mark.parametrize(
        "clone",
        [
            lambda v: pickle.loads(pickle.dumps(v)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_clones_are_equal_variables(self, clone):
        v = Variable("n", "sym")
        twin = clone(v)
        assert type(twin) is Variable
        assert twin == v and hash(twin) == hash(v)
        assert (twin.name, twin.kind) == ("n", "sym")

    def test_same_name_other_kind_differs(self):
        assert Variable("x") != Variable("x", "sym")

    def test_equals_the_plain_tuple_of_its_fields(self):
        assert Variable("x") == ("x", "var")

    def test_arithmetic_sugar_builds_expressions(self):
        x, y = Variable("x"), Variable("y")
        expr = 2 * x + y
        assert isinstance(expr, LinearExpr)
        assert dict(expr.terms) == {x: 2, y: 1}


class TestLinearExprConstruction:
    def test_zero_coefficients_dropped(self):
        x = Variable("x")
        expr = LinearExpr({x: 0}, 3)
        assert expr.is_constant()
        assert expr.constant == 3

    def test_non_int_coefficient_rejected(self):
        x = Variable("x")
        with pytest.raises(TypeError):
            LinearExpr({x: 1.5})

    def test_term_and_const_helpers(self):
        x = Variable("x")
        assert term(x, 3).coeff(x) == 3
        assert const(7).constant == 7


class TestLinearExprArithmetic:
    def setup_method(self):
        self.x = Variable("x")
        self.y = Variable("y")

    def test_addition_merges_terms(self):
        expr = (self.x + 1) + (self.x + self.y - 4)
        assert expr.coeff(self.x) == 2
        assert expr.coeff(self.y) == 1
        assert expr.constant == -3

    def test_addition_cancels_to_zero(self):
        expr = (self.x - self.y) + (self.y - self.x)
        assert expr.is_constant()
        assert expr.constant == 0

    def test_subtraction(self):
        expr = 2 * self.x - 3 * self.y - 5
        assert expr.coeff(self.x) == 2
        assert expr.coeff(self.y) == -3
        assert expr.constant == -5

    def test_rsub(self):
        expr = 10 - self.x
        assert expr.coeff(self.x) == -1
        assert expr.constant == 10

    def test_negation(self):
        expr = -(2 * self.x + 3)
        assert expr.coeff(self.x) == -2
        assert expr.constant == -3

    def test_scalar_multiplication(self):
        expr = 3 * (self.x + self.y + 1)
        assert expr.coeff(self.x) == 3
        assert expr.constant == 3

    def test_multiplication_by_zero(self):
        assert ((self.x + 5) * 0).is_constant()

    def test_non_integer_scale_rejected(self):
        with pytest.raises(TypeError):
            (self.x + 1) * 1.5

    def test_variable_times_variable_rejected(self):
        with pytest.raises(TypeError):
            self.x * self.y  # non-linear

    def test_sum_exprs(self):
        total = sum_exprs([self.x + 1, self.y + 2, LinearExpr()])
        assert total.coeff(self.x) == 1
        assert total.coeff(self.y) == 1
        assert total.constant == 3


class TestLinearExprOperations:
    def setup_method(self):
        self.x = Variable("x")
        self.y = Variable("y")

    def test_substitute(self):
        expr = 2 * self.x + self.y
        replaced = expr.substitute(self.x, self.y + 3)
        assert replaced.coeff(self.x) == 0
        assert replaced.coeff(self.y) == 3
        assert replaced.constant == 6

    def test_substitute_absent_variable_is_identity(self):
        expr = self.y + 1
        assert expr.substitute(self.x, const(99)) == expr

    def test_evaluate(self):
        expr = 2 * self.x - self.y + 1
        assert expr.evaluate({self.x: 3, self.y: 5}) == 2

    def test_coefficients_gcd(self):
        assert (4 * self.x + 6 * self.y).coefficients_gcd() == 2
        assert const(5).coefficients_gcd() == 0

    def test_scale_and_floor(self):
        expr = (2 * self.x + 2 * self.y + 3).scale_and_floor(2)
        assert expr.coeff(self.x) == 1
        assert expr.constant == 1  # floor(3/2)

    def test_scale_and_floor_negative_constant(self):
        expr = (2 * self.x - 3).scale_and_floor(2)
        assert expr.constant == -2  # floor(-3/2)

    def test_scale_and_floor_requires_divisible_coeffs(self):
        with pytest.raises(ValueError):
            (3 * self.x).scale_and_floor(2)

    def test_exact_div(self):
        expr = (4 * self.x + 8).exact_div(4)
        assert expr.coeff(self.x) == 1
        assert expr.constant == 2

    def test_exact_div_requires_divisible_constant(self):
        with pytest.raises(ValueError):
            (4 * self.x + 3).exact_div(4)

    def test_key_ignores_constant(self):
        assert (self.x + 1).key() == (self.x + 99).key()
        assert (self.x + 1).key() != (2 * self.x).key()

    def test_equality_and_hash(self):
        a = 2 * self.x + 1
        b = 2 * self.x + 1
        assert a == b
        assert hash(a) == hash(b)
        assert a != 2 * self.x

    def test_str_rendering(self):
        assert str(self.x + 1) == "x+1"
        assert str(-self.x) == "-x"
        assert str(LinearExpr()) == "0"


_POOL = [
    Variable("i"),
    Variable("j"),
    Variable("n", "sym"),
    Variable("m", "sym"),
    Variable("_s1", "wild"),
]

_exprs = st.builds(
    LinearExpr,
    st.dictionaries(st.sampled_from(_POOL), st.integers(-6, 6), max_size=5),
    st.integers(-20, 20),
)

_steps = st.one_of(
    st.tuples(st.just("add"), _exprs),
    st.tuples(st.just("sub"), _exprs),
    st.tuples(st.just("neg")),
    st.tuples(st.just("mul"), st.one_of(st.integers(-3, 3), st.booleans())),
    st.tuples(st.just("subst"), st.sampled_from(_POOL), _exprs),
    st.tuples(st.just("floor"), st.integers(1, 6)),
)


def _apply(expr, step):
    op = step[0]
    if op == "add":
        return expr + step[1]
    if op == "sub":
        return expr - step[1]
    if op == "neg":
        return -expr
    if op == "mul":
        return expr * step[1]
    if op == "subst":
        return expr.substitute(step[1], step[2])
    # A divisor of every coefficient (any divisor for a constant).
    return expr.scale_and_floor(gcd(step[1], expr.coefficients_gcd()))


class TestInternalArithmeticInvariants:
    """The arithmetic builds results without re-validating them."""

    @settings(max_examples=300, deadline=None)
    @given(_exprs, st.lists(_steps, max_size=8))
    def test_results_hold_only_nonzero_int_coefficients(self, expr, steps):
        for step in steps:
            expr = _apply(expr, step)
            assert all(type(c) is int and c for c in expr.terms.values())
            assert type(expr.constant) is int
            rebuilt = LinearExpr(dict(expr.terms), expr.constant)
            assert expr == rebuilt and hash(expr) == hash(rebuilt)

    @settings(max_examples=200, deadline=None)
    @given(_exprs)
    def test_negated_key_negates_every_coefficient(self, expr):
        assert expr.negated_key() == tuple(
            (name, kind, -c) for name, kind, c in expr.key()
        )
        assert expr.negated_key() == (-expr).key()

    @settings(max_examples=200, deadline=None)
    @given(_exprs)
    def test_first_sign_is_the_first_term_in_kind_name_order(self, expr):
        if expr.is_constant():
            return
        first = min(expr.terms.items(), key=lambda it: (it[0].kind, it[0].name))
        assert _first_sign(expr) == first[1]

    def test_pickle_drops_the_cached_keys(self):
        expr = 2 * Variable("x") - Variable("n", "sym") + 1
        expr.key(), expr.negated_key()
        twin = pickle.loads(pickle.dumps(expr))
        assert twin._key is None and twin._neg_key is None
        assert twin.negated_key() == expr.negated_key()
