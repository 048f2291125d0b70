"""Differential tests: gist's two paths, projection composition.

Full gists run the naive algorithm; implication tests run fast checks
1-3 first.  Both must honour the defining property of the gist.
"""

from hypothesis import given, settings, strategies as st

from repro.omega import (
    Problem,
    Variable,
    gist,
    implies,
    is_satisfiable,
    project,
)

from tests.omega.reference_gist import reference_gist
from tests.omega.test_gist_contract import ReferenceStats
from tests.util import boxed, enumerate_box, union_members

x = Variable("x")
y = Variable("y")
z = Variable("z")
VARS = [x, y]


@st.composite
def problem_pairs(draw):
    def build(n_constraints):
        problem = Problem()
        for _ in range(n_constraints):
            coeffs = [draw(st.integers(-2, 2)) for _ in VARS]
            constant = draw(st.integers(-6, 6))
            expr = sum(
                (c * v for c, v in zip(coeffs, VARS)), start=x * 0
            ) + constant
            if draw(st.integers(0, 4)) == 0:
                problem.add_eq(expr)
            else:
                problem.add_ge(expr)
        return problem

    return build(draw(st.integers(1, 4))), build(draw(st.integers(1, 4)))


@settings(max_examples=120, deadline=None)
@given(problem_pairs())
def test_gist_fast_and_naive_agree_semantically(case):
    """The naive full gist, conjoined with q, is ``p and q`` point for
    point over the box, and so is the fast-check gist full gists ran
    before (kept in :mod:`tests.omega.reference_gist`)."""

    p, q = case
    q_boxed = boxed(q, VARS, 5)
    naive = gist(p, q_boxed)
    fast = reference_gist(
        p,
        q_boxed,
        ReferenceStats(),
        stop_if_not_true=False,
        use_fast_checks=True,
    )
    for assignment in enumerate_box(VARS, 5):
        q_holds = q_boxed.is_satisfied_by(assignment)
        want = p.is_satisfied_by(assignment) and q_holds
        assert (naive.is_satisfied_by(assignment) and q_holds) == want
        assert (fast.is_satisfied_by(assignment) and q_holds) == want


@settings(max_examples=100, deadline=None)
@given(problem_pairs())
def test_gist_triviality_agrees(case):
    """The implication test (fast checks 1-3, then the short-circuited
    naive test) answers True exactly when the naive full gist is True."""

    p, q = case
    q_boxed = boxed(q, VARS, 5)
    # An unsatisfiable context implies anything: every answer is a
    # correct gist there, so the two paths need not agree on triviality.
    if not is_satisfiable(q_boxed):
        return
    assert implies(q_boxed, p) == gist(p, q_boxed).is_trivially_true()


@st.composite
def three_var_problems(draw):
    problem = Problem()
    variables = [x, y, z]
    for _ in range(draw(st.integers(2, 5))):
        coeffs = [draw(st.integers(-2, 2)) for _ in variables]
        constant = draw(st.integers(-6, 6))
        expr = sum(
            (c * v for c, v in zip(coeffs, variables)), start=x * 0
        ) + constant
        if draw(st.integers(0, 4)) == 0:
            problem.add_eq(expr)
        else:
            problem.add_ge(expr)
    return problem


@settings(max_examples=100, deadline=None)
@given(three_var_problems())
def test_projection_composes(problem):
    """pi_x(S) == pi_x(pi_xy(S)) for exact projections."""

    finite = boxed(problem, [x, y, z], 4)
    direct = project(finite, [x])
    via_xy = project(finite, [x, y])
    if not (direct.exact_union and via_xy.exact_union):
        return
    staged_members = set()
    for piece in via_xy.pieces:
        staged = project(piece, [x])
        if not staged.exact_union:
            return
        staged_members |= union_members(staged.pieces, [x], 4)
    direct_members = union_members(direct.pieces, [x], 4)
    assert staged_members == direct_members
