"""Projection-and-gist tests (Section 3.3.2).

``repro.solver.gist_of_projection`` must satisfy the defining property

    result AND pi_keep(p)  ==  pi_keep(p and q) AND pi_keep(p)

whenever both projections are exact single conjunctions.
"""

from hypothesis import given, settings, strategies as st

from repro.omega import Problem, Variable
from repro.omega.project import project
from repro.solver import gist_of_projection

from tests.util import boxed, piece_satisfied

i1 = Variable("i1")
j1 = Variable("j1")
n = Variable("n", "sym")
x = Variable("x", "sym")


class TestFastPath:
    """Example 7's shape, a non-unit coupling and a contradictory q."""

    def test_example7_style(self):
        # p: bounds + ordering; q: subscript equality.  Keep the symbols.
        p = (
            Problem()
            .add_bounds(x, i1, n)
            .add_bounds(x, j1, n)
            .add_le(i1 + 1, j1)
            .add_bounds(50, n, 100)
        )
        q = Problem().add_eq(i1, j1 - x)
        result = gist_of_projection(p, q, [x])
        # The dependence exists iff 1 <= x <= 50 (paper's Example 7).
        assert result is not None
        values = {
            v for v in range(-5, 120) if result.is_satisfied_by({x: v})
        }
        assert values == set(range(1, 51))

    def test_fallback_on_nonunit(self):
        p = Problem().add_bounds(1, i1, n).add_ge(3 * j1 - 2 * i1).add_ge(
            5 * i1 - 2 * j1
        ).add_bounds(1, j1, n)
        q = Problem().add_eq(2 * j1, i1 + n)
        # Non-unit coefficients: the projections are still answered.
        result = gist_of_projection(p, q, [n])
        assert result is not None

    def test_contradictory_q_gives_false(self):
        p = Problem().add_bounds(1, i1, 10)
        q = Problem().add_eq(i1, 20)
        result = gist_of_projection(p, q, [])
        from repro.omega import is_satisfiable

        assert not is_satisfiable(result)


# ---------------------------------------------------------------------------
# Defining-property testing
# ---------------------------------------------------------------------------

A = Variable("a")
B = Variable("b")
S = Variable("s", "sym")
VARS = [A, B, S]


@st.composite
def pq_cases(draw):
    def build(count, allow_eq):
        problem = Problem()
        for _ in range(count):
            coeffs = [draw(st.integers(-2, 2)) for _ in VARS]
            constant = draw(st.integers(-5, 5))
            expr = sum(
                (c * v for c, v in zip(coeffs, VARS)), start=A * 0
            ) + constant
            if allow_eq and draw(st.integers(0, 3)) == 0:
                problem.add_eq(expr)
            else:
                problem.add_ge(expr)
        return problem

    return build(draw(st.integers(1, 4)), True), build(
        draw(st.integers(1, 3)), True
    )


def _projection_members(problem, keep, radius):
    """Members of a single-conjunction exact projection; None otherwise.

    When a projection splinters into several pieces, no single conjunction
    can represent it and ``gist_of_projection`` is *documented* to answer
    conservatively (against the real shadow) — those cases are excluded
    from the exactness comparison.
    """

    projection = project(problem, keep)
    if not projection.exact_union or len(projection.pieces) > 1:
        return None
    members = set()
    for value in range(-radius, radius + 1):
        if any(
            piece_satisfied(piece, {keep[0]: value})
            for piece in projection.pieces
        ):
            members.add(value)
    return members


@settings(max_examples=150, deadline=None)
@given(pq_cases())
def test_combined_gist_defining_property(case):
    p, q = case
    radius = 5
    p_boxed = boxed(p, VARS, radius)
    result = gist_of_projection(p_boxed, q, [S])
    p_members = _projection_members(p_boxed, [S], radius)
    pq_members = _projection_members(p_boxed.conjoin(q), [S], radius)
    if p_members is None or pq_members is None:
        return  # splintered beyond exactness: nothing to compare against
    for value in range(-radius, radius + 1):
        in_result = piece_satisfied(result, {S: value})
        lhs = in_result and value in p_members
        rhs = value in pq_members and value in p_members
        assert lhs == rhs, (value, str(result))
