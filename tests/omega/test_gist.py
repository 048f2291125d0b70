"""Gist and implication tests (Section 3.3)."""

from hypothesis import example, given, settings, strategies as st

from repro.omega import (
    GistStats,
    Problem,
    Variable,
    gist,
    implies,
    implies_union,
    project,
)

from tests.util import boxed, enumerate_box

x = Variable("x")
y = Variable("y")
z = Variable("z")
n = Variable("n", "sym")
k1 = Variable("k1")


class TestGistBasics:
    def test_gist_of_true_is_true(self):
        assert gist(Problem(), Problem().add_ge(x)).is_trivially_true()

    def test_gist_given_nothing_is_p(self):
        p = Problem().add_bounds(0, x, 5)
        g = gist(p, Problem())
        # Equivalent to p (as sets), possibly re-normalized.
        for vx in range(-10, 11):
            assert g.is_satisfied_by({x: vx}) == p.is_satisfied_by({x: vx})

    def test_known_constraint_drops(self):
        p = Problem().add_ge(x).add_le(x, 10)
        q = Problem().add_ge(x)
        g = gist(p, q)
        # Only the upper bound is new information.
        assert len(g.constraints) == 1
        assert g.constraints[0].coeff(x) == -1

    def test_weaker_constraint_drops(self):
        p = Problem().add_ge(x)  # x >= 0
        q = Problem().add_ge(x - 5)  # x >= 5
        assert gist(p, q).is_trivially_true()

    def test_stronger_constraint_stays(self):
        p = Problem().add_ge(x - 5)
        q = Problem().add_ge(x)
        g = gist(p, q)
        assert not g.is_trivially_true()

    def test_gist_with_unsat_q_is_true(self):
        q = Problem().add_bounds(5, x, 0)
        p = Problem().add_ge(x - 100)
        assert gist(p, q).is_trivially_true()

    def test_gist_with_unsat_p(self):
        p = Problem().add_bounds(5, x, 0)
        q = Problem().add_ge(x)
        g = gist(p, q)
        # gist AND q must equal p AND q (i.e. unsatisfiable).
        from repro.omega import is_satisfiable

        assert not is_satisfiable(g.conjoin(q))

    def test_equality_against_equality(self):
        p = Problem().add_eq(x, 3)
        q = Problem().add_eq(x, 3)
        assert gist(p, q).is_trivially_true()

    def test_paper_example1_kill_implication(self):
        # Example 1: k1 = n  =>  n <= k1 <= n+10
        p = Problem().add_bounds(n, k1, n + 10)
        q = Problem().add_eq(k1, n)
        assert gist(p, q).is_trivially_true()

    def test_paper_example1_failed_kill(self):
        # With a(m): n <= k1 <= n+20 and k1 = m  =/=>  n <= k1 <= n+10
        m = Variable("m", "sym")
        p = Problem().add_bounds(n, k1, n + 10)
        q = Problem().add_bounds(n, k1, n + 20).add_eq(k1, m)
        g = gist(p, q)
        assert not g.is_trivially_true()

    def test_paper_example1_kill_with_assertion(self):
        # Asserting n <= m <= n+10 restores the kill.
        m = Variable("m", "sym")
        p = Problem().add_bounds(n, k1, n + 10)
        q = (
            Problem()
            .add_bounds(n, k1, n + 20)
            .add_eq(k1, m)
            .add_bounds(n, m, n + 10)
        )
        assert gist(p, q).is_trivially_true()

    def test_gist_equivalence_property(self):
        # (gist p given q) and q == p and q, on a concrete grid.
        p = Problem().add_bounds(0, x, 8).add_le(x, y)
        q = Problem().add_bounds(2, x, 6).add_bounds(0, y, 8)
        g = gist(p, q)
        for assignment in enumerate_box([x, y], 10):
            lhs = g.is_satisfied_by(assignment) and q.is_satisfied_by(assignment)
            rhs = p.is_satisfied_by(assignment) and q.is_satisfied_by(assignment)
            assert lhs == rhs

    def test_stats_populated(self):
        # A full gist runs the naive algorithm; an implication test runs
        # fast checks 1-3 first.
        p = Problem().add_ge(x).add_le(x, 10)
        q = Problem().add_ge(x)
        stats = GistStats()
        gist(p, q, stats=stats)
        assert stats.naive_tests == 2
        assert stats.dropped_naive == 1
        stats = GistStats()
        p = Problem().add_ge(x)
        gist(p, q, stats=stats, stop_if_not_true=True)
        assert stats.dropped_single == 1
        assert stats.naive_tests == 0


class TestImplies:
    def test_reflexive(self):
        p = Problem().add_bounds(0, x, 5)
        assert implies(p, p)

    def test_simple_implication(self):
        q = Problem().add_bounds(2, x, 3)
        p = Problem().add_bounds(0, x, 5)
        assert implies(q, p)
        assert not implies(p, q)

    def test_unsat_implies_anything(self):
        q = Problem().add_bounds(5, x, 0)
        p = Problem().add_eq(x, 999)
        assert implies(q, p)

    def test_anything_implies_true(self):
        assert implies(Problem().add_ge(x), Problem())

    def test_equality_implications(self):
        q = Problem().add_eq(x, y)
        p = Problem().add_le(x, y)
        assert implies(q, p)
        assert not implies(p, q)

    def test_integer_reasoning(self):
        # 2 <= 2x <= 4 implies x in {1, 2}, so x >= 1.
        q = Problem().add_bounds(2, 2 * x, 4)
        p = Problem().add_ge(x - 1)
        assert implies(q, p)

    def test_implication_via_transitivity(self):
        q = Problem().add_le(x, y).add_le(y, z)
        p = Problem().add_le(x, z)
        assert implies(q, p)

    def test_equalities_imply_their_sum(self):
        # x = 0 and y = 0 bound -x-y >= 0 from both sides even though
        # neither normal has a positive inner product with it: fast
        # check 3 must not keep it as definitely in the gist.
        q = Problem().add_eq(x).add_eq(y)
        assert implies(q, Problem().add_eq(x + y))
        assert implies(q, Problem().add_ge(-x - y))
        assert gist(Problem().add_eq(x + y), q).is_trivially_true()
        assert not implies(q, Problem().add_eq(x + y, 1))


class TestImpliesUnion:
    def test_empty_union(self):
        assert implies_union(Problem().add_ge(-1), [])
        assert not implies_union(Problem(), [])

    def test_single_piece(self):
        p = Problem().add_bounds(0, x, 3)
        assert implies_union(p, [Problem().add_bounds(0, x, 5)])

    def test_two_piece_cover(self):
        p = Problem().add_bounds(0, x, 10)
        lo = Problem().add_bounds(0, x, 5)
        hi = Problem().add_bounds(4, x, 10)
        assert implies_union(p, [lo, hi])

    def test_two_piece_gap(self):
        p = Problem().add_bounds(0, x, 10)
        lo = Problem().add_bounds(0, x, 4)
        hi = Problem().add_bounds(6, x, 10)
        assert not implies_union(p, [lo, hi])  # x = 5 is uncovered

    def test_union_with_stride_pieces(self):
        # n in [0,10] implies (n even) or (n odd).
        p = Problem().add_bounds(0, n, 10)
        evens = project(Problem().add_eq(n, 2 * x), [n]).pieces
        odds = project(Problem().add_eq(n, 2 * x + 1), [n]).pieces
        assert implies_union(p, evens + odds)
        assert not implies_union(p, evens)

    def test_projection_splinter_union(self):
        # p: exact description of the projection; must imply the union of
        # the splintered pieces but not the dark shadow alone.
        z2 = Variable("z2")
        base = (
            Problem()
            .add_ge(3 * z2 - x)
            .add_ge(y - 2 * z2)
            .add_bounds(0, x, 12)
            .add_bounds(0, y, 12)
        )
        proj = project(base, [x, y])
        assert proj.splintered
        # 3z >= x and 2z <= y with z integer: equivalent to
        # 2x <= 3y ... with integer rounding: exists z: ceil(x/3) <= floor(y/2)
        # Build p as the brute-force region description via the pieces
        # themselves: the union must imply itself.
        assert implies_union(proj.pieces[0], proj.pieces)


# ---------------------------------------------------------------------------
# Property-based gist equivalence
# ---------------------------------------------------------------------------

VARS = [x, y]


@st.composite
def gist_cases(draw):
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

    return build(draw(st.integers(1, 3))), build(draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(gist_cases())
def test_gist_defining_property(case):
    p, q = case
    radius = 5
    p_boxed = p  # the box goes on q so both sides share it
    q_boxed = boxed(q, VARS, radius)
    g = gist(p_boxed, q_boxed)
    for assignment in enumerate_box(VARS, radius):
        lhs = g.is_satisfied_by(assignment) and q_boxed.is_satisfied_by(assignment)
        rhs = p_boxed.is_satisfied_by(assignment) and q_boxed.is_satisfied_by(
            assignment
        )
        assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(gist_cases())
@example((Problem().add_eq(x + y), Problem().add_eq(x).add_eq(y)))
def test_implies_matches_brute_force(case):
    p, q = case
    radius = 5
    q_boxed = boxed(q, VARS, radius)
    expected = all(
        p.is_satisfied_by(assignment)
        for assignment in enumerate_box(VARS, radius)
        if q_boxed.is_satisfied_by(assignment)
    )
    # implies() quantifies over all integers; q is boxed so any witness of
    # non-implication lies in the box; p's constraints are evaluated there.
    assert implies(q_boxed, p) == expected
