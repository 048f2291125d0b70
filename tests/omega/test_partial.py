"""Partial elimination tests: exactness, unsat cores, complexity fallback.

The contract under test (see :mod:`repro.analysis.plan`): for any extra
constraints ``E`` over the protected ``keep`` variables,

    sat(core ∧ E) == sat(problem ∧ E)

— which is what lets the direction-vector search probe a reduced core
dozens of times instead of re-solving the full iteration space.
"""

import itertools

import pytest

from repro.analysis.plan import partial_eliminate
from repro.omega import (
    OmegaComplexityError,
    Problem,
    Variable,
    eq,
    ge,
    is_satisfiable,
    le,
)

I, J, N = Variable("i"), Variable("j"), Variable("n", "sym")
D = Variable("d")


def nest_problem():
    """A two-level nest with a distance variable: d = j - i, 1<=i,j<=10."""

    return (
        Problem()
        .add_bounds(1, I, 10)
        .add_bounds(1, J, 10)
        .add_eq(D - J + I)
    )


def probe(core, extra=()):
    return Problem(list(core.constraints) + list(extra))


def sign_probes(var):
    """The direction-tree branch constraints: var < 0, var == 0, var > 0."""

    return (
        [le(var, -1)],
        [ge(var), le(var, 0)],
        [ge(var - 1)],
        [],
    )


class TestExactness:
    @pytest.mark.parametrize("extra", sign_probes(D), ids=("neg", "zero", "pos", "none"))
    def test_probe_answers_match_full_problem(self, extra):
        problem = nest_problem()
        core, _ = partial_eliminate(problem, [D])
        full = Problem(list(problem.constraints) + list(extra))
        assert is_satisfiable(probe(core, extra)) == is_satisfiable(full)

    def test_core_eliminates_the_loop_variables(self):
        core, eliminated = partial_eliminate(nest_problem(), [D])
        assert eliminated > 0
        remaining = core.variables()
        assert I not in remaining and J not in remaining

    def test_probe_range_matches_true_projection(self):
        # d = j - i with both in 1..10 admits exactly -9..9.
        core, _ = partial_eliminate(nest_problem(), [D])
        for value in range(-11, 12):
            expected = -9 <= value <= 9
            assert is_satisfiable(probe(core, [eq(D - value)])) == expected

    def test_exhaustive_over_interval_probes(self):
        # Every interval probe lo <= d <= hi must answer like the full
        # problem — the shape restraint/direction search actually asks.
        problem = nest_problem()
        core, _ = partial_eliminate(problem, [D])
        for lo, hi in itertools.combinations(range(-11, 12, 3), 2):
            extra = [ge(D - lo), le(D, hi)]
            full = Problem(list(problem.constraints) + extra)
            assert is_satisfiable(probe(core, extra)) == is_satisfiable(full)


class TestUnsatCore:
    def test_contradictory_problem_reduces_to_false(self):
        problem = nest_problem().add_ge(I - 20)  # i >= 20 contradicts i <= 10
        core, _ = partial_eliminate(problem, [D])
        assert not is_satisfiable(probe(core))
        assert not is_satisfiable(probe(core, [eq(D)]))

    def test_false_core_is_explicit_not_empty(self):
        # Problem.normalized() maps contradictions to an *empty* problem,
        # which is trivially satisfiable — the core must not do that.
        problem = nest_problem().add_ge(I - 20)
        core, _ = partial_eliminate(problem, [D])
        assert core.constraints


class TestProtection:
    def test_kept_variables_survive(self):
        core, _ = partial_eliminate(nest_problem(), [D, N])
        # d is constrained, so it must still appear; n is simply absent
        # from the problem and stays absent.
        assert D in core.variables()

    def test_symbolic_bound_stays_exact(self):
        problem = (
            Problem()
            .add_bounds(1, I, N)
            .add_bounds(1, J, N)
            .add_eq(D - J + I)
        )
        core, _ = partial_eliminate(problem, [D, N])
        for extra in (
            [ge(N - 5), eq(D - 3)],
            [eq(N - 1), ge(D - 1)],  # n == 1 forces d == 0
            [eq(N - 1), eq(D)],
        ):
            full = Problem(list(problem.constraints) + extra)
            assert is_satisfiable(probe(core, extra)) == is_satisfiable(full)


class TestComplexityFallback:
    def test_blowup_returns_unreduced_handle(self, monkeypatch):
        import repro.analysis.plan as plan_mod

        def boom(*args, **kwargs):
            raise OmegaComplexityError("synthetic blow-up")

        monkeypatch.setattr(plan_mod, "eliminate_equalities", boom)
        problem = nest_problem()
        core, eliminated = partial_eliminate(problem, [D])
        assert eliminated == 0
        assert core is problem
