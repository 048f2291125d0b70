"""The contract of ``Problem.normalized()``: cheap, memoized, unchanged.

``normalized()`` caches expression keys, skips the negated-expression
allocations of the matched-pair checks, passes unchanged constraints
through and memoizes its answer on the problem.  Its output must stay
exactly what the original implementation produced
(:mod:`tests.omega.reference_normalize`): the same constraints in the
same order, the same term insertion order and the same status.  The memo
must never be stale and must never travel: pickles and the sqlite store
codec see only the constraints.
"""

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.omega import Problem, Variable
from repro.omega import constraints as _constraints
from repro.omega.constraints import Constraint, NormalizeStatus, Relation
from repro.omega.errors import OmegaComplexityError
from repro.omega.store import encode_value
from repro.omega.terms import LinearExpr
from repro.programs import timing_corpus
from repro.solver import SolverQuery
from tests.analysis.test_cache_determinism import random_program
from tests.omega.reference_normalize import reference_normalized
from tests.solver.test_property_identity import (
    fingerprint,
    pair_problems,
    query_suite,
)

x, y = Variable("x"), Variable("y")
n = Variable("n", "sym")
w = Variable("_w", "wild")
VARS = [x, y, n, w]


def snapshot(problem):
    """Constraints with relation, term insertion order and constant."""

    return [
        (c.relation, tuple(c.expr.terms.items()), c.expr.constant)
        for c in problem.constraints
    ]


def same_normal_form(problem):
    """Assert ``problem.normalized()`` matches the reference exactly."""

    fresh = Problem(problem.constraints, problem.name)
    got, status = fresh.normalized()
    want, want_status = reference_normalized(fresh)
    assert status is want_status
    assert snapshot(got) == snapshot(want)
    assert got.name == want.name


@pytest.fixture
def normalize_calls(monkeypatch):
    """Count the normalizations that miss the memo."""

    calls = []
    real = _constraints._normalize

    def counting(constraints):
        calls.append(len(constraints))
        return real(constraints)

    monkeypatch.setattr(_constraints, "_normalize", counting)
    return calls


@st.composite
def problems(draw):
    """Random conjunctions rich in duplicates, scaled copies and pairs."""

    base = []
    for _ in range(draw(st.integers(0, 6))):
        terms = draw(
            st.dictionaries(
                st.sampled_from(VARS), st.integers(-4, 4), max_size=3
            )
        )
        expr = LinearExpr(terms, draw(st.integers(-6, 6)))
        relation = draw(st.sampled_from([Relation.EQ, Relation.GE, Relation.GE]))
        base.append(Constraint(expr, relation))
    extra = []
    for constraint in base:
        choice = draw(st.integers(0, 4))
        if choice == 1:  # an opposite bound: a matched pair or a conflict
            shift = draw(st.integers(-1, 1))
            extra.append(Constraint(-constraint.expr + shift, Relation.GE))
        elif choice == 2:  # a scaled copy of the same normal
            scale = draw(st.integers(2, 3))
            extra.append(Constraint(constraint.expr * scale, constraint.relation))
        elif choice == 3:  # the very same object twice
            extra.append(constraint)
    constraints = base + extra
    order = draw(st.permutations(range(len(constraints))))
    return Problem([constraints[i] for i in order], "p")


class TestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(problems())
    def test_fuzzed_problems(self, problem):
        same_normal_form(problem)

    def test_matched_pair_with_negative_first_term(self):
        # -x + 3 >= 0 and x - 3 >= 0 fold into the equality x - 3 = 0,
        # whose sign flip is the one place -expr is still built.
        problem = Problem([Constraint(3 - x, Relation.GE)]).add_ge(x - 3)
        same_normal_form(problem)
        normal, status = problem.normalized()
        assert status is NormalizeStatus.NORMALIZED
        assert snapshot(normal) == [(Relation.EQ, ((x, 1),), -3)]

    def test_problems_harvested_from_the_corpus(self, monkeypatch):
        # Every system the analysis normalizes on a slice of the paper's
        # timing corpus, replayed against the reference.
        seen = []
        real = _constraints._normalize

        def recording(constraints):
            seen.append(tuple(constraints))
            return real(constraints)

        monkeypatch.setattr(_constraints, "_normalize", recording)
        for program in timing_corpus()[:8]:
            analyze(program)
        monkeypatch.undo()
        assert len(seen) > 200
        for constraints in seen:
            same_normal_form(Problem(constraints, "harvested"))

    @settings(max_examples=200, deadline=None)
    @given(problems())
    def test_reference_is_idempotent(self, problem):
        # The premise of marking a result as its own normal form.
        first, status = reference_normalized(problem)
        again, again_status = reference_normalized(first)
        assert snapshot(again) == snapshot(first)
        if status is not NormalizeStatus.UNSATISFIABLE:
            assert again_status is status


class TestMemo:
    def problem(self):
        return Problem(name="p").add_ge(2 * x - 4).add_le(x, 9).add_ge(x - 2)

    def test_repeat_call_hits_the_memo(self, normalize_calls):
        problem = self.problem()
        first, status = problem.normalized()
        second, second_status = problem.normalized()
        assert normalize_calls == [3]
        assert second is not first
        assert second.constraints is not first.constraints
        assert snapshot(second) == snapshot(first)
        assert second_status is status

    def test_result_is_its_own_normal_form(self, normalize_calls):
        first, status = self.problem().normalized()
        again, again_status = first.normalized()
        assert normalize_calls == [3]
        assert snapshot(again) == snapshot(first)
        assert again_status is status

    def test_unsatisfiable_result_normalizes_as_empty(self, normalize_calls):
        problem = Problem().add_ge(x - 5).add_le(x, 2)
        empty, status = problem.normalized()
        assert status is NormalizeStatus.UNSATISFIABLE
        assert empty.is_trivially_true()
        _, again = empty.normalized()
        assert again is reference_normalized(empty)[1]
        assert again is NormalizeStatus.TAUTOLOGY

    def test_mutating_a_result_leaves_the_memo_intact(self):
        problem = self.problem()
        first, _ = problem.normalized()
        first.add_ge(-x)
        second, _ = problem.normalized()
        assert len(second) == len(first) - 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.add(Constraint(LinearExpr({x: -1}, 8), Relation.GE)),
            lambda p: p.extend([Constraint(LinearExpr({x: -1}, 8), Relation.GE)]),
            lambda p: p.constraints.__setitem__(
                1, Constraint(LinearExpr({x: -1}, 8), Relation.GE)
            ),
            lambda p: p.constraints.__delitem__(0),
            lambda p: setattr(p, "constraints", list(p.constraints[:2])),
        ],
        ids=["add", "extend", "replace-item", "delete-item", "replace-list"],
    )
    def test_any_change_invalidates(self, mutate, normalize_calls):
        problem = self.problem()
        problem.normalized()
        mutate(problem)
        got, status = problem.normalized()
        assert normalize_calls == [3, len(problem)]
        want, want_status = reference_normalized(problem)
        assert snapshot(got) == snapshot(want)
        assert status is want_status

    def test_copy_shares_the_memo_until_it_changes(self, normalize_calls):
        problem = self.problem()
        problem.normalized()
        duplicate = problem.copy()
        duplicate.normalized()
        assert normalize_calls == [3]
        duplicate.add_ge(y)
        duplicate.normalized()
        problem.normalized()
        assert normalize_calls == [3, 4]

    def test_substitute_keeps_untouched_constraints(self):
        constraint = Constraint(LinearExpr({x: 2}, 1), Relation.GE)
        assert constraint.substitute(y, LinearExpr({n: 1})) is constraint
        moved = constraint.substitute(x, LinearExpr({n: 1}))
        assert moved.expr == LinearExpr({n: 2}, 1)


class TestThreads:
    def test_shared_problems_normalize_consistently(self):
        # Solver threads may normalize the same Problem at once; every
        # answer must still match the reference.
        rng = random.Random(7)
        shared = []
        for _ in range(6):
            problem = Problem(name="shared")
            for _ in range(rng.randint(1, 6)):
                terms = {v: rng.randint(-3, 3) for v in rng.sample(VARS, 2)}
                problem.add_ge(LinearExpr(terms, rng.randint(-4, 4)))
            shared.append(problem)
        expected = [snapshot(reference_normalized(p)[0]) for p in shared]
        mismatches = []

        def work():
            for _ in range(300):
                for problem, want in zip(shared, expected):
                    got, _ = problem.normalized()
                    if snapshot(got) != want:
                        mismatches.append(problem)
                    got.normalized()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


class TestMemoDoesNotTravel:
    def test_pickle_drops_the_memo(self):
        problem = Problem(name="p").add_ge(2 * x - 4).add_le(x, 9)
        before = pickle.dumps(problem)
        normal, _ = problem.normalized()
        assert problem._norm is not None
        assert pickle.dumps(problem) == before
        restored = pickle.loads(before)
        assert restored._norm is None
        assert snapshot(restored.normalized()[0]) == snapshot(normal)

    def test_pickle_drops_expression_caches(self):
        expr = LinearExpr({x: 4, y: -6}, 3)
        before = pickle.dumps(expr)
        expr.key(), expr.coefficients_gcd(), hash(expr)
        assert pickle.dumps(expr) == before
        restored = pickle.loads(before)
        assert restored == expr and restored.key() == expr.key()
        assert hash(restored) == hash(expr)

    def test_wire_payload_does_not_grow(self):
        # A pickled query carries its constraints, never the memo.
        problem = Problem(name="p").add_ge(2 * x - 4).add_le(x, 9)
        query = SolverQuery.sat(problem)
        before = pickle.dumps(query)
        problem.normalized()
        query.execute()
        assert pickle.dumps(query) == before

    def test_store_codec_ignores_the_memo(self):
        problem = Problem(name="p").add_ge(2 * x - 4).add_le(x, 9)
        before = encode_value(problem)
        problem.normalized()
        assert encode_value(problem) == before


def harvest(count=10):
    rng = random.Random(19920617)
    programs = [random_program(rng, index) for index in range(count)]
    return [
        query
        for program in programs
        for pair in pair_problems(program, limit=4)
        for query in query_suite(pair)
    ]


def evaluate(query):
    try:
        return fingerprint(query.execute())
    except OmegaComplexityError as failure:
        return ("complexity", failure.site, failure.budget)


class TestEndToEndParity:
    def test_solver_answers_identical_to_reference_normalization(
        self, monkeypatch
    ):
        # Full eliminate/project/gist parity over harvested dependence
        # problems, complexity failures included, with the memoized
        # normalization and with the reference swapped in.
        queries = harvest()
        assert queries
        memoized = [evaluate(query) for query in queries]
        monkeypatch.setattr(Problem, "normalized", reference_normalized)
        assert [evaluate(query) for query in queries] == memoized
