"""The contract of the one-walk projection.

``project`` takes the Real Shadow T from the walk that builds the exact
pieces instead of running a second, real-shadow-only walk.  Against the
two-walk original (:mod:`tests.omega.reference_project`) it must give the
same pieces, the same real shadow and the same exactness flags, hand out
a real shadow that is never the very object of ``pieces[0]``, and run
Fourier-Motzkin once per eliminated variable instead of twice.

Both implementations mint wildcards, and elimination breaks ties by
variable name, so the comparison restarts the wildcard counter at the
same large value before each track: every name then has the same number
of digits, and string order agrees with minting order.
"""

import importlib
import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.obs import MetricsRegistry, collecting
from repro.omega import Problem, Variable
from repro.omega import terms as _terms
from repro.omega.errors import OmegaComplexityError
from repro.programs import timing_corpus
from tests.omega.reference_project import (
    reference_pieces,
    reference_project,
    reference_real,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
n, m = Variable("n", "sym"), Variable("m", "sym")
VARS = [x, y, z, n, m]

# The package re-exports the ``project`` function under the module's name.
_project_mod = importlib.import_module("repro.omega.project")

#: Where every track starts minting: far above any name minted elsewhere
#: in the test run, and a fixed digit count for the whole comparison.
MINT_FROM = 10**12


@contextmanager
def minting_from(start):
    saved = _terms._wildcard_counter
    _terms._wildcard_counter = itertools.count(start)
    try:
        yield
    finally:
        _terms._wildcard_counter = saved


def keys(problems):
    return [problem.canonical().key for problem in problems]


def counted(run):
    """``run()``'s result and the metrics it recorded (``omega.fm_calls``
    counts Fourier-Motzkin steps, ``omega.fm_inexact`` the inexact ones)."""

    registry = MetricsRegistry()
    with collecting(registry):
        result = run()
    return result, registry


def fm_calls(run):
    result, registry = counted(run)
    return result, registry.counter("omega.fm_calls")


def check_one_walk(problem, kept):
    """Assert the one-walk projection matches the two-walk reference."""

    kept = frozenset(kept)
    with minting_from(MINT_FROM):
        try:
            got, registry = counted(lambda: _project_mod._project(problem, kept))
        except OmegaComplexityError as failure:
            got = failure
    with minting_from(MINT_FROM):
        try:
            (pieces, exact), piece_calls = fm_calls(
                lambda: reference_pieces(problem, kept)
            )
        except OmegaComplexityError as failure:
            assert isinstance(got, OmegaComplexityError)
            assert (got.site, got.budget) == (failure.site, failure.budget)
            return None
    with minting_from(MINT_FROM):
        real, real_calls = fm_calls(lambda: reference_real(problem, kept))
    assert not isinstance(got, OmegaComplexityError), got

    assert keys(got.pieces) == keys(pieces)
    assert got.real.canonical().key == real.canonical().key
    assert got.exact_union == exact
    assert got.splintered == (len(pieces) > 1 or not exact)
    if got.pieces:
        assert got.real is not got.pieces[0]
        assert got.real.constraints is not got.pieces[0].constraints
    # Never more work than the two tracks; when every step was exact,
    # exactly the pieces track's work (its walk and the satisfiability
    # test of the final piece): the real track's walk is gone.
    calls = registry.counter("omega.fm_calls")
    assert calls <= piece_calls + real_calls
    if not registry.counter("omega.fm_inexact"):
        assert calls == piece_calls
    return got


@st.composite
def projection_cases(draw):
    """Small systems with non-unit coefficients, so some splinter."""

    problem = Problem(name="p")
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(
            st.dictionaries(st.sampled_from(VARS), st.integers(-4, 4), max_size=3)
        )
        expr = sum((c * v for v, c in terms.items()), start=x * 0)
        expr = expr + draw(st.integers(-9, 9))
        if draw(st.integers(0, 3)) == 0:
            problem.add_eq(expr)
        else:
            problem.add_ge(expr)
    for var in VARS[:3]:
        if draw(st.booleans()):
            problem.add_bounds(-6, var, 6)
    kept = draw(st.sets(st.sampled_from(VARS), max_size=3))
    return problem, kept


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(projection_cases())
    def test_fuzzed_problems(self, case):
        check_one_walk(*case)

    def test_splintering_projection(self):
        # 2 <= 3y - 2x <= 3: the classic inexact elimination of y.
        problem = (
            Problem(name="splinter")
            .add_le(2, 3 * y - 2 * x)
            .add_le(3 * y - 2 * x, 3)
            .add_bounds(0, x, 12)
        )
        got = check_one_walk(problem, [x])
        assert got is not None and len(got.pieces) > 1 and got.splintered

    def test_unsatisfiable_walk_returns_false(self):
        problem = Problem(name="empty").add_bounds(5, x, 0).add_le(y, x)
        got = check_one_walk(problem, [y])
        assert got.is_empty()
        assert got.real.name == "FALSE"
        assert str(got.real) == "-1 >= 0"

    def test_problems_harvested_from_the_corpus(self, monkeypatch):
        # Every projection the analysis computes on a slice of the
        # paper's timing corpus, replayed against the reference.
        seen = []
        real = _project_mod._project

        def recording(problem, kept):
            seen.append((Problem(problem.constraints, problem.name), kept))
            return real(problem, kept)

        monkeypatch.setattr(_project_mod, "_project", recording)
        for program in timing_corpus()[:8]:
            analyze(program)
        monkeypatch.undo()
        assert len(seen) > 50
        for problem, kept in seen:
            check_one_walk(problem, kept)


class TestOneWalk:
    def chain(self):
        # 0 <= x <= y <= z <= 10, unit coefficients: every step is exact.
        return (
            Problem(name="chain")
            .add_le(0, x)
            .add_le(x, y)
            .add_le(y, z)
            .add_le(z, 10)
        )

    def test_exact_projection_runs_fm_once_per_variable(self):
        # Projecting everything away leaves TRUE, whose satisfiability
        # test takes no step: all FM calls are elimination steps.
        problem = self.chain()
        projection, calls = fm_calls(lambda: _project_mod.project(problem, []))
        assert projection.exact_union and not projection.splintered
        assert projection.real.is_trivially_true()
        assert calls == 3
        _, reference_calls = fm_calls(
            lambda: reference_project(problem, frozenset())
        )
        assert reference_calls == 6

    def test_real_is_a_copy_of_the_exact_piece(self):
        projection = _project_mod.project(self.chain(), [z])
        (piece,) = projection.pieces
        assert projection.real is not piece
        assert str(projection.real) == str(piece) == "-z+10 >= 0 and z >= 0"
        projection.real.add_ge(z - 5)
        assert len(piece) == 2

    def test_complexity_fallback_keeps_a_full_real_walk(self, monkeypatch):
        problem = (
            Problem(name="splinter")
            .add_le(2, 3 * y - 2 * x)
            .add_le(3 * y - 2 * x, 3)
            .add_bounds(0, x, 12)
        )
        monkeypatch.setattr(_project_mod, "_MAX_PIECES", 0)
        with minting_from(MINT_FROM):
            got = _project_mod._project(problem, frozenset([x]))
        with minting_from(MINT_FROM):
            real = reference_real(problem, frozenset([x]))
        assert not got.exact_union and got.splintered
        assert got.real.canonical().key == real.canonical().key


@pytest.mark.parametrize("kept", [[x], [x, n]])
def test_equality_walks_match(kept):
    # Equalities with non-unit coefficients mint stride wildcards on the
    # way; the real shadow must keep the same stride.
    problem = (
        Problem(name="stride")
        .add_eq(2 * x, 4 * y + n)
        .add_eq(3 * z, x - y)
        .add_bounds(0, y, 20)
    )
    check_one_walk(problem, kept)
