"""The contract of ``canonicalize_problems``: cheaper, lazy, unchanged.

``canonicalize_problems`` fingerprints constraints inline, sorts
variables without a signature table and builds the ``__c{i}`` renaming
only when a caller reads it.  Its output must stay exactly what the
original implementation produced (:mod:`tests.omega.reference_canonical`):
the same keys, kinds, indices, statuses and renaming.  Satisfiability
queries, which only need the key, must never build the renaming, and a
persistent store written under the original keys must still answer.
"""

import functools
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.omega import Problem, Variable, is_satisfiable
from repro.omega.cache import SolverCache, caching
from repro.omega.constraints import Constraint, JointCanonical, Relation
from repro.omega.errors import OmegaComplexityError
from repro.omega.store import PersistentStore
from repro.omega.terms import LinearExpr
from repro.programs import timing_corpus
from tests.omega.reference_canonical import reference_canonicalize

# The package re-exports the ``project`` and ``gist`` functions under
# their modules' names.
_cache = importlib.import_module("repro.omega.cache")
_constraints = importlib.import_module("repro.omega.constraints")
_gist = importlib.import_module("repro.omega.gist")
_project_mod = importlib.import_module("repro.omega.project")
_solve = importlib.import_module("repro.omega.solve")

x, y, z = Variable("x"), Variable("y"), Variable("z")
n, m = Variable("n", "sym"), Variable("m", "sym")
w = Variable("_w", "wild")
VARS = [x, y, z, n, m, w]


def same_canonical_form(problems):
    """Assert the joint canonical form matches the reference exactly."""

    got = _constraints.canonicalize_problems(problems)
    want = reference_canonicalize(problems)
    assert got.keys == want.keys
    assert got.kinds == want.kinds
    assert got.key == want.key
    assert list(got.indices.items()) == list(want.indices.items())
    assert got.statuses == want.statuses
    assert list(got.rename.items()) == list(want.rename.items())
    for index in range(len(problems)):
        single = got.narrow(index)
        assert single.key == want.narrow(index).key
        assert single.status is want.statuses[index]
        assert single.indices is got.indices
        assert single.rename is got.rename
        assert single.inverse() == {c: o for o, c in want.rename.items()}


@st.composite
def problems(draw):
    """Conjunctions over a shared pool, rich in symmetric variables."""

    constraints = []
    for _ in range(draw(st.integers(0, 5))):
        terms = draw(
            st.dictionaries(st.sampled_from(VARS), st.integers(-3, 3), max_size=3)
        )
        relation = draw(st.sampled_from([Relation.EQ, Relation.GE, Relation.GE]))
        expr = LinearExpr(terms, draw(st.integers(-5, 5)))
        constraints.append(Constraint(expr, relation))
        if draw(st.integers(0, 2)) == 0:
            # The same shape over another variable: a signature tie.
            swap = {x: y, y: x, n: m, m: n}
            mirrored = {swap.get(v, v): c for v, c in terms.items()}
            constraints.append(Constraint(LinearExpr(mirrored, expr.constant), relation))
    return Problem(constraints, "p")


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(problems())
    def test_fuzzed_single_problems(self, problem):
        same_canonical_form([problem])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(problems(), min_size=2, max_size=4))
    def test_fuzzed_joint_groups(self, group):
        same_canonical_form(group)

    def test_unsatisfiable_member(self):
        empty = Problem(name="empty").add_bounds(5, x, 0)
        live = Problem(name="live").add_bounds(0, x, 5).add_le(y, x)
        same_canonical_form([empty, live])
        assert _constraints.canonicalize_problems([empty]).keys == (("UNSAT",),)

    def test_groups_harvested_from_the_corpus(self):
        groups, _, _ = harvest()
        assert len(groups) > 500
        assert any(len(group) > 1 for group in groups)
        for group in groups:
            same_canonical_form(group)


@functools.lru_cache(maxsize=None)
def harvest():
    """Canonicalized groups, sat problems and projections of a slice of
    the timing corpus, recorded once per test run."""

    groups, projections = [], []
    real_canonicalize = _constraints.canonicalize_problems
    real_project = _project_mod._project_traced

    def recording_canonicalize(group):
        groups.append([Problem(p.constraints, p.name) for p in group])
        return real_canonicalize(group)

    def recording_project(problem, kept, cache_tag=None):
        projections.append((Problem(problem.constraints, problem.name), kept))
        return real_project(problem, kept, cache_tag)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_constraints, "canonicalize_problems", recording_canonicalize)
        patch.setattr(_gist, "canonicalize_problems", recording_canonicalize)
        patch.setattr(_project_mod, "_project_traced", recording_project)
        for program in timing_corpus()[:20]:
            with caching(SolverCache()):
                analyze(program)
    sats = [group[0] for group in groups if len(group) == 1]
    return groups, sats, projections


@pytest.fixture
def rename_builds(monkeypatch):
    """Count the renamings built (lazy ``JointCanonical.rename`` misses)."""

    built = []
    lazy = JointCanonical.rename

    def counting(joint):
        if joint._rename is None:
            built.append(joint)
        return lazy.fget(joint)

    monkeypatch.setattr(JointCanonical, "rename", property(counting))
    return built


class TestLazyRename:
    def test_satisfiability_never_builds_the_renaming(self, rename_builds):
        _, sats, _ = harvest()
        # Queries that normalization and peeling decide never reach the
        # cache, so only undecided ones can hit it.
        sats = [p for p in sats if isinstance(_solve._predecide(p), Problem)]
        assert len(sats) >= 300
        with caching() as cache:
            for problem in sats[:300]:
                is_satisfiable(problem)
                is_satisfiable(problem.copy())
        assert cache.hits >= 300
        assert rename_builds == []

    def test_projection_miss_builds_it_once(self, rename_builds):
        problem = Problem(name="p").add_bounds(0, x, 5).add_le(y, x)
        with caching():
            _project_mod.project(problem, [y])
        assert len(rename_builds) == 1

    def test_rename_matches_indices(self):
        joint = _constraints.canonicalize_problems(
            [Problem().add_le(x, n), Problem().add_le(w, y)]
        )
        assert joint._rename is None
        assert {v: int(c.name[3:]) for v, c in joint.rename.items()} == joint.indices
        assert all(c.kind == v.kind for v, c in joint.rename.items())
        assert joint.rename is joint.rename


def _execute(run):
    try:
        return run()
    except OmegaComplexityError:
        return None


class TestStoreCompatibility:
    def test_store_written_with_reference_keys_reads_back_as_hits(self, tmp_path):
        _, sats, projections = harvest()
        sats, projections = sats[:200], projections[:100]
        path = tmp_path / "store.db"
        # Satisfiability is keyed on the peeled remainder; queries that
        # normalization and peeling decide never reach the store.
        remainders = [_solve._predecide(problem) for problem in sats]
        sats = [r for r in remainders if isinstance(r, Problem)]
        assert sats
        expected_sat, expected_projection = [], []
        with PersistentStore(path) as store:
            for problem in sats:
                answer = is_satisfiable(problem)
                reference = reference_canonicalize([problem]).narrow(0)
                store.put(_cache.sat_key(reference), answer)
                expected_sat.append(answer)
            for problem, kept in projections:
                projection = _execute(lambda: _project_mod._project(problem, kept))
                if projection is None:
                    continue
                reference = reference_canonicalize([problem]).narrow(0)
                frozen = _cache.freeze_problems(
                    list(projection.pieces) + [projection.real], reference.rename
                )
                store.put(
                    _cache.project_key(reference, kept),
                    (
                        frozen[:-1],
                        frozen[-1],
                        projection.exact_union,
                        projection.splintered,
                    ),
                )
                expected_projection.append((problem, kept, projection))
        assert expected_projection

        with PersistentStore(path) as store:
            cache = SolverCache(store=store)
            with caching(cache):
                answers = [is_satisfiable(problem) for problem in sats]
                thawed = [
                    _project_mod.project(problem, kept)
                    for problem, kept, _ in expected_projection
                ]
            assert answers == expected_sat
            for got, (_, _, want) in zip(thawed, expected_projection):
                assert [p.canonical() for p in got.pieces] == [
                    p.canonical() for p in want.pieces
                ]
                assert got.real.canonical() == want.real.canonical()
                assert (got.exact_union, got.splintered) == (
                    want.exact_union,
                    want.splintered,
                )
            assert store.misses == 0
            assert store.hits == cache.misses > 0
