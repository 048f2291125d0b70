"""The contract of ``gist``'s fast check 4: cheaper, same answers.

Fast check 4 (implication by a pair) now answers a pair that leaves
some variable of ``not e`` uncovered from the pair's remaining
constraints, solves a three-constraint problem only for covering pairs,
and is skipped by implication tests.  A full gist must keep exactly the
text and the :class:`GistStats` decision counts of the original
implementation (:mod:`tests.omega.reference_gist`), and an implication
test its truth value, with the solver cache on and off.  The inputs are
the gists the analysis issues over a slice of the corpus, the Example 7
and 8 queries, seeded random pairs and hand-made fixtures.
"""

import dataclasses
import functools
import importlib
import random

import pytest

from repro.analysis import DependenceKind
from repro.analysis.symbolic import (
    ArrayProperty,
    PropertyRegistry,
    dependence_conditions,
    generate_query,
    symbolic_dependence_exists,
)
from repro.obs import MetricsRegistry, collecting
from repro.omega import Problem, Variable, le
from repro.omega.cache import caching
from repro.omega.constraints import Constraint, Relation
from repro.omega.errors import OmegaComplexityError
from repro.omega.gist import GistStats, gist, implies
from repro.omega.terms import LinearExpr
from repro.programs import example7, example8
from tests.omega.reference_gist import reference_gist
from tests.omega.test_canonical_contract import harvest

# ``repro.omega`` re-exports a function named like the module.
_gist_mod = importlib.import_module("repro.omega.gist")

x, y, z = Variable("x"), Variable("y"), Variable("z")
n = Variable("n", "sym")
POOL = [x, y, z, n]

#: The decision counts; ``pair_tests`` counts work the reference never
#: skipped, so it is compared separately.
DECISIONS = [
    f.name for f in dataclasses.fields(GistStats) if f.name != "pair_tests"
]


def run(compute, p, q, stop_if_not_true):
    stats = GistStats()
    try:
        result = compute(
            p,
            q,
            stats,
            stop_if_not_true=stop_if_not_true,
            use_fast_checks=True,
        )
    except OmegaComplexityError:
        return "raised", None
    return result, stats


def same_gist(p, q):
    """Assert the new gist matches the reference on ``(p, q)``."""

    want, want_stats = run(reference_gist, p, q, False)
    got, got_stats = run(_gist_mod._gist, p, q, False)
    if want == "raised":
        return
    assert str(got) == str(want), f"gist {p} given {q}"
    assert got.constraints == want.constraints
    for name in DECISIONS:
        assert getattr(got_stats, name) == getattr(want_stats, name), (
            name,
            str(p),
            str(q),
        )

    want, _ = run(reference_gist, p, q, True)
    got, _ = run(_gist_mod._gist, p, q, True)
    if want != "raised":
        assert got.is_trivially_true() == want.is_trivially_true()


def check_all(pairs, cache):
    if cache:
        with caching():
            for p, q in pairs:
                same_gist(p, q)
    else:
        for p, q in pairs:
            same_gist(p, q)


@functools.lru_cache(maxsize=None)
def corpus_pairs():
    """The (p, q) of every gist and single-piece implication keyed over
    the corpus slice of :func:`harvest`."""

    groups, _, _ = harvest()
    return [tuple(group) for group in groups if len(group) == 2]


@functools.lru_cache(maxsize=None)
def example_pairs():
    """The (p, q) of every gist the Example 7 and 8 queries compute."""

    recorded = []
    real = _gist_mod._gist

    def recording(p, q, stats, **flags):
        recorded.append((Problem(p.constraints), Problem(q.constraints)))
        return real(p, q, stats, **flags)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_gist_mod, "_gist", recording)
        program = example7()
        write = [a for a in program.writes() if a.array == "A"][0]
        read = [a for a in program.reads() if a.array == "A"][0]
        dependence_conditions(
            write,
            read,
            DependenceKind.FLOW,
            assertions=[le(50, n), le(n, 100)],
            array_bounds=program.array_bounds,
            keep_syms=[Variable(s, "sym") for s in ("x", "y", "m")],
        )
        program = example8()
        write = [a for a in program.writes() if a.array == "A"][0]
        read = [a for a in program.reads() if a.array == "A"][0]
        for sink, kind in (
            (write, DependenceKind.OUTPUT),
            (read, DependenceKind.FLOW),
        ):
            generate_query(
                write, sink, kind, array_bounds=program.array_bounds
            )
        registry = PropertyRegistry().declare("Q", ArrayProperty.PERMUTATION)
        symbolic_dependence_exists(
            write,
            write,
            DependenceKind.OUTPUT,
            registry,
            array_bounds=program.array_bounds,
        )
    return recorded


def random_problem(rng, size):
    constraints = []
    for _ in range(rng.randint(1, size)):
        chosen = rng.sample(POOL, rng.randint(1, 3))
        terms = {var: rng.choice([-2, -1, -1, 1, 1, 2]) for var in chosen}
        relation = Relation.EQ if rng.random() < 0.2 else Relation.GE
        constraints.append(
            Constraint(LinearExpr(terms, rng.randint(-4, 4)), relation)
        )
    return Problem(constraints, "random")


def random_pair(seed):
    rng = random.Random(seed)
    q = random_problem(rng, 5)
    for var in rng.sample([x, y, z], rng.randint(0, 3)):
        q.add_bounds(-6, var, 6)
    return random_problem(rng, 4), q


RANDOM = [random_pair(seed) for seed in range(300)]

#: ``x + y = 0 and x - y = 1`` has no integer solution, yet normalization
#: does not see it: the pair leaves z uncovered, and its subset without
#: z implies ``x + z >= 0`` on its own.
UNSAT_COMPANIONS = (
    Problem(name="p").add_ge(x + z),
    Problem(name="q").add_eq(x + y).add_eq(x - y - 1).add_ge(z),
)

#: ``x >= 0`` given ``x = y and y >= 0``: the equality covers x.
EQUALITY_COMPANION = (
    Problem(name="p").add_ge(x),
    Problem(name="q").add_eq(x - y).add_ge(y),
)


class TestSameAnswers:
    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_corpus_gists(self, cache):
        pairs = corpus_pairs()
        assert len(pairs) > 100
        check_all(pairs, cache)

    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_example_queries(self, cache):
        pairs = example_pairs()
        assert pairs
        check_all(pairs, cache)

    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_random_pairs(self, cache):
        check_all(RANDOM, cache)

    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_fixtures(self, cache):
        check_all([UNSAT_COMPANIONS, EQUALITY_COMPANION], cache)

    def test_inputs_reach_the_pair_check(self):
        # The comparison means something only if check 4 drops
        # constraints on these inputs.
        dropped = 0
        for p, q in corpus_pairs() + RANDOM:
            stats = GistStats()
            try:
                _gist_mod._gist(
                    p, q, stats, stop_if_not_true=False, use_fast_checks=True
                )
            except OmegaComplexityError:
                continue
            dropped += stats.dropped_pairwise
        assert dropped > 20


class TestFixtures:
    def test_unsatisfiable_companions_imply_by_their_subset(self):
        stats = GistStats()
        result = gist(*UNSAT_COMPANIONS, stats=stats)
        assert result.is_trivially_true()
        assert stats.dropped_pairwise == 1
        assert stats.pair_tests == 0

    def test_equality_companion_covers(self):
        stats = GistStats()
        result = gist(*EQUALITY_COMPANION, stats=stats)
        assert result.is_trivially_true()
        assert stats.dropped_pairwise == 1
        assert stats.pair_tests == 1

    def test_implication_skips_the_pair_check(self):
        p, q = EQUALITY_COMPANION
        stats = GistStats()
        result = gist(p, q, stats=stats, stop_if_not_true=True)
        assert result.is_trivially_true()
        assert stats.dropped_pairwise == 0
        assert stats.dropped_naive == 1
        assert implies(q, p)


class TestObservability:
    def test_pair_tests_are_counted(self):
        with collecting(MetricsRegistry()) as registry:
            gist(*EQUALITY_COMPANION)
        assert registry.counter("omega.gist_pair_tests") == 1

    def test_uncovered_pairs_build_no_triple(self):
        with collecting(MetricsRegistry()) as registry:
            gist(*UNSAT_COMPANIONS)
        assert registry.counter("omega.gist_pair_tests") == 0
