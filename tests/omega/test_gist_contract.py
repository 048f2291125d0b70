"""The contract of ``gist``: full gists are the paper's naive algorithm,
implication tests keep fast checks 1-3.

A full gist (``stop_if_not_true=False``) must keep exactly the text, the
constraints and the :class:`GistStats` decision counts of the naive
algorithm in :mod:`tests.omega.reference_gist`.  Against that module's
fast-check path, which full gists ran before, it must print the same
text wherever ``p and q`` is satisfiable; where it is not, any gist
false under q is right, so only ``gist and q == p and q`` is asserted.
An implication test must keep the fast-check reference's truth value
and its fast check 1-3 decisions.  Both hold with the solver cache on
and off.  The inputs are the gists the analysis issues over a slice of
the corpus, the Example 7 and 8 queries, seeded random pairs and
hand-made fixtures.
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
from repro.omega import Problem, Variable, is_satisfiable, le
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


@dataclasses.dataclass
class ReferenceStats(GistStats):
    """:class:`GistStats` plus the fast check 4 count the reference keeps."""

    dropped_pairwise: int = 0

    @property
    def dropped(self) -> int:
        return super().dropped + self.dropped_pairwise


#: The decisions fast checks 1-3 make.
FAST_CHECKS = ["dropped_single", "kept_unmatched_bound", "kept_no_positive_pair"]


def run(compute, p, q, stop_if_not_true, **flags):
    stats = ReferenceStats() if flags else GistStats()
    try:
        result = compute(p, q, stats, stop_if_not_true=stop_if_not_true, **flags)
    except OmegaComplexityError:
        return "raised", None
    return result, stats


def same_gist(p, q):
    """Assert the gist and the implication test keep their contract on
    ``(p, q)``."""

    got, got_stats = run(_gist_mod._gist, p, q, False)
    want, want_stats = run(reference_gist, p, q, False, use_fast_checks=False)
    if "raised" not in (got, want):
        assert str(got) == str(want), f"gist {p} given {q}"
        assert got.constraints == want.constraints
        for field in dataclasses.fields(GistStats):
            assert getattr(got_stats, field.name) == getattr(
                want_stats, field.name
            ), (field.name, str(p), str(q))

        before, _ = run(reference_gist, p, q, False, use_fast_checks=True)
        if before != "raised":
            try:
                consistent = is_satisfiable(p.conjoin(q))
            except OmegaComplexityError:
                consistent = None
            if consistent:
                assert str(got) == str(before), f"gist {p} given {q}"
            elif consistent is False:
                assert not is_satisfiable(got.conjoin(q))

    got, got_stats = run(_gist_mod._gist, p, q, True)
    want, want_stats = run(reference_gist, p, q, True, use_fast_checks=True)
    if "raised" not in (got, want):
        assert got.is_trivially_true() == want.is_trivially_true()
        for name in FAST_CHECKS:
            assert getattr(got_stats, name) == getattr(want_stats, name), (
                name,
                str(p),
                str(q),
            )
        if got.is_trivially_true():
            # Every constraint dropped: the reference's fast check 4 drops
            # fall to the naive test here.
            assert got_stats.dropped == want_stats.dropped


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

    def test_inputs_reach_both_paths(self):
        # The comparison means something only if these inputs make the
        # naive algorithm drop constraints in full gists, fast checks 1-3
        # decide some implications, and some ``p and q`` is unsatisfiable.
        dropped_naive = decided_fast = inconsistent = 0
        for p, q in corpus_pairs() + RANDOM:
            for stop_if_not_true in (False, True):
                result, stats = run(_gist_mod._gist, p, q, stop_if_not_true)
                if result == "raised":
                    continue
                if stop_if_not_true:
                    decided_fast += sum(getattr(stats, f) for f in FAST_CHECKS)
                else:
                    dropped_naive += stats.dropped_naive
                    inconsistent += not is_satisfiable(p.conjoin(q))
        assert dropped_naive > 20
        assert decided_fast > 20
        assert inconsistent > 20


class TestFixtures:
    def test_unsatisfiable_companions_imply_by_their_subset(self):
        stats = GistStats()
        result = gist(*UNSAT_COMPANIONS, stats=stats)
        assert result.is_trivially_true()
        assert stats.naive_tests == 1
        assert stats.dropped_naive == 1

    def test_equality_companion_covers(self):
        stats = GistStats()
        result = gist(*EQUALITY_COMPANION, stats=stats)
        assert result.is_trivially_true()
        assert stats.naive_tests == 1
        assert stats.dropped_naive == 1

    def test_implication_skips_the_pair_check(self):
        p, q = EQUALITY_COMPANION
        stats = GistStats()
        result = gist(p, q, stats=stats, stop_if_not_true=True)
        assert result.is_trivially_true()
        assert stats.dropped_naive == 1
        assert implies(q, p)


class TestObservability:
    def test_naive_tests_are_counted(self):
        with collecting(MetricsRegistry()) as registry:
            gist(*EQUALITY_COMPANION)
        assert registry.counter("omega.gist_naive_tests") == 1
        assert registry.counter("omega.gist_simplifications") == 1
