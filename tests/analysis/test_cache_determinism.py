"""The solver cache must never change analysis results.

Acceptance gate for the canonical-form cache: ``analyze()`` output —
dependences, statuses, distance vectors, explain trails — is bit-identical
under a ``caching(SolverCache())`` scope and without one (the default), on
the paper examples, the Figure 6 corpus, and a few hundred fuzzed
corpus-style programs.
"""

import random

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.ir.builder import ProgramBuilder
from repro.obs import MetricsRegistry, collecting
from repro.omega import SolverCache, caching
from repro.programs import PAPER_EXAMPLES, corpus_programs
from repro.reporting import result_to_dict


def analyze_cached(program, options=None):
    """One ``analyze()`` call under its own solver-cache scope."""

    with caching(SolverCache()):
        return analyze(program, options)


def run_both(program, **kwargs):
    cached = analyze_cached(program, AnalysisOptions(**kwargs))
    plain = analyze(program, AnalysisOptions(**kwargs))
    return cached, plain


def snapshot(result):
    data = result_to_dict(result)
    if result.explain is not None:
        data["explain"] = result.explain.render()
    return data


@pytest.mark.parametrize(
    "make_program",
    PAPER_EXAMPLES.values(),
    ids=[f"example{number}" for number in PAPER_EXAMPLES],
)
def test_paper_examples_bit_identical(make_program):
    cached, plain = run_both(make_program(), explain=True)
    assert snapshot(cached) == snapshot(plain)
    assert cached.cache_stats is not None
    assert plain.cache_stats is None


@pytest.mark.parametrize(
    "program", corpus_programs(), ids=lambda program: program.name
)
def test_corpus_bit_identical(program):
    cached, plain = run_both(program)
    assert snapshot(cached) == snapshot(plain)


def test_default_analyze_runs_uncached():
    registry = MetricsRegistry()
    with collecting(registry):
        result = analyze(PAPER_EXAMPLES[2]())
    assert result.cache_stats is None
    assert all(
        value == 0
        for name, value in registry.to_dict()["counters"].items()
        if name.startswith("omega.cache.")
    )
    assert "omega.cache.size" not in registry.to_dict()["gauges"]


def test_analyze_adopts_an_enclosing_cache_scope():
    with caching() as shared:
        first = analyze(PAPER_EXAMPLES[2]())
        second = analyze(PAPER_EXAMPLES[2]())
    assert first.cache_stats["misses"] > 0
    # The second run answers from the first run's entries.
    assert second.cache_stats == shared.stats()
    assert shared.hits > first.cache_stats["hits"]


def test_corpus_produces_hits():
    total_hits = 0
    for program in corpus_programs():
        result = analyze_cached(program)
        total_hits += result.cache_stats["hits"]
    assert total_hits > 0


# ---------------------------------------------------------------------------
# Fuzzing: random corpus-style programs
# ---------------------------------------------------------------------------

ARRAYS = ("a", "b", "c")
SYMBOLS = ("n", "m")


def random_subscript(rng, loop_vars):
    """A random affine subscript over the live loop variables."""

    if not loop_vars or rng.random() < 0.15:
        return rng.randint(0, 4)
    var = ProgramBuilder.v(rng.choice(loop_vars))
    scale = rng.choice((1, 1, 1, 2))
    expr = var * scale + rng.randint(-2, 2)
    if len(loop_vars) > 1 and rng.random() < 0.3:
        expr = expr + ProgramBuilder.v(rng.choice(loop_vars))
    return expr


def random_bound(rng):
    return rng.choice((rng.randint(4, 12), *SYMBOLS))


def random_program(rng, index):
    """A small random loop nest of writes and reads over shared arrays."""

    builder = ProgramBuilder(f"fuzz{index}")
    depth = rng.randint(1, 2)
    ranks = {array: rng.randint(1, depth) for array in ARRAYS}
    loop_vars: list[str] = []

    def emit_statements():
        for _ in range(rng.randint(1, 3)):
            array = rng.choice(ARRAYS)
            subs = [
                random_subscript(rng, loop_vars) for _ in range(ranks[array])
            ]
            if rng.random() < 0.6:
                builder.write(array, *subs)
            else:
                builder.read_stmt(array, *subs)

    def nest(level):
        if level == depth:
            emit_statements()
            return
        name = f"i{level + 1}"
        with builder.loop(name, rng.randint(0, 2), random_bound(rng)):
            loop_vars.append(name)
            if rng.random() < 0.3:
                emit_statements()
            nest(level + 1)
            loop_vars.pop()

    nest(0)
    return builder.build()


def test_fuzzed_programs_bit_identical():
    """analyze() is identical cache on vs off across >= 200 random programs."""

    rng = random.Random(19920617)  # PLDI'92; fixed for reproducibility
    checked = 0
    hits = 0
    for index in range(220):
        program = random_program(rng, index)
        cached, plain = run_both(program)
        assert snapshot(cached) == snapshot(plain), program.name
        hits += cached.cache_stats["hits"]
        checked += 1
    assert checked >= 200
    assert hits > 0  # the fuzz population actually exercises the cache
