"""Solver cache over repeated analyses: the most a shared scope can save.

A default ``analyze()`` runs uncached: most dependence problems are
decided before they are ever keyed, so a cache that lives for one
analysis costs about what it saves.  A cache pays only when it outlives
one analysis, so this benchmark times the best case for that: the
Figure 6 timing corpus swept twice, uncached (the default) against the
same two sweeps under one shared ``caching()`` scope, where the second
sweep repeats every program exactly.  It writes
``results/cache_speedup.txt``.

This is a ceiling, not a traffic model.  ``repro serve`` answers an
unchanged resend from its exact result cache before ``analyze()`` runs,
so its solver cache sees only edited programs and problems shared across
programs; what it saves there is measured on perfbench's
``serve_edits`` (docs/PERFORMANCE.md, "The solver cache in serve").

It asserts only what the code guarantees: the shared scope answers some
queries from the cache, and the results are identical (program by
program, ``tests/analysis/test_cache_determinism.py`` checks the same).
The timings are recorded, not gated.
"""

import time
from contextlib import nullcontext

from repro.analysis import analyze
from repro.omega import SolverCache, caching
from repro.programs import timing_corpus
from repro.reporting import result_to_dict

from .conftest import write_artifact

#: Corpus sweeps per run: the second sweep repeats every program exactly,
#: so the problems it keys were keyed by the first.
SWEEPS = 2


def run_sweeps(cache: SolverCache | None):
    """Time ``SWEEPS`` corpus sweeps, under ``cache`` when one is given."""

    programs = timing_corpus()
    started = time.perf_counter()
    with caching(cache) if cache is not None else nullcontext():
        results = [
            analyze(program) for _ in range(SWEEPS) for program in programs
        ]
    elapsed = time.perf_counter() - started
    return elapsed, [result_to_dict(result) for result in results]


def measure(rounds: int = 3):
    """Best-of-N runs for each configuration, interleaved."""

    best_shared, best_plain = float("inf"), float("inf")
    stats = None
    for _ in range(rounds):
        elapsed_plain, plain = run_sweeps(None)
        best_plain = min(best_plain, elapsed_plain)
        cache = SolverCache()
        elapsed_shared, shared = run_sweeps(cache)
        assert shared == plain
        if elapsed_shared < best_shared:
            best_shared, stats = elapsed_shared, cache.stats()
    return best_shared, best_plain, stats


def test_bench_shared_cache(benchmark):
    benchmark.pedantic(
        lambda: run_sweeps(SolverCache()), rounds=1, iterations=1
    )
    shared, plain, stats = measure()
    queries = stats["hits"] + stats["misses"]
    lines = [
        "Shared solver cache, best case: the Figure 6 timing corpus swept "
        f"{SWEEPS} times",
        "(each sweep after the first repeats it exactly), best of 3 runs",
        "",
        f"  uncached (default)      : {plain:8.3f} s",
        f"  one shared cache scope  : {shared:8.3f} s",
        f"  uncached / shared       : {plain / shared:8.2f} x",
        "",
        f"  queries   : {queries}",
        f"  hits      : {stats['hits']}  ({stats['hit_rate']:.1%} hit rate)",
        f"  misses    : {stats['misses']}",
        f"  evictions : {stats['evictions']}",
        "",
    ]
    artifact = "\n".join(lines)
    write_artifact("cache_speedup.txt", artifact)
    print()
    print(artifact)

    assert stats["hits"] > 0
