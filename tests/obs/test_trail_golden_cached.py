"""Golden trails under a solver cache: the same stored digests, cached.

A default ``analyze()`` runs uncached, so ``test_trail_golden`` pins the
uncached trails.  ``repro.serve`` and ``analyze --store`` run under a
cache, and a cache must change no answer and no trail.  Each analysis
here runs in a scope of its own that one earlier analysis of the same
program has already filled, so the queries it keys are answered from
the cache — replayed results, replayed ``Raised`` outcomes and all — and
its explain and provenance views must match the uncached
digests.
"""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.omega import SolverCache, caching

from .test_trail_golden import (
    CONFIGS,
    PROGRAMS,
    digests,
    golden_digests,
    run,
)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cached_trail_matches_golden(config, name):
    program = PROGRAMS[name]
    with caching(SolverCache()) as cache:
        analyze(program, AnalysisOptions(**CONFIGS[config]))
        filled = cache.hits + cache.misses
        views, _ = run(program, config)
    assert digests(views) == golden_digests()[config][name]
    if filled:
        assert cache.hits > 0
