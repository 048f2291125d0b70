"""SolverCache behavior: LRU bounds, activation scoping, thread isolation."""

import threading

import pytest

from repro.omega import (
    Problem,
    SolverCache,
    Variable,
    cache_enabled,
    caching,
    current_cache,
    is_satisfiable,
    project,
)
from repro.omega.cache import MISSING, Raised, unwrap
from repro.omega.errors import OmegaComplexityError

x, y = Variable("x"), Variable("y")


def bounded(var, low, high):
    return Problem().add_bounds(low, var, high)


def test_no_cache_outside_activation():
    assert current_cache() is None
    assert not cache_enabled()


def test_caching_scopes_nest_and_unwind():
    with caching() as outer:
        assert current_cache() is outer
        with caching() as inner:
            assert current_cache() is inner
        assert current_cache() is outer
    assert current_cache() is None


def test_repeated_queries_hit():
    with caching() as cache:
        assert is_satisfiable(bounded(x, 0, 5))
        assert is_satisfiable(bounded(x, 0, 5))
        assert is_satisfiable(bounded(y, 0, 5))  # alpha-equivalent: hits too
    assert cache.misses == 1
    assert cache.hits == 2
    assert cache.hit_rate == pytest.approx(2 / 3)


def test_hits_preserve_answers():
    sat = bounded(x, 0, 5)
    unsat = Problem().add_ge(x - 3).add_le(x, 1)
    with caching():
        assert is_satisfiable(sat) is is_satisfiable(sat.copy()) is True
        assert is_satisfiable(unsat) is is_satisfiable(unsat.copy()) is False


def test_projection_hits_translate_to_caller_variables():
    def pyramid(a, b):
        return Problem().add_bounds(0, a, 5).add_le(b + 1, a).add_le(a, 5 * b)

    with caching() as cache:
        first = project(pyramid(x, y), [x])
        renamed = project(pyramid(y, x), [y])
    assert cache.hits > 0
    assert [str(p) for p in first.pieces] == ["-x+5 >= 0 and x-2 >= 0"]
    assert [str(p) for p in renamed.pieces] == ["-y+5 >= 0 and y-2 >= 0"]
    assert renamed.kept == frozenset([y])


def test_lru_eviction_is_bounded():
    cache = SolverCache(maxsize=2)
    with caching(cache):
        # From 1: 0 <= x <= 0 normalizes to x = 0, which the peel decides
        # before the cache is consulted.
        for bound in range(1, 6):
            is_satisfiable(bounded(x, 0, bound))
    assert len(cache) == 2
    assert cache.evictions == 3
    assert cache.stats()["maxsize"] == 2


def test_lru_keeps_recently_used_entries():
    cache = SolverCache(maxsize=2)
    with caching(cache):
        is_satisfiable(bounded(x, 0, 1))  # A
        is_satisfiable(bounded(x, 0, 2))  # B
        is_satisfiable(bounded(x, 0, 1))  # touch A
        is_satisfiable(bounded(x, 0, 3))  # C evicts B
        is_satisfiable(bounded(x, 0, 1))  # A still cached
    assert cache.hits == 2
    assert cache.evictions == 1


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        SolverCache(maxsize=0)


def test_clear_resets_entries_but_not_counters():
    with caching() as cache:
        is_satisfiable(bounded(x, 0, 5))
        cache.clear()
        assert len(cache) == 0
        is_satisfiable(bounded(x, 0, 5))
    assert cache.misses == 2


def test_raised_entries_replay_the_exception():
    entry = Raised("cube budget exceeded")
    with pytest.raises(OmegaComplexityError, match="cube budget"):
        unwrap(entry)
    assert unwrap(True) is True
    assert unwrap(MISSING) is MISSING


def test_thread_isolation():
    """A cache activated on one thread is invisible to others."""

    seen: dict[str, object] = {}
    barrier = threading.Barrier(2)

    def with_cache():
        with caching() as cache:
            barrier.wait()
            is_satisfiable(bounded(x, 0, 5))
            is_satisfiable(bounded(x, 0, 5))
            seen["cache"] = (cache.hits, cache.misses)

    def without_cache():
        barrier.wait()
        seen["other"] = current_cache()
        is_satisfiable(bounded(x, 0, 5))

    threads = [
        threading.Thread(target=with_cache),
        threading.Thread(target=without_cache),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen["cache"] == (1, 1)
    assert seen["other"] is None


def test_per_thread_caches_do_not_share_entries():
    caches: list[SolverCache] = []
    lock = threading.Lock()

    def worker():
        with caching() as cache:
            is_satisfiable(bounded(x, 0, 5))
            with lock:
                caches.append(cache)

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Every thread misses once: no cross-thread sharing of entries.
    assert [(c.hits, c.misses) for c in caches] == [(0, 1)] * 3
