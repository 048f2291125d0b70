"""SolverService mechanics: activation, dedup, caching, task loops.

The service is a serial pass-through that must be indistinguishable from
calling the omega entry points directly.  These tests pin the mechanics:
stack discipline, cache activation, batch de-duplication counters,
ordering guarantees and first-failure replay.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.omega import Problem, SolverCache, Variable
from repro.omega.errors import OmegaComplexityError
from repro.solver import (
    SolverQuery,
    SolverService,
    current_service,
    is_satisfiable,
    satisfiable_batch,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def bounded(var, low, high):
    return Problem().add_bounds(low, var, high)


def unsat(var):
    return Problem().add_ge(var - 3).add_le(var, 1)


def cycle():
    """x > y > z > x: unsatisfiable, but neither normalization nor
    peeling one-sided variables can tell, so it reaches the cache."""

    return Problem().add_ge(x - y - 1).add_ge(y - z - 1).add_ge(z - x - 1)


@pytest.fixture
def service():
    service = SolverService(cache=SolverCache())
    with service.activate():
        yield service


class TestActivation:
    def test_stack_discipline(self):
        assert current_service() is None
        outer = SolverService()
        inner = SolverService()
        with outer.activate():
            assert current_service() is outer
            with inner.activate():
                assert current_service() is inner
            assert current_service() is outer
        assert current_service() is None

    def test_serial_cached_service_activates_its_lru(self):
        from repro.omega import current_cache

        service = SolverService(cache=SolverCache())
        with service.activate():
            assert current_cache() is service.cache
        assert current_cache() is not service.cache

    def test_invalid_configuration_rejected(self):
        # The constructor takes only the cache.
        with pytest.raises(TypeError):
            SolverService(workers=2)


class TestFacade:
    def test_facade_dispatches_to_active_service(self):
        service = SolverService()
        with service.activate():
            assert is_satisfiable(bounded(x, 0, 5))
            assert not is_satisfiable(unsat(x))
        assert service.queries == 2

    def test_facade_falls_back_to_omega_without_a_service(self):
        assert current_service() is None
        assert is_satisfiable(bounded(x, 0, 5))
        assert satisfiable_batch([bounded(x, 0, 5), unsat(x)]) == [True, False]


class TestBatches:
    def test_sat_batch_preserves_submission_order(self, service):
        problems = [bounded(x, 0, 5), unsat(x), bounded(y, 2, 9)]
        assert service.sat_batch(problems) == [True, False, True]

    def test_duplicate_queries_compute_once(self, service):
        p = bounded(x, 0, 5)
        answers = service.sat_batch([p, p, p, cycle()])
        assert answers == [True, True, True, False]
        assert service.batch_dedup == 2
        # The cache saw only the two distinct problems.
        assert service.cache_stats()["misses"] == 2

    def test_submit_batch_mixes_query_kinds(self, service):
        p = bounded(x, 0, 5)
        sat_q = SolverQuery.sat(p)
        proj_q = SolverQuery.project(p, [x])
        implies_q = SolverQuery.implies(bounded(x, 1, 3), p)
        sat_answer, projection, implied = service.submit_batch(
            [sat_q, proj_q, implies_q]
        )
        assert sat_answer is True
        assert implied is True
        assert projection.kept == frozenset([x])
        assert projection.dark.canonical() == p.canonical()

    def test_empty_batch(self, service):
        assert service.sat_batch([]) == []
        assert service.submit_batch([]) == []

    def test_batch_raises_first_failure_in_submission_order(self, service):
        def ok():
            return True

        def boom(message):
            def fail():
                raise OmegaComplexityError(message)

            return fail

        with pytest.raises(OmegaComplexityError, match="first"):
            service._run_batch(
                [
                    (("t", 1), ok, (), "query", None, ""),
                    (("t", 2), boom("first"), (), "query", None, ""),
                    (("t", 3), boom("second"), (), "query", None, ""),
                ]
            )


class TestCacheStats:
    def test_cache_stats_shape_matches_the_cli_contract(self, service):
        service.sat(bounded(x, 0, 5))
        stats = service.cache_stats()
        assert {
            "hits",
            "misses",
            "evictions",
            "size",
            "maxsize",
            "hit_rate",
        } <= set(stats)

    def test_serial_cache_stats_come_from_the_lru(self):
        service = SolverService(cache=SolverCache())
        with service.activate():
            is_satisfiable(bounded(x, 0, 5))
            is_satisfiable(bounded(x, 0, 5))
        assert service.cache_stats()["hits"] == 1

    def test_uncached_service_has_no_cache_stats(self):
        service = SolverService()
        p = bounded(x, 0, 5)
        assert service.sat(p) and service.sat(p)
        assert service.cache_stats() is None


class TestMap:
    def test_results_in_item_order(self, service):
        assert service.map(lambda n: n * n, range(6)) == [
            0, 1, 4, 9, 16, 25,
        ]
        assert service.tasks == 6

    def test_serial_map_runs_inline(self):
        service = SolverService()
        order = []

        def record(n):
            order.append(n)
            return n

        service.map(record, [3, 1, 2])
        assert order == [3, 1, 2]

    def test_first_exception_in_item_order_wins(self, service):
        def explode(n):
            if n % 2:
                raise ValueError(f"item {n}")
            return n

        with pytest.raises(ValueError, match="item 1"):
            service.map(explode, [0, 1, 2, 3])


class TestImportFootprint:
    def test_analysis_and_serve_load_no_pool_machinery(self):
        # The service is serial: importing the analysis and the daemon
        # must not pull in process or thread pool modules.
        probe = (
            "import sys, repro.analysis, repro.serve\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
