"""SolverService mechanics: activation, caching, batches.

The service is a serial pass-through that must be indistinguishable from
calling the omega entry points directly.  These tests pin the mechanics:
stack discipline, cache activation, ordering guarantees, and batches
that behave exactly like the scalar calls they loop over.
"""

import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro.guard import Budget, FaultPlan, governed, injecting, subject
from repro.obs.audit import AuditLog, auditing
from repro.omega import Problem, SolverCache, Variable
from repro.omega.errors import OmegaComplexityError
from repro.solver import (
    QueryKind,
    SolverQuery,
    SolverService,
    current_service,
    is_satisfiable,
    satisfiable_batch,
)
from repro.solver import service as service_module
from tests.solver.test_property_identity import fingerprint

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

    def test_submit_batch_mixes_query_kinds(self, service):
        p = bounded(x, 0, 5)
        sat_answer, projection, unsat_answer = service.submit_batch(
            [
                SolverQuery.sat(p),
                SolverQuery.project(p, [x]),
                SolverQuery.sat(unsat(x)),
            ]
        )
        assert sat_answer is True
        assert unsat_answer is False
        assert projection.kept == frozenset([x])
        assert projection.dark.canonical() == p.canonical()

    def test_empty_batch(self, service):
        assert service.sat_batch([]) == []
        assert service.submit_batch([]) == []

    def test_complexity_failure_raises_at_its_own_cell(self, monkeypatch):
        bad = cycle()
        solved = []

        def is_satisfiable_or_fail(problem):
            solved.append(problem)
            if problem is bad:
                raise OmegaComplexityError("too hard", site="omega.sat")
            return True

        monkeypatch.setattr(
            service_module, "_is_satisfiable", is_satisfiable_or_fail
        )
        first, last = bounded(x, 0, 5), bounded(y, 2, 9)
        service, log = SolverService(), AuditLog()
        with auditing(log), subject("pair"):
            with pytest.raises(OmegaComplexityError, match="too hard"):
                service.sat_batch([first, bad, last])
        # The cell after the failure never runs and is never noted.
        assert solved == [first, bad]
        assert service.queries == 2
        footprint = log.footprints["pair"]
        assert footprint.queries == {"sat": 2}
        assert footprint.inexact_reasons == {"complexity"}


def batch_problems():
    return [bounded(x, 0, 5), unsat(x), cycle(), bounded(y, 2, 9)]


def batch_queries():
    sat_p, unsat_p, cycle_p, other = batch_problems()
    return [
        SolverQuery.sat(sat_p),
        SolverQuery.project(cycle_p, [x]),
        SolverQuery.sat(unsat_p),
        SolverQuery.project(other, [y]),
        SolverQuery.sat(cycle_p),
    ]


def scalar_answer(service, query):
    if query.kind is QueryKind.SAT:
        return service.sat(query.problem)
    return service.project(query.problem, query.keep)


@contextmanager
def under_deadline():
    with governed(Budget(deadline_ms=0.0)) as gov:
        yield gov


@contextmanager
def under_faults():
    plan = FaultPlan(seed=20260806, rate=0.1, kinds=("timeout", "budget"))
    with injecting(plan), governed(Budget.unlimited()) as gov:
        yield gov


def observe(scope, run):
    """Answers, audit footprints and degradations of one governed run."""

    service, log = SolverService(), AuditLog()
    with scope() as gov, auditing(log), subject("pair"):
        answers = run(service)
    return (
        [fingerprint(answer) for answer in answers],
        {key: fp.to_dict() for key, fp in log.footprints.items()},
        [
            (event.subject, event.kind, event.site, event.budget, event.answer)
            for event in gov.log
        ],
        service.queries,
    )


class TestBatchesMatchScalarCalls:
    """A batch leaves exactly what its scalar calls leave, degradation
    and audit notes included."""

    @pytest.mark.parametrize("scope", [under_deadline, under_faults])
    def test_sat_batch(self, scope):
        batched = observe(scope, lambda s: s.sat_batch(batch_problems()))
        scalar = observe(
            scope, lambda s: [s.sat(p) for p in batch_problems()]
        )
        assert batched == scalar
        assert batched[2], "the scope degraded nothing"

    @pytest.mark.parametrize("scope", [under_deadline, under_faults])
    def test_submit_batch(self, scope):
        batched = observe(scope, lambda s: s.submit_batch(batch_queries()))
        scalar = observe(
            scope, lambda s: [scalar_answer(s, q) for q in batch_queries()]
        )
        assert batched == scalar
        assert batched[2], "the scope degraded nothing"

    def test_faults_leave_some_cells_exact(self):
        _answers, _audit, degradations, queries = observe(
            under_faults, lambda s: s.submit_batch(batch_queries())
        )
        assert 0 < len(degradations) < queries


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
