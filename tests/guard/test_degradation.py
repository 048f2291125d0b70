"""Graceful degradation: sound conservative answers with full provenance.

The solver service is the shield: budget exhaustion inside any Omega query
is caught at the query boundary and replaced by the sound conservative
answer for that query kind (more dependences, never fewer), with a
:class:`DegradationEvent` recording which dependence paid for it.  The
``raise`` policy (the CLI's ``--strict``) propagates instead.
"""

import json

import pytest

from repro.analysis.dependences import DependenceStatus
from repro.analysis.engine import AnalysisOptions, analyze
from repro.guard import Budget, BudgetExhausted, governed, subject
from repro.omega import Problem, Variable
from repro.programs import cholsky, example1
from repro.reporting.serialize import result_to_dict
from repro.solver import SolverService

x, y = Variable("x"), Variable("y")


def satisfiable():
    return Problem().add_bounds(0, x, 5)


def unsatisfiable():
    return Problem().add_ge(x - 3).add_le(x, 1)


def needs_elimination():
    return Problem().add_bounds(0, x, 5).add_le(x, y).add_le(y, x + 1)


def live_deps(result):
    """Identity of every live dependence, comparable across runs."""

    live = set()
    for kind, deps in (
        ("flow", result.flow),
        ("anti", result.anti),
        ("output", result.output),
    ):
        for dep in deps:
            if dep.status is DependenceStatus.LIVE:
                live.add((kind, str(dep.src), str(dep.dst)))
    return live


class TestServiceDegradation:
    def test_every_kind_degrades_to_its_conservative_answer(self):
        service = SolverService(cache=False)
        problem, other = satisfiable(), unsatisfiable()
        with governed(Budget(deadline_ms=0.0)) as gov:
            assert service.sat(problem) is True
            projection = service.project(problem, [x])
            assert projection.kept == frozenset({x})
            assert list(projection.pieces) == []
            assert projection.exact_union is False
            gisted = service.gist(problem, other)
            assert [str(c) for c in gisted.constraints] == [
                str(c) for c in problem.constraints
            ]
            assert service.implies(problem, other) is False
            assert service.implies_union(problem, [other]) is False
        assert [event.kind for event in gov.log] == [
            "sat",
            "project",
            "gist",
            "implies",
            "implies-union",
        ]
        assert all(
            event.site == "solver.query" and event.budget == "deadline"
            for event in gov.log
        )
        assert service.degraded == 5
        # Outside the governed scope the very same query is exact again.
        assert service.sat(unsatisfiable()) is False

    def test_degraded_sat_assumes_a_dependence(self):
        service = SolverService(cache=False)
        with governed(Budget(deadline_ms=0.0)):
            assert service.sat(unsatisfiable()) is True  # conservative lie
        assert service.sat(unsatisfiable()) is False  # exact truth

    def test_core_meters_fire_inside_the_omega_core(self):
        service = SolverService(cache=False)
        with governed(Budget(fm_steps=0)) as gov:
            assert service.sat(needs_elimination()) is True
        assert len(gov.log.events) == 1
        event = gov.log.events[0]
        assert event.budget == "fm_steps"
        assert event.site.startswith("omega.")

    def test_degradations_carry_the_subject(self):
        service = SolverService(cache=False)
        with governed(Budget(deadline_ms=0.0)) as gov:
            with subject("flow: A(i) -> A(i-1)"):
                service.sat(satisfiable())
        event = gov.log.events[0]
        assert event.subject == "flow: A(i) -> A(i-1)"
        assert "flow: A(i) -> A(i-1)" in event.describe()

    def test_strict_policy_propagates_structured_failure(self):
        service = SolverService(cache=False)
        with governed(Budget(deadline_ms=0.0), policy="raise"):
            with pytest.raises(BudgetExhausted) as err:
                service.sat(satisfiable())
        assert err.value.budget == "deadline"
        assert err.value.site == "solver.query"
        assert service.degraded == 0

    def test_batches_degrade_per_cell(self):
        service = SolverService(cache=False)
        with governed(Budget(deadline_ms=0.0)) as gov:
            assert service.sat_batch([satisfiable(), unsatisfiable()]) == [
                True,
                True,
            ]
        assert len(gov.log.events) == 2

    def test_degraded_answers_are_never_memoized(self):
        service = SolverService(cache=True)
        with service.activate(), governed(Budget(deadline_ms=0.0)):
            assert service.sat(unsatisfiable()) is True
        # Had the degraded True (or the BudgetExhausted) been memoized,
        # this exact re-query could never recover the exact answer.
        with service.activate():
            assert service.sat(unsatisfiable()) is False


class TestEngineDegradation:
    def test_ungoverned_runs_have_no_degradation_log(self):
        result = analyze(example1())
        assert result.degradations is None
        assert result.degraded() is False

    def test_deadline_run_completes_degraded_and_sound(self):
        exact = analyze(example1())
        degraded = analyze(example1(), AnalysisOptions(deadline_ms=0.0))
        assert degraded.degraded()
        events = list(degraded.degradations)
        assert events
        assert all(event.site for event in events)
        assert any(event.subject for event in events)
        assert live_deps(degraded) >= live_deps(exact)

    def test_cholsky_under_a_one_ms_deadline(self):
        """The ISSUE's acceptance scenario, end to end."""

        exact = analyze(cholsky())
        degraded = analyze(cholsky(), AnalysisOptions(deadline_ms=1.0))
        assert degraded.degraded()
        events = list(degraded.degradations)
        assert events, "a 1 ms deadline must degrade something"
        assert all(event.site for event in events)
        assert degraded.degraded_subjects()
        assert live_deps(degraded) >= live_deps(exact)

    def test_cholsky_strict_deadline_raises(self):
        with pytest.raises(BudgetExhausted) as err:
            analyze(cholsky(), AnalysisOptions(deadline_ms=1.0, policy="raise"))
        assert err.value.budget == "deadline"
        assert err.value.site

    def test_degradations_serialize_to_json(self):
        degraded = analyze(example1(), AnalysisOptions(deadline_ms=0.0))
        data = result_to_dict(degraded)
        assert data["degraded"] is True
        assert data["degradations"]
        assert set(data["degradations"][0]) == {
            "subject",
            "kind",
            "site",
            "budget",
            "limit",
            "spent",
            "answer",
        }
        json.dumps(data)

        plain = result_to_dict(analyze(example1()))
        assert plain["degraded"] is False
        assert plain["degradations"] is None
