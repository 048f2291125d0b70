"""Degradation provenance: chaos-injected and deadline-truncated runs must
tag every degraded pair's provenance record with the DegradationEvent, and
the tagging must survive a JSON round trip (satellite of the audit PR)."""

import json

from repro.analysis import AnalysisOptions, analyze
from repro.guard import Budget, FaultPlan, injecting
from repro.obs.audit import ProvenanceRecord
from repro.programs import corpus_programs
from repro.reporting import why_records

BASE_SEED = 20260806
RATE = 0.05


def chaos_plan(offset=0):
    return FaultPlan(seed=BASE_SEED + offset, rate=RATE)


def _chaotic_result(offset=0):
    program = corpus_programs()[0]  # CHOLSKY: large enough to degrade
    with injecting(chaos_plan(offset)):
        return analyze(program, AnalysisOptions(audit=True))


class TestChaosTagging:
    def test_every_degradation_lands_on_a_record(self):
        result = _chaotic_result()
        assert result.degraded(), "chaos plan injected no faults"
        tagged = [r for r in result.provenance if r.degradations]
        assert tagged, "no provenance record carries a degradation"
        for record in tagged:
            assert not record.exact
            for event in record.degradations:
                assert event["subject"]
                kind = event["kind"]
                assert f"degraded-{kind}" in record.inexact_reasons

    def test_degradations_map_back_to_their_subject(self):
        result = _chaotic_result(offset=1)
        by_subject = {r.subject: r for r in result.provenance}
        for event in result.degradations:
            subject = event.subject
            if subject.startswith("kill: "):
                subject = subject[len("kill: "):].rsplit(" by ", 1)[0]
            record = by_subject.get(subject)
            if record is None:
                continue  # e.g. input-pair subjects outside the record set
            assert any(
                d["site"] == event.site and d["kind"] == event.kind
                for d in record.degradations
            )

    def test_tagged_records_round_trip_through_json(self):
        result = _chaotic_result(offset=2)
        tagged = [r for r in result.provenance if r.degradations]
        assert tagged
        for record in tagged:
            replayed = ProvenanceRecord.from_dict(
                json.loads(json.dumps(record.to_dict()))
            )
            assert replayed.to_dict() == record.to_dict()
            assert not replayed.exact
            assert replayed.degradations == record.degradations

    def test_untagged_records_stay_exact(self):
        result = _chaotic_result(offset=3)
        clean = [
            r
            for r in result.provenance
            if not r.degradations and not r.inexact_reasons
        ]
        assert clean
        assert all(r.exact for r in clean)


class TestDeadlineProvenance:
    def test_deadline_degradations_reach_why_records(self):
        program = corpus_programs()[0]
        # A deadline tight enough that CHOLSKY cannot finish exactly.
        result = analyze(
            program,
            AnalysisOptions(audit=True, deadline_ms=1.0),
        )
        assert result.degraded()
        tagged = [r for r in result.provenance if r.degradations]
        assert tagged
        record = tagged[0]
        matches = why_records(result, record.src, record.dst)
        assert record in matches
        # The describe() text surfaces the degradation for `audit --why`.
        assert "degraded" in record.describe()

    def test_budget_object_equivalent_to_deadline_ms(self):
        program = corpus_programs()[0]
        via_ms = analyze(
            program,
            AnalysisOptions(audit=True, deadline_ms=1.0),
        )
        via_budget = analyze(
            program,
            AnalysisOptions(audit=True, budget=Budget(deadline_ms=1.0)),
        )
        assert via_ms.degraded() and via_budget.degraded()
        for result in (via_ms, via_budget):
            assert any(r.degradations for r in result.provenance)
