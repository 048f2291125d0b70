"""Precision-audit tests: the AuditLog, provenance records, and the
engine integration — including the bit-identity acceptance criterion
(records identical with the solver cache on and off)."""

import json
from contextlib import nullcontext

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.analysis.graph import dependence_graph
from repro.ir import parse
from repro.obs.audit import AuditLog, ProvenanceRecord, QueryFootprint
from repro.omega import SolverCache, caching
from repro.programs import corpus_programs, example2
from repro.reporting import result_to_dict

KILL_PROGRAM = """
a(n) :=
for i := n to n+10 do a(i) :=
for i := n to n+20 do := a(i)
"""


class TestQueryFootprint:
    def test_exact_until_a_reason_appears(self):
        footprint = QueryFootprint()
        assert footprint.exact
        footprint.inexact_reasons.add("complexity")
        assert not footprint.exact

    def test_merge_accumulates(self):
        a = QueryFootprint(queries={"sat": 2}, splintered=1)
        b = QueryFootprint(
            queries={"sat": 1, "project": 3},
            inexact_reasons={"inexact-projection"},
            splintered=2,
        )
        a.merge(b)
        assert a.queries == {"sat": 3, "project": 3}
        assert a.inexact_reasons == {"inexact-projection"}
        assert a.splintered == 3

    def test_to_dict_is_sorted(self):
        footprint = QueryFootprint(
            queries={"sat": 1, "project": 2},
            inexact_reasons={"b", "a"},
        )
        payload = footprint.to_dict()
        assert list(payload["queries"]) == ["project", "sat"]
        assert payload["inexact_reasons"] == ["a", "b"]


class TestAuditLog:
    def test_note_query_counts_per_subject(self):
        log = AuditLog()
        log.note_query("flow: a -> b", "sat")
        log.note_query("flow: a -> b", "sat")
        log.note_query("flow: a -> b", "project", exact=False, reason="why")
        footprint = log.footprint_for("flow: a -> b")
        assert footprint.queries == {"sat": 2, "project": 1}
        assert footprint.inexact_reasons == {"why"}

    def test_kill_subjects_fold_into_victim(self):
        log = AuditLog()
        log.note_query("flow: a -> b", "sat")
        log.note_query("kill: flow: a -> b by s2: a(i)", "implies-union")
        log.note_query("kill: flow: a -> c by s2: a(i)", "sat")
        footprint = log.footprint_for("flow: a -> b")
        assert footprint.queries == {"sat": 1, "implies-union": 1}

    def test_note_conservative_adds_reason_only(self):
        log = AuditLog()
        log.note_conservative("s", "kill-cases-overflow")
        footprint = log.footprint_for("s")
        assert footprint.queries == {}
        assert not footprint.exact


class TestProvenanceRecord:
    def _record(self):
        return ProvenanceRecord(
            subject="flow: a -> b",
            kind="flow",
            src="a",
            dst="b",
            verdict="eliminated",
            status="killed",
            stage="kill",
            decided_by="flow: c -> b",
            direction="(0,+)",
            used_omega=True,
            events=[("kill", "general omega test by flow: c -> b")],
        )

    def test_round_trips_through_json(self):
        record = self._record()
        replayed = ProvenanceRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert replayed.to_dict() == record.to_dict()

    def test_attach_degradation_marks_inexact(self):
        record = self._record()
        record.attach_degradation(
            {"kind": "sat", "answer": "assumed satisfiable", "site": "x"}
        )
        assert not record.exact
        assert "degraded-sat" in record.inexact_reasons
        assert record.degradations[0]["site"] == "x"

    def test_describe_mentions_verdict_and_queries(self):
        record = self._record()
        record.queries = {"sat": 3}
        text = record.describe()
        assert "eliminated by flow: c -> b" in text
        assert "stage: kill" in text
        assert "sat=3" in text


class TestEngineIntegration:
    def test_disabled_by_default(self):
        result = analyze(parse(KILL_PROGRAM, "kill"))
        assert result.audit is None
        assert result.provenance == []

    def test_kill_pair_gets_kill_stage(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(audit=True)
        )
        killed = [
            r
            for r in result.provenance
            if r.kind == "flow" and r.verdict == "eliminated"
        ]
        assert len(killed) == 1
        record = killed[0]
        assert record.stage == "kill"
        assert record.status == "killed"
        assert record.decided_by is not None
        assert record.used_omega is True
        assert record.events and record.events[0][0] == "kill"
        # The kill sub-subject's queries folded into the victim's footprint.
        assert record.queries.get("implies-union", 0) >= 1

    def test_live_pair_is_kept(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(audit=True)
        )
        kept = [
            r
            for r in result.provenance
            if r.kind == "flow" and r.verdict == "reported"
        ]
        assert kept and all(r.stage == "kept" for r in kept)
        assert all(r.exact for r in kept)

    def test_standard_analysis_reports_standard_stage(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"),
            AnalysisOptions(audit=True, extended=False),
        )
        flow = [r for r in result.provenance if r.kind == "flow"]
        reported = [r for r in flow if r.verdict == "reported"]
        assert reported and all(r.stage == "standard" for r in reported)

    def test_independent_pairs_are_recorded(self):
        result = analyze(example2(), AnalysisOptions(audit=True))
        independents = [
            r for r in result.provenance if r.verdict == "independent"
        ]
        assert independents
        assert all(r.stage == "omega-unsat" for r in independents)
        assert all(r.status == "none" for r in independents)

    def test_every_dependence_has_a_record(self):
        result = analyze(example2(), AnalysisOptions(audit=True))
        subjects = {r.subject for r in result.provenance}
        for dep in result.all_dependences():
            assert dep.subject() in subjects

    def test_provenance_accessors(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(audit=True)
        )
        record = result.provenance[0]
        assert result.provenance_for(record.subject) is record
        assert result.provenance_for("flow: no -> where") is None
        assert result.inexact_records() == []

    def test_graph_edges_carry_provenance(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(audit=True)
        )
        graph = dependence_graph(result, live_only=False)
        records = [
            data["provenance"] for _, _, data in graph.edges(data=True)
        ]
        assert records and all(r is not None for r in records)
        for _, _, data in graph.edges(data=True):
            assert data["provenance"].subject == data["dependence"].subject()

    def test_serialize_includes_provenance(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(audit=True)
        )
        payload = result_to_dict(result)
        assert payload["provenance"]
        assert payload["provenance"][0]["subject"]
        # Unaudited results serialize provenance as null.
        plain = analyze(parse(KILL_PROGRAM, "kill"))
        assert result_to_dict(plain)["provenance"] is None


class TestBitIdentity:
    """The acceptance criterion: provenance identical with the solver
    cache on and off."""

    @pytest.fixture(scope="class")
    def program(self):
        # cholsky_nas exercises kills, covers, refinement and splits.
        return corpus_programs()[0]

    @staticmethod
    def _snapshot(program, cache=False):
        with caching(SolverCache()) if cache else nullcontext():
            result = analyze(program, AnalysisOptions(audit=True))
        return json.dumps(
            [record.to_dict() for record in result.provenance],
            sort_keys=True,
        )

    def test_cache_does_not_change_provenance(self, program):
        base = self._snapshot(program, cache=True)
        assert self._snapshot(program) == base
