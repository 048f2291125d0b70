"""Differential attribution: suspect ranking and the diff gate."""

import copy
import json
import pathlib
from contextlib import nullcontext

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    SpanEvent,
    append_run,
    collecting,
    diff_paths,
    read_runs,
    run_record,
)
from repro.obs.telemetry.diff import SuspectsReport, load_input
from repro.omega import SolverCache, caching
from repro.programs import cholsky

REPO = pathlib.Path(__file__).resolve().parents[2]


def recorded(tmp_path, name, cache=False, **options):
    """One analyze run record written to its own single-record ledger
    (with ``cache``, under its own solver-cache scope)."""

    opts = AnalysisOptions(extended=True, audit=True, **options)
    registry = MetricsRegistry()
    with collecting(registry):
        with caching(SolverCache()) if cache else nullcontext():
            result = analyze(cholsky(), opts)
    record = run_record(
        "analyze",
        program="cholsky",
        options=opts,
        registry=registry,
        result=result,
        run_id=name,
        when="2026-01-01T00:00:00+00:00",
        sha="abc1234",
        machine={"platform": "test"},
    )
    path = tmp_path / f"{name}.jsonl"
    append_run(record, path)
    return record, path


class TestInjectedRegressionRanking:
    def test_disabled_cache_ranks_the_cache_suspect_first(self, tmp_path):
        """The acceptance scenario: a cache-off run diffed against a
        cache-on baseline must put the hit-rate drop at the top."""

        _, old_path = recorded(tmp_path, "cacheon", cache=True)
        _, new_path = recorded(tmp_path, "cacheoff", cache=False)
        report = diff_paths(old_path, new_path)
        assert report.ranked, "expected suspects for a disabled cache"
        top = report.ranked[0]
        assert "cache hit-rate dropped" in top.label
        assert top.score > report.ranked[1].score if len(report.ranked) > 1 else True
        # Config-only change: nothing deterministic regressed.
        assert report.ok
        assert "gate: PASS" in report.render()

    def test_precision_drift_gates_and_outranks_noise(self, tmp_path):
        old, old_path = recorded(tmp_path, "before")
        new = copy.deepcopy(old)
        new["run_id"] = "after"
        new["summary"]["precision"]["reported"] += 2
        new["summary"]["precision"]["inexact"] += 1
        new_path = tmp_path / "after.jsonl"
        append_run(new, new_path)
        report = diff_paths(old_path, new_path)
        assert not report.ok
        top = report.ranked[0]
        assert top.gate
        assert "live flow pairs" in top.label
        assert "gate: FAIL" in report.render()

    def test_degradations_gate(self, tmp_path):
        old, old_path = recorded(tmp_path, "calm")
        new = copy.deepcopy(old)
        new["summary"]["degradations"] = 3
        new_path = tmp_path / "stormy.jsonl"
        append_run(new, new_path)
        report = diff_paths(old_path, new_path)
        labels = [s.label for s in report.gate_failures]
        assert len(labels) == 1
        assert "degradations 0 -> 3" in labels[0]

    def test_new_error_leads_the_report(self, tmp_path):
        old, old_path = recorded(tmp_path, "good")
        new = copy.deepcopy(old)
        new["error"] = "BudgetExhausted: deadline"
        new_path = tmp_path / "bad.jsonl"
        append_run(new, new_path)
        report = diff_paths(old_path, new_path)
        assert report.ranked[0].label.startswith("run failed:")
        assert not report.ok

    def test_identical_runs_have_no_suspects(self, tmp_path):
        old, old_path = recorded(tmp_path, "same")
        report = diff_paths(old_path, old_path)
        assert report.suspects == []
        assert "no suspects" in report.render()
        assert report.ok


class TestLedgerSelection:
    def test_kind_selects_among_mixed_records(self, tmp_path):
        record, _ = recorded(tmp_path, "r1")
        ledger = tmp_path / "runs.jsonl"
        bench_like = {
            "schema": record["schema"],
            "kind": "bench",
            "run_id": "bbb",
            "summary": {"suites": []},
        }
        append_run(record, ledger)
        append_run(bench_like, ledger)
        report = diff_paths(ledger, ledger, kind="analyze")
        assert "analyze run records" in report.kind
        # Unmatched kind raises a clean error.
        with pytest.raises(ValueError):
            diff_paths(ledger, ledger, kind="audit")

    def test_new_side_follows_old_records_kind(self, tmp_path):
        record, _ = recorded(tmp_path, "r1")
        old_ledger = tmp_path / "old.jsonl"
        append_run(record, old_ledger)
        new_ledger = tmp_path / "new.jsonl"
        append_run(record, new_ledger)
        append_run(
            {"schema": record["schema"], "kind": "bench", "summary": {}},
            new_ledger,
        )
        report = diff_paths(old_ledger, new_ledger)
        # The newest *analyze* record is picked, not the newest record.
        assert "analyze run records" in report.kind
        assert report.ok

    def test_type_mismatch_rejected(self, tmp_path):
        _, runs_path = recorded(tmp_path, "r1")
        precision_path = tmp_path / "precision.json"
        precision_path.write_text(
            json.dumps({"schema": "repro.precision/1", "programs": {}})
        )
        with pytest.raises(ValueError, match="cannot compare"):
            diff_paths(runs_path, precision_path)

    def test_committed_ledger_gates_a_fresh_audit(self, tmp_path, capsys):
        """What the CI ``diff`` job runs: the committed ledger (which still
        holds a legacy ``bench`` record from the deleted timing harness)
        against a fresh whole-corpus audit, ``--kind audit --gate``."""

        committed = REPO / "results" / "runs.jsonl"
        assert "bench" in {record["kind"] for record in read_runs(committed)}
        fresh = tmp_path / "ci_runs.jsonl"
        assert main(
            ["audit", "--out", str(tmp_path / "p.json"), "--ledger", str(fresh)]
        ) == 0
        capsys.readouterr()
        argv = ["diff", str(committed), str(fresh), "--kind", "audit", "--gate"]
        assert main(argv) == 0
        assert "gate: PASS" in capsys.readouterr().out


class TestWholeArtifactInputs:
    def test_trace_inputs_compare_self_times(self, tmp_path):
        def trace(path, slow):
            spans = [
                SpanEvent("analysis.analyze", 0.0, 1.0 + slow, 1, None, 0, {}),
                SpanEvent("omega.sat", 0.1, 0.2 + slow, 1, "analysis.analyze", 1, {}),
            ]
            with open(path, "w") as sink:
                for span in spans:
                    sink.write(json.dumps(span.to_dict()) + "\n")

        old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        trace(old_path, 0.0)
        trace(new_path, 0.5)
        report = diff_paths(old_path, new_path)
        assert any("omega.sat" in s.label for s in report.ranked)
        assert report.ok  # timing-only: never gated

    def test_load_input_detects_each_type(self, tmp_path):
        _, runs_path = recorded(tmp_path, "r1")
        assert load_input(runs_path)[0] == "runs"
        # A legacy timing-harness artifact is not a diff input.
        bench = tmp_path / "BENCH_omega.json"
        bench.write_text(json.dumps({"schema": "repro.bench/1", "suites": {}}))
        with pytest.raises(ValueError, match="unrecognized artifact"):
            load_input(bench)
        precision = tmp_path / "p.json"
        precision.write_text(
            json.dumps({"schema": "repro.precision/1", "programs": []})
        )
        assert load_input(precision)[0] == "precision"
        chrome = tmp_path / "t.json"
        chrome.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "s", "ts": 0, "dur": 10, "tid": 1}
                    ]
                }
            )
        )
        kind, spans = load_input(chrome)
        assert kind == "trace" and spans[0].name == "s"
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_input(empty)


class TestReportRendering:
    def test_ranked_orders_by_score_then_label(self):
        report = SuspectsReport("runs", "a", "b")
        report.add(1.0, "zeta")
        report.add(9.0, "alpha")
        report.add(1.0, "beta")
        assert [s.label for s in report.ranked] == ["alpha", "beta", "zeta"]

    def test_gate_flag_rendering(self):
        report = SuspectsReport("runs", "a", "b")
        report.add(5.0, "bad", gate=True)
        text = report.render()
        assert "[GATE]" in text
        assert "gate: FAIL (1 deterministic regression(s))" in text
