"""Run ledger: record shape, persistence, stable-view determinism."""

import json
from contextlib import nullcontext

from repro.analysis import AnalysisOptions, analyze
from repro.obs import (
    MetricsRegistry,
    RunContext,
    append_run,
    collecting,
    last_run,
    read_runs,
    run_context,
    run_record,
    stable_view,
)
from repro.obs.telemetry.ledger import (
    RUN_SCHEMA,
    git_sha,
    machine_fingerprint,
)
from repro.omega import SolverCache, caching
from repro.programs import example1


def analyzed_record(cache=False, **options):
    opts = AnalysisOptions(extended=True, audit=True, **options)
    registry = MetricsRegistry()
    with collecting(registry):
        with caching(SolverCache()) if cache else nullcontext():
            result = analyze(example1(), opts)
    return run_record(
        "analyze",
        program="example1",
        options=opts,
        registry=registry,
        result=result,
        run_id="deadbeef0001",
        when="2026-01-01T00:00:00+00:00",
        sha="abc1234",
        machine={"platform": "test"},
    )


class TestRunRecord:
    def test_core_fields(self):
        record = analyzed_record()
        assert record["schema"] == RUN_SCHEMA
        assert record["kind"] == "analyze"
        assert record["run_id"] == "deadbeef0001"
        assert record["git"] == "abc1234"
        assert record["machine"] == {"platform": "test"}
        assert record["options"]["extended"] is True
        assert record["metrics"]["counters"]["analysis.pairs_analyzed"] > 0
        assert record["summary"]["counts"]["flow_live"] >= 1
        assert json.dumps(record)  # JSON-serializable throughout

    def test_quantiles_summarize_histograms(self):
        record = analyzed_record()
        quantiles = record["metrics"]["quantiles"]
        assert "analysis.pair_seconds" in quantiles
        entry = quantiles["analysis.pair_seconds"]
        assert set(entry) == {"count", "sum", "p50", "p90", "p99", "max"}
        assert entry["count"] > 0

    def test_run_id_falls_back_to_active_context(self):
        with run_context(RunContext("cafebabe0001")):
            record = run_record("analyze", program="p")
        assert record["run_id"] == "cafebabe0001"

    def test_error_records(self):
        record = run_record("analyze", program="p", error="boom")
        assert record["error"] == "boom"
        assert stable_view(record)["error"] == "boom"

    def test_fingerprint_and_sha_shapes(self):
        fingerprint = machine_fingerprint()
        assert set(fingerprint) == {
            "platform",
            "machine",
            "python",
            "implementation",
            "cpus",
        }
        sha = git_sha()
        assert sha is None or isinstance(sha, str)


class TestPersistence:
    def test_append_read_last(self, tmp_path):
        path = tmp_path / "nested" / "runs.jsonl"
        append_run({"schema": RUN_SCHEMA, "kind": "analyze", "n": 1}, path)
        append_run({"schema": RUN_SCHEMA, "kind": "bench", "n": 2}, path)
        append_run({"schema": RUN_SCHEMA, "kind": "analyze", "n": 3}, path)
        records = read_runs(path)
        assert [record["n"] for record in records] == [1, 2, 3]
        assert last_run(path)["n"] == 3
        assert last_run(path, kind="bench")["n"] == 2
        assert last_run(path, kind="audit") is None

    def test_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_run({"b": 1, "a": 2, "schema": RUN_SCHEMA}, path)
        line = path.read_text().splitlines()[0]
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_append_counts_into_metrics(self, tmp_path):
        registry = MetricsRegistry()
        with collecting(registry):
            append_run({"schema": RUN_SCHEMA}, tmp_path / "runs.jsonl")
        assert registry.counter("obs.runs.recorded") == 1


class TestStableView:
    def test_identical_across_cache_settings(self):
        cached = analyzed_record(cache=True)
        uncached = analyzed_record(cache=False)
        assert stable_view(cached) == stable_view(uncached)

    def test_drops_identity_and_machine(self):
        view = stable_view(analyzed_record())
        assert "run_id" not in view
        assert "machine" not in view
        assert "when" not in view
        assert "cache" not in view["options"]

    def test_keeps_precision_counters(self):
        view = stable_view(analyzed_record(cache=True))
        assert view["counters"]["omega.precision.records"] > 0
        assert all(
            not name.startswith("omega.cache.")
            for name in view["counters"]
        )
