"""CLI tests (python -m repro)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.omega import SolverCache, caching

KILL_PROGRAM = """
a(n) :=
for i := n to n+10 do a(i) :=
for i := n to n+20 do := a(i)
"""

INDEX_PROGRAM = """
array A[1:n]
array Q[1:n]
for i := 1 to n do A[Q[i]] := A[Q[i+1]-1]
"""


#: A deadline (ms) that has passed before the first Omega query runs, so
#: every query degrades; ``--deadline-ms`` only accepts positive values.
EXPIRED_MS = "0.001"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "kill.loop"
    path.write_text(KILL_PROGRAM)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_flags(self):
        args = build_parser().parse_args(
            ["analyze", "x.loop", "--standard", "--assert", "n <= m"]
        )
        assert args.standard
        assert args.assertions == ["n <= m"]

    @pytest.mark.parametrize("command", ["bench", "serve-bench"])
    def test_removed_benchmark_commands_are_usage_errors(self, command):
        """Names that are not commands, including the timing subcommands
        ``perfbench/run.py`` replaced, are usage errors, not tracebacks."""

        done = subprocess.run(
            [sys.executable, "-m", "repro", command],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=pathlib.Path(__file__).resolve().parent.parent,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage:")
        assert f"invalid choice: '{command}'" in done.stderr
        assert "Traceback" not in done.stderr


class TestAnalyzeCommand:
    def test_extended_kills(self, program_file, capsys):
        assert main(["analyze", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "Dead flow dependences" in out
        assert "[k]" in out

    def test_standard_keeps_everything(self, program_file, capsys):
        main(["analyze", str(program_file), "--standard"])
        out = capsys.readouterr().out
        assert "[k]" not in out

    def test_assertions_flow_through(self, tmp_path, capsys):
        path = tmp_path / "m.loop"
        path.write_text(
            """
            a(m) :=
            for i := n to n+10 do a(i) :=
            for i := n to n+20 do := a(i)
            """
        )
        main(["analyze", str(path)])
        without = capsys.readouterr().out
        main(
            [
                "analyze",
                str(path),
                "--assert",
                "n <= m",
                "--assert",
                "m <= n + 10",
            ]
        )
        with_assert = capsys.readouterr().out
        assert "[k]" not in without
        assert "[k]" in with_assert

    def test_all_kinds(self, program_file, capsys):
        main(["analyze", str(program_file), "--all-kinds"])
        out = capsys.readouterr().out
        assert "Output dependences" in out


class TestOtherCommands:
    def test_parallel(self, tmp_path, capsys):
        path = tmp_path / "p.loop"
        path.write_text("for i := 1 to n do a(i) := b(i)")
        main(["parallel", str(path)])
        assert "PARALLEL" in capsys.readouterr().out

    def test_queries(self, tmp_path, capsys):
        path = tmp_path / "q.loop"
        path.write_text(INDEX_PROGRAM)
        main(["queries", str(path)])
        out = capsys.readouterr().out
        assert "never happens" in out

    def test_queries_affine(self, tmp_path, capsys):
        path = tmp_path / "q.loop"
        path.write_text("for i := 1 to n do a(i) := a(i-1)")
        main(["queries", str(path)])
        assert "no symbolic questions" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_explain_prints_decision_trail(self, program_file, capsys):
        assert main(["analyze", str(program_file), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Decision trail" in out
        assert "killed:" in out

    def test_stats_prints_metrics_summary(self, program_file, capsys):
        assert main(["analyze", str(program_file), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "omega.satisfiability_tests" in out
        assert "analysis.kills_succeeded" in out

    def test_trace_out_writes_chrome_trace(self, program_file, tmp_path):
        import json

        trace_path = tmp_path / "t.json"
        assert main(
            ["analyze", str(program_file), "--trace-out", str(trace_path)]
        ) == 0
        payload = json.loads(trace_path.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert len(names) >= 6
        assert "analysis.kill" in names
        assert "omega.fourier_motzkin" in names

    def test_metrics_out_writes_full_schema(self, program_file, tmp_path):
        import json

        metrics_path = tmp_path / "m.json"
        assert main(
            ["analyze", str(program_file), "--metrics-out", str(metrics_path)]
        ) == 0
        payload = json.loads(metrics_path.read_text())
        counters = payload["counters"]
        for key in (
            "analysis.kills_attempted",
            "analysis.covers_tested",
            "analysis.refinements_attempted",
            "omega.eliminations",
            "omega.splinters_examined",
        ):
            assert key in counters
        assert counters["analysis.kills_succeeded"] == 1

    def test_trace_command(self, program_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        assert main(
            [
                "trace",
                str(program_file),
                "-o",
                str(out_path),
                "--jsonl",
                str(jsonl_path),
            ]
        ) == 0
        listed = capsys.readouterr().out
        assert "spans" in listed
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]
        assert jsonl_path.read_text().strip()

    def test_obs_flags_off_leave_no_artifacts(self, program_file, capsys):
        assert main(["analyze", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "Decision trail" not in out
        assert "metric" not in out


class TestStatsHistograms:
    def test_stats_prints_per_phase_latency_histograms(self, program_file, capsys):
        # Histograms populate without a tracer: the --stats registry alone
        # must yield per-phase latency distributions, not silently omit
        # every non-counter metric.
        assert main(["analyze", str(program_file), "--stats"]) == 0
        out = capsys.readouterr().out
        for name in (
            "omega.sat_seconds",
            "analysis.pair_seconds",
            "analysis.analyze_seconds",
        ):
            assert name in out, name
        hist_line = [
            line for line in out.splitlines() if "analysis.pair_seconds" in line
        ][0]
        assert "count=" in hist_line
        assert "p50=" in hist_line
        assert "p99=" in hist_line

    def test_stats_histogram_counts_are_nonzero(self, program_file, capsys):
        import re

        main(["analyze", str(program_file), "--stats"])
        out = capsys.readouterr().out
        match = re.search(r"omega\.sat_seconds\s+count=(\d+)", out)
        assert match is not None
        assert int(match.group(1)) > 0


class TestRobustness:
    """--deadline-ms / --strict and the REPRO_FAULTS chaos hook."""

    def test_deadline_degrades_with_warning(self, program_file, capsys):
        assert main(["analyze", str(program_file), "--deadline-ms", EXPIRED_MS]) == 0
        out = capsys.readouterr().out
        assert "WARNING: resource budget exhausted" in out
        assert "sound superset" in out
        assert "degraded result(s):" in out

    def test_strict_deadline_exits_2(self, program_file, capsys):
        assert (
            main(
                [
                    "analyze",
                    str(program_file),
                    "--deadline-ms",
                    EXPIRED_MS,
                    "--strict",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "budget 'deadline' exhausted" in err
        assert "--strict" in err

    def test_faults_env_activates_injection(
        self, program_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1,rate=1.0,kinds=timeout")
        assert main(["analyze", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "WARNING: resource budget exhausted" in out

    def test_json_carries_degradations(self, program_file, capsys):
        assert (
            main(
                [
                    "analyze",
                    str(program_file),
                    "--deadline-ms",
                    EXPIRED_MS,
                    "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["degraded"] is True
        assert data["degradations"]
        assert all(entry["site"] for entry in data["degradations"])


class TestAuditCommand:
    def test_audit_file_writes_scoreboard(self, program_file, tmp_path, capsys):
        out = tmp_path / "precision.json"
        assert main(
            ["audit", str(program_file), "--out", str(out)]
        ) == 0
        captured = capsys.readouterr()
        assert "precision scoreboard" in captured.out
        assert "TOTAL" in captured.out
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "repro.precision/1"
        section = artifact["programs"][0]
        assert section["omega"]["standard"] == 2
        assert section["omega"]["live"] == 1
        assert section["baselines"]["combined"] >= 1

    def test_audit_json_prints_artifact(self, program_file, capsys):
        assert main(["audit", str(program_file), "--json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["schema"] == "repro.precision/1"

    def test_audit_why_prints_provenance(self, program_file, capsys):
        assert main(["audit", str(program_file), "--why", "s1", "s3"]) == 0
        out = capsys.readouterr().out
        assert "eliminated by" in out
        assert "stage: kill" in out
        assert "omega queries:" in out

    def test_audit_why_unknown_pair(self, program_file, capsys):
        assert main(["audit", str(program_file), "--why", "s9", "s3"]) == 2
        assert "no provenance" in capsys.readouterr().err

    def test_audit_why_requires_file(self, capsys):
        assert main(["audit", "--why", "s1", "s3"]) == 2
        assert "requires a program FILE" in capsys.readouterr().err

    def test_audit_gate_passes_against_fresh_artifact(
        self, program_file, tmp_path, capsys
    ):
        committed = tmp_path / "committed.json"
        assert main(
            ["audit", str(program_file), "--out", str(committed)]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "audit", str(program_file),
                "--out", str(tmp_path / "fresh.json"),
                "--gate", str(committed),
            ]
        ) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_audit_gate_fails_on_seeded_regression(
        self, program_file, tmp_path, capsys
    ):
        committed = tmp_path / "committed.json"
        assert main(
            ["audit", str(program_file), "--out", str(committed)]
        ) == 0
        capsys.readouterr()
        # Seed a regression: pretend the committed run reported fewer
        # live pairs than the tree now produces.
        artifact = json.loads(committed.read_text())
        artifact["programs"][0]["omega"]["live"] -= 1
        committed.write_text(json.dumps(artifact))
        assert main(
            [
                "audit", str(program_file),
                "--out", str(tmp_path / "fresh.json"),
                "--gate", str(committed),
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "gate: FAIL" in out and "REGRESSED" in out

    def test_audit_diff_two_artifacts(self, program_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert main(["audit", str(program_file), "--out", str(a)]) == 0
        capsys.readouterr()
        assert main(["audit", "--diff", str(a), str(a)]) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_audit_under_a_cache_is_bit_identical(
        self, program_file, tmp_path
    ):
        cached = tmp_path / "cached.json"
        uncached = tmp_path / "uncached.json"
        with caching(SolverCache()):
            assert main(
                ["audit", str(program_file), "--out", str(cached)]
            ) == 0
        assert main(
            ["audit", str(program_file), "--out", str(uncached)]
        ) == 0
        left = json.loads(cached.read_text())
        right = json.loads(uncached.read_text())
        assert left["programs"] == right["programs"]

    def test_analyze_audit_flag(self, program_file, capsys):
        assert main(["analyze", str(program_file), "--audit"]) == 0

    def test_stats_surfaces_precision_metrics(self, program_file, capsys):
        assert main(
            ["analyze", str(program_file), "--audit", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "omega.precision.records" in out
        import re

        match = re.search(r"omega\.precision\.records\s+(\d+)", out)
        assert match is not None and int(match.group(1)) > 0


class TestTelemetryFlags:
    def test_ledger_flag_appends_a_run_record(self, program_file, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        assert main(
            ["analyze", str(program_file), "--ledger", str(ledger)]
        ) == 0
        assert main(
            ["analyze", str(program_file), "--ledger", str(ledger)]
        ) == 0
        records = [
            json.loads(line) for line in ledger.read_text().splitlines()
        ]
        assert len(records) == 2
        first = records[0]
        assert first["schema"] == "repro.run/1"
        assert first["kind"] == "analyze"
        assert first["program"] == "kill"
        assert first["options"]["extended"] is True
        assert first["metrics"]["counters"]["analysis.pairs_analyzed"] > 0
        assert records[0]["run_id"] != records[1]["run_id"]

    def test_no_ledger_and_env_suppression(self, program_file, tmp_path):
        # conftest sets REPRO_NO_LEDGER=1: without an explicit --ledger
        # nothing is written, with --no-ledger nothing ever is.
        import repro.obs.telemetry.ledger as ledger_mod

        assert main(["analyze", str(program_file)]) == 0
        assert not ledger_mod.DEFAULT_LEDGER.exists() or True  # no write here
        assert main(["analyze", str(program_file), "--no-ledger"]) == 0

    def test_error_runs_are_recorded(self, program_file, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        assert main(
            [
                "analyze", str(program_file),
                "--deadline-ms", EXPIRED_MS, "--strict",
                "--ledger", str(ledger),
            ]
        ) == 2
        record = json.loads(ledger.read_text().splitlines()[0])
        assert record["kind"] == "analyze"
        assert record["error"]

    def test_audit_records_precision_totals(self, program_file, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        assert main(
            [
                "audit", str(program_file),
                "--out", str(tmp_path / "p.json"),
                "--ledger", str(ledger),
            ]
        ) == 0
        record = json.loads(ledger.read_text().splitlines()[0])
        assert record["kind"] == "audit"
        assert record["summary"]["totals"]["pairs"] > 0
        assert record["metrics"]["counters"]["solver.queries"] >= 0

    def test_events_out_streams_lifecycle(self, program_file, tmp_path):
        events_path = tmp_path / "events.jsonl"
        assert main(
            ["analyze", str(program_file), "--events-out", str(events_path)]
        ) == 0
        events = [
            json.loads(line) for line in events_path.read_text().splitlines()
        ]
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "run.start" and kinds[-1] == "run.end"
        assert "pair.verdict" in kinds
        run_ids = {event["run"] for event in events}
        assert len(run_ids) == 1 and None not in run_ids

    def test_event_sample_thins_the_stream(self, program_file, tmp_path):
        full = tmp_path / "full.jsonl"
        thin = tmp_path / "thin.jsonl"
        assert main(
            ["analyze", str(program_file), "--events-out", str(full)]
        ) == 0
        assert main(
            [
                "analyze", str(program_file),
                "--events-out", str(thin),
                "--event-sample", "0",
            ]
        ) == 0
        assert len(thin.read_text().splitlines()) < len(
            full.read_text().splitlines()
        )

    def test_prom_out_writes_exposition(self, program_file, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(
            ["analyze", str(program_file), "--prom-out", str(prom)]
        ) == 0
        text = prom.read_text()
        assert "# TYPE repro_analysis_pairs_analyzed_total counter" in text
        assert "repro_analysis_analyze_seconds_bucket" in text

    def test_otlp_out_writes_span_jsonl(self, program_file, tmp_path):
        otlp = tmp_path / "spans.jsonl"
        assert main(
            ["analyze", str(program_file), "--otlp-out", str(otlp)]
        ) == 0
        spans = [json.loads(line) for line in otlp.read_text().splitlines()]
        assert any(span["name"] == "analysis.analyze" for span in spans)
        assert len({span["traceId"] for span in spans}) == 1

    def test_out_flags_default_into_results(self):
        args = build_parser().parse_args(["analyze", "x.loop", "--metrics-out"])
        assert str(args.metrics_out) == "results/metrics.json"
        args = build_parser().parse_args(["analyze", "x.loop", "--trace-out"])
        assert str(args.trace_out) == "results/trace.json"
        args = build_parser().parse_args(["analyze", "x.loop", "--prom-out"])
        assert str(args.prom_out) == "results/metrics.prom"
        args = build_parser().parse_args(["analyze", "x.loop", "--events-out"])
        assert str(args.events_out) == "results/events.jsonl"
        args = build_parser().parse_args(["analyze", "x.loop", "--ledger"])
        assert str(args.ledger) == "results/runs.jsonl"

    def test_metrics_out_creates_parent_directories(
        self, program_file, tmp_path
    ):
        nested = tmp_path / "deep" / "nested" / "m.json"
        assert main(
            ["analyze", str(program_file), "--metrics-out", str(nested)]
        ) == 0
        assert json.loads(nested.read_text())["counters"]


class TestDiffCommand:
    def ledgered(self, program_file, tmp_path, name, *flags):
        path = tmp_path / f"{name}.jsonl"
        assert main(
            ["analyze", str(program_file), "--ledger", str(path), *flags]
        ) == 0
        return path

    def test_diff_equivalent_runs(self, program_file, tmp_path, capsys):
        a = self.ledgered(program_file, tmp_path, "a")
        capsys.readouterr()
        assert main(["diff", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "differential attribution" in out
        assert "no suspects" in out

    def test_diff_ranks_injected_cache_regression(
        self, program_file, tmp_path, capsys
    ):
        with caching(SolverCache()):
            cached = self.ledgered(program_file, tmp_path, "cached")
        uncached = self.ledgered(program_file, tmp_path, "uncached")
        capsys.readouterr()
        assert main(
            ["diff", str(cached), str(uncached), "--gate"]
        ) == 0  # config change: not a deterministic regression
        out = capsys.readouterr().out
        first_suspect = [
            line for line in out.splitlines() if line.strip().startswith("1 ")
        ][0]
        assert "cache hit-rate dropped" in first_suspect
        assert "gate: PASS" in out

    def test_diff_gate_fails_on_degradations(
        self, program_file, tmp_path, capsys
    ):
        calm = self.ledgered(program_file, tmp_path, "calm")
        stormy = self.ledgered(
            program_file, tmp_path, "stormy", "--deadline-ms", EXPIRED_MS
        )
        capsys.readouterr()
        assert main(["diff", str(calm), str(stormy), "--gate"]) == 1
        out = capsys.readouterr().out
        assert "gate: FAIL" in out
        assert "degradations" in out

    def test_diff_without_gate_exits_zero(
        self, program_file, tmp_path, capsys
    ):
        calm = self.ledgered(program_file, tmp_path, "calm")
        stormy = self.ledgered(
            program_file, tmp_path, "stormy", "--deadline-ms", EXPIRED_MS
        )
        capsys.readouterr()
        assert main(["diff", str(calm), str(stormy)]) == 0

    def test_diff_writes_report_file(self, program_file, tmp_path, capsys):
        a = self.ledgered(program_file, tmp_path, "a")
        report_path = tmp_path / "deep" / "suspects.txt"
        assert main(["diff", str(a), str(a), "--out", str(report_path)]) == 0
        assert "differential attribution" in report_path.read_text()

    def test_diff_rejects_bad_inputs(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["diff", str(missing), str(missing)]) == 2
        assert "error:" in capsys.readouterr().err


class TestStoreFlag:
    def test_analyze_store_warm_run_hits(
        self, program_file, tmp_path, capsys
    ):
        store = tmp_path / "store.db"
        assert main(
            ["analyze", str(program_file), "--stats", "--store", str(store)]
        ) == 0
        cold = capsys.readouterr().out
        assert "persistent store:" in cold
        assert store.exists()
        assert main(
            ["analyze", str(program_file), "--stats", "--store", str(store)]
        ) == 0
        warm = capsys.readouterr().out
        store_line = [
            line for line in warm.splitlines()
            if line.startswith("persistent store:")
        ][0]
        assert "0 hits" not in store_line  # the second run answered warm
        assert "0 writes" in store_line

    def test_identical_output_with_and_without_store(
        self, program_file, tmp_path, capsys
    ):
        assert main(["analyze", str(program_file), "--json"]) == 0
        plain = capsys.readouterr().out
        store = tmp_path / "store.db"
        for _ in range(2):  # cold write-through, then warm replay
            assert main(
                ["analyze", str(program_file), "--json", "--store", str(store)]
            ) == 0
            assert capsys.readouterr().out == plain


class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8177
        assert args.max_inflight == 4
        assert not args.no_store

    def test_no_tcp_requires_unix_socket(self, capsys):
        assert main(["serve", "--no-tcp", "--no-store"]) == 2
        assert "--unix-socket" in capsys.readouterr().err

class TestOutFlagsCreateParents:
    """Every output flag writes into a directory that does not exist yet.

    ``--metrics-out`` and ``diff --out`` are covered by
    ``test_metrics_out_creates_parent_directories`` and
    ``test_diff_writes_report_file``.
    """

    @pytest.mark.parametrize(
        "flag",
        [
            "--trace-out",
            "--prom-out",
            "--otlp-out",
            "--events-out",
            "--ledger",
        ],
    )
    def test_analyze_out_flag(self, flag, program_file, tmp_path):
        out = tmp_path / "missing" / "dir" / "artifact"
        assert main(["analyze", str(program_file), flag, str(out)]) == 0
        assert out.read_text()

    def test_trace_out(self, program_file, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "trace.json"
        assert main(["trace", str(program_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_audit_out(self, program_file, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "precision.json"
        assert main(["audit", str(program_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())

# -- unusable inputs fail cleanly -------------------------------------------

#: Each way a program file can be unusable: (id, set-up returning the path,
#: text the one-line error must contain).
BAD_PROGRAMS = [
    ("missing", lambda tmp: tmp / "nope.loop", "No such file or directory"),
    ("directory", lambda tmp: tmp, "Is a directory"),
    (
        "not-utf8",
        lambda tmp: _write_bytes(tmp / "latin1.loop", "a(i) := b(é)".encode("latin-1")),
        "not UTF-8 text",
    ),
    (
        "syntax",
        lambda tmp: _write_bytes(tmp / "bad.loop", b"for i := 1 to do a(i) := b(i)"),
        "unexpected DO",
    ),
    (
        "character",
        lambda tmp: _write_bytes(tmp / "lex.loop", b"for i := 1 to n do a(i) := $"),
        "unexpected character",
    ),
]


def _write_bytes(path, data):
    path.write_bytes(data)
    return path


def _precision_artifact(path):
    """The smallest file ``audit --diff`` loads as a baseline."""

    path.write_text(json.dumps({"schema": "repro.precision/1"}))
    return path


def assert_clean_error(capsys, path, reason):
    captured = capsys.readouterr()
    assert captured.err.startswith(f"repro: error: {path}: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1  # one line: no traceback
    assert captured.out == ""


class TestUnusableProgramFiles:
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["trace"], ["parallel"], ["queries"], ["audit"]],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize(
        "make_path, reason",
        [(make, reason) for _, make, reason in BAD_PROGRAMS],
        ids=[kind for kind, _, _ in BAD_PROGRAMS],
    )
    def test_exits_2_with_one_line(
        self, command, make_path, reason, tmp_path, capsys
    ):
        path = make_path(tmp_path)
        assert main([*command, str(path)]) == 2
        assert_clean_error(capsys, path, reason)

    def test_audit_why_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "nope.loop"
        assert main(["audit", str(path), "--why", "s1", "s2"]) == 2
        assert_clean_error(capsys, path, "No such file or directory")

    def test_module_entry_point_exits_2(self, tmp_path):
        path = tmp_path / "nope.loop"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=pathlib.Path(__file__).resolve().parent.parent,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == (
            f"repro: error: {path}: No such file or directory\n"
        )


class TestBaselinesLoadBeforeTheRun:
    @pytest.fixture
    def no_runs(self, monkeypatch):
        import repro.reporting

        def refuse(*args, **kwargs):
            raise AssertionError("the run started before the baseline loaded")

        monkeypatch.setattr(repro.reporting, "precision_report", refuse)

    @pytest.fixture(
        params=["missing", "directory", "not-json", "wrong-schema", "not-object"]
    )
    def bad_baseline(self, request, tmp_path):
        kind = request.param
        if kind == "missing":
            return tmp_path / "missing.json", "No such file or directory"
        if kind == "directory":
            return tmp_path, "Is a directory"
        path = tmp_path / "baseline.json"
        if kind == "not-json":
            path.write_text("{not json")
            return path, "not a JSON artifact"
        if kind == "wrong-schema":
            path.write_text(json.dumps({"schema": "repro.other/1"}))
            return path, "artifact"
        path.write_text("[1, 2]")
        return path, "artifact"

    def test_audit_gate(self, bad_baseline, no_runs, capsys):
        path, reason = bad_baseline
        assert main(["audit", "--gate", str(path)]) == 2
        assert_clean_error(capsys, path, reason)

    def test_audit_gate_with_file(self, bad_baseline, no_runs, program_file, capsys):
        path, reason = bad_baseline
        assert main(["audit", str(program_file), "--gate", str(path)]) == 2
        assert_clean_error(capsys, path, reason)

    def test_audit_diff_old(self, bad_baseline, no_runs, tmp_path, capsys):
        good = _precision_artifact(tmp_path / "good.json")
        path, reason = bad_baseline
        assert main(["audit", "--diff", str(path), str(good)]) == 2
        assert_clean_error(capsys, path, reason)

    def test_audit_diff_new(self, bad_baseline, no_runs, tmp_path, capsys):
        good = _precision_artifact(tmp_path / "good.json")
        path, reason = bad_baseline
        assert main(["audit", "--diff", str(good), str(path)]) == 2
        assert_clean_error(capsys, path, reason)

    def test_wrong_schema_names_the_expected_one(self, tmp_path, no_runs, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "repro.bench/1", "suites": {}}))
        assert main(["audit", "--gate", str(path)]) == 2
        assert "not a repro.precision/1 artifact" in capsys.readouterr().err


class TestNumericFlags:
    """Nonsense numeric values fail at parse time: exit 2, one error line,
    no run."""

    @staticmethod
    def assert_rejected(capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert f"argument {flag}" in errors[0]
        assert "Traceback" not in captured.err

    def test_serve_max_inflight(self, capsys):
        self.assert_rejected(
            capsys, ["serve", "--max-inflight", "0"], "--max-inflight"
        )

    def test_serve_queue_depth(self, capsys):
        self.assert_rejected(
            capsys, ["serve", "--queue-depth", "-1"], "--queue-depth"
        )

    def test_serve_queue_timeout(self, capsys):
        self.assert_rejected(
            capsys, ["serve", "--queue-timeout-s", "nan"], "--queue-timeout-s"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_analyze_deadline_ms(self, capsys, program_file, value):
        self.assert_rejected(
            capsys,
            ["analyze", str(program_file), f"--deadline-ms={value}"],
            "--deadline-ms",
        )

    def test_audit_deadline_ms(self, capsys, program_file):
        self.assert_rejected(
            capsys,
            ["audit", str(program_file), "--deadline-ms", "nan"],
            "--deadline-ms",
        )

    def test_serve_default_deadline_ms(self, capsys):
        self.assert_rejected(
            capsys,
            ["serve", "--default-deadline-ms", "-1"],
            "--default-deadline-ms",
        )

    def test_serve_max_deadline_ms(self, capsys):
        self.assert_rejected(
            capsys, ["serve", "--max-deadline-ms", "inf"], "--max-deadline-ms"
        )

    @pytest.mark.parametrize("value", ["2", "-0.5", "nan", "inf", "half"])
    def test_analyze_event_sample(self, capsys, program_file, tmp_path, value):
        events = tmp_path / "events.jsonl"
        self.assert_rejected(
            capsys,
            [
                "analyze", str(program_file),
                "--events-out", str(events),
                f"--event-sample={value}",
            ],
            "--event-sample",
        )
        assert not events.exists()

    def test_valid_values_parse(self):
        args = build_parser().parse_args(
            ["serve", "--max-inflight", "2", "--queue-depth", "0",
             "--queue-timeout-s", "0.5", "--max-deadline-ms", "100"]
        )
        assert (args.max_inflight, args.queue_depth) == (2, 0)
        assert (args.queue_timeout_s, args.max_deadline_ms) == (0.5, 100.0)
        for bound in ("0", "1"):
            args = build_parser().parse_args(
                ["analyze", "p.loop", "--event-sample", bound]
            )
            assert args.event_sample == float(bound)
