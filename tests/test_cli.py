"""CLI tests (python -m repro)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import parse_assertion
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
        assert args.assertions == [parse_assertion("n <= m")]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["diff", "a", "b"],
            ["analyze", "x.loop", "--ledger", "x"],
            ["trace", "x.loop"],
            ["analyze", "x.loop", "--events-out", "e.jsonl"],
            ["analyze", "x.loop", "--event-sample", "1"],
            ["analyze", "x.loop", "--prom-out", "m.prom"],
            ["analyze", "x.loop", "--otlp-out", "s.jsonl"],
        ],
        ids=[
            "diff", "ledger",
            "trace", "events-out", "event-sample", "prom-out", "otlp-out",
        ],
    )
    def test_removed_ledger_surface_is_a_usage_error(self, argv, capsys):
        """The retired run-ledger command and flag, and the retired span
        and event writers, are usage errors.  The Chrome trace is
        ``analyze --trace-out`` and the per-pair records are ``analyze
        --audit --json``."""

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "Traceback" not in err


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
    def test_runs_write_only_the_requested_outputs(
        self, program_file, tmp_path, monkeypatch, capsys
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["analyze", str(program_file)]) == 0
        assert main(["audit", str(program_file), "--out", "p.json"]) == 0
        assert sorted(path.name for path in work.rglob("*")) == ["p.json"]

    def test_out_flags_default_into_results(self):
        args = build_parser().parse_args(["analyze", "x.loop", "--metrics-out"])
        assert str(args.metrics_out) == "results/metrics.json"
        args = build_parser().parse_args(["analyze", "x.loop", "--trace-out"])
        assert str(args.trace_out) == "results/trace.json"

    def test_metrics_out_creates_parent_directories(
        self, program_file, tmp_path
    ):
        nested = tmp_path / "deep" / "nested" / "m.json"
        assert main(
            ["analyze", str(program_file), "--metrics-out", str(nested)]
        ) == 0
        assert json.loads(nested.read_text())["counters"]


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

    ``--metrics-out`` is covered by
    ``test_metrics_out_creates_parent_directories``.
    """

    @pytest.mark.parametrize("flag", ["--trace-out"])
    def test_analyze_out_flag(self, flag, program_file, tmp_path):
        out = tmp_path / "missing" / "dir" / "artifact"
        assert main(["analyze", str(program_file), flag, str(out)]) == 0
        assert out.read_text()

    def test_audit_out(self, program_file, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "precision.json"
        assert main(["audit", str(program_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())


class TestUnwritableOutputs:
    """An output path that cannot be written is one error line and exit
    2, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{program}", "--metrics-out"],
            ["analyze", "{program}", "--trace-out"],
            ["audit", "{program}", "--out"],
        ],
        ids=["metrics-out", "trace-out", "audit-out"],
    )
    def test_parent_is_a_regular_file(self, argv, program_file, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = blocker / "artifact.json"
        argv = [arg.format(program=program_file) for arg in argv]
        assert main([*argv, str(out)]) == 2
        captured = capsys.readouterr()
        # The path is checked before the run: no table, no progress line.
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro: error: {out}: File exists: {blocker}"
        ]


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
        [["analyze"], ["parallel"], ["queries"], ["audit"]],
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

    def test_valid_values_parse(self):
        args = build_parser().parse_args(
            ["serve", "--max-inflight", "2", "--queue-depth", "0",
             "--queue-timeout-s", "0.5", "--max-deadline-ms", "100"]
        )
        assert (args.max_inflight, args.queue_depth) == (2, 0)
        assert (args.queue_timeout_s, args.max_deadline_ms) == (0.5, 100.0)


class TestAssertFlag:
    """A malformed ``--assert`` is a usage error (exit 2, no run), worded
    as ``repro serve`` words the same text."""

    @pytest.mark.parametrize(
        "text",
        ["garbage", "n<=", "a(i) <= 3"],
        ids=["no-operator", "no-rhs", "array"],
    )
    def test_bad_assertion_is_a_usage_error(self, text, program_file, capsys):
        from repro.serve import ServeApp

        app = ServeApp(store_path=None)
        try:
            status, envelope = app.handle(
                {
                    "op": "analyze",
                    "program": KILL_PROGRAM,
                    "options": {"assertions": [text]},
                }
            )
        finally:
            app.close()
        assert (status, envelope["status"]) == (400, "invalid")
        assert envelope["error"].startswith("bad assertion: ")

        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(program_file), "--assert", text])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage:")
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument --assert: {envelope['error']}"
        )
        assert "Traceback" not in captured.err
