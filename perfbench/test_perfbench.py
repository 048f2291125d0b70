"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import generators, oracle

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_benchmark(*args: str) -> list[str]:
    """Run the benchmark command; returns its standard output lines."""

    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def declared() -> dict[str, set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {metric["name"] for metric in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


@pytest.fixture(scope="module")
def omega_runs() -> list[list[str]]:
    """Two untraced runs and one traced run of the cheapest workload."""

    common = ["--workload", "omega_pairs", "--seed", "7", "--seconds", "1"]
    return [
        run_benchmark(*common, "--trace", "0"),
        run_benchmark(*common, "--trace", "0"),
        run_benchmark(*common, "--trace", "1"),
    ]


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


# -- generators --------------------------------------------------------------


def test_same_seed_gives_identical_program_text():
    assert generators.omega_nests(11) == generators.omega_nests(11)
    assert generators.serve_stream(11) == generators.serve_stream(11)
    assert generators.omega_nests(11) != generators.omega_nests(12)
    assert generators.serve_stream(11) != generators.serve_stream(12)
    first = [p.name for p in generators.paper_programs(11)]
    assert first == [p.name for p in generators.paper_programs(11)]


def test_serve_stream_mix_is_exact():
    ops = generators.serve_stream(3)
    programs = len(generators.serve_base_programs())
    sessions = len(generators.SERVE_SESSION) * programs
    assert Counter(op.kind for op in ops) == {
        "new": programs,
        "edit": programs,
        "resubmit": programs,
        "restart": sessions // generators.RESTART_EVERY,
    }
    # Restarts come at a fixed period and resend a text already sent.
    for position, op in enumerate(ops):
        if op.kind == "restart":
            assert (position + 1) % (generators.RESTART_EVERY + 1) == 0
            assert op.text in {earlier.text for earlier in ops[:position]}
    # Every seed opens, edits and resends the same texts, in another order.
    sessions_only = [op for op in ops if op.kind != "restart"]
    other = [op for op in generators.serve_stream(4) if op.kind != "restart"]
    assert Counter(sessions_only) == Counter(other)


def test_edits_change_one_thing_and_still_parse():
    from repro.ir import parse

    text = "for i := 1 to n do {\n  a(i) := a[i-1]\n}\n"
    assert generators.edit_text(text, "subscript") == text.replace("a[i-1]", "a[i-1+1]")
    assert generators.edit_text(text, "bound") == text.replace("to n do", "to n-1 do")
    for op in generators.serve_stream(5):
        parse(op.text, op.name)


# -- ground truth -------------------------------------------------------------


def test_ground_truth_flags_a_removed_live_flow():
    from repro.analysis import analyze
    from repro.programs import CORPUS

    result_ = analyze(CORPUS["prefix_sum"]())
    assert oracle.missed_flows(result_) == []
    live = result_.live_flow()
    assert live
    result_.flow.remove(live[0])
    assert oracle.missed_flows(result_)


def test_ground_truth_flags_an_unsat_answer_for_a_real_flow():
    from repro.ir import parse

    program = parse("for i := 1 to n do {\n  a(i) := a[i-1]\n}\n", "shift")
    (write,) = [a for a in program.accesses() if a.is_write]
    (read,) = [a for a in program.accesses() if not a.is_write]
    assert oracle.unsat_memory_pairs(program, {(write, read): True}) == []
    assert oracle.unsat_memory_pairs(program, {(write, read): False}) == [(write, read)]


# -- the command ----------------------------------------------------------------


def test_printed_metric_names_are_declared(omega_runs, declared):
    untraced, _, traced = omega_runs
    for lines, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        metrics = result(lines)["metrics"]
        assert set(metrics) == declared[section]
        table = [line.split()[0] for line in lines if line.startswith("  ") and not line.startswith("  !")]
        assert set(table) == declared[section]
        for name, entry in metrics.items():
            assert NAME.fullmatch(name)
            assert set(entry) == {"value", "unit"}


def test_result_line_shape(omega_runs):
    for lines in omega_runs:
        line = result(lines)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


@pytest.fixture(scope="module")
def paper_runs() -> list[list[str]]:
    """Two short untraced runs of ``paper_analyze``."""

    common = ["--workload", "paper_analyze", "--seed", "7", "--seconds", "1"]
    return [run_benchmark(*common, "--trace", "0") for _ in range(2)]


def test_quality_counts_repeat_exactly(omega_runs, paper_runs):
    for runs in (omega_runs[:2], paper_runs):
        first, second = (result(lines) for lines in runs)
        for key in ("live_flow_pairs", "ok_frac"):
            assert first["metrics"][key] == second["metrics"][key]
        assert first["failed"] == second["failed"] == 0


def test_traced_run_isolates_the_omega_core(omega_runs):
    metrics = {k: v["value"] for k, v in result(omega_runs[2])["metrics"].items()}
    for name, value in metrics.items():
        if name.split(".")[0] in ("solver", "cache", "plan", "store", "serve"):
            assert value == 0, name
    assert metrics["omega.eliminate_s"] > 0
    layers = sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and not name.startswith("trace.")
    )
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "omega_pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
