"""Benchmark harness tests: runner mechanics, artifact schema, profiling.

Timing runs use a synthetic micro-suite (so the suite stays tier-1 fast);
one integration test exercises the real ``symbolic`` suite end to end.
"""

import json
import math

from repro.bench import (
    SCHEMA,
    SUITES,
    BenchReport,
    LegResult,
    Suite,
    SuiteResult,
    guard_overhead_gate,
    machine_fingerprint,
    profile_suites,
    render_report,
    run_bench,
)
from repro.guard import active as guard_active


def _micro_suite(log=None):
    def run(cache):
        total = sum(range(200 if cache else 400))
        if log is not None:
            log.append((cache, guard_active() is not None, total))

    return Suite("micro", "synthetic micro workload", run)


class TestRunner:
    def test_runs_warmup_and_trials_in_every_leg(self):
        log = []
        run_bench([_micro_suite(log)], warmup=2, trials=3)
        # (cache, governed) per iteration: 2 warmup rounds in leg order,
        # then 3 timed rounds interleaved, every other one reversed.
        on, off, guard = (True, False), (False, False), (True, True)
        configs = [entry[:2] for entry in log]
        assert configs == (
            [on, off, guard] * 2
            + [on, off, guard]
            + [guard, off, on]
            + [on, off, guard]
        )

    def test_guard_leg_runs_governed(self):
        seen = []

        def run(cache):
            seen.append((cache, guard_active() is not None))

        run_bench([Suite("micro", "governed probe", run)], warmup=0, trials=1)
        assert seen == [
            (True, False),
            (False, False),
            (True, True),  # only the guard leg activates a governor
        ]

    def test_report_statistics(self):
        report = run_bench([_micro_suite()], warmup=0, trials=5)
        result = report.suites["micro"]
        for leg in ("on", "off", "guard"):
            stats = result.legs[leg]
            assert len(stats.trials) == 5
            assert stats.median_s > 0
            assert min(stats.trials) <= stats.median_s <= max(stats.trials)
            assert stats.iqr_s >= 0
        assert result.speedup > 0
        assert result.guard_overhead > 0

    def test_median_is_the_statistical_median(self):
        report = run_bench([_micro_suite()], warmup=0, trials=3)
        stats = report.suites["micro"].legs["on"]
        assert stats.median_s == sorted(stats.trials)[1]

    def test_guard_overhead_baselines_against_on(self):
        result = SuiteResult("micro", "synthetic")
        result.legs["on"] = LegResult("micro", "on", [2.0])
        result.legs["off"] = LegResult("micro", "off", [4.0])
        result.legs["guard"] = LegResult("micro", "guard", [2.1])
        # Governed runs take the planner too, so the guard leg is judged
        # against the planned, cached "on" leg.
        assert math.isclose(result.guard_overhead, 1.05)
        del result.legs["on"]
        assert result.guard_overhead == 1.0


class TestArtifact:
    def test_schema_and_shape(self, tmp_path):
        report = run_bench([_micro_suite()], warmup=0, trials=2)
        path = tmp_path / "BENCH_omega.json"
        report.write(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert payload["settings"] == {"warmup": 0, "trials": 2}
        for key in ("platform", "python", "implementation", "cpus"):
            assert key in payload["machine"]
        legs = payload["suites"]["micro"]["legs"]
        assert set(legs) == {"on", "off", "guard"}
        for leg in legs.values():
            assert {"median_s", "iqr_s", "min_s", "max_s", "trials_s"} <= set(leg)
            assert len(leg["trials_s"]) == 2
        assert payload["suites"]["micro"]["cache_speedup"] > 0
        assert "workers_speedup" not in payload["suites"]["micro"]
        assert payload["suites"]["micro"]["guard_overhead"] > 0
        assert "planner_speedup" not in payload["suites"]["micro"]

    def test_fingerprint_is_stable_within_a_process(self):
        assert machine_fingerprint() == machine_fingerprint()

    def test_render_report_table(self):
        report = run_bench([_micro_suite()], warmup=0, trials=2)
        table = render_report(report)
        assert "micro" in table
        assert "cache speedup" in table
        assert "workers speedup" not in table
        assert "guard overhead" in table
        assert "planner speedup" not in table
        assert "median" in table and "iqr" in table


class TestGuardOverheadGate:
    @staticmethod
    def _report(baseline, guard, suite="corpus"):
        result = SuiteResult(suite, "synthetic")
        result.legs["on"] = LegResult(suite, "on", [baseline])
        result.legs["guard"] = LegResult(suite, "guard", [guard])
        return BenchReport({suite: result}, {}, 0, 1)

    def test_passes_under_threshold(self):
        ok, message = guard_overhead_gate(self._report(1.0, 1.02))
        assert ok
        assert "PASS" in message

    def test_fails_over_threshold(self):
        ok, message = guard_overhead_gate(self._report(1.0, 1.20))
        assert not ok
        assert "FAIL" in message

    def test_threshold_override(self):
        ok, _ = guard_overhead_gate(self._report(1.0, 1.20), threshold=0.5)
        assert ok

    def test_skips_when_suite_missing(self):
        ok, message = guard_overhead_gate(BenchReport({}, {}, 0, 1))
        assert ok
        assert "skipped" in message


class TestRegisteredSuites:
    def test_paper_suites_registered(self):
        assert {"corpus", "cholsky", "symbolic"} <= set(SUITES)

    def test_symbolic_suite_end_to_end(self):
        report = run_bench([SUITES["symbolic"]], warmup=0, trials=1)
        legs = report.suites["symbolic"].legs
        assert legs["on"].median_s > 0
        assert legs["off"].median_s > 0


class TestProfileIntegration:
    def test_profile_suites_produces_hotspots(self):
        profile = profile_suites([SUITES["symbolic"]])
        assert profile.root_time > 0
        assert math.isclose(
            profile.total_self_time(), profile.root_time, rel_tol=0.01
        )
        names = set(profile.profiles)
        assert "omega.is_satisfiable" in names
        table = profile.hotspot_table(limit=5)
        assert "self%" in table
        assert profile.collapsed_stacks().strip()
