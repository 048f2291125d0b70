"""The benchmark runner: warmup + trials, medians, artifact emission.

``run_bench`` times each suite (see :mod:`repro.bench.suites`) in both
solver-cache legs — ``on`` and ``off`` — with a warmup pass followed by
repeated trials, and reports the median and interquartile range per leg.
Medians over independent trials are the paper's own methodology for a
shared machine: one slow outlier (a GC pause, a scheduler hiccup) moves
the mean but not the median.

The result serializes to the canonical ``BENCH_omega.json`` artifact: a
schema tag, a machine fingerprint (platform, Python build, CPU count —
enough to recognise that two artifacts are not comparable), the runner
settings, and per-suite / per-leg statistics including the raw trials.
``render_report`` produces the human-readable table written to
``results/bench_omega.txt``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter
from typing import Callable, Sequence

from contextlib import nullcontext

from ..guard import budget as _guard
from ..obs import Profile, Tracer, tracing

# Run identity (fingerprint, git SHA) lives in the telemetry ledger now;
# re-exported here because bench artifacts carry the same fields.
from ..obs.telemetry.ledger import git_sha as _git_sha
from ..obs.telemetry.ledger import machine_fingerprint
from .suites import Suite, default_suites

__all__ = [
    "GUARD_OVERHEAD_THRESHOLD",
    "HISTORY_SCHEMA",
    "PLANNER_SPEEDUP_THRESHOLD",
    "SCHEMA",
    "BenchReport",
    "LegResult",
    "SuiteResult",
    "append_history",
    "guard_overhead_gate",
    "history_entry",
    "machine_fingerprint",
    "planner_speedup_gate",
    "profile_suites",
    "render_report",
    "run_bench",
]

SCHEMA = "repro.bench/1"

#: Schema of one line in ``results/bench_history.jsonl``.
HISTORY_SCHEMA = "repro.bench-history/1"

#: Legs, in run order.  "on" exercises the memoizing solver facade, "off"
#: the raw solver — that pair keeps the cache speedup regression-gated —
#: "guard" the cached configuration under a governed (but unlimited) resource
#: budget, gating the cost of the checkpoint machinery itself, and
#: "legacy" the per-pair analysis path with the single-pass query planner
#: disabled, gating the planner's speedup.  Governed runs fall back to
#: the per-pair path by design, so the guard leg also runs with the
#: planner off and its overhead is measured against "legacy" (same
#: analysis path, no governance).
LEGS = ("on", "off", "guard", "legacy")

#: Leg name -> (cache, planner) configuration.
LEG_CONFIG: dict[str, tuple[bool, bool]] = {
    "on": (True, True),
    "off": (False, True),
    "guard": (True, False),
    "legacy": (True, False),
}

#: Legs that run inside ``repro.guard.governed(Budget.unlimited())``: the
#: checkpoints all fire (deadline checks, meter updates) but can never
#: exhaust, isolating pure governance overhead against the "on" leg.
GOVERNED_LEGS = frozenset({"guard"})

#: The guard leg may cost at most this much over the "legacy" leg (median
#: ratio - 1) before :func:`guard_overhead_gate` fails.
GUARD_OVERHEAD_THRESHOLD = 0.05

#: The planner must beat the per-pair "legacy" leg by at least this median
#: ratio on the engine-driven suites before :func:`planner_speedup_gate`
#: passes.
PLANNER_SPEEDUP_THRESHOLD = 1.3


@dataclass
class LegResult:
    """Trial statistics for one suite in one leg."""

    suite: str
    leg: str  # one of LEGS
    trials: list[float]

    @property
    def median_s(self) -> float:
        return statistics.median(self.trials)

    @property
    def iqr_s(self) -> float:
        if len(self.trials) < 2:
            return 0.0
        q1, _q2, q3 = statistics.quantiles(self.trials, n=4)
        return q3 - q1

    def to_dict(self) -> dict:
        return {
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "min_s": min(self.trials),
            "max_s": max(self.trials),
            "trials_s": list(self.trials),
        }


@dataclass
class SuiteResult:
    suite: str
    description: str
    legs: dict[str, LegResult] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Cache-off median over cache-on median (the cache's payoff)."""

        on = self.legs.get("on")
        off = self.legs.get("off")
        if on is None or off is None or on.median_s == 0:
            return 1.0
        return off.median_s / on.median_s

    @property
    def guard_overhead(self) -> float:
        """Guard-leg median over its ungoverned baseline (governance cost).

        The baseline is the "legacy" leg — the guard leg analyzes through
        the same per-pair path (governed runs disable the planner) — with
        the cache-on leg as a fallback for artifacts predating "legacy".
        """

        baseline = self.legs.get("legacy") or self.legs.get("on")
        guard = self.legs.get("guard")
        if baseline is None or guard is None or baseline.median_s == 0:
            return 1.0
        return guard.median_s / baseline.median_s

    @property
    def planner_speedup(self) -> float:
        """Per-pair "legacy" median over planned cache-on median."""

        on = self.legs.get("on")
        legacy = self.legs.get("legacy")
        if on is None or legacy is None or on.median_s == 0:
            return 1.0
        return legacy.median_s / on.median_s

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "legs": {leg: result.to_dict() for leg, result in self.legs.items()},
            "cache_speedup": self.speedup,
            "guard_overhead": self.guard_overhead,
            "planner_speedup": self.planner_speedup,
        }


@dataclass
class BenchReport:
    suites: dict[str, SuiteResult]
    machine: dict
    warmup: int
    trials: int

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "machine": self.machine,
            "settings": {"warmup": self.warmup, "trials": self.trials},
            "suites": {
                name: suite.to_dict() for name, suite in sorted(self.suites.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def write(self, path) -> None:
        """Write the artifact to ``path``, creating missing parents."""

        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())


# ---------------------------------------------------------------------------
# Bench history: one summary line per run, appended across PRs
# ---------------------------------------------------------------------------


def history_entry(
    artifact: dict, *, sha: str | None = None, when: str | None = None
) -> dict:
    """One ``bench_history.jsonl`` line from a ``repro.bench/1`` artifact.

    A compressed summary — per-suite medians and speedups, the machine
    fingerprint, the git SHA and an ISO-8601 UTC timestamp — small enough
    to append on every run, rich enough to plot the perf trajectory.
    """

    suites = {}
    for name, suite in sorted(artifact.get("suites", {}).items()):
        legs = suite.get("legs", {})
        entry = {
            leg: round(data["median_s"], 6)
            for leg, data in sorted(legs.items())
            if "median_s" in data
        }
        summary = {"median_s": entry}
        for ratio in (
            "cache_speedup",
            "guard_overhead",
            "planner_speedup",
        ):
            if ratio in suite:
                summary[ratio] = round(suite[ratio], 4)
        suites[name] = summary
    return {
        "schema": HISTORY_SCHEMA,
        "when": when
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "sha": sha if sha is not None else _git_sha(),
        "machine": artifact.get("machine", {}),
        "settings": artifact.get("settings", {}),
        "suites": suites,
    }


def append_history(
    artifact: dict, path, *, sha: str | None = None, when: str | None = None
) -> dict:
    """Append one summary line for ``artifact`` to the history file."""

    entry = history_entry(artifact, sha=sha, when=when)
    with open(path, "a") as sink:
        sink.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def _time_leg(
    suite: Suite,
    cache: bool,
    planner: bool,
    warmup: int,
    trials: int,
    governed: bool = False,
) -> list[float]:
    scope = (
        (lambda: _guard.governed(_guard.Budget.unlimited()))
        if governed
        else nullcontext
    )
    with scope():
        for _ in range(warmup):
            suite.run(cache, planner)
        times = []
        for _ in range(trials):
            started = perf_counter()
            suite.run(cache, planner)
            times.append(perf_counter() - started)
    return times


def run_bench(
    suites: Sequence[Suite] | None = None,
    *,
    warmup: int = 1,
    trials: int = 5,
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Run every suite in every leg and collect the statistics."""

    suites = list(suites) if suites is not None else default_suites()
    report = BenchReport({}, machine_fingerprint(), warmup, trials)
    for suite in suites:
        result = SuiteResult(suite.name, suite.description)
        for leg in LEGS:
            cache, planner = LEG_CONFIG[leg]
            if progress is not None:
                progress(
                    f"{suite.name}: leg {leg} "
                    f"({warmup} warmup + {trials} trials)"
                )
            times = _time_leg(
                suite,
                cache,
                planner,
                warmup,
                trials,
                governed=leg in GOVERNED_LEGS,
            )
            result.legs[leg] = LegResult(suite.name, leg, times)
        report.suites[suite.name] = result
    return report


def profile_suites(suites: Sequence[Suite] | None = None) -> Profile:
    """One traced cache-on pass over the suites, as a hotspot profile."""

    suites = list(suites) if suites is not None else default_suites()
    tracer = Tracer()
    with tracing(tracer):
        for suite in suites:
            suite.run(True)
    return Profile.from_tracer(tracer)


def guard_overhead_gate(
    report: BenchReport,
    *,
    suite: str = "corpus",
    threshold: float = GUARD_OVERHEAD_THRESHOLD,
) -> tuple[bool, str]:
    """Assert the guard leg costs under ``threshold`` on ``suite``.

    Returns ``(ok, message)``.  A missing suite or leg passes trivially
    (the gate only judges what actually ran — the compare gate flags
    dropped legs separately).
    """

    result = report.suites.get(suite)
    if result is None or "guard" not in result.legs or (
        "legacy" not in result.legs and "on" not in result.legs
    ):
        return True, f"guard overhead gate: skipped ({suite} not benchmarked)"
    overhead = result.guard_overhead - 1.0
    ok = overhead < threshold
    verdict = "PASS" if ok else "FAIL"
    return ok, (
        f"guard overhead gate: {verdict} ({suite} governed run costs "
        f"{overhead:+.1%} vs ungoverned; budget +{threshold:.0%})"
    )


def planner_speedup_gate(
    report: BenchReport,
    *,
    suites: Sequence[str] = ("corpus", "cholsky"),
    threshold: float = PLANNER_SPEEDUP_THRESHOLD,
) -> tuple[bool, str]:
    """Assert the planner beats the per-pair path on the engine suites.

    Returns ``(ok, message)``.  Suites missing the "legacy" or "on" leg
    are skipped (the gate only judges what actually ran); the symbolic
    suite never counts, since it does not drive the analysis engine.
    """

    judged: list[str] = []
    ok = True
    for name in suites:
        result = report.suites.get(name)
        if (
            result is None
            or "legacy" not in result.legs
            or "on" not in result.legs
        ):
            continue
        speedup = result.planner_speedup
        judged.append(f"{name} {speedup:.2f}x")
        if speedup < threshold:
            ok = False
    if not judged:
        return True, "planner speedup gate: skipped (no suite benchmarked)"
    verdict = "PASS" if ok else "FAIL"
    return ok, (
        f"planner speedup gate: {verdict} ({', '.join(judged)}; "
        f"floor {threshold:.2f}x vs per-pair path)"
    )


def render_report(report: BenchReport) -> str:
    """The human-readable per-suite table (``results/bench_omega.txt``)."""

    lines = [
        "Omega benchmark harness "
        f"(warmup={report.warmup}, trials={report.trials}, median/IQR)",
        f"  machine: {report.machine['platform']}, "
        f"python {report.machine['python']} "
        f"({report.machine['implementation']}), "
        f"{report.machine['cpus']} cpus",
        "",
        f"  {'suite':<12} {'leg':<8} {'median':>10} {'iqr':>10}"
        f" {'min':>10} {'max':>10}",
        "  " + "-" * 64,
    ]
    for name, suite in sorted(report.suites.items()):
        for leg in LEGS:
            result = suite.legs.get(leg)
            if result is None:
                continue
            lines.append(
                f"  {name:<12} {leg:<8} {result.median_s:>9.4f}s"
                f" {result.iqr_s:>9.4f}s {min(result.trials):>9.4f}s"
                f" {max(result.trials):>9.4f}s"
            )
        lines.append(f"  {name:<12} cache speedup: {suite.speedup:.2f}x")
        if "guard" in suite.legs:
            lines.append(
                f"  {name:<12} guard overhead: "
                f"{suite.guard_overhead - 1.0:+.1%}"
            )
        if "legacy" in suite.legs:
            lines.append(
                f"  {name:<12} planner speedup: {suite.planner_speedup:.2f}x"
            )
    return "\n".join(lines) + "\n"
