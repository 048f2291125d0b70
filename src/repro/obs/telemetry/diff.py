"""Differential attribution: rank the suspects behind a regression.

``python -m repro diff OLD NEW`` compares two artifacts and emits a
ranked suspects report — *what most plausibly explains the change*
between two runs — instead of the blunt pass/fail the precision gate
gives.  Accepted inputs (auto-detected by schema):

* ``repro.run/1`` run records — single records or whole
  ``results/runs.jsonl`` ledgers (the newest record is used; ``--kind``
  selects between ``analyze``/``audit`` entries);
* ``repro.precision/1`` artifacts (reusing ``compare_precision``);
* trace files — Chrome-trace JSON or span JSONL — compared by
  per-stage *self* time via :class:`repro.obs.profile.Profile`.

Scoring is heuristic but deliberately shaped: deterministic semantic
regressions (precision drift, guard degradations, new errors) score
highest and are the only suspects that fail ``--gate``;
configuration-sensitive health signals (cache hit-rate drops) come next;
generic counter shifts score by log-ratio with per-layer weights; timing
deltas score lowest because wall clock is the noisiest witness.  The
ranking — not the absolute scores — is the contract the regression tests
pin down.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field

from .ledger import RUN_SCHEMA

__all__ = ["Suspect", "SuspectsReport", "diff_paths", "load_input"]

#: Generic counter shifts below this score are left out of the report.
_COUNTER_FLOOR = 0.5

#: Counters excluded from generic log-ratio scoring.  Cache-layer
#: counters are covered by the dedicated hit-rate suspect (their raw
#: values swing to zero whenever the cache layer changes, which would
#: drown the report); ``obs.*`` counters measure the telemetry pipeline
#: itself and shift with the flags a run was invoked with, never with
#: the analysis under comparison.
_CACHE_COUNTERS = ("omega.cache.", "obs.")

#: Per-layer weights for generic counter log-ratio scoring.
_COUNTER_WEIGHTS = (
    ("omega.precision.", 6.0),
    ("omega.", 4.0),
    ("analysis.", 3.0),
    ("guard.", 3.0),
    ("solver.plan.", 2.0),
    ("solver.", 2.0),
)


@dataclass
class Suspect:
    """One ranked explanation for the old-vs-new change."""

    score: float
    label: str
    #: Deterministic semantic regression: fails ``--gate``.
    gate: bool = False

    def describe(self) -> str:
        flag = "GATE" if self.gate else "    "
        return f"{self.score:>7.1f}  [{flag}] {self.label}"


@dataclass
class SuspectsReport:
    """The ranked suspects between two artifacts."""

    kind: str  #: what was compared ("audit run records", "trace files", ...)
    old_name: str
    new_name: str
    suspects: list[Suspect] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, score: float, label: str, *, gate: bool = False) -> None:
        self.suspects.append(Suspect(score, label, gate))

    @property
    def ranked(self) -> list[Suspect]:
        return sorted(self.suspects, key=lambda s: (-s.score, s.label))

    @property
    def gate_failures(self) -> list[Suspect]:
        return [s for s in self.suspects if s.gate]

    @property
    def ok(self) -> bool:
        """Gate verdict: only deterministic regressions fail."""

        return not self.gate_failures

    def render(self) -> str:
        lines = [
            f"differential attribution: {self.old_name} -> {self.new_name} "
            f"({self.kind})"
        ]
        lines.extend(f"  {note}" for note in self.notes)
        ranked = self.ranked
        if not ranked:
            lines.append("  no suspects: the runs are equivalent")
        else:
            lines.append(f"  {'rank':>4}  {'score':>7}  suspect")
            for rank, suspect in enumerate(ranked, start=1):
                lines.append(f"  {rank:>4}  {suspect.describe()}")
        if self.ok:
            lines.append("gate: PASS (no deterministic regressions)")
        else:
            lines.append(
                f"gate: FAIL ({len(self.gate_failures)} deterministic "
                "regression(s))"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Input detection
# ---------------------------------------------------------------------------


def _looks_like_span(record: dict) -> bool:
    return "name" in record and "ts" in record and "dur" in record


def load_input(path) -> tuple[str, object]:
    """Load one diff input; returns ``(type, payload)``.

    ``type`` is ``"runs"`` (a list of run records), ``"precision"`` or
    ``"trace"`` (a list of span events).
    """

    from ..trace import SpanEvent

    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix == ".jsonl" or "\n{" in text.strip():
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not records:
            raise ValueError(f"{path}: empty JSONL input")
        first = records[0]
        if first.get("schema") == RUN_SCHEMA:
            return "runs", records
        if _looks_like_span(first):
            return "trace", [SpanEvent.from_dict(r) for r in records]
        raise ValueError(f"{path}: unrecognized JSONL schema")
    payload = json.loads(text)
    schema = payload.get("schema", "") if isinstance(payload, dict) else ""
    if schema == RUN_SCHEMA:
        return "runs", [payload]
    if schema.startswith("repro.precision/"):
        return "precision", payload
    if isinstance(payload, dict) and "traceEvents" in payload:
        spans = [
            SpanEvent(
                item["name"],
                item["ts"] / 1e6,
                item["dur"] / 1e6,
                item.get("tid", 0),
                attrs=dict(item.get("args", {})),
            )
            for item in payload["traceEvents"]
            if item.get("ph") == "X"
        ]
        return "trace", spans
    raise ValueError(f"{path}: unrecognized artifact (schema {schema!r})")


def _select_record(records: list[dict], kind: str | None, path) -> dict:
    found = None
    for record in records:
        if kind is None or record.get("kind") == kind:
            found = record
    if found is None:
        raise ValueError(f"{path}: no run record of kind {kind!r}")
    return found


# ---------------------------------------------------------------------------
# Run-record attribution
# ---------------------------------------------------------------------------


def _counters(record: dict) -> dict:
    metrics = record.get("metrics") or {}
    return metrics.get("counters") or {}


def _quantile_sums(record: dict) -> dict:
    metrics = record.get("metrics") or {}
    return {
        name: entry.get("sum", 0.0)
        for name, entry in (metrics.get("quantiles") or {}).items()
    }


def _hit_rate(counters: dict) -> float | None:
    """The solver cache hit rate; None for a run that never consulted a
    cache (an uncached run has no rate, not a 0% one)."""

    hits = counters.get("omega.cache.hits", 0)
    misses = counters.get("omega.cache.misses", 0)
    total = hits + misses
    if total == 0:
        return None
    return hits / total


def _counter_weight(name: str) -> float:
    for prefix, weight in _COUNTER_WEIGHTS:
        if name.startswith(prefix):
            return weight
    return 1.0


def _precision_pairs(record: dict) -> tuple[int | None, int | None]:
    """(live flow pairs, inexact records) from any record shape."""

    summary = record.get("summary") or {}
    totals = summary.get("totals")
    if totals is not None:  # audit runs
        return totals.get("omega_live"), totals.get("inexact")
    precision = summary.get("precision")
    if precision is not None:  # audited analyze runs
        return precision.get("reported"), precision.get("inexact")
    counts = summary.get("counts")
    if counts is not None:  # plain analyze runs
        return counts.get("flow_live"), None
    return None, None


def _diff_runs(report: SuspectsReport, old: dict, new: dict) -> None:
    # New failures always lead the report.
    if new.get("error") and not old.get("error"):
        report.add(100.0, f"run failed: {new['error']}", gate=True)

    # Precision drift: integer semantics, always gated.
    old_live, old_inexact = _precision_pairs(old)
    new_live, new_inexact = _precision_pairs(new)
    if old_live is not None and new_live is not None and new_live > old_live:
        report.add(
            50.0 + 5.0 * (new_live - old_live),
            f"precision: live flow pairs {old_live} -> {new_live} "
            "(elimination rate dropped)",
            gate=True,
        )
    if (
        old_inexact is not None
        and new_inexact is not None
        and new_inexact > old_inexact
    ):
        report.add(
            45.0 + 5.0 * (new_inexact - old_inexact),
            f"precision: inexact records {old_inexact} -> {new_inexact}",
            gate=True,
        )

    # Degradations: a governed run started degrading answers.
    old_degr = (old.get("summary") or {}).get("degradations", 0) or 0
    new_degr = (new.get("summary") or {}).get("degradations", 0) or 0
    if new_degr > old_degr:
        report.add(
            40.0 + 2.0 * (new_degr - old_degr),
            f"guard: degradations {old_degr} -> {new_degr} "
            "(answers fell back to conservative)",
            gate=True,
        )

    old_counters = _counters(old)
    new_counters = _counters(new)
    have_counters = bool(old_counters) and bool(new_counters)

    if have_counters:
        # Cache health: the strongest non-semantic signal.
        old_rate = _hit_rate(old_counters)
        new_rate = _hit_rate(new_counters)
        if old_rate is not None and new_rate is not None:
            drop = old_rate - new_rate
            if drop > 0.05:
                report.add(
                    30.0 + 60.0 * drop,
                    f"solver cache hit-rate dropped: {old_rate:.0%} -> "
                    f"{new_rate:.0%} (work is being recomputed)",
                )

        # Generic counter shifts, weighted by layer.
        for name in sorted(set(old_counters) | set(new_counters)):
            if name.startswith(_CACHE_COUNTERS):
                continue
            old_value = old_counters.get(name, 0)
            new_value = new_counters.get(name, 0)
            if old_value == new_value:
                continue
            ratio = (new_value + 1) / (old_value + 1)
            score = abs(math.log2(ratio)) * _counter_weight(name)
            if score < _COUNTER_FLOOR:
                continue
            direction = "x" if ratio >= 1 else "x (shrank)"
            report.add(
                min(score, 25.0),
                f"counter {name}: {old_value} -> {new_value} "
                f"({ratio:.2f}{direction})",
            )
    else:
        report.notes.append(
            "metrics snapshot missing on one side; counter attribution skipped"
        )

    # Stage timing from histogram sums: the noisiest witness, lowest scores.
    old_sums = _quantile_sums(old)
    new_sums = _quantile_sums(new)
    for name in sorted(set(old_sums) & set(new_sums)):
        old_s, new_s = old_sums[name], new_sums[name]
        if old_s < 1e-4:
            continue
        rel = (new_s - old_s) / old_s
        if rel <= 0.25:
            continue
        report.add(
            min(15.0, 2.0 * rel),
            f"stage {name}: {old_s:.4f}s -> {new_s:.4f}s ({rel:+.0%} "
            "cumulative)",
        )


# ---------------------------------------------------------------------------
# Whole-artifact attribution (precision / trace inputs)
# ---------------------------------------------------------------------------


def _diff_precision(report: SuspectsReport, old: dict, new: dict) -> None:
    from ...reporting.precision import compare_precision

    comparison = compare_precision(old, new)
    for delta in comparison.deltas:
        if not delta.regressed:
            continue
        report.add(
            50.0 + 5.0 * (delta.new - delta.old),
            f"precision {delta.describe()}",
            gate=True,
        )
    for missing in comparison.missing:
        report.add(
            40.0, f"precision {missing}: absent from new artifact", gate=True
        )


def _diff_traces(report: SuspectsReport, old_events, new_events) -> None:
    from ..profile import Profile

    old_profile = Profile.from_events(old_events)
    new_profile = Profile.from_events(new_events)
    old_self = {
        name: entry.self_time for name, entry in old_profile.profiles.items()
    }
    new_self = {
        name: entry.self_time for name, entry in new_profile.profiles.items()
    }
    old_total = old_profile.root_time or 1.0
    for name in sorted(set(old_self) | set(new_self)):
        old_s = old_self.get(name, 0.0)
        new_s = new_self.get(name, 0.0)
        delta = new_s - old_s
        share = delta / old_total
        if delta <= 0 or share < 0.02:
            continue
        report.add(
            min(25.0, 50.0 * share),
            f"span {name}: self time {old_s:.4f}s -> {new_s:.4f}s "
            f"(+{share:.0%} of the old run)",
        )
    report.notes.append(
        f"span self-time totals: {old_profile.total_self_time():.4f}s -> "
        f"{new_profile.total_self_time():.4f}s"
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _run_name(record: dict, path) -> str:
    run_id = record.get("run_id", "?")
    when = record.get("when", "?")
    return f"{pathlib.Path(path).name}[{record.get('kind')}:{run_id} @ {when}]"


def diff_paths(
    old_path, new_path, *, kind: str | None = None
) -> SuspectsReport:
    """Compare two artifacts on disk and return the suspects report."""

    old_type, old_payload = load_input(old_path)
    new_type, new_payload = load_input(new_path)
    if old_type != new_type:
        raise ValueError(
            f"cannot compare {old_type} ({old_path}) against "
            f"{new_type} ({new_path})"
        )
    if old_type == "runs":
        old_record = _select_record(old_payload, kind, old_path)
        # Without an explicit kind, match the new side to the old
        # record's kind so a mixed ledger compares like against like.
        new_record = _select_record(
            new_payload, kind or old_record.get("kind"), new_path
        )
        report = SuspectsReport(
            f"{old_record.get('kind')} run records",
            _run_name(old_record, old_path),
            _run_name(new_record, new_path),
        )
        _diff_runs(report, old_record, new_record)
        return report
    old_name = pathlib.Path(old_path).name
    new_name = pathlib.Path(new_path).name
    if old_type == "precision":
        report = SuspectsReport("precision artifacts", old_name, new_name)
        _diff_precision(report, old_payload, new_payload)
        return report
    report = SuspectsReport("trace files", old_name, new_name)
    _diff_traces(report, old_payload, new_payload)
    return report
