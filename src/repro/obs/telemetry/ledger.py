"""The run ledger: one structured record per CLI invocation.

Every ``analyze`` / ``audit`` run (and every ``serve`` request) appends
one ``repro.run/1`` record to ``results/runs.jsonl`` — the cross-run memory the in-run
layers (spans, metrics) cannot provide.  A record carries the run
identity (``run_id``, ISO-8601 UTC timestamp, machine fingerprint, git
SHA when available), the resolved analysis options, a full metrics
snapshot with histogram quantiles, and a per-kind summary (dependence
counts, degradations, precision totals).  ``python -m repro diff``
consumes pairs of these records to attribute regressions.  Older
ledgers may hold ``bench`` records from a since-deleted timing harness;
they still load, and ``diff --kind`` skips them.

**Stable vs volatile fields.**  A record is one run's honest snapshot,
so most of it is volatile by nature: timestamps, machine details,
latency quantiles, and any counter whose value depends on the cache
layer (``omega.cache.*`` counts only when caching is on,
``solver.plan.cores_*`` depend on what the cache already answered).
:func:`stable_view` projects out the *stable* subset — the
analysis-semantics counters and summaries that are bit-identical across
cache on/off — which is what the determinism
regression tests compare and what ``diff --gate`` judges without a
tolerance threshold.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from datetime import datetime, timezone

from ..instrument import metrics as _metrics
from .context import current_run, new_run_id

__all__ = [
    "RUN_SCHEMA",
    "STABLE_COUNTERS",
    "STABLE_COUNTER_PREFIXES",
    "append_run",
    "git_sha",
    "last_run",
    "machine_fingerprint",
    "read_runs",
    "run_record",
    "stable_view",
]

#: Schema tag of one ledger line.
RUN_SCHEMA = "repro.run/1"

#: Default ledger location (relative to the invocation directory).
DEFAULT_LEDGER = pathlib.Path("results/runs.jsonl")

#: Counter prefixes that are bit-identical across cache settings: pure
#: analysis semantics and audited precision.
STABLE_COUNTER_PREFIXES = ("analysis.", "omega.precision.")

#: Individual stable counters: call-site-driven service/planner totals
#: (every query submission and plan construction happens in
#: deterministic order, whatever answers it).
STABLE_COUNTERS = frozenset(
    {
        "solver.queries",
        "solver.plan.groups",
        "solver.plan.pairs_planned",
        "guard.degradations",
        "guard.budget_exhausted",
    }
)


def machine_fingerprint() -> dict:
    """Enough platform detail to tell two records apart."""

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count() or 1,
    }


def git_sha() -> str | None:
    """The short commit SHA of the working tree, or None outside git."""

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


#: AnalysisOptions fields worth recording (JSON-scalar valued only;
#: assertions are summarized by count, budget/solver objects elided).
_OPTION_FIELDS = (
    "extended",
    "refine",
    "cover",
    "kill",
    "terminate",
    "partial_refine",
    "extend_all_kinds",
    "input_deps",
    "explain",
    "audit",
    "deadline_ms",
    "policy",
)


def _options_dict(options) -> dict | None:
    """The resolved options as a flat, JSON-ready dict (duck-typed, so
    the ledger never imports the analysis layer)."""

    if options is None:
        return None
    found = {
        name: getattr(options, name)
        for name in _OPTION_FIELDS
        if hasattr(options, name)
    }
    assertions = getattr(options, "assertions", ())
    found["assertions"] = len(assertions)
    return found


def _quantiles(histogram) -> dict:
    """The compact per-histogram summary a record stores."""

    return {
        "count": histogram.count,
        "sum": histogram.total,
        "p50": histogram.quantile(0.5),
        "p90": histogram.quantile(0.9),
        "p99": histogram.quantile(0.99),
        "max": histogram.max,
    }


def _metrics_snapshot(registry) -> dict | None:
    if registry is None:
        return None
    return {
        "counters": dict(sorted(registry.counters.items())),
        "gauges": dict(sorted(registry.gauges.items())),
        "quantiles": {
            name: _quantiles(histogram)
            for name, histogram in sorted(registry.histograms.items())
        },
    }


def _result_summary(result) -> dict:
    """The stable per-analysis summary (duck-typed AnalysisResult)."""

    summary: dict = {"counts": result.counts()}
    degradations = result.degradations
    summary["degraded"] = result.degraded()
    summary["degradations"] = len(degradations) if degradations else 0
    if result.provenance:
        reported = eliminated = independent = inexact = 0
        for record in result.provenance:
            if record.verdict == "reported":
                reported += 1
            elif record.verdict == "eliminated":
                eliminated += 1
            else:
                independent += 1
            if not record.exact:
                inexact += 1
        summary["precision"] = {
            "records": len(result.provenance),
            "reported": reported,
            "eliminated": eliminated,
            "independent": independent,
            "inexact": inexact,
        }
    return summary


def _precision_summary(artifact: dict) -> dict:
    """The stable totals of a ``repro.precision/1`` artifact."""

    totals = artifact.get("totals", {})
    return {
        "programs": len(artifact.get("programs", {})),
        "totals": {
            key: totals[key]
            for key in sorted(totals)
            if isinstance(totals[key], (int, float))
        },
    }


def run_record(
    kind: str,
    *,
    program: str | None = None,
    options=None,
    registry=None,
    result=None,
    artifact: dict | None = None,
    error: str | None = None,
    run_id: str | None = None,
    when: str | None = None,
    sha: str | None = None,
    machine: dict | None = None,
) -> dict:
    """Build one ``repro.run/1`` record for an invocation of ``kind``.

    ``kind`` is ``analyze`` / ``audit`` / ``serve``; ``artifact`` is the
    precision artifact the run produced (if any).  ``run_id``,
    ``when``, ``sha`` and ``machine`` are injectable for deterministic
    tests; ``run_id`` falls back to the active :class:`RunContext`
    before minting a fresh id.
    """

    if run_id is None:
        context = current_run()
        run_id = context.run_id if context is not None else new_run_id()
    record: dict = {
        "schema": RUN_SCHEMA,
        "kind": kind,
        "run_id": run_id,
        "when": when
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine if machine is not None else machine_fingerprint(),
        "git": sha if sha is not None else git_sha(),
        "program": program,
        "options": _options_dict(options),
        "metrics": _metrics_snapshot(registry),
        "summary": {},
    }
    if result is not None:
        record["summary"] = _result_summary(result)
    if artifact is not None and artifact.get("schema", "").startswith(
        "repro.precision/"
    ):
        record["summary"] = _precision_summary(artifact)
    if error is not None:
        record["error"] = error
    return record


def stable_view(record: dict) -> dict:
    """The cache-independent projection of one run record.

    Keeps the kind, program, summary and the stable counter subset
    (:data:`STABLE_COUNTER_PREFIXES` / :data:`STABLE_COUNTERS`); drops
    identity, timing, machine and every configuration-dependent series.
    """

    options = record.get("options")
    if options is not None:
        options = dict(sorted(options.items()))
    counters = {}
    metrics = record.get("metrics")
    if metrics is not None:
        for name, value in sorted(metrics.get("counters", {}).items()):
            if name.startswith(STABLE_COUNTER_PREFIXES) or name in STABLE_COUNTERS:
                counters[name] = value
    return {
        "schema": record.get("schema"),
        "kind": record.get("kind"),
        "program": record.get("program"),
        "options": options,
        "summary": record.get("summary"),
        "counters": counters,
        "error": record.get("error"),
    }


def append_run(record: dict, path=DEFAULT_LEDGER) -> pathlib.Path:
    """Append one record to the ledger at ``path`` (parents created)."""

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as sink:
        sink.write(json.dumps(record, sort_keys=True) + "\n")
    _metrics.inc("obs.runs.recorded")
    return path


def read_runs(path) -> list[dict]:
    """Load every record from a ledger file."""

    with open(path) as source:
        return [json.loads(line) for line in source if line.strip()]


def last_run(path, kind: str | None = None) -> dict | None:
    """The newest record in the ledger (optionally of one ``kind``)."""

    found = None
    for record in read_runs(path):
        if kind is None or record.get("kind") == kind:
            found = record
    return found
