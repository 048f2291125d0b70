"""The precision scoreboard and its CI gate.

The repository benchmark (``perfbench/``) measures *speed*; this module
gates *precision* — the paper's actual headline claim.
:func:`precision_report` runs the audited Omega pipeline
(``AnalysisOptions(audit=True)``) and every classical baseline in
:mod:`repro.baselines` over the corpus, and counts, per program, the
flow-dependence pairs each would report.  The result is the
``results/precision_omega.json`` artifact (schema ``repro.precision/1``,
written by ``python -m repro audit``): per-corpus baseline-vs-Omega
counts, the false-dependence elimination rate, and the exact-vs-inexact
breakdown from the provenance records.

:func:`compare_precision` is the CI gate: it fails when the elimination
rate drops (more live pairs than the committed artifact) or when any
exact answer becomes inexact.  Counts are
integers and the audit layer is bit-identical with or without a solver
cache, so the gate needs no tolerance threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..analysis import AnalysisOptions, analyze
from ..analysis.results import AnalysisResult
from ..baselines.banerjee import banerjee_directions
from ..baselines.common import dimension_problems, pair_loop_ranges
from ..baselines.gcdtest import gcd_test
from ..baselines.siv import siv_test
from ..baselines.suite import _common_vars, _has_forward_direction, combined_test
from ..baselines.ziv import ziv_test
from ..ir.ast import Access, Program
from ..obs.audit import ProvenanceRecord

__all__ = [
    "SCHEMA",
    "BASELINES",
    "baseline_verdicts",
    "audit_program",
    "precision_report",
    "render_precision",
    "precision_markdown_table",
    "PrecisionDelta",
    "PrecisionComparison",
    "compare_precision",
    "load_precision",
    "why_records",
]

SCHEMA = "repro.precision/1"

#: Classical tests compared against the Omega pipeline, weakest first.
#: ``ziv``/``siv``/``gcd`` answer the memory-overlap question per subscript
#: dimension; ``banerjee`` adds direction-vector hierarchies; ``combined``
#: chains all four the way a 1992 production compiler would.
BASELINES = ("ziv", "siv", "gcd", "banerjee", "combined")


def baseline_verdicts(src: Access, dst: Access) -> dict[str, bool]:
    """Would each classical baseline report a flow dependence for a pair?

    True means the test could not refute the dependence (it would be
    conservatively reported).  The Banerjee and combined baselines also
    require a surviving lexicographically-forward direction, like
    :func:`repro.baselines.baseline_dependences` does.
    """

    if src.array != dst.array or len(src.ref.subscripts) != len(
        dst.ref.subscripts
    ):
        return {name: False for name in BASELINES}
    dimensions = dimension_problems(src, dst)
    common = _common_vars(src, dst)
    ranges = pair_loop_ranges(src, dst)

    verdicts = {
        "ziv": all(ziv_test(dim) for dim in dimensions),
        "siv": all(siv_test(dim, common, ranges) for dim in dimensions),
        "gcd": all(gcd_test(dim) for dim in dimensions),
    }
    directions = banerjee_directions(dimensions, common, ranges)
    verdicts["banerjee"] = bool(directions) and _has_forward_direction(
        src, dst, directions
    )
    combined, combined_dirs = combined_test(src, dst)
    verdicts["combined"] = bool(combined) and _has_forward_direction(
        src, dst, combined_dirs
    )
    return verdicts


def _pair_key(record: ProvenanceRecord) -> tuple[str, str]:
    return (record.src, record.dst)


def audit_program(program: Program) -> tuple[dict, AnalysisResult]:
    """One program's precision section, plus the audited analysis result.

    The section counts flow-dependence *pairs* (a split dependence still
    decides one pair) so baseline and Omega numbers are commensurable; the
    record-level verdict/exactness breakdown rides alongside.
    """

    result = analyze(program, AnalysisOptions(audit=True))

    baselines = {name: 0 for name in BASELINES}
    pairs = 0
    for write in program.writes():
        for read in program.reads():
            if write.array != read.array:
                continue
            pairs += 1
            for name, reported in baseline_verdicts(write, read).items():
                if reported:
                    baselines[name] += 1

    flow_records = [r for r in result.provenance if r.kind == "flow"]
    standard_pairs = {
        _pair_key(r) for r in flow_records if r.verdict != "independent"
    }
    live_pairs = {
        _pair_key(r) for r in flow_records if r.verdict == "reported"
    }
    record_counts = {"reported": 0, "eliminated": 0, "independent": 0}
    stage_counts: dict[str, int] = {}
    exact = inexact = 0
    for record in flow_records:
        record_counts[record.verdict] += 1
        if record.verdict == "eliminated":
            stage = record.stage
            stage_counts[stage] = stage_counts.get(stage, 0) + 1
        if record.exact:
            exact += 1
        else:
            inexact += 1

    section = {
        "program": program.name,
        "pairs": pairs,
        "baselines": baselines,
        "omega": {
            "standard": len(standard_pairs),
            "live": len(live_pairs),
            "records": record_counts,
            "stages": dict(sorted(stage_counts.items())),
            "exact": exact,
            "inexact": inexact,
        },
    }
    return section, result


def _rate(eliminated: int, total: int) -> float:
    return round(eliminated / total, 4) if total else 0.0


def precision_report(
    programs: Sequence[Program] | None = None,
    *,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """The full ``repro.precision/1`` artifact over ``programs``.

    Defaults to the whole paper corpus.  Deliberately free of timestamps
    and machine fingerprints: the artifact is bit-stable for one source
    tree, so CI can diff it against the committed copy.  ``settings``
    keeps its historical ``"workers": 1`` entry so the artifact stays
    byte-identical.
    """

    if programs is None:
        from ..programs import corpus_programs

        programs = corpus_programs()

    sections = []
    for program in programs:
        if progress is not None:
            progress(program.name)
        section, _ = audit_program(program)
        sections.append(section)

    totals = {
        "pairs": 0,
        "baselines": {name: 0 for name in BASELINES},
        "omega_standard": 0,
        "omega_live": 0,
        "records": {"reported": 0, "eliminated": 0, "independent": 0},
        "exact": 0,
        "inexact": 0,
    }
    for section in sections:
        totals["pairs"] += section["pairs"]
        for name in BASELINES:
            totals["baselines"][name] += section["baselines"][name]
        omega = section["omega"]
        totals["omega_standard"] += omega["standard"]
        totals["omega_live"] += omega["live"]
        for verdict, count in omega["records"].items():
            totals["records"][verdict] += count
        totals["exact"] += omega["exact"]
        totals["inexact"] += omega["inexact"]
    totals["elimination_rate"] = _rate(
        totals["omega_standard"] - totals["omega_live"],
        totals["omega_standard"],
    )
    totals["false_dependence_rate"] = {
        name: _rate(count - totals["omega_live"], count)
        for name, count in totals["baselines"].items()
    }

    return {
        "schema": SCHEMA,
        "settings": {"workers": 1, "extended": True},
        "programs": sections,
        "totals": totals,
    }


def render_precision(artifact: dict) -> str:
    """The scoreboard as an aligned text table."""

    header = (
        f"{'program':<16}{'pairs':>6}"
        + "".join(f"{name:>10}" for name in BASELINES)
        + f"{'omega':>8}{'live':>6}{'elim%':>7}{'inexact':>8}"
    )
    lines = ["precision scoreboard (flow-dependence pairs reported)", header]
    for section in artifact.get("programs", []):
        omega = section["omega"]
        eliminated = omega["standard"] - omega["live"]
        rate = _rate(eliminated, omega["standard"])
        lines.append(
            f"{section['program']:<16}{section['pairs']:>6}"
            + "".join(
                f"{section['baselines'][name]:>10}" for name in BASELINES
            )
            + f"{omega['standard']:>8}{omega['live']:>6}"
            + f"{rate:>7.0%}{omega['inexact']:>8}"
        )
    totals = artifact.get("totals")
    if totals:
        lines.append(
            f"{'TOTAL':<16}{totals['pairs']:>6}"
            + "".join(
                f"{totals['baselines'][name]:>10}" for name in BASELINES
            )
            + f"{totals['omega_standard']:>8}{totals['omega_live']:>6}"
            + f"{totals['elimination_rate']:>7.0%}{totals['inexact']:>8}"
        )
        combined = totals["false_dependence_rate"].get("combined", 0.0)
        lines.append(
            f"false dependences eliminated vs the combined classical test: "
            f"{combined:.0%}"
        )
    return "\n".join(lines)


def precision_markdown_table(
    artifact: dict, names: Sequence[str] | None = None
) -> str:
    """A Markdown precision table (the README regenerates from this)."""

    lines = [
        "| program | pairs | combined baseline | omega standard | omega live"
        " | eliminated |",
        "|---|---|---|---|---|---|",
    ]
    for section in artifact.get("programs", []):
        if names is not None and section["program"] not in names:
            continue
        omega = section["omega"]
        eliminated = omega["standard"] - omega["live"]
        rate = _rate(eliminated, omega["standard"])
        lines.append(
            f"| {section['program']} | {section['pairs']} "
            f"| {section['baselines']['combined']} | {omega['standard']} "
            f"| {omega['live']} | {eliminated} ({rate:.0%}) |"
        )
    totals = artifact.get("totals")
    if totals and names is None:
        eliminated = totals["omega_standard"] - totals["omega_live"]
        lines.append(
            f"| **corpus total** | {totals['pairs']} "
            f"| {totals['baselines']['combined']} | {totals['omega_standard']} "
            f"| {totals['omega_live']} "
            f"| {eliminated} ({totals['elimination_rate']:.0%}) |"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The CI gate
# ---------------------------------------------------------------------------


def load_precision(path) -> dict:
    """Read a ``repro.precision/1`` artifact from ``path``."""

    with open(path) as source:
        return json.load(source)


@dataclass
class PrecisionDelta:
    """One per-program precision count, committed vs fresh."""

    program: str
    what: str  #: "live pairs" | "inexact records"
    old: int
    new: int

    @property
    def regressed(self) -> bool:
        return self.new > self.old

    def describe(self) -> str:
        return f"{self.program}: {self.what} {self.old} -> {self.new}"


@dataclass
class PrecisionComparison:
    """The precision gate verdict."""

    deltas: list[PrecisionDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[PrecisionDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        lines = [
            "precision comparison (gate: live pairs must not grow, exact "
            "answers must stay exact)"
        ]
        for delta in self.deltas:
            verdict = "REGRESSED" if delta.regressed else "ok"
            lines.append(f"  [{verdict:>9}] {delta.describe()}")
        for program in self.missing:
            lines.append(
                f"  [  MISSING] {program}: program absent from new artifact"
            )
        lines.append(
            "gate: PASS"
            if self.ok
            else f"gate: FAIL ({len(self.regressions)} regression(s), "
            f"{len(self.missing)} missing program(s))"
        )
        return "\n".join(lines)


def compare_precision(old: dict, new: dict) -> PrecisionComparison:
    """Gate a fresh precision artifact against the committed baseline.

    Regressions: a program reporting *more* live flow pairs than before
    (the elimination rate dropped) or *more* inexact records (an exact
    answer became inexact).  Programs the new artifact dropped fail too.
    Improvements (fewer live pairs, fewer inexact records) pass and are
    reported — commit the regenerated artifact to ratchet them in.
    """

    comparison = PrecisionComparison()
    new_sections = {
        section["program"]: section for section in new.get("programs", [])
    }
    for old_section in old.get("programs", []):
        name = old_section["program"]
        new_section = new_sections.get(name)
        if new_section is None:
            comparison.missing.append(name)
            continue
        comparison.deltas.append(
            PrecisionDelta(
                name,
                "live pairs",
                old_section["omega"]["live"],
                new_section["omega"]["live"],
            )
        )
        comparison.deltas.append(
            PrecisionDelta(
                name,
                "inexact records",
                old_section["omega"]["inexact"],
                new_section["omega"]["inexact"],
            )
        )
    return comparison


# ---------------------------------------------------------------------------
# --why support
# ---------------------------------------------------------------------------


def why_records(
    result: AnalysisResult, src: str, dst: str
) -> list[ProvenanceRecord]:
    """Provenance records whose endpoints match two access descriptions.

    Matching is by exact access string first (``"s1: a(i,j)"``), falling
    back to substring so the CLI's ``--why s1 s3`` works with bare
    statement labels.
    """

    exact = [
        r for r in result.provenance if r.src == src and r.dst == dst
    ]
    if exact:
        return exact
    return [
        r
        for r in result.provenance
        if src in r.src and dst in r.dst
    ]
