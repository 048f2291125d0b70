"""Figure 6/7 data collection: per-pair timing of standard vs extended
analysis, and kill-test timing.

The paper measured 417 write/read access pairs across its corpus; 264
needed no Omega consultation for the extended checks, 81 ran a general
test on one dependence vector, and 72 were split into several vectors.
``collect_pair_timings`` reproduces the populations and the timing ratios
on our corpus; ``figure7_series`` produces the sorted per-pair series.

All durations come from the :mod:`repro.obs` span tracer: the engine
derives ``PairRecord`` / ``KillTiming`` from span durations.  The study
keeps only those records; ``repro analyze --trace-out`` is the span view.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

from ..analysis import AnalysisOptions, analyze
from ..analysis.results import KillTiming, PairCategory, PairRecord
from ..ir.ast import Program

__all__ = [
    "TimingStudy",
    "collect_pair_timings",
    "figure6_left_summary",
    "figure6_right_summary",
    "figure7_series",
]


@dataclass
class TimingStudy:
    """All pair and kill timing records over a corpus."""

    pair_records: list[PairRecord] = field(default_factory=list)
    kill_timings: list[KillTiming] = field(default_factory=list)

    def by_category(self) -> dict[PairCategory, list[PairRecord]]:
        groups: dict[PairCategory, list[PairRecord]] = {
            c: [] for c in PairCategory
        }
        for record in self.pair_records:
            groups[record.category].append(record)
        return groups

    def counts(self) -> dict[str, int]:
        groups = self.by_category()
        return {
            "pairs": len(self.pair_records),
            "fast": len(groups[PairCategory.FAST]),
            "general": len(groups[PairCategory.GENERAL]),
            "split": len(groups[PairCategory.SPLIT]),
            "kill_tests": len(self.kill_timings),
            "kill_quick": sum(1 for k in self.kill_timings if not k.used_omega),
            "kill_omega": sum(1 for k in self.kill_timings if k.used_omega),
        }


def collect_pair_timings(programs: Sequence[Program]) -> TimingStudy:
    """Run extended analysis with timing across a corpus of programs."""

    study = TimingStudy()
    for program in programs:
        result = analyze(program, AnalysisOptions(record_timings=True))
        study.pair_records.extend(result.pair_records)
        study.kill_timings.extend(result.kill_timings)
    return study


def _ratio_stats(records: Sequence[PairRecord]) -> dict[str, float]:
    ratios = [r.ratio for r in records if r.standard_time > 0]
    if not ratios:
        return {"count": 0, "median_ratio": 0.0, "max_ratio": 0.0}
    return {
        "count": len(ratios),
        "median_ratio": statistics.median(ratios),
        "max_ratio": max(ratios),
    }


def figure6_left_summary(study: TimingStudy) -> dict[str, dict[str, float]]:
    """Extended-vs-standard ratios per pair population (Figure 6 left)."""

    groups = study.by_category()
    return {
        "fast": _ratio_stats(groups[PairCategory.FAST]),
        "general": _ratio_stats(groups[PairCategory.GENERAL]),
        "split": _ratio_stats(groups[PairCategory.SPLIT]),
        "all": _ratio_stats(study.pair_records),
    }


def figure6_right_summary(study: TimingStudy) -> dict[str, float]:
    """Kill-test timing summary (Figure 6 right)."""

    quick = [k.kill_time for k in study.kill_timings if not k.used_omega]
    omega = [k.kill_time for k in study.kill_timings if k.used_omega]
    return {
        "quick_count": len(quick),
        "omega_count": len(omega),
        "quick_median_s": statistics.median(quick) if quick else 0.0,
        "omega_median_s": statistics.median(omega) if omega else 0.0,
    }


def figure7_series(study: TimingStudy) -> list[tuple[float, float]]:
    """(standard, extended) per pair, sorted by extended time (Figure 7)."""

    series = [
        (record.standard_time, record.extended_time)
        for record in study.pair_records
    ]
    series.sort(key=lambda pair: pair[1])
    return series
