"""Result containers for a full program analysis."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..guard import DegradationLog
from ..ir.ast import Access, Program
from ..obs.audit import AuditLog, ProvenanceRecord
from ..obs.explain import ExplainLog
from ..obs.trace import Tracer
from .dependences import Dependence, DependenceStatus

__all__ = ["PairCategory", "PairRecord", "KillTiming", "AnalysisResult"]


class PairCategory(enum.Enum):
    """Figure 6's three pair populations."""

    #: Quick tests showed refinement and coverage impossible; the extended
    #: machinery never consulted the Omega test.
    FAST = "fast"
    #: General refinement/cover test ran on a single dependence vector.
    GENERAL = "general"
    #: The dependence was split into several dependence vectors.
    SPLIT = "split"


@dataclass
class PairRecord:
    """Timing and classification for one write/read array pair."""

    src: Access
    dst: Access
    standard_time: float
    extended_time: float
    category: PairCategory
    dependence_count: int

    @property
    def ratio(self) -> float:
        if self.standard_time <= 0:
            return float("inf")
        return self.extended_time / self.standard_time


@dataclass
class KillTiming:
    """Timing for one potential kill (one pair of dependences to a read)."""

    victim_src: Access
    killer_src: Access
    dst: Access
    kill_time: float
    generation_time: float
    used_omega: bool
    killed: bool


@dataclass
class AnalysisResult:
    """Everything the analysis produced for one program."""

    program: Program
    flow: list[Dependence] = field(default_factory=list)
    anti: list[Dependence] = field(default_factory=list)
    output: list[Dependence] = field(default_factory=list)
    input: list[Dependence] = field(default_factory=list)
    pair_records: list[PairRecord] = field(default_factory=list)
    kill_timings: list[KillTiming] = field(default_factory=list)
    #: The decision trail, when ``AnalysisOptions(explain=True)``.
    explain: ExplainLog | None = None
    #: One :class:`repro.obs.ProvenanceRecord` per dependence pair the
    #: analysis decided (reported, eliminated or proved independent), when
    #: ``AnalysisOptions(audit=True)``; bit-identical across cache
    #: settings and governed runs whose budget never runs out.
    provenance: list[ProvenanceRecord] = field(default_factory=list)
    #: The raw per-subject query footprints behind ``provenance``.
    audit: AuditLog | None = None
    #: The engine's private tracer, when it had to create one for timing
    #: (``record_timings=True`` with no caller-installed tracer).
    trace: Tracer | None = None
    #: Snapshot of the solver cache counters for this analysis (None when
    #: the run was uncached).  See :class:`repro.omega.SolverCache`.
    cache_stats: dict | None = None
    #: Every conservative substitution made under a resource budget
    #: (``AnalysisOptions(deadline_ms=..., budget=...)``), with per-query
    #: provenance; None when the run was ungoverned.  A non-empty log
    #: means the reported dependences are a sound *superset* of the exact
    #: answer.
    degradations: DegradationLog | None = None
    #: Memoized whole-program dependence graph (see :meth:`graph`).
    _graph: object | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    def graph(self, **kwargs):
        """The whole-program dependence graph for this result.

        Built on the first default-argument call and memoized; explicit
        ``kwargs`` always rebuild.
        """

        from .graph import dependence_graph

        if kwargs:
            return dependence_graph(self, **kwargs)
        if self._graph is None:
            self._graph = dependence_graph(self)
        return self._graph

    # ------------------------------------------------------------------
    def degraded(self) -> bool:
        """Did any query degrade to its conservative answer?"""

        return self.degradations is not None and len(self.degradations) > 0

    def degraded_subjects(self) -> set[str | None]:
        """The dependences (subject tags) affected by degradation."""

        if self.degradations is None:
            return set()
        return self.degradations.subjects()

    # ------------------------------------------------------------------
    def provenance_for(self, subject: str) -> ProvenanceRecord | None:
        """The provenance record for one subject tag, if audited."""

        for record in self.provenance:
            if record.subject == subject:
                return record
        return None

    def inexact_records(self) -> list[ProvenanceRecord]:
        """Audited records whose answer was not exact."""

        return [r for r in self.provenance if not r.exact]

    # ------------------------------------------------------------------
    def live_flow(self) -> list[Dependence]:
        return [d for d in self.flow if d.status is DependenceStatus.LIVE]

    def dead_flow(self) -> list[Dependence]:
        return [d for d in self.flow if d.status is not DependenceStatus.LIVE]

    def all_dependences(self) -> list[Dependence]:
        return (
            list(self.flow)
            + list(self.anti)
            + list(self.output)
            + list(self.input)
        )

    def flow_between(self, src_label: str, dst_label: str) -> list[Dependence]:
        """Flow dependences between two statement labels (any status)."""

        return [
            d
            for d in self.flow
            if d.src.statement.label == src_label
            and d.dst.statement.label == dst_label
        ]

    def counts(self) -> dict[str, int]:
        return {
            "flow_live": len(self.live_flow()),
            "flow_dead": len(self.dead_flow()),
            "anti": len(self.anti),
            "output": len(self.output),
            "input": len(self.input),
            "pairs": len(self.pair_records),
        }
