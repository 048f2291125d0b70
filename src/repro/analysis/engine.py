"""The analysis driver: full-program dependence analysis with array kills.

Follows the paper's pipeline (Section 4):

1. compute all output dependences (they feed the quick tests for killing
   and refinement);
2. compute anti dependences (unchanged by the extended analysis, as in the
   paper's implementation);
3. for each array read, compute the apparent flow dependences from every
   write; refine each; check covering; use covers to rule out writes that
   precede the coverer completely; check surviving dependences pairwise for
   kills.

Timing and classification per array pair is recorded for the Figure 6/7
reproductions.  All timing is span-based (``repro.obs.trace``): the engine
wraps its phases and per-pair work in ``span(...)`` blocks and derives
:class:`PairRecord` / :class:`KillTiming` durations from them, so the same
substrate feeds the figures, Chrome-trace export and the metrics registry.
With ``explain=True`` the engine additionally records a structured decision
trail (:class:`repro.obs.explain.ExplainLog`) of why each dependence was
refined, covered, killed or kept.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import asdict as _asdict, dataclass, field, replace as _replace
from typing import Iterable, Sequence

from ..guard import Budget, DegradationLog
from ..guard import budget as _guard
from ..guard import faults as _faults
from ..ir.ast import Access, Program
from ..obs.audit import AuditLog, ProvenanceRecord, auditing as _auditing
from ..obs.explain import ExplainLog
from ..obs.instrument import Tracer
from ..obs.instrument import metrics as _metrics
from ..obs.instrument import span as _span
from ..obs.instrument import tracing as _tracing
from ..obs.instrument import tracing_active as _tracing_active
from ..obs.telemetry.context import current_run as _current_run
from ..obs.telemetry.events import EventBus, current_bus as _current_bus
from ..omega import Constraint
from ..solver import (
    SolverService,
    current_service,
    default_cache_enabled,
    default_cache_size,
)
from .cover import cover_quick_reject, covers_destination, terminates_source
from .dependences import (
    Dependence,
    DependenceKind,
    DependenceStatus,
    compute_dependences,
)
from .kills import KillTester, kill_quick_reject
from .plan import QueryPlan, default_planner_enabled
from .problem import SymbolTable, common_depth
from .refine import refine_dependence
from .results import AnalysisResult, KillTiming, PairCategory, PairRecord

__all__ = ["AnalysisOptions", "analyze", "Analyzer"]


def _subject(dep: Dependence) -> str:
    """A stable explain-mode key for a dependence (no mutable tags)."""

    return dep.subject()


@dataclass
class _ReadSink:
    """Per-read collection of side outputs (explain decisions, timing
    records, provenance).  Each per-read task writes only to its own sink;
    the engine merges sinks in read order afterwards."""

    explain: ExplainLog | None
    #: Audit mode only: provenance is collected per read, merged in read
    #: order (the bit-identity contract shared with explain mode).
    audit: bool = False
    #: Event-bus mode: lifecycle entries (kind, subject, stage, detail)
    #: are *recorded* here and *delivered* to the bus at the engine's
    #: read-order merge points, so the event stream follows read order.
    publish: bool = False
    lifecycle: list[tuple] = field(default_factory=list)
    pair_records: list[PairRecord] = field(default_factory=list)
    kill_timings: list[KillTiming] = field(default_factory=list)
    provenance: list[ProvenanceRecord] = field(default_factory=list)
    #: Planned (fused) traversal only: this read's anti dependences and
    #: their provenance, computed in the same task as the flow pipeline
    #: and merged back read-major — the legacy anti-phase order.
    anti: list[Dependence] = field(default_factory=list)
    anti_provenance: list[ProvenanceRecord] = field(default_factory=list)
    #: Flow pairs the Omega test proved independent: (write, read).
    independents: list[tuple[Access, Access]] = field(default_factory=list)
    #: Per-subject decision trail, appended in pipeline order.
    events: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    #: Subject -> whether the deciding kill consulted the Omega test.
    kill_used: dict[str, bool] = field(default_factory=dict)

    def note_event(self, subject: str, stage: str, detail: str) -> None:
        if self.audit:
            self.events.setdefault(subject, []).append((stage, detail))

    def note_lifecycle(
        self,
        kind: str,
        subject: str,
        stage: str | None = None,
        detail: str | None = None,
    ) -> None:
        if self.publish:
            self.lifecycle.append((kind, subject, stage, detail))


@dataclass
class AnalysisOptions:
    """Configuration for :func:`analyze`."""

    #: Master switch: refinement + covering + killing (the paper's
    #: "extended analysis").  Off = "standard analysis".
    extended: bool = True
    refine: bool = True
    cover: bool = True
    kill: bool = True
    #: Extension: also test terminating dependences (Section 4.3; the
    #: paper's implementation did not exercise this path).
    terminate: bool = False
    #: Extension: attempt range ("partial") refinements like (0:1,1).
    partial_refine: bool = False
    #: Extension: apply refinement to anti/output dependences as well.
    extend_all_kinds: bool = False
    #: Extension: also compute input (read-read) dependences, used by
    #: locality analyses; off by default like the paper.
    input_deps: bool = False
    #: User assertions over symbolic constants, as omega Constraints on
    #: Variable(name, "sym").
    assertions: tuple[Constraint, ...] = ()
    #: Record per-pair timings (adds a second, standard-only pass).
    record_timings: bool = False
    #: Record a structured decision trail (why each dependence was killed,
    #: covered, refined or kept) in ``result.explain``.
    explain: bool = False
    #: Record per-dependence provenance (deciding stage, query footprint,
    #: exactness, degradations) in ``result.provenance`` — the precision
    #: audit layer behind ``python -m repro audit``.  Records are
    #: bit-identical across cache and planner settings.
    audit: bool = False
    #: Memoize Omega queries on their canonical form for the duration of
    #: the analysis (bit-identical results either way).  Defaults to on
    #: unless the ``REPRO_NO_CACHE`` environment variable is set.  When a
    #: cache is already active on this thread (an enclosing
    #: ``repro.omega.caching(...)`` scope) the engine reuses it, sharing
    #: hits across programs.
    cache: bool = field(default_factory=default_cache_enabled)
    #: LRU capacity of the per-analysis cache (``REPRO_CACHE_SIZE`` or
    #: 4096 entries).
    cache_size: int = field(default_factory=default_cache_size)
    #: An explicit :class:`repro.solver.SolverService` to use instead of
    #: building one (advanced: lets callers share a service — and its
    #: cache — across many ``analyze`` calls).
    solver: "SolverService | None" = None
    #: Wall-clock deadline for the whole analysis, in milliseconds (the
    #: CLI's ``--deadline-ms``).  Implies a governed run: when the
    #: deadline passes, remaining Omega queries degrade to their sound
    #: conservative answers (see ``policy``) instead of running on.
    deadline_ms: float | None = None
    #: Full resource budget (``repro.guard.Budget``) for governed runs;
    #: ``deadline_ms`` is merged in when both are given.
    budget: "Budget | None" = None
    #: What to do when the budget runs out: ``"degrade"`` substitutes
    #: sound conservative answers and records every substitution in
    #: ``result.degradations``; ``"raise"`` (the CLI's ``--strict``)
    #: propagates :class:`repro.omega.BudgetExhausted` to the caller.
    policy: str = "degrade"
    #: Single-pass query planner (:mod:`repro.analysis.plan`): group pairs
    #: by iteration space, share base constraint systems and exact
    #: Fourier-Motzkin prefixes across the whole-program traversal.
    #: Results, provenance and explain trails are bit-identical to the
    #: legacy per-pair path.  Defaults to on unless ``REPRO_PLANNER=0``;
    #: governed runs (a budget, deadline or fault plan) always fall back
    #: to the legacy path so degradation semantics stay untouched.
    planner: bool = field(default_factory=default_planner_enabled)

    def effective_budget(self) -> "Budget | None":
        """The merged budget, or None when this run is ungoverned."""

        budget = self.budget
        if self.deadline_ms is not None:
            if budget is None:
                budget = Budget(deadline_ms=self.deadline_ms)
            elif budget.deadline_ms is None:
                budget = _replace(budget, deadline_ms=self.deadline_ms)
        return budget


def analyze(program: Program, options: AnalysisOptions | None = None) -> AnalysisResult:
    """Analyze a program and return all dependences with status flags."""

    return Analyzer(program, options or AnalysisOptions()).run()


class Analyzer:
    """Stateful driver behind :func:`analyze`; exposes intermediate data
    (output-dependence pairs, terminators) for advanced callers."""

    def __init__(self, program: Program, options: AnalysisOptions):
        self.program = program
        self.options = options
        self.symbols = SymbolTable()
        self.result = AnalysisResult(program)
        self.output_pairs: set[tuple[Access, Access]] = set()
        self.self_output_nonzero: dict[Access, set[int]] = {}
        #: For options.terminate: write A -> terminating output deps A->B
        #: (B overwrites everything A wrote).
        self.terminators: dict[Access, list[Dependence]] = {}
        self.explain: ExplainLog | None = (
            ExplainLog() if options.explain else None
        )
        self.result.explain = self.explain
        self.audit: AuditLog | None = AuditLog() if options.audit else None
        self.result.audit = self.audit
        #: The live event bus, when one is publishing (set by :meth:`run`).
        self.bus: EventBus | None = None
        #: The solver service every query of this run goes through (set by
        #: :meth:`run`; adopted or private, see there).
        self.service: SolverService | None = None
        #: The single-pass query plan (set by :meth:`run` for ungoverned
        #: planner runs; None selects the legacy per-pair pipeline).
        self.plan: QueryPlan | None = None

    # ------------------------------------------------------------------
    def run(self) -> AnalysisResult:
        # Timing records are span-derived; when the caller asked for them
        # without installing a tracer, run under a private one.
        tracer: Tracer | None = None
        if self.options.record_timings and not _tracing_active():
            tracer = Tracer()
            self.result.trace = tracer
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(_tracing(tracer))
            # Every Omega query goes through one SolverService.  An
            # explicitly-passed or enclosing (activated) service is adopted
            # — sharing its cache across programs, like the old enclosing
            # ``caching(...)`` scope did — and left open; otherwise the
            # engine builds a private one for this run.
            service = self.options.solver
            if service is None:
                service = current_service()
            if service is None:
                service = SolverService.for_options(
                    cache=self.options.cache,
                    cache_size=self.options.cache_size,
                )
            self.service = service
            stack.enter_context(service.activate())
            # Governed runs: an explicit budget/deadline, or an active
            # fault-injection plan (chaos runs need the degradation
            # machinery armed even without resource limits).  Default
            # runs skip the scope entirely and stay bit-identical.
            budget = self.options.effective_budget()
            if budget is None and _faults.current_plan() is not None:
                budget = Budget.unlimited()
            if budget is not None:
                log = DegradationLog()
                self.result.degradations = log
                stack.enter_context(
                    _guard.governed(
                        budget, policy=self.options.policy, log=log
                    )
                )
            if self.audit is not None:
                stack.enter_context(_auditing(self.audit))
            self.bus = _current_bus()
            if self.bus is not None:
                self.bus.emit("run.start", self.program.name)
            # The query planner drives ungoverned runs only: under a
            # budget the per-probe degradation shields expect the legacy
            # problem shapes, so governed runs keep the per-pair path.
            if self.options.planner and budget is None:
                self.plan = QueryPlan(
                    self.program,
                    self.symbols,
                    assertions=self.options.assertions,
                    array_bounds=self.program.array_bounds,
                )
            elif self.options.planner:
                _metrics.inc("solver.plan.fallbacks")
                if self.bus is not None:
                    self.bus.emit(
                        "planner.fallback",
                        self.program.name,
                        detail="governed run: per-pair path",
                    )
            # Attribute the run's root span to the active RunContext so
            # exported traces carry the request identity.
            span_attrs = {"program": self.program.name}
            context = _current_run()
            if context is not None:
                span_attrs["run"] = context.run_id
                if context.request_id is not None:
                    span_attrs["request"] = context.request_id
            with _span("analysis.analyze", **span_attrs) as sp:
                self._run_phases()
            if self.audit is not None:
                self._finalize_audit()
            if self.bus is not None:
                self._emit_run_end()
            if sp.duration:
                _metrics.observe("analysis.analyze_seconds", sp.duration)
            if self.options.cache:
                stats = service.cache_stats()
                if stats is not None:
                    self.result.cache_stats = stats
                    _metrics.set_gauge("omega.cache.size", stats["size"])
        return self.result

    # -- provenance assembly (audit mode) -------------------------------
    def _independent_record(
        self, kind: DependenceKind, src: Access, dst: Access
    ) -> ProvenanceRecord:
        """A pair the Omega test proved dependence-free."""

        return ProvenanceRecord(
            subject=f"{kind.value}: {src} -> {dst}",
            kind=kind.value,
            src=str(src),
            dst=str(dst),
            verdict="independent",
            status="none",
            stage="omega-unsat",
        )

    def _verdict_of(self, dep: Dependence) -> tuple[str, str]:
        """(verdict, deciding stage) from a dependence's *final* state.

        Shared by provenance records and ``pair.verdict`` lifecycle
        events so the two report the same attribution.
        """

        if dep.status is DependenceStatus.LIVE:
            extended = self.options.extended and dep.kind is DependenceKind.FLOW
            return "reported", ("kept" if extended else "standard")
        if dep.status is DependenceStatus.COVERED:
            return "eliminated", "cover"
        killer = dep.eliminated_by
        terminated = killer is not None and killer.kind is DependenceKind.OUTPUT
        return "eliminated", ("terminate" if terminated else "kill")

    def _dependence_record(
        self, dep: Dependence, sink: "_ReadSink | None" = None
    ) -> ProvenanceRecord:
        """One record from a dependence's *final* analysis state."""

        subject = dep.subject()
        decided_by: str | None = None
        used_omega: bool | None = None
        verdict, stage = self._verdict_of(dep)
        if stage == "cover":
            used_omega = False  # structural: source runs before the coverer
        elif stage == "kill" and sink is not None:
            used_omega = sink.kill_used.get(subject)
        if dep.eliminated_by is not None:
            decided_by = dep.eliminated_by.subject()
        unrefined = None
        if dep.refined and dep.unrefined_directions:
            unrefined = ", ".join(str(v) for v in dep.unrefined_directions)
        record = ProvenanceRecord(
            subject=subject,
            kind=dep.kind.value,
            src=str(dep.src),
            dst=str(dep.dst),
            verdict=verdict,
            status=dep.status.value,
            stage=stage,
            decided_by=decided_by,
            direction=dep.direction_text() or None,
            unrefined_direction=unrefined,
            refined=dep.refined,
            covers=dep.covers,
            used_omega=used_omega,
        )
        if sink is not None:
            record.events = list(sink.events.get(subject, ()))
        return record

    def _finalize_audit(self) -> None:
        """Fold query footprints and degradations into the records."""

        by_subject: dict[str, ProvenanceRecord] = {
            record.subject: record for record in self.result.provenance
        }
        for record in self.result.provenance:
            footprint = self.audit.footprint_for(record.subject)
            record.queries = dict(footprint.queries)
            for reason in sorted(footprint.inexact_reasons):
                if reason not in record.inexact_reasons:
                    record.inexact_reasons.append(reason)
            record.exact = footprint.exact
        if self.result.degradations is not None:
            for event in self.result.degradations:
                subject = event.subject
                if subject is None:
                    continue
                if subject.startswith("kill: "):
                    # "kill: {victim-subject} by {writer}" decides the victim.
                    subject = subject[len("kill: "):].rsplit(" by ", 1)[0]
                record = by_subject.get(subject)
                if record is not None:
                    record.attach_degradation(_asdict(event))
        reported = eliminated = independent = inexact = 0
        for record in self.result.provenance:
            if record.verdict == "reported":
                reported += 1
            elif record.verdict == "eliminated":
                eliminated += 1
            else:
                independent += 1
            if not record.exact:
                inexact += 1
        _metrics.inc("omega.precision.records", len(self.result.provenance))
        _metrics.inc("omega.precision.reported", reported)
        _metrics.inc("omega.precision.eliminated", eliminated)
        _metrics.inc("omega.precision.independent", independent)
        _metrics.inc("omega.precision.inexact", inexact)

    def _emit_run_end(self) -> None:
        """Deliver run-level terminal events, deterministically ordered.

        Degradation events are sorted by (subject, kind, answer), so the
        stream does not depend on the order queries degraded in.
        """

        if self.result.degradations is not None:
            noted = sorted(
                (event.subject or "", event.kind, event.answer)
                for event in self.result.degradations
            )
            for subject, kind, answer in noted:
                self.bus.emit(
                    "degradation",
                    subject or None,
                    stage=kind,
                    detail=answer,
                )
        counts = (
            f"flow={len(self.result.flow)} anti={len(self.result.anti)} "
            f"output={len(self.result.output)}"
        )
        self.bus.emit("run.end", self.program.name, detail=counts)

    def _run_phases(self) -> None:
        writes = self.program.writes()
        reads = self.program.reads()

        if self.plan is not None:
            self._run_planned_phases(writes, reads)
            return
        with _span("analysis.phase.output"):
            self._compute_output_dependences(writes)
        with _span("analysis.phase.anti"):
            self._compute_anti_dependences(reads, writes)
        with _span("analysis.phase.flow"):
            self._compute_flow_dependences(reads, writes)
        if self.options.input_deps:
            with _span("analysis.phase.input"):
                self._compute_input_dependences(reads)

    def _run_planned_phases(
        self, writes: Sequence[Access], reads: Sequence[Access]
    ) -> None:
        """The single-pass plan-driven traversal.

        Output dependences still come first (they feed the kill and
        refinement quick tests), but the anti and flow directions of each
        read are fused into *one* task over the plan's shared state, so a
        read's backward and forward pairs reuse the same base systems and
        elimination prefixes while they are hot.  Sinks are merged back in
        read order — all anti results first, then the flow pipelines —
        reproducing the legacy phase order bit for bit.
        """

        with _span("analysis.phase.output"):
            self._compute_output_dependences(writes)
        with _span("analysis.phase.fused"):
            outcomes = self.service.map(
                lambda read: self._analyze_read_fused(read, writes), reads
            )
        for _per_read, sink in outcomes:
            self.result.anti.extend(sink.anti)
            self.result.provenance.extend(sink.anti_provenance)
        for per_read, sink in outcomes:
            self.result.pair_records.extend(sink.pair_records)
            self.result.kill_timings.extend(sink.kill_timings)
            if self.explain is not None and sink.explain is not None:
                self.explain.merge(sink.explain)
            self.result.provenance.extend(sink.provenance)
            self.result.flow.extend(per_read)
            if self.bus is not None:
                self.bus.emit_pending(sink.lifecycle)
        if self.options.input_deps:
            with _span("analysis.phase.input"):
                self._compute_input_dependences(reads)
        # The whole-program graph is the unit consumers want; emit it
        # directly while the traversal's results are final and hot.
        with _span("analysis.graph"):
            self.result.graph()

    def _analyze_read_fused(
        self, read: Access, writes: Sequence[Access]
    ) -> tuple[list[Dependence], "_ReadSink"]:
        """Both dependence directions of one read, in one plan-driven task."""

        sink = _ReadSink(
            ExplainLog() if self.explain is not None else None,
            audit=self.audit is not None,
            publish=self.bus is not None,
        )
        for dst in writes:
            if read.array != dst.array:
                continue
            with _guard.subject(f"anti: {read} -> {dst}"):
                deps = compute_dependences(
                    read,
                    dst,
                    DependenceKind.ANTI,
                    self.symbols,
                    assertions=self.options.assertions,
                    array_bounds=self.program.array_bounds,
                    plan=self.plan,
                )
            if not deps and self.audit is not None:
                sink.anti_provenance.append(
                    self._independent_record(DependenceKind.ANTI, read, dst)
                )
            for dep in deps:
                if self.options.extended and self.options.extend_all_kinds:
                    dep = refine_dependence(
                        dep, partial=self.options.partial_refine
                    ).dependence
                    if self.options.terminate:
                        dep.covers = terminates_source(dep)
                sink.anti.append(dep)
                if self.audit is not None:
                    sink.anti_provenance.append(self._dependence_record(dep))
        return self._analyze_read(read, writes, sink)

    # ------------------------------------------------------------------
    def _compute_output_dependences(self, writes: Sequence[Access]) -> None:
        for src in writes:
            for dst in writes:
                if src.array != dst.array:
                    continue
                with _guard.subject(f"output: {src} -> {dst}"):
                    deps = compute_dependences(
                        src,
                        dst,
                        DependenceKind.OUTPUT,
                        self.symbols,
                        assertions=self.options.assertions,
                        array_bounds=self.program.array_bounds,
                        plan=self.plan,
                    )
                if deps:
                    self.output_pairs.add((src, dst))
                elif self.audit is not None:
                    self.result.provenance.append(
                        self._independent_record(DependenceKind.OUTPUT, src, dst)
                    )
                for dep in deps:
                    if src is dst:
                        self._note_self_output(src, dep)
                    if self.options.extended and self.options.extend_all_kinds:
                        dep = refine_dependence(
                            dep, partial=self.options.partial_refine
                        ).dependence
                    if (
                        self.options.extended
                        and self.options.terminate
                        and src is not dst
                        and terminates_source(dep)
                    ):
                        self.terminators.setdefault(src, []).append(dep)
                    self.result.output.append(dep)
                    if self.audit is not None:
                        self.result.provenance.append(
                            self._dependence_record(dep)
                        )

    def _note_self_output(self, access: Access, dep: Dependence) -> None:
        levels = self.self_output_nonzero.setdefault(access, set())
        for vector in dep.directions:
            for index, component in enumerate(vector, start=1):
                if component.hi is None or component.hi > 0:
                    levels.add(index)
                elif component.lo is not None and component.lo > 0:
                    levels.add(index)

    def _compute_anti_dependences(
        self, reads: Sequence[Access], writes: Sequence[Access]
    ) -> None:
        for src in reads:
            for dst in writes:
                if src.array != dst.array:
                    continue
                with _guard.subject(f"anti: {src} -> {dst}"):
                    deps = compute_dependences(
                        src,
                        dst,
                        DependenceKind.ANTI,
                        self.symbols,
                        assertions=self.options.assertions,
                        array_bounds=self.program.array_bounds,
                        plan=self.plan,
                    )
                if not deps and self.audit is not None:
                    self.result.provenance.append(
                        self._independent_record(DependenceKind.ANTI, src, dst)
                    )
                for dep in deps:
                    if self.options.extended and self.options.extend_all_kinds:
                        dep = refine_dependence(
                            dep, partial=self.options.partial_refine
                        ).dependence
                        if self.options.terminate:
                            dep.covers = terminates_source(dep)
                    self.result.anti.append(dep)
                    if self.audit is not None:
                        self.result.provenance.append(
                            self._dependence_record(dep)
                        )

    def _compute_input_dependences(self, reads: Sequence[Access]) -> None:
        for src in reads:
            for dst in reads:
                if src.array != dst.array or src is dst:
                    continue
                if src.statement.position > dst.statement.position:
                    continue
                with _guard.subject(f"input: {src} -> {dst}"):
                    deps = compute_dependences(
                        src,
                        dst,
                        DependenceKind.INPUT,
                        self.symbols,
                        assertions=self.options.assertions,
                        array_bounds=self.program.array_bounds,
                        plan=self.plan,
                    )
                self.result.input.extend(deps)
                if self.audit is not None:
                    if not deps:
                        self.result.provenance.append(
                            self._independent_record(
                                DependenceKind.INPUT, src, dst
                            )
                        )
                    for dep in deps:
                        self.result.provenance.append(
                            self._dependence_record(dep)
                        )

    # ------------------------------------------------------------------
    def _compute_flow_dependences(
        self, reads: Sequence[Access], writes: Sequence[Access]
    ) -> None:
        # Each read's pipeline (pairs -> cover -> terminators -> kills) is
        # independent of every other read's; the reads run as counted
        # service tasks and their sinks are merged back into the shared
        # result in program (read) order.
        outcomes = self.service.map(
            lambda read: self._analyze_read(read, writes), reads
        )
        for per_read, sink in outcomes:
            self.result.pair_records.extend(sink.pair_records)
            self.result.kill_timings.extend(sink.kill_timings)
            if self.explain is not None and sink.explain is not None:
                self.explain.merge(sink.explain)
            self.result.provenance.extend(sink.provenance)
            self.result.flow.extend(per_read)
            if self.bus is not None:
                self.bus.emit_pending(sink.lifecycle)

    def _analyze_read(
        self, read: Access, writes: Sequence[Access], sink: "_ReadSink | None" = None
    ) -> tuple[list[Dependence], "_ReadSink"]:
        """The complete flow-dependence pipeline for one array read."""

        if sink is None:
            sink = _ReadSink(
                ExplainLog() if self.explain is not None else None,
                audit=self.audit is not None,
                publish=self.bus is not None,
            )
        tester = KillTester(
            self.symbols,
            self.output_pairs,
            array_bounds=self.program.array_bounds,
        )
        per_read: list[Dependence] = []
        for write in writes:
            if write.array != read.array:
                continue
            per_read.extend(self._analyze_pair(write, read, sink))
        if self.options.extended and self.options.cover:
            self._apply_cover_elimination(per_read, sink)
        if self.options.extended and self.options.terminate:
            self._apply_terminators(per_read, sink)
        if self.options.extended and self.options.kill:
            self._apply_kills(per_read, tester, sink)
        if sink.explain is not None:
            for dep in per_read:
                if dep.status is DependenceStatus.LIVE:
                    sink.explain.record(
                        _subject(dep),
                        "kept",
                        "no covering or killing write eliminates it",
                    )
        if sink.audit:
            # Records are assembled from the dependences' *final* state —
            # after cover/terminator/kill elimination.  Independent pairs
            # come first (in write-scan order), then every dependence of
            # this read.
            for src, dst in sink.independents:
                sink.provenance.append(
                    self._independent_record(DependenceKind.FLOW, src, dst)
                )
            for dep in per_read:
                sink.provenance.append(self._dependence_record(dep, sink))
        if sink.publish:
            # Verdict events mirror the provenance ordering: independent
            # pairs first, then this read's dependences in final state.
            for src, dst in sink.independents:
                sink.note_lifecycle(
                    "pair.verdict",
                    f"flow: {src} -> {dst}",
                    stage="omega-unsat",
                    detail="independent",
                )
            for dep in per_read:
                verdict, stage = self._verdict_of(dep)
                detail = verdict
                if dep.eliminated_by is not None:
                    detail = f"{verdict} by {dep.eliminated_by.subject()}"
                sink.note_lifecycle(
                    "pair.verdict", dep.subject(), stage=stage, detail=detail
                )
        return per_read, sink

    def _analyze_pair(
        self, write: Access, read: Access, sink: "_ReadSink"
    ) -> list[Dependence]:
        """Standard + extended analysis of one array pair, with timing."""

        _metrics.inc("analysis.pairs_analyzed")
        sink.note_lifecycle("pair.start", f"flow: {write} -> {read}")
        # Any degradation inside this pair is attributed to it by name.
        with _guard.subject(f"flow: {write} -> {read}"), _span(
            "analysis.pair", src=write, dst=read
        ) as pair_span:
            with _span("analysis.pair.standard") as standard_span:
                deps = compute_dependences(
                    write,
                    read,
                    DependenceKind.FLOW,
                    self.symbols,
                    assertions=self.options.assertions,
                    array_bounds=self.program.array_bounds,
                    plan=self.plan,
                )

            consulted_omega = False
            if self.options.extended and deps:
                refined: list[Dependence] = []
                for dep in deps:
                    if self.options.refine and self._refine_quick_allows(dep):
                        outcome = refine_dependence(
                            dep, partial=self.options.partial_refine
                        )
                        consulted_omega = consulted_omega or outcome.attempted
                        if (
                            outcome.dependence is not dep
                            and outcome.dependence.refined
                        ):
                            if sink.explain is not None:
                                self._explain_refinement(
                                    outcome.dependence, sink
                                )
                            refined_dep = outcome.dependence
                            before = ", ".join(
                                str(v) for v in refined_dep.unrefined_directions
                            )
                            sink.note_event(
                                _subject(refined_dep),
                                "refine",
                                f"({before}) -> "
                                f"({refined_dep.direction_text()})",
                            )
                        dep = outcome.dependence
                    refined.append(dep)
                deps = refined
                if self.options.cover:
                    for dep in deps:
                        if cover_quick_reject(dep):
                            continue
                        consulted_omega = True
                        dep.covers = covers_destination(
                            dep, use_quick_test=False
                        )
                        if dep.covers:
                            sink.note_event(
                                _subject(dep), "cover", "covers its destination"
                            )
                        if dep.covers and sink.explain is not None:
                            sink.explain.record(
                                _subject(dep),
                                "covers",
                                "every element the destination accesses was "
                                "previously written by this source",
                                used_omega=True,
                            )

        if not deps and (sink.audit or sink.publish):
            sink.independents.append((write, read))
        if deps:
            _metrics.inc("analysis.dependences_found", len(deps))
        if pair_span.duration:
            _metrics.observe("analysis.pair_seconds", pair_span.duration)
        if self.options.record_timings:
            if not consulted_omega:
                category = PairCategory.FAST
            elif len(deps) > 1:
                category = PairCategory.SPLIT
            else:
                category = PairCategory.GENERAL
            sink.pair_records.append(
                PairRecord(
                    write,
                    read,
                    standard_span.duration,
                    pair_span.duration,
                    category,
                    len(deps),
                )
            )
        return deps

    def _explain_refinement(self, dep: Dependence, sink: "_ReadSink") -> None:
        before = ", ".join(str(v) for v in dep.unrefined_directions)
        sink.explain.record(
            _subject(dep),
            "refined",
            f"distance narrowed from ({before}) to ({dep.direction_text()}): "
            "every destination iteration still receives the value from the "
            "refined source",
            used_omega=True,
        )

    def _refine_quick_allows(self, dep: Dependence) -> bool:
        """Quick test: refinement in some loop needs a self-output
        dependence of the source with a non-zero distance in that loop."""

        if not dep.deltas:
            return False
        levels = self.self_output_nonzero.get(dep.src, set())
        if not levels:
            return False
        # Some level must be non-exact (refinable) and self-overwriting.
        for vector in dep.directions:
            for index, component in enumerate(vector, start=1):
                if not component.is_exact and index in levels:
                    return True
        return False

    # ------------------------------------------------------------------
    def _apply_cover_elimination(
        self, deps: list[Dependence], sink: "_ReadSink"
    ) -> None:
        """Use covering dependences to rule out writes that completely
        precede the coverer (no kill test needed)."""

        covers = [d for d in deps if d.covers]
        for cover in covers:
            for dep in deps:
                if dep is cover or dep.status is not DependenceStatus.LIVE:
                    continue
                if self._completely_before(dep.src, cover.src):
                    dep.status = DependenceStatus.COVERED
                    dep.eliminated_by = cover
                    _metrics.inc("analysis.deps_covered")
                    sink.note_event(
                        _subject(dep),
                        "cover",
                        f"eliminated by {_subject(cover)}",
                    )
                    if sink.explain is not None:
                        sink.explain.record(
                            _subject(dep),
                            "covered",
                            "its source runs entirely before a covering "
                            "write of the same destination",
                            by=_subject(cover),
                        )

    @staticmethod
    def _completely_before(a: Access, b: Access) -> bool:
        """Structurally: every instance of ``a`` runs before any of ``b``."""

        return (
            common_depth(a, b) == 0
            and a.statement.position < b.statement.position
        )

    def _apply_terminators(
        self, deps: list[Dependence], sink: "_ReadSink"
    ) -> None:
        """Terminating dependences (Section 4.3): a write B that overwrites
        everything A accessed kills any dependence from A to accesses that
        run entirely after B."""

        for dep in deps:
            if dep.status is not DependenceStatus.LIVE:
                continue
            for terminator in self.terminators.get(dep.src, ()):
                if self._completely_before(terminator.dst, dep.dst):
                    dep.status = DependenceStatus.KILLED
                    dep.eliminated_by = terminator
                    _metrics.inc("analysis.deps_killed")
                    sink.note_event(
                        _subject(dep),
                        "terminate",
                        f"terminated by {_subject(terminator)}",
                    )
                    if sink.explain is not None:
                        sink.explain.record(
                            _subject(dep),
                            "terminated",
                            "a terminating write overwrites everything the "
                            "source wrote before the destination runs",
                            by=_subject(terminator),
                        )
                    break

    def _apply_kills(
        self, deps: list[Dependence], tester: KillTester, sink: "_ReadSink"
    ) -> None:
        for victim in deps:
            if victim.status is not DependenceStatus.LIVE:
                continue
            for killer in deps:
                if killer is victim:
                    continue
                if killer.status is not DependenceStatus.LIVE:
                    continue
                with _guard.subject(
                    f"kill: {_subject(victim)} by {killer.src}"
                ):
                    killed = tester.kills(victim, killer)
                record = tester.records[-1]
                if self.options.record_timings:
                    sink.kill_timings.append(
                        KillTiming(
                            victim.src,
                            killer.src,
                            victim.dst,
                            record.elapsed,
                            self._pair_time(sink, victim.src, victim.dst),
                            record.used_omega,
                            killed,
                        )
                    )
                if killed:
                    victim.status = DependenceStatus.KILLED
                    victim.eliminated_by = killer
                    _metrics.inc("analysis.deps_killed")
                    sink.kill_used[_subject(victim)] = record.used_omega
                    sink.note_event(
                        _subject(victim),
                        "kill",
                        ("general omega test" if record.used_omega else "quick test")
                        + f" by {_subject(killer)}",
                    )
                    if sink.explain is not None:
                        sink.explain.record(
                            _subject(victim),
                            "killed",
                            "every element it carries is overwritten by an "
                            "intervening write before the destination reads "
                            "it",
                            by=_subject(killer),
                            used_omega=record.used_omega,
                        )
                    break

    @staticmethod
    def _pair_time(sink: "_ReadSink", src: Access, dst: Access) -> float:
        for record in sink.pair_records:
            if record.src is src and record.dst is dst:
                return record.extended_time
        return 0.0
