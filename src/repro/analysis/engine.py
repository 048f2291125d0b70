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

Every run is driven by one :class:`repro.analysis.plan.QueryPlan`, governed
or not: pairs share base systems and exactly pre-reduced elimination cores,
and steps 2 and 3 run fused, one task per read.

Timing and classification per array pair is recorded for the Figure 6/7
reproductions.  All timing is span-based (``repro.obs.trace``): the engine
wraps its phases and per-pair work in ``span(...)`` blocks and derives
:class:`PairRecord` / :class:`KillTiming` durations from them, so the same
substrate feeds the figures, Chrome-trace export and the metrics registry.

When an observer is on (``explain=True`` or ``audit=True``) the engine
writes each per-pair fact exactly once, as one
:class:`repro.obs.explain.Step` in pipeline order.  At the end of each
read it builds the read's provenance records from the steps and the
dependences' final state.  At the read-order merge point, the explain
decisions are derived from the same steps and records.  With no
observer on, nothing is recorded.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import asdict as _asdict, dataclass, field, replace as _replace
from typing import Sequence

from ..guard import Budget, DegradationLog
from ..guard import budget as _guard
from ..guard import faults as _faults
from ..ir.ast import Access, Program
from ..obs import metrics as _metrics
from ..obs.audit import (
    AuditLog,
    ProvenanceRecord,
    auditing as _auditing,
    decided_subject,
    kill_subject,
)
from ..obs.explain import Step, explain_view
from ..obs.trace import Tracer
from ..obs.trace import active as _tracing_active
from ..obs.trace import span as _span
from ..obs.trace import tracing as _tracing
from ..omega import Constraint
from ..solver import SolverService, current_cache, current_service
from .cover import cover_quick_reject, covers_destination, terminates_source
from .dependences import (
    Dependence,
    DependenceKind,
    DependenceStatus,
    compute_dependences,
)
from .kills import KillTester
from .plan import QueryPlan
from .problem import SymbolTable, common_depth
from .refine import refine_dependence
from .results import AnalysisResult, KillTiming, PairCategory, PairRecord

__all__ = ["AnalysisOptions", "analyze", "Analyzer"]


@dataclass
class _ReadSink:
    """Per-read collection of side outputs (the per-pair trail, timing
    records, provenance).  Each per-read task writes only to its own sink;
    the engine merges sinks in read order afterwards, so every view of
    the trail follows read order."""

    #: Record the per-pair trail: explain or audit is on.
    trail: bool
    #: The trail: one step per action on a dependence, in pipeline order.
    steps: list[Step] = field(default_factory=list)
    #: This read's flow provenance: pairs proved independent (in write
    #: order), then its dependences, built from the steps at the read's end.
    records: list[ProvenanceRecord] = field(default_factory=list)
    pair_records: list[PairRecord] = field(default_factory=list)
    kill_timings: list[KillTiming] = field(default_factory=list)
    #: This read's anti dependences and their provenance, computed in the
    #: same task as the flow pipeline and merged back read-major.
    anti: list[Dependence] = field(default_factory=list)
    anti_provenance: list[ProvenanceRecord] = field(default_factory=list)

    def step(
        self,
        dep: Dependence,
        action: str,
        *,
        by: Dependence | None = None,
        used_omega: bool | None = None,
    ) -> None:
        """Write one action on ``dep`` to the trail (a no-op when off)."""

        if not self.trail:
            return
        directions = ("", "")
        if action == "refined":
            before = ", ".join(str(v) for v in dep.unrefined_directions)
            directions = (before, dep.direction_text())
        by_subject = by.subject() if by is not None else None
        self.steps.append(
            Step(dep.subject(), action, by_subject, used_omega, directions)
        )


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
    #: Record per-pair and per-kill timings, read off the spans of the
    #: one analysis pass (under a private tracer if none is active).
    record_timings: bool = False
    #: Record a structured decision trail (why each dependence was killed,
    #: covered, refined or kept) in ``result.explain``.
    explain: bool = False
    #: Record per-dependence provenance (deciding stage, query footprint,
    #: exactness, degradations) in ``result.provenance`` — the precision
    #: audit layer behind ``python -m repro audit``.  Records are
    #: bit-identical across cache settings and governed runs whose
    #: budget never runs out.
    audit: bool = False
    #: An explicit :class:`repro.solver.SolverService` to use instead of
    #: building one (advanced: lets callers share a service — and its
    #: cache — across many ``analyze`` calls).  Without one the run is
    #: uncached, unless an active service or an enclosing
    #: ``repro.omega.caching(...)`` scope is there to adopt (results are
    #: bit-identical either way).
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
        self.audit: AuditLog | None = AuditLog() if options.audit else None
        self.result.audit = self.audit
        #: The solver service every query of this run goes through (set by
        #: :meth:`run`; adopted or private, see there).
        self.service: SolverService | None = None
        #: The single-pass query plan (set by :meth:`run`).
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
            # — sharing its cache across programs — and left open;
            # otherwise the engine builds a private one for this run over
            # the enclosing ``caching(...)`` scope's cache, if any.
            service = self.options.solver
            if service is None:
                service = current_service()
            if service is None:
                service = SolverService(cache=current_cache())
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
            # The query planner drives every run, governed or not: core
            # reductions are best-effort (see ``QueryPlan.core``) and every
            # probe still crosses the service as its own shielded query.
            self.plan = QueryPlan(
                self.symbols,
                assertions=self.options.assertions,
                array_bounds=self.program.array_bounds,
            )
            with _span("analysis.analyze", program=self.program.name) as sp:
                self._run_phases()
            # Every dependence holds a state of this plan: drop its memo and
            # shared instances, so a returned result keeps neither alive.
            self.plan.release()
            if self.audit is not None:
                self._finalize_audit()
            if sp.duration:
                _metrics.observe("analysis.analyze_seconds", sp.duration)
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

    def _dependence_record(
        self, dep: Dependence, steps: Sequence[Step] = ()
    ) -> ProvenanceRecord:
        """One record from a dependence's *final* analysis state and the
        trail ``steps`` of its read."""

        subject = dep.subject()
        steps = [step for step in steps if step.subject == subject]
        by = dep.eliminated_by
        used_omega: bool | None = None
        if dep.status is DependenceStatus.LIVE:
            extended = self.options.extended and dep.kind is DependenceKind.FLOW
            verdict, stage = "reported", ("kept" if extended else "standard")
        elif dep.status is DependenceStatus.COVERED:
            # Structural: the source runs entirely before the coverer.
            verdict, stage, used_omega = "eliminated", "cover", False
        elif by is not None and by.kind is DependenceKind.OUTPUT:
            verdict, stage = "eliminated", "terminate"
        else:
            verdict, stage = "eliminated", "kill"
            for step in steps:
                if step.action == "killed":
                    used_omega = step.used_omega
        unrefined = None
        if dep.refined and dep.unrefined_directions:
            unrefined = ", ".join(str(v) for v in dep.unrefined_directions)
        return ProvenanceRecord(
            subject=subject,
            kind=dep.kind.value,
            src=str(dep.src),
            dst=str(dep.dst),
            verdict=verdict,
            status=dep.status.value,
            stage=stage,
            decided_by=by.subject() if by is not None else None,
            direction=dep.direction_text() or None,
            unrefined_direction=unrefined,
            refined=dep.refined,
            covers=dep.covers,
            used_omega=used_omega,
            events=[step.event() for step in steps],
        )

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
                if event.subject is None:
                    continue
                record = by_subject.get(decided_subject(event.subject))
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

    def _run_phases(self) -> None:
        """The single-pass plan-driven traversal.

        Output dependences come first (they feed the kill and refinement
        quick tests); then the anti and flow directions of each read are
        fused into *one* task over the plan's shared state, so a read's
        backward and forward pairs reuse the same base systems and
        elimination prefixes while they are hot.  Sinks are merged back in
        read order: all anti results first, then the flow pipelines.
        """

        writes = self.program.writes()
        reads = self.program.reads()
        with _span("analysis.phase.output"):
            self._compute_output_dependences(writes)
        with _span("analysis.phase.fused"):
            outcomes = [
                self._analyze_read_fused(read, writes) for read in reads
            ]
        for _per_read, sink in outcomes:
            self.result.anti.extend(sink.anti)
            self.result.provenance.extend(sink.anti_provenance)
        steps: list[Step] = []
        for per_read, sink in outcomes:
            self.result.pair_records.extend(sink.pair_records)
            self.result.kill_timings.extend(sink.kill_timings)
            self.result.flow.extend(per_read)
            if self.audit is not None:
                self.result.provenance.extend(sink.records)
            if self.options.explain:
                # Step order, not record order; ``kept`` comes from the
                # final state of the read's live flow dependences.
                steps.extend(sink.steps)
                steps.extend(
                    Step(record.subject, "kept")
                    for record in sink.records
                    if record.verdict == "reported"
                )
        if self.options.explain:
            self.result.explain = explain_view(steps)
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

        sink = _ReadSink(self.options.explain or self.options.audit)
        for dst in writes:
            if read.array != dst.array:
                continue
            with _guard.subject(f"anti: {read} -> {dst}"):
                deps = compute_dependences(
                    read,
                    dst,
                    DependenceKind.ANTI,
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
    def _analyze_read(
        self, read: Access, writes: Sequence[Access], sink: "_ReadSink"
    ) -> tuple[list[Dependence], "_ReadSink"]:
        """The complete flow-dependence pipeline for one array read."""

        tester = KillTester(self.plan, self.output_pairs)
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
        if sink.trail:
            # Records are assembled from the dependences' *final* state —
            # after cover/terminator/kill elimination.
            for dep in per_read:
                sink.records.append(self._dependence_record(dep, sink.steps))
        return per_read, sink

    def _analyze_pair(
        self, write: Access, read: Access, sink: "_ReadSink"
    ) -> list[Dependence]:
        """Standard + extended analysis of one array pair, with timing."""

        _metrics.inc("analysis.pairs_analyzed")
        # Any degradation inside this pair is attributed to it by name.
        with _guard.subject(f"flow: {write} -> {read}"), _span(
            "analysis.pair", src=write, dst=read
        ) as pair_span:
            with _span("analysis.pair.standard") as standard_span:
                deps = compute_dependences(
                    write,
                    read,
                    DependenceKind.FLOW,
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
                        if outcome.dependence is not dep:
                            sink.step(
                                outcome.dependence, "refined", used_omega=True
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
                            sink.step(dep, "covers", used_omega=True)

        if not deps and sink.trail:
            sink.records.append(
                self._independent_record(DependenceKind.FLOW, write, read)
            )
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
                    sink.step(dep, "covered", by=cover)

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
                    sink.step(dep, "terminated", by=terminator)
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
                    kill_subject(victim.subject(), killer.src)
                ):
                    record = tester.kills(victim, killer)
                killed = record.killed
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
                    sink.step(
                        victim,
                        "killed",
                        by=killer,
                        used_omega=record.used_omega,
                    )
                    break

    @staticmethod
    def _pair_time(sink: "_ReadSink", src: Access, dst: Access) -> float:
        for record in sink.pair_records:
            if record.src is src and record.dst is dst:
                return record.extended_time
        return 0.0
