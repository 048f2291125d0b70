"""Precision audit: per-dependence provenance and exactness accounting.

The benchmark harness watches how *fast* the pipeline is; this module
watches how *precise* it is.  When ``AnalysisOptions(audit=True)`` is set,
an :class:`AuditLog` rides along with the analysis: the solver service
notes every Omega query outcome against the :func:`repro.guard.subject`
tag active at the call site, and the engine assembles one
:class:`ProvenanceRecord` per dependence (and per proved-independent pair)
from the final analysis state plus that query footprint — which stage
decided the pair, the deciding direction-vector node, whether the answer
was exact, and every budget degradation that touched it.

Two invariants keep the records **bit-identical** across cache on/off
and governed runs whose budget never runs out (an acceptance criterion,
regression-tested):

* Footprints are order-independent aggregates — per-kind query counters
  and reason *sets* — so the order queries settle in cannot show.
* Noting happens once per query *call* at the service result boundary,
  whether the value was computed or replayed from a cache — so cache
  hits leave the same footprint as misses and cache configuration
  cannot change a record.

This module deliberately imports nothing above :mod:`repro.obs`; callers
(the solver service, the analysis stages) pass the attribution subject
explicitly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator


__all__ = [
    "AuditLog",
    "ProvenanceRecord",
    "QueryFootprint",
    "auditing",
    "current_audit",
    "decided_subject",
    "kill_subject",
    "note_conservative",
]

#: Deciding stages a :class:`ProvenanceRecord` may carry.  ``standard`` /
#: ``kept`` decide *reported* pairs (standard vs extended analysis);
#: ``omega-unsat`` decides *independent* pairs; the rest decide
#: *eliminated* pairs.
STAGES = (
    "standard",     # reported by the standard analysis (extended off)
    "kept",         # survived refinement, covering and killing
    "omega-unsat",  # the pair problem has no forward solution: independent
    "cover",        # eliminated: source runs entirely before a coverer
    "terminate",    # eliminated: a terminating write (Section 4.3)
    "kill",         # eliminated: the kill analysis (quick or general test)
)


@dataclass
class QueryFootprint:
    """Order-independent Omega-query accounting for one audit subject."""

    #: Query count per kind ("sat", "project", "implies", ...).
    queries: dict[str, int] = field(default_factory=dict)
    #: Why any answer under this subject was not exact ("inexact-projection",
    #: "complexity", "degraded-sat", "kill-cases-overflow", ...).
    inexact_reasons: set[str] = field(default_factory=set)
    #: Projections that splintered (exactly or not) under this subject.
    splintered: int = 0

    @property
    def exact(self) -> bool:
        return not self.inexact_reasons

    def merge(self, other: "QueryFootprint") -> None:
        for kind, count in other.queries.items():
            self.queries[kind] = self.queries.get(kind, 0) + count
        self.inexact_reasons.update(other.inexact_reasons)
        self.splintered += other.splintered

    def to_dict(self) -> dict:
        return {
            "queries": dict(sorted(self.queries.items())),
            "inexact_reasons": sorted(self.inexact_reasons),
            "splintered": self.splintered,
        }


class AuditLog:
    """Collection of per-subject query footprints.

    One log spans one analysis run; the solver service feeds it as each
    query settles.
    """

    def __init__(self) -> None:
        self.footprints: dict[str | None, QueryFootprint] = {}

    def note_query(
        self,
        subject: str | None,
        kind: str,
        *,
        exact: bool = True,
        reason: str | None = None,
        splintered: bool = False,
    ) -> None:
        """Record one query outcome against ``subject``."""

        footprint = self.footprints.setdefault(subject, QueryFootprint())
        footprint.queries[kind] = footprint.queries.get(kind, 0) + 1
        if splintered:
            footprint.splintered += 1
        if not exact:
            footprint.inexact_reasons.add(reason or "inexact")

    def note_conservative(self, subject: str | None, reason: str) -> None:
        """Record a conservative bail-out (no query counted)."""

        footprint = self.footprints.setdefault(subject, QueryFootprint())
        footprint.inexact_reasons.add(reason)

    def footprint_for(self, subject: str) -> QueryFootprint:
        """The merged footprint of ``subject`` and its kill sub-subjects.

        Kill tests run under :func:`kill_subject` tags; their queries
        decide the victim's fate, so they fold into its footprint.
        """

        merged = QueryFootprint()
        for key, footprint in self.footprints.items():
            if key is not None and decided_subject(key) == subject:
                merged.merge(footprint)
        return merged


def kill_subject(victim: str, writer: object) -> str:
    """The subject of the test whether ``writer`` kills ``victim``."""

    return f"kill: {victim} by {writer}"


def decided_subject(subject: str) -> str:
    """The dependence ``subject``'s work decides (a kill's victim)."""

    if subject.startswith("kill: "):
        return subject[len("kill: "):].rsplit(" by ", 1)[0]
    return subject


@dataclass
class ProvenanceRecord:
    """Why one dependence pair ended up reported, eliminated or absent."""

    #: The stable subject tag, e.g. ``"flow: s1:a(i) -> s3:a(i)"``.
    subject: str
    #: Dependence kind: ``flow`` | ``anti`` | ``output`` | ``input``.
    kind: str
    src: str
    dst: str
    #: ``reported`` (a live dependence), ``eliminated`` (the extended
    #: analysis removed it), or ``independent`` (no dependence existed).
    verdict: str
    #: Final :class:`DependenceStatus` value; ``none`` for independents.
    status: str
    #: The deciding stage (one of :data:`STAGES`).
    stage: str
    #: The eliminating dependence's subject, when one decided this pair.
    decided_by: str | None = None
    #: The deciding direction-vector node, e.g. ``"(0,+)"``.
    direction: str | None = None
    #: Directions before refinement, when refinement narrowed them.
    unrefined_direction: str | None = None
    refined: bool = False
    covers: bool = False
    #: Whether the deciding step consulted the Omega general test (None
    #: when not applicable, e.g. structural cover elimination).
    used_omega: bool | None = None
    #: True when every Omega answer behind this record was exact and no
    #: budget degradation touched it.
    exact: bool = True
    inexact_reasons: list[str] = field(default_factory=list)
    #: Per-kind query counts behind this pair (footprint aggregate).
    queries: dict[str, int] = field(default_factory=dict)
    #: The deterministic decision trail: ``(stage, detail)`` steps in
    #: pipeline order.
    events: list[tuple[str, str]] = field(default_factory=list)
    #: Serialized :class:`repro.guard.DegradationEvent` dicts whose
    #: subject matched this record.
    degradations: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    def attach_degradation(self, event: dict) -> None:
        """Tag this record with one matching degradation event."""

        self.degradations.append(event)
        reason = f"degraded-{event.get('kind', 'query')}"
        if reason not in self.inexact_reasons:
            self.inexact_reasons.append(reason)
        self.exact = False

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "verdict": self.verdict,
            "status": self.status,
            "stage": self.stage,
            "decided_by": self.decided_by,
            "direction": self.direction,
            "unrefined_direction": self.unrefined_direction,
            "refined": self.refined,
            "covers": self.covers,
            "used_omega": self.used_omega,
            "exact": self.exact,
            "inexact_reasons": list(self.inexact_reasons),
            "queries": dict(sorted(self.queries.items())),
            "events": [list(event) for event in self.events],
            "degradations": list(self.degradations),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProvenanceRecord":
        return cls(
            subject=data["subject"],
            kind=data["kind"],
            src=data["src"],
            dst=data["dst"],
            verdict=data["verdict"],
            status=data["status"],
            stage=data["stage"],
            decided_by=data.get("decided_by"),
            direction=data.get("direction"),
            unrefined_direction=data.get("unrefined_direction"),
            refined=bool(data.get("refined", False)),
            covers=bool(data.get("covers", False)),
            used_omega=data.get("used_omega"),
            exact=bool(data.get("exact", True)),
            inexact_reasons=list(data.get("inexact_reasons", ())),
            queries=dict(data.get("queries", {})),
            events=[tuple(event) for event in data.get("events", ())],
            degradations=list(data.get("degradations", ())),
        )

    def copy(self) -> "ProvenanceRecord":
        return replace(
            self,
            inexact_reasons=list(self.inexact_reasons),
            queries=dict(self.queries),
            events=list(self.events),
            degradations=list(self.degradations),
        )

    def describe(self) -> str:
        """The decision trail as indented text (the CLI's ``--why``)."""

        lines = [self.subject]
        verdict = self.verdict
        if self.decided_by:
            verdict += f" by {self.decided_by}"
        lines.append(f"  verdict: {verdict} (stage: {self.stage})")
        if self.direction:
            lines.append(f"  direction: {self.direction}")
        if self.unrefined_direction:
            lines.append(f"  unrefined: {self.unrefined_direction}")
        exactness = "exact" if self.exact else (
            "inexact (" + ", ".join(self.inexact_reasons) + ")"
        )
        lines.append(f"  answer: {exactness}")
        if self.queries:
            counts = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.queries.items())
            )
            lines.append(f"  omega queries: {counts}")
        for stage, detail in self.events:
            lines.append(f"  - {stage}: {detail}")
        for event in self.degradations:
            answer = event.get("answer", "?")
            site = event.get("site") or "?"
            lines.append(
                f"  ! degraded: {event.get('kind', '?')} -> {answer!r} "
                f"at {site} ({event.get('budget') or '?'} budget)"
            )
        return "\n".join(lines)


# -- activation ---------------------------------------------------------
class _AuditStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[AuditLog] = []


_active = _AuditStack()


def current_audit() -> AuditLog | None:
    """The innermost active audit log on this thread, or None."""

    stack = _active.stack
    return stack[-1] if stack else None


@contextmanager
def auditing(log: AuditLog) -> Iterator[AuditLog]:
    """Activate ``log`` for the enclosed calls on this thread."""

    _active.stack.append(log)
    try:
        yield log
    finally:
        _active.stack.pop()


def note_conservative(subject: str | None, reason: str) -> None:
    """Record a conservative analysis bail-out on the active log, if any.

    The cheap call-site facade for the analysis stages (kill case
    overflow, cover dark-shadow fallback, refinement bail): one
    thread-local read when auditing is off.
    """

    log = current_audit()
    if log is not None:
        log.note_conservative(subject, reason)
