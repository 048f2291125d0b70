"""Budgets, governed scopes and cooperative checkpoints.

A :class:`Budget` bounds what one analysis run may spend: wall-clock time
(``deadline_ms``) plus three per-query work meters — Fourier–Motzkin
elimination steps (``fm_steps``), splinters generated (``splinters``) and
DNF pieces/cubes materialized (``dnf_size``).  :func:`governed` activates a
budget on the current thread; the Omega core calls :func:`checkpoint` at
the top of its loops and :func:`spend` wherever it does metered work.
Both are no-ops — one thread-local attribute read — when nothing is
active, so ungoverned runs pay nothing measurable.

The deadline is global to the governed scope; the work meters are *per
query* (reset by the solver service at each top-level query, see
:meth:`Governor.fresh_query`), matching the tentpole's "a Budget carried
per query": one pathological query exhausts its own allowance without
starving the healthy ones around it.

Exhaustion raises :class:`repro.omega.errors.BudgetExhausted` with full
provenance (site, budget, limit, spent).  What happens next is the
*policy* of the enclosing :func:`governed` scope: ``"degrade"`` (the
default) lets the solver service substitute the sound conservative answer
and record a :class:`DegradationEvent`; ``"raise"`` (the CLI's
``--strict``) propagates.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..obs import metrics as _metrics
from ..omega.errors import BudgetExhausted
from . import faults as _faults

__all__ = [
    "Budget",
    "DegradationEvent",
    "DegradationLog",
    "Governor",
    "active",
    "checkpoint",
    "current_subject",
    "governed",
    "spend",
    "subject",
]

#: The work meters a :class:`Budget` can bound (besides the deadline).
METER_KINDS = ("fm_steps", "splinters", "dnf_size")

#: Valid degradation policies for :func:`governed`.
POLICIES = ("degrade", "raise")


@dataclass(frozen=True)
class Budget:
    """Resource limits for a governed scope.  ``None`` means unlimited."""

    #: Wall-clock deadline for the whole governed scope, in milliseconds.
    deadline_ms: float | None = None
    #: Fourier–Motzkin eliminations allowed per top-level query.
    fm_steps: int | None = None
    #: Splinters generated per top-level query.
    splinters: int | None = None
    #: DNF pieces/cubes materialized per top-level query.
    dnf_size: int | None = None

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget with no limits: activates the checkpoint machinery
        (useful for fault injection and overhead measurement) without ever
        exhausting."""

        return cls()

    def limit_for(self, kind: str) -> float | None:
        if kind == "deadline":
            return self.deadline_ms
        return getattr(self, kind)


@dataclass
class DegradationEvent:
    """One conservative substitution, with provenance."""

    #: The dependence (or other unit of work) being analyzed, from
    #: :func:`subject`; None when the degradation happened outside any
    #: tagged scope.
    subject: str | None
    #: The query kind that degraded ("sat", "project", "gist", "implies",
    #: or "implies-union").
    kind: str
    #: Checkpoint site that raised (e.g. "omega.fm").
    site: str | None
    #: Budget that was exhausted (e.g. "deadline").
    budget: str | None
    limit: float | None
    spent: float | None
    #: Human description of the substituted answer.
    answer: str

    def describe(self) -> str:
        where = f" at {self.site}" if self.site else ""
        what = f" ({self.budget} budget)" if self.budget else ""
        who = self.subject or "<untagged>"
        return f"{who}: {self.kind} degraded to {self.answer!r}{where}{what}"


class DegradationLog:
    """Thread-safe collection of :class:`DegradationEvent`."""

    def __init__(self) -> None:
        self.events: list[DegradationEvent] = []
        self._lock = threading.Lock()

    def note(self, event: DegradationEvent) -> None:
        with self._lock:
            self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(list(self.events))

    def subjects(self) -> set[str | None]:
        return {event.subject for event in self.events}

    def render(self) -> str:
        lines = [f"{len(self.events)} degraded result(s):"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)


class _Meter:
    """Per-query work counters (see Governor.fresh_query)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.depth = 0


class Governor:
    """Runtime state of one :func:`governed` scope.

    The deadline is global to the scope; the work meters become per-query
    meters once :meth:`fresh_query` brackets each top-level query.
    """

    def __init__(self, budget: Budget, policy: str, log: DegradationLog):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected {POLICIES}")
        self.budget = budget
        self.policy = policy
        self.log = log
        self.started = time.monotonic()
        self._deadline = (
            self.started + budget.deadline_ms / 1000.0
            if budget.deadline_ms is not None
            else None
        )
        self._meter = _Meter()

    # -- checkpoints ----------------------------------------------------
    def check(self, site: str) -> None:
        """Deadline check; called from :func:`checkpoint`."""

        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._exhausted(site, "deadline", self.budget.deadline_ms)

    def spend(self, kind: str, amount: int, site: str) -> None:
        """Meter ``amount`` units of ``kind`` work; raise on overrun."""

        meter = self._meter
        spent = meter.counts.get(kind, 0) + amount
        meter.counts[kind] = spent
        limit = self.budget.limit_for(kind)
        if limit is not None and spent > limit:
            self._exhausted(site, kind, limit, spent)

    def _exhausted(
        self, site: str, kind: str, limit: float | None, spent: float | None = None
    ) -> None:
        if spent is None:
            spent = round((time.monotonic() - self.started) * 1000.0, 3)
        _metrics.inc("guard.budget_exhausted")
        raise BudgetExhausted(site=site, budget=kind, limit=limit, spent=spent)

    # -- per-query meter scoping ---------------------------------------
    @contextmanager
    def fresh_query(self) -> Iterator[None]:
        """Reset this thread's work meters for one top-level query.

        Nested entries (a query evaluated while another is on this
        thread's stack) keep the outer meter: internal re-queries count
        against the query that issued them.
        """

        meter = self._meter
        meter.depth += 1
        if meter.depth == 1:
            meter.counts = {}
        try:
            yield
        finally:
            meter.depth -= 1

    # -- degradation bookkeeping ---------------------------------------
    def note_degradation(
        self, *, kind: str, answer: str, failure: BudgetExhausted
    ) -> DegradationEvent:
        event = DegradationEvent(
            subject=current_subject(),
            kind=kind,
            site=failure.site,
            budget=failure.budget,
            limit=failure.limit,
            spent=failure.spent,
            answer=answer,
        )
        self.log.note(event)
        _metrics.inc("guard.degradations")
        return event


class _GovernorStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[Governor] = []


class _SubjectStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[str] = []


_active = _GovernorStack()
_subjects = _SubjectStack()


def active() -> Governor | None:
    """The innermost governor on this thread, or None."""

    stack = _active.stack
    return stack[-1] if stack else None


@contextmanager
def governed(
    budget: Budget,
    *,
    policy: str = "degrade",
    log: DegradationLog | None = None,
) -> Iterator[Governor]:
    """Activate ``budget`` (and a degradation policy) for the enclosed
    calls on this thread."""

    governor = Governor(budget, policy, log if log is not None else DegradationLog())
    _active.stack.append(governor)
    try:
        yield governor
    finally:
        _active.stack.pop()


def checkpoint(site: str) -> None:
    """Cooperative cancellation point: fault injection + deadline check.

    The fast path — no fault plan, no governor — is two thread-local
    attribute reads, cheap enough for the Omega core's inner loops.
    """

    plan = _faults.current_plan()
    if plan is not None:
        plan.maybe_fail(site)
    stack = _active.stack
    if stack:
        stack[-1].check(site)


def spend(kind: str, amount: int = 1, *, site: str) -> None:
    """Meter work against the active budget (no-op when ungoverned)."""

    stack = _active.stack
    if stack:
        stack[-1].spend(kind, amount, site)


def current_subject() -> str | None:
    """The innermost :func:`subject` tag on this thread, or None."""

    stack = _subjects.stack
    return stack[-1] if stack else None


@contextmanager
def subject(tag: str) -> Iterator[None]:
    """Tag the enclosed work (e.g. ``"flow: A(i) -> A(i-1)"``) so any
    degradation inside it carries per-dependence provenance."""

    _subjects.stack.append(tag)
    try:
        yield
    finally:
        _subjects.stack.pop()
