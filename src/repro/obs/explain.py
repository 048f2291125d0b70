"""Explain mode: a structured decision trail for dependence analysis.

When ``AnalysisOptions(explain=True)`` is set, the analysis engine records
one :class:`Decision` per verdict it reaches about a dependence — why it
was refined, found covering, eliminated as covered, killed (and by which
write, and whether the Omega test had to be consulted), or kept.  The
trail is both human-renderable (:meth:`ExplainLog.render`, used by
``python -m repro analyze FILE --explain``) and machine-readable
(:meth:`ExplainLog.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Decision", "ExplainLog"]


@dataclass
class Decision:
    """One recorded verdict about one dependence."""

    #: The dependence being decided, e.g. ``"flow: s1:a(i) -> s3:a(i)"``.
    subject: str
    #: ``refined`` | ``covers`` | ``covered`` | ``killed`` | ``terminated``
    #: | ``kept``.
    action: str
    #: Human-readable justification.
    reason: str
    #: The responsible dependence/write, when the verdict has one.
    by: str | None = None
    #: Whether the Omega test was consulted (None when not applicable).
    used_omega: bool | None = None

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "action": self.action,
            "reason": self.reason,
            "by": self.by,
            "used_omega": self.used_omega,
        }

    def describe(self) -> str:
        suffix = f" [by {self.by}]" if self.by else ""
        if self.used_omega is not None:
            verdict = "omega general test" if self.used_omega else "quick test"
            suffix += f" ({verdict})"
        return f"{self.action}: {self.reason}{suffix}"


class ExplainLog:
    """An append-only trail of analysis decisions, grouped per dependence."""

    def __init__(self) -> None:
        self.decisions: list[Decision] = []

    def record(
        self,
        subject: str,
        action: str,
        reason: str,
        *,
        by: str | None = None,
        used_omega: bool | None = None,
    ) -> Decision:
        decision = Decision(subject, action, reason, by, used_omega)
        self.decisions.append(decision)
        return decision

    def merge(self, other: "ExplainLog") -> "ExplainLog":
        """Append another log's decisions, preserving their order.

        This is the engine's determinism contract: each per-read task
        records into its own private log, and the engine merges the logs
        strictly in program (read) order — so the combined trail follows
        read order.
        """

        self.decisions.extend(other.decisions)
        return self

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self.decisions)

    def for_subject(self, subject: str) -> list[Decision]:
        return [d for d in self.decisions if d.subject == subject]

    def actions(self) -> set[str]:
        return {d.action for d in self.decisions}

    def subjects(self) -> list[str]:
        """Distinct subjects in first-recorded order."""

        seen: list[str] = []
        for decision in self.decisions:
            if decision.subject not in seen:
                seen.append(decision.subject)
        return seen

    def to_dict(self) -> dict:
        return {"decisions": [d.to_dict() for d in self.decisions]}

    def render(self) -> str:
        """The decision trail as indented text, grouped per dependence."""

        lines = ["Decision trail", "=============="]
        for subject in self.subjects():
            lines.append(subject)
            for decision in self.for_subject(subject):
                lines.append(f"  - {decision.describe()}")
        if not self.decisions:
            lines.append("(no decisions recorded)")
        return "\n".join(lines)
