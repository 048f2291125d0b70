"""Explain mode: the per-pair decision trail, rendered for people.

The analysis engine writes one :class:`Step` per action it takes on a
dependence.  That trail is the one per-pair record; provenance events
(:meth:`Step.event`) and the explain log are its two views.  With
``AnalysisOptions(explain=True)`` the engine turns the trail, in pipeline
order, into an :class:`ExplainLog` (:func:`explain_view`),
human-renderable (:meth:`ExplainLog.render`, behind ``python -m repro
analyze FILE --explain``) and machine-readable (:meth:`ExplainLog.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

__all__ = ["ACTIONS", "Decision", "ExplainLog", "Step", "explain_view"]


#: Every action the engine takes on a dependence, in pipeline order:
#: action -> (provenance stage, provenance detail, explain reason).  The
#: texts are ``str.format`` templates over ``{by}``, ``{test}`` (which
#: kill test decided) and, for ``refined``, ``{before}`` and ``{after}``
#: (the direction text).  ``kept`` is never recorded: the engine derives
#: it from a dependence's final state for the explain view only, so it
#: has no provenance event.
ACTIONS: dict[str, tuple[str | None, str | None, str]] = {
    "refined": (
        "refine",
        "({before}) -> ({after})",
        "distance narrowed from ({before}) to ({after}): every destination "
        "iteration still receives the value from the refined source",
    ),
    "covers": (
        "cover",
        "covers its destination",
        "every element the destination accesses was previously written "
        "by this source",
    ),
    "covered": (
        "cover",
        "eliminated by {by}",
        "its source runs entirely before a covering write of the same "
        "destination",
    ),
    "terminated": (
        "terminate",
        "terminated by {by}",
        "a terminating write overwrites everything the source wrote "
        "before the destination runs",
    ),
    "killed": (
        "kill",
        "{test} by {by}",
        "every element it carries is overwritten by an intervening write "
        "before the destination reads it",
    ),
    "kept": (None, None, "no covering or killing write eliminates it"),
}


class Step(NamedTuple):
    """One action the engine took on one dependence."""

    #: The dependence acted on, e.g. ``"flow: s1:a(i) -> s3:a(i)"``.
    subject: str
    #: A key of :data:`ACTIONS`.
    action: str
    #: The responsible dependence, when the action has one.
    by: str | None = None
    #: Whether the Omega test was consulted (None when not applicable).
    used_omega: bool | None = None
    #: ``(before, after)`` direction text, for ``refined`` only.
    directions: tuple[str, str] = ("", "")

    def _format(self, template: str) -> str:
        before, after = self.directions
        test = "general omega test" if self.used_omega else "quick test"
        return template.format(
            by=self.by, test=test, before=before, after=after
        )

    def event(self) -> tuple[str, str]:
        """The ``(stage, detail)`` entry on the subject's provenance record."""

        stage, detail, _ = ACTIONS[self.action]
        return stage, self._format(detail)

    def decision(self) -> "Decision":
        reason = self._format(ACTIONS[self.action][2])
        return Decision(
            self.subject, self.action, reason, self.by, self.used_omega
        )


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


def explain_view(steps: Iterable[Step]) -> ExplainLog:
    """The explain log of a trail, one decision per step, in step order."""

    log = ExplainLog()
    log.decisions.extend(step.decision() for step in steps)
    return log
