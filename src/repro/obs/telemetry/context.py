"""Run/request identity, propagated everywhere the work goes.

A :class:`RunContext` names one unit of attributable work: the ``run_id``
identifies a whole CLI invocation (or server process run), the optional
``request_id`` one request multiplexed into it — the shape ``python -m
repro serve`` uses.  Activating a context with :func:`run_context`
makes it visible to the event bus (every event is stamped), the
analysis root span and the exporters (the OTLP trace id derives from
it).

Like every other obs stack, the context stack is thread-local and the
fast path is one list check: :func:`current_run` returns ``None``
immediately when nothing is active.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


__all__ = [
    "RunContext",
    "current_run",
    "new_run_id",
    "run_context",
]


def new_run_id() -> str:
    """A short, globally unique run identifier (12 hex chars)."""

    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class RunContext:
    """The identity of one attributable unit of work."""

    #: Identifies one CLI invocation or server process run.
    run_id: str
    #: One request multiplexed into the run (server mode); None for
    #: whole-invocation work.
    request_id: str | None = None

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "request_id": self.request_id}


class _ContextStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[RunContext] = []


_contexts = _ContextStack()


def current_run() -> RunContext | None:
    """The innermost active run context on this thread, or None."""

    stack = _contexts.stack
    return stack[-1] if stack else None


@contextmanager
def run_context(context: RunContext | None = None) -> Iterator[RunContext]:
    """Activate a run context for the enclosed calls (on this thread).

    Without an argument a fresh ``RunContext(new_run_id())`` is built.
    """

    context = context if context is not None else RunContext(new_run_id())
    _contexts.stack.append(context)
    try:
        yield context
    finally:
        _contexts.stack.pop()
