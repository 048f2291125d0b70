"""The live event bus: per-pair lifecycle events with sampling.

While spans and metrics summarize a run after the fact, the event bus
streams the analysis's decisions *as they settle*: one event per run
start/end, per flow pair examined, per verdict (with the deciding
stage) and per budget degradation.  Events go to a user callback or a
JSONL sink (:class:`JsonlSink`), ready for tailing, ``jq`` pipelines, or
the request log of a future ``repro serve``.

Determinism contract — the property regression tests pin down:

* Pair events are a view of the engine's per-pair trail, derived and
  delivered at its read-order merge points, so the stream is
  bit-identical across cache settings and governed runs whose budget
  never runs out.
* Sequence numbers are assigned at delivery, and the default payload
  carries no wall-clock timestamps.
* Sampling is content-hashed (CRC-32 of the pair subject), never
  random: the same pairs are kept at the same rate on every run.
  Run-level events (``run.*``, ``degradation``) are always delivered.

Activate a bus with :func:`publishing`; instrumented code finds it via
:func:`current_bus` (one thread-local list check when disabled, keeping
the obs-off fast path intact).
"""

from __future__ import annotations

import json
import threading
import zlib
from contextlib import contextmanager
from typing import Callable, Iterator

from ..instrument import metrics as _metrics
from .context import current_run

__all__ = [
    "EVENT_SCHEMA",
    "EventBus",
    "JsonlSink",
    "current_bus",
    "publishing",
]

#: Schema tag carried by every event payload.
EVENT_SCHEMA = "repro.event/1"

#: Event kinds subject to sampling; everything else always ships.
_SAMPLED_KINDS = frozenset({"pair.start", "pair.verdict"})

#: Denominator of the deterministic sampling hash.
_SAMPLE_SPACE = 1 << 20


def _sample_keep(subject: str, rate: float) -> bool:
    """Deterministic keep/drop decision for one pair subject."""

    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = zlib.crc32(subject.encode("utf-8")) % _SAMPLE_SPACE
    return bucket < rate * _SAMPLE_SPACE


class JsonlSink:
    """Append each event as one ``sort_keys`` JSON line at ``path``."""

    def __init__(self, path):
        import pathlib

        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w")

    def __call__(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class EventBus:
    """Collects and delivers lifecycle events for one run.

    ``sink`` is any callable taking the event dict; events are also
    retained on ``self.events`` so tests and in-process consumers can
    read the stream back without a sink.
    """

    def __init__(
        self,
        sink: Callable[[dict], None] | None = None,
        *,
        sample: float = 1.0,
    ):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample rate must be in [0, 1]")
        self.sink = sink
        self.sample = sample
        self.events: list[dict] = []
        self._seq = 0
        self._lock = threading.Lock()

    def emit(
        self,
        kind: str,
        subject: str | None = None,
        *,
        stage: str | None = None,
        detail: str | None = None,
    ) -> None:
        """Deliver one event (subject to sampling for pair events)."""

        if kind in _SAMPLED_KINDS and not _sample_keep(
            subject or "", self.sample
        ):
            _metrics.inc("obs.events.sampled_out")
            return
        context = current_run()
        event = {
            "schema": EVENT_SCHEMA,
            "kind": kind,
            "subject": subject,
            "stage": stage,
            "detail": detail,
            "run": context.run_id if context is not None else None,
            "request": context.request_id if context is not None else None,
        }
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self.events.append(event)
        _metrics.inc("obs.events.emitted")
        if self.sink is not None:
            self.sink(event)


class _BusStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[EventBus] = []


_buses = _BusStack()


def current_bus() -> EventBus | None:
    """The innermost active event bus on this thread, or None."""

    stack = _buses.stack
    return stack[-1] if stack else None


@contextmanager
def publishing(bus: EventBus | None = None) -> Iterator[EventBus]:
    """Activate an event bus for the enclosed calls (on this thread)."""

    bus = bus if bus is not None else EventBus()
    _buses.stack.append(bus)
    try:
        yield bus
    finally:
        _buses.stack.pop()
