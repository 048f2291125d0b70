"""Span-derived profiling: hotspot aggregation and flamegraph export.

A :class:`Profile` turns the flat event list a :class:`~repro.obs.trace.Tracer`
records into per-span-name statistics:

* **call count** and **cumulative** wall time (time with the span open);
* **self** time — cumulative minus the time spent in *direct* child spans,
  the quantity a hotspot hunt actually wants.  Self times are conservative
  by construction: summed over every name they telescope back to exactly
  the total wall time of the root spans;
* a **child breakdown** (which spans each site spends its time in);
* **collapsed call stacks** (``root;child;leaf <microseconds>``), the
  input format of Brendan Gregg's ``flamegraph.pl`` and of speedscope.

The span tree is rebuilt from the recorded events.  Events carry their
parent *name* and nesting depth, and within one thread spans are properly
nested intervals, so a single pass over the events sorted by start time
with a stack of open spans recovers the tree exactly.

Typical use::

    from repro.obs import Profile, Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        analyze(program)
    profile = Profile.from_tracer(tracer)
    print(profile.hotspot_table())
    profile.write_collapsed("omega.folded")   # flamegraph.pl omega.folded
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .trace import SpanEvent, Tracer

__all__ = ["Profile", "SpanProfile"]

#: Slack for float interval-containment tests while rebuilding the tree.
_EPSILON = 1e-9


@dataclass
class SpanProfile:
    """Aggregated statistics for one span name."""

    name: str
    count: int = 0
    cumulative: float = 0.0  #: seconds with a span of this name open
    self_time: float = 0.0  #: cumulative minus direct children
    #: Per child span name: (number of calls, cumulative seconds) spent in
    #: direct children while this span was the innermost enclosing one.
    children: dict[str, tuple[int, float]] = field(default_factory=dict)

    def add_child(self, name: str, duration: float) -> None:
        calls, seconds = self.children.get(name, (0, 0.0))
        self.children[name] = (calls + 1, seconds + duration)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "cumulative_s": self.cumulative,
            "self_s": self.self_time,
            "children": {
                child: {"count": calls, "seconds": seconds}
                for child, (calls, seconds) in sorted(self.children.items())
            },
        }


def _nested_in(event: SpanEvent, parent: SpanEvent) -> bool:
    return (
        event.depth == parent.depth + 1
        and event.parent == parent.name
        and event.start >= parent.start - _EPSILON
        and event.end <= parent.end + _EPSILON
    )


@dataclass
class Profile:
    """Per-span-name profile over a set of recorded span events."""

    profiles: dict[str, SpanProfile] = field(default_factory=dict)
    #: Total wall time of root spans (depth 0) — the profiled budget that
    #: the per-name self times partition.
    root_time: float = 0.0
    root_count: int = 0
    #: Self seconds per full call path, ``"a;b;c"`` keyed (collapsed-stack
    #: aggregation for flamegraphs).
    stacks: dict[str, float] = field(default_factory=dict)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[SpanEvent]) -> "Profile":
        profile = cls()
        by_thread: dict[int, list[SpanEvent]] = {}
        for event in events:
            by_thread.setdefault(event.thread_id, []).append(event)
        for thread_events in by_thread.values():
            profile._ingest_thread(thread_events)
        return profile

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Profile":
        return cls.from_events(tracer.events)

    def _ingest_thread(self, events: list[SpanEvent]) -> None:
        # Parents start no later than their children; on equal starts the
        # smaller depth is the encloser.  Events were recorded at span
        # *exit*, so sorting by (start, depth) restores entry order.
        ordered = sorted(events, key=lambda e: (e.start, e.depth))
        stack: list[SpanEvent] = []
        for event in ordered:
            while stack and not _nested_in(event, stack[-1]):
                stack.pop()
            entry = self._entry(event.name)
            entry.count += 1
            entry.cumulative += event.duration
            entry.self_time += event.duration
            if stack:
                parent = self._entry(stack[-1].name)
                parent.self_time -= event.duration
                parent.add_child(event.name, event.duration)
                # The direct parent's path bucket loses this span's time:
                # both hold self time only, and they telescope.
                parent_path = ";".join(frame.name for frame in stack)
                self.stacks[parent_path] -= event.duration
                path = f"{parent_path};{event.name}"
            else:
                self.root_time += event.duration
                self.root_count += 1
                path = event.name
            self.stacks[path] = self.stacks.get(path, 0.0) + event.duration
            stack.append(event)

    def _entry(self, name: str) -> SpanProfile:
        entry = self.profiles.get(name)
        if entry is None:
            entry = self.profiles[name] = SpanProfile(name)
        return entry

    # -- views ----------------------------------------------------------
    def total_self_time(self) -> float:
        return sum(entry.self_time for entry in self.profiles.values())

    def hotspots(self) -> list[SpanProfile]:
        """Every span name, heaviest self time first."""

        return sorted(
            self.profiles.values(),
            key=lambda entry: (-entry.self_time, entry.name),
        )

    def hotspot_table(self, limit: int | None = None) -> str:
        """A plain-text hotspot table, heaviest self time first."""

        rows = self.hotspots()
        if limit is not None:
            rows = rows[:limit]
        width = max([len(r.name) for r in rows] + [len("span")])
        total = self.root_time or 1.0
        lines = [
            f"{'span':<{width}}  {'calls':>7}  {'self':>10}  {'self%':>6}"
            f"  {'cumulative':>10}",
            "-" * (width + 41),
        ]
        for row in rows:
            lines.append(
                f"{row.name:<{width}}  {row.count:>7}"
                f"  {row.self_time:>9.4f}s"
                f"  {100.0 * row.self_time / total:>5.1f}%"
                f"  {row.cumulative:>9.4f}s"
            )
        lines.append(
            f"{'total (root spans)':<{width}}  {self.root_count:>7}"
            f"  {self.total_self_time():>9.4f}s  100.0%"
            f"  {self.root_time:>9.4f}s"
        )
        return "\n".join(lines)

    def collapsed_stacks(self) -> str:
        """Collapsed-stack text (``path;to;span <microseconds>``).

        One line per distinct call path, value = self time in integer
        microseconds — feed straight to ``flamegraph.pl`` or speedscope.
        Paths whose self time rounds to zero are dropped.
        """

        lines = []
        for path in sorted(self.stacks):
            micros = int(round(self.stacks[path] * 1e6))
            if micros > 0:
                lines.append(f"{path} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path) -> None:
        with open(path, "w") as sink:
            sink.write(self.collapsed_stacks())

    def to_dict(self) -> dict:
        return {
            "root_time_s": self.root_time,
            "root_count": self.root_count,
            "spans": [entry.to_dict() for entry in self.hotspots()],
        }
