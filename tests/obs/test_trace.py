"""Span tracer unit tests."""

import json
import threading

from repro.obs import trace
from repro.obs.trace import (
    Span,
    SpanEvent,
    Tracer,
    active,
    chrome_trace,
    current_tracer,
    span,
    tracing,
)


class TestDisabled:
    def test_span_is_shared_noop_when_no_tracer(self):
        handle = span("omega.project", kept=3)
        assert handle is trace._NULL
        with handle as sp:
            assert sp.duration == 0.0

    def test_not_active_by_default(self):
        assert not active()
        assert current_tracer() is None


class TestRecording:
    def test_span_records_event(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("omega.project", kept=2):
                pass
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event.name == "omega.project"
        assert event.attrs == {"kept": 2}
        assert event.duration >= 0.0
        assert event.parent is None
        assert event.depth == 0

    def test_nesting_tracks_parent_and_depth(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("analysis.pair"):
                with span("omega.is_satisfiable"):
                    pass
        by_name = {e.name: e for e in tracer.events}
        inner = by_name["omega.is_satisfiable"]
        outer = by_name["analysis.pair"]
        assert inner.parent == "analysis.pair"
        assert inner.depth == 1
        assert outer.depth == 0

    def test_span_duration_exposed_on_handle(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("x") as sp:
                pass
        assert sp.duration == tracer.events[0].duration

    def test_nested_tracers_both_record(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with span("a"):
                pass
            with tracing(inner):
                assert current_tracer() is inner
                with span("b"):
                    pass
        assert outer.span_names() == {"a", "b"}
        assert inner.span_names() == {"b"}

    def test_tracing_restores_state_on_error(self):
        tracer = Tracer()
        try:
            with tracing(tracer):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not active()


class TestExport:
    def _traced(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("analysis.pair", src="s1", dst="s2"):
                with span("omega.project"):
                    pass
        return tracer

    def test_chrome_trace_shape(self):
        payload = self._traced().to_chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
        # Sorted by start time: the outer span starts first.
        assert events[0]["name"] == "analysis.pair"
        assert events[0]["args"] == {"src": "s1", "dst": "s2"}

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced().write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert {e["name"] for e in loaded["traceEvents"]} == {
            "analysis.pair",
            "omega.project",
        }

    def test_attrs_stringified_lazily(self):
        class Weird:
            def __str__(self):
                return "weird!"

        tracer = Tracer()
        with tracing(tracer):
            with span("x", obj=Weird()):
                pass
        # Stored raw; stringified only at export.
        assert isinstance(tracer.events[0].attrs["obj"], Weird)
        payload = chrome_trace(tracer.events)
        assert payload["traceEvents"][0]["args"]["obj"] == "weird!"

    def test_tracer_thread_safe_record(self):
        tracer = Tracer()

        def work():
            with tracing(tracer):
                for _ in range(50):
                    with span("t"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.events) == 200


class TestMetricsOnlySpans:
    def test_span_measures_duration_without_tracer(self):
        from repro.obs.metrics import collecting

        with collecting():
            handle = span("omega.project", kept=1)
            assert isinstance(handle, Span)
            with handle as sp:
                pass
            assert sp.duration > 0.0
        # Nothing was recorded anywhere: no tracer existed.
        assert current_tracer() is None

    def test_metrics_only_spans_still_track_nesting(self):
        from repro.obs.metrics import collecting

        tracer = Tracer()
        with collecting():
            with span("outer"):
                # A tracer activated mid-tree sees correct parents.
                with tracing(tracer):
                    with span("inner"):
                        pass
        assert tracer.events[0].parent == "outer"
        assert tracer.events[0].depth == 1


def _record_tree(starts_and_durs):
    """Record a synthetic, exactly-reproducible span tree into a Tracer."""

    tracer = Tracer()
    for name, start, dur, parent, depth in starts_and_durs:
        tracer.record(SpanEvent(name, start, dur, 7, parent, depth))
    return tracer


_TREE = (
    ("analysis.analyze", 100.0, 2.0, None, 0),
    ("analysis.pair", 100.5, 1.0, "analysis.analyze", 1),
    ("omega.is_satisfiable", 100.5, 0.25, "analysis.pair", 2),
)


class TestDeterministicExport:
    def test_identical_trees_export_byte_identically(self):
        # Same tree recorded at different wall-clock origins: timestamps
        # are origin-normalized, so the serialized exports are identical.
        first = _record_tree(_TREE)
        shifted = _record_tree(
            (name, start + 5000.0, dur, parent, depth)
            for name, start, dur, parent, depth in _TREE
        )
        payload_a = json.dumps(first.to_chrome_trace(), sort_keys=True)
        payload_b = json.dumps(shifted.to_chrome_trace(), sort_keys=True)
        assert payload_a == payload_b

    def test_timeline_starts_at_zero(self):
        payload = _record_tree(_TREE).to_chrome_trace()
        assert payload["traceEvents"][0]["ts"] == 0.0

    def test_ties_order_enclosing_span_first(self):
        # analysis.pair and omega.is_satisfiable start at the same tick;
        # the longer (enclosing) span must sort first.
        events = _record_tree(_TREE).to_chrome_trace()["traceEvents"]
        names = [event["name"] for event in events]
        assert names == [
            "analysis.analyze",
            "analysis.pair",
            "omega.is_satisfiable",
        ]

    def test_export_is_insensitive_to_record_order(self):
        reordered = _record_tree(reversed(_TREE))
        assert json.dumps(
            _record_tree(_TREE).to_chrome_trace(), sort_keys=True
        ) == json.dumps(reordered.to_chrome_trace(), sort_keys=True)
