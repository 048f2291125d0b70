"""Event bus: lifecycle stream determinism, sampling, sinks."""

import json

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.obs import (
    EventBus,
    JsonlSink,
    MetricsRegistry,
    RunContext,
    collecting,
    publishing,
    run_context,
)
from repro.obs.telemetry.events import _sample_keep
from repro.programs import cholsky, example1


def run_events(program, options, run_id="deadbeef0001", sample=1.0):
    bus = EventBus(sample=sample)
    with run_context(RunContext(run_id)):
        with publishing(bus):
            analyze(program, options)
    return bus.events


class TestBusBasics:
    def test_emit_shapes_the_payload(self):
        bus = EventBus()
        with run_context(RunContext("abc", request_id="r1")):
            bus.emit("run.start", "prog", detail="hello")
        (event,) = bus.events
        assert event == {
            "schema": "repro.event/1",
            "kind": "run.start",
            "subject": "prog",
            "stage": None,
            "detail": "hello",
            "run": "abc",
            "request": "r1",
            "seq": 1,
        }

    def test_seq_is_monotonic(self):
        bus = EventBus()
        for _ in range(3):
            bus.emit("run.start")
        assert [event["seq"] for event in bus.events] == [1, 2, 3]

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            EventBus(sample=1.5)

    def test_sink_receives_every_event(self):
        seen = []
        bus = EventBus(seen.append)
        bus.emit("run.start", "p")
        assert seen == bus.events

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "deep" / "events.jsonl"
        with JsonlSink(path) as sink:
            bus = EventBus(sink)
            bus.emit("run.start", "p")
            bus.emit("pair.verdict", "flow: a -> b", stage="kill")
        lines = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert lines == bus.events


class TestSampling:
    def test_edge_rates(self):
        assert _sample_keep("anything", 1.0)
        assert not _sample_keep("anything", 0.0)

    def test_content_hashed_not_random(self):
        subjects = [f"flow: s{i} -> d{i}" for i in range(100)]
        first = [_sample_keep(s, 0.5) for s in subjects]
        second = [_sample_keep(s, 0.5) for s in subjects]
        assert first == second
        assert 20 < sum(first) < 80  # roughly half survive

    def test_run_level_events_never_sampled_out(self):
        bus = EventBus(sample=0.0)
        bus.emit("run.start", "p")
        bus.emit("pair.start", "flow: a -> b")
        bus.emit("degradation", "flow: a -> b", stage="sat")
        bus.emit("run.end", "p")
        kinds = [event["kind"] for event in bus.events]
        assert kinds == ["run.start", "degradation", "run.end"]

    def test_sampled_out_events_counted(self):
        registry = MetricsRegistry()
        with collecting(registry):
            bus = EventBus(sample=0.0)
            bus.emit("pair.start", "flow: a -> b")
            bus.emit("run.start", "p")
        assert registry.counter("obs.events.sampled_out") == 1
        assert registry.counter("obs.events.emitted") == 1


class TestEngineIntegration:
    def test_lifecycle_covers_the_run(self):
        events = run_events(example1(), AnalysisOptions(extended=True))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "run.start"
        assert kinds[-1] == "run.end"
        assert "pair.start" in kinds
        assert "pair.verdict" in kinds
        assert all(event["run"] == "deadbeef0001" for event in events)

    def test_verdicts_name_the_deciding_stage(self):
        events = run_events(example1(), AnalysisOptions(extended=True))
        stages = {
            event["stage"]
            for event in events
            if event["kind"] == "pair.verdict"
        }
        assert stages <= {
            "standard",
            "kept",
            "cover",
            "terminate",
            "kill",
            "omega-unsat",
        }
        assert "kill" in stages  # example1's dead dependence

    @pytest.mark.parametrize("planner", [True, False])
    def test_stream_bit_identical_across_cache_settings(self, planner):
        options = {"extended": True, "planner": planner}
        cached = run_events(cholsky(), AnalysisOptions(cache=True, **options))
        uncached = run_events(cholsky(), AnalysisOptions(cache=False, **options))
        assert cached == uncached
        assert len(cached) > 10

    def test_no_wall_clock_in_payloads(self):
        first = run_events(example1(), AnalysisOptions(extended=True))
        second = run_events(example1(), AnalysisOptions(extended=True))
        assert first == second

    def test_degradation_and_fallback_events_on_governed_runs(self):
        events = run_events(example1(), AnalysisOptions(deadline_ms=0.0))
        kinds = [event["kind"] for event in events]
        assert "planner.fallback" in kinds
        assert "degradation" in kinds
        degradations = [
            event for event in events if event["kind"] == "degradation"
        ]
        assert all(event["stage"] for event in degradations)

    def test_silent_without_a_bus(self):
        result = analyze(example1(), AnalysisOptions(extended=True))
        assert result.flow  # no bus: plain analysis, nothing raised

    def test_sampling_thins_pair_events_only(self):
        full = run_events(cholsky(), AnalysisOptions(extended=True))
        thin = run_events(
            cholsky(), AnalysisOptions(extended=True), sample=0.3
        )
        pair_kinds = {"pair.start", "pair.verdict"}
        assert len([e for e in thin if e["kind"] in pair_kinds]) < len(
            [e for e in full if e["kind"] in pair_kinds]
        )
        assert [e["kind"] for e in thin if e["kind"] not in pair_kinds] == [
            e["kind"] for e in full if e["kind"] not in pair_kinds
        ]
