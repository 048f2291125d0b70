"""ServeApp behavior: answers, caching tiers, restarts, degradation.

The acceptance property for the service: a warm-start run (restart
between submissions, same store file) answers bit-identically to a cold
direct :func:`analyze` call, with persistent-tier hits > 0.
"""

import json

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.ir import parse
from repro.reporting import result_to_dict
from repro.serve import ServeApp

RECURRENCE = (
    "for i := 1 to n do {\n"
    "  a(i) := a(i-1) + b(i)\n"
    "}\n"
)
WAVEFRONT = (
    "for i := 1 to n do {\n"
    "  for j := 1 to n do {\n"
    "    w(i, j) := w(i-1, j) + w(i, j-1)\n"
    "  }\n"
    "}\n"
)
#: A kill (the second write kills the first one's flow to the read):
#: the kill test's questions reach the solver, and so the store, where
#: the vector searches of the two programs above are answered by their
#: plans' interval states and submit nothing.
KILL = (
    "a(n) :=\n"
    "for i := n to n+10 do a(i) :=\n"
    "for i := n to n+20 do := a(i)\n"
)
PROGRAMS = {"recurrence": RECURRENCE, "wavefront": WAVEFRONT, "kill": KILL}


def comparable(result_dict):
    """Project out the run-shaped field (None vs [] across governance)."""

    found = dict(result_dict)
    found.pop("degradations", None)
    return found


def direct_answer(name, source):
    return comparable(
        result_to_dict(analyze(parse(source, name), AnalysisOptions()))
    )


@pytest.fixture
def app(tmp_path):
    app = ServeApp(store_path=tmp_path / "store.db")
    yield app
    app.close()


def submit(app, name, source, **extra):
    payload = {"op": "analyze", "name": name, "program": source}
    payload.update(extra)
    return app.handle(payload)


# -- answers ---------------------------------------------------------------


def test_analyze_matches_direct_analysis(app):
    for name, source in PROGRAMS.items():
        http, envelope = submit(app, name, source)
        assert http == 200
        assert envelope["status"] == "ok"
        assert envelope["schema"] == "repro.serve/1"
        assert comparable(envelope["result"]) == direct_answer(name, source)
        assert envelope["degradations"] == []


def test_restart_answers_from_the_store_bit_identically(tmp_path):
    store = tmp_path / "store.db"
    first = ServeApp(store_path=store)
    cold = {}
    for name, source in PROGRAMS.items():
        _, envelope = submit(first, name, source)
        cold[name] = envelope["result"]
    first.close()  # the restart: every in-memory tier dies

    second = ServeApp(store_path=store)
    try:
        for name, source in PROGRAMS.items():
            _, envelope = submit(second, name, source)
            assert envelope["status"] == "ok"
            # Bit-identical across the restart AND to a direct run.
            assert envelope["result"] == cold[name]
            assert comparable(envelope["result"]) == direct_answer(
                name, source
            )
        stats = second.store.stats()
        assert stats["hits"] > 0  # the persistent tier did the answering
        assert second.stats()["result_cache"]["hits"] == 0
    finally:
        second.close()


def test_result_cache_replays_identical_submissions(app):
    _, first = submit(app, "recurrence", RECURRENCE)
    _, second = submit(app, "recurrence", RECURRENCE)
    assert second["result_cache"] == "hit"
    assert second["result"] == first["result"]
    assert second["request_id"] != first["request_id"]


def test_storeless_app_still_answers(tmp_path):
    app = ServeApp(store_path=None)
    try:
        _, envelope = submit(app, "recurrence", RECURRENCE)
        assert envelope["status"] == "ok"
        assert comparable(envelope["result"]) == direct_answer(
            "recurrence", RECURRENCE
        )
    finally:
        app.close()


# -- protocol edges through the app ---------------------------------------


def test_unparsable_program_is_invalid_not_error(app):
    http, envelope = submit(app, "broken", "for i := 1 to do oops")
    assert http == 400
    assert envelope["status"] == "invalid"
    assert "unparsable" in envelope["error"]


def test_unknown_op_is_invalid(app):
    http, envelope = app.handle({"op": "explode"})
    assert http == 400
    assert envelope["status"] == "invalid"


def test_raw_bytes_payloads_are_decoded(app):
    http, envelope = app.handle(
        json.dumps(
            {"op": "analyze", "name": "r", "program": RECURRENCE}
        ).encode()
    )
    assert http == 200 and envelope["status"] == "ok"
    http, envelope = app.handle(b"\xff not json")
    assert http == 400 and envelope["status"] == "invalid"


@pytest.mark.parametrize("deadline", ["NaN", "Infinity", "-Infinity", "true"])
def test_unusable_deadline_bytes_are_invalid(deadline):
    # A NaN deadline would slip past max_deadline_ms: min(nan, 1.0) is
    # nan, which never fires, so the analysis would run ungoverned.
    app = ServeApp(max_deadline_ms=1.0)
    try:
        http, envelope = app.handle(
            b'{"op": "analyze", "name": "r", "program": '
            + json.dumps(RECURRENCE).encode()
            + b', "deadline_ms": '
            + deadline.encode()
            + b"}"
        )
    finally:
        app.close()
    assert http == 400 and envelope["status"] == "invalid"
    assert "deadline_ms" in envelope["error"]


def test_ping_stats_and_drain_bypass_admission(app):
    _, pong = app.handle({"op": "ping"})
    assert pong["status"] == "ok" and pong["ready"] is True
    _, stats = app.handle({"op": "stats"})
    assert stats["stats"]["requests"] >= 1
    _, drained = app.handle({"op": "drain"})
    assert drained["draining"] is True
    # Draining: analysis requests shed, introspection still answers.
    http, envelope = submit(app, "recurrence", RECURRENCE)
    assert http == 429
    assert envelope["status"] == "rejected"
    assert envelope["reason"] == "draining"
    assert envelope["retry_after_ms"] > 0
    _, pong = app.handle({"op": "ping"})
    assert pong["ready"] is False


def test_query_returns_provenance(app):
    http, envelope = app.handle(
        {
            "op": "query",
            "name": "recurrence",
            "program": RECURRENCE,
            "pair": ["a(i)", "a(i-1)"],
        }
    )
    assert http == 200
    assert envelope["status"] == "ok"
    assert envelope["pair"] == ["a(i)", "a(i-1)"]
    assert envelope["provenance"]
    assert envelope["provenance"][0]["verdict"]


def test_query_for_unknown_pair_is_invalid(app):
    http, envelope = app.handle(
        {
            "op": "query",
            "name": "recurrence",
            "program": RECURRENCE,
            "pair": ["z(i)", "z(i-1)"],
        }
    )
    assert http == 400
    assert "no provenance" in envelope["error"]


def test_tiny_deadline_degrades_soundly_never_500s(app):
    http, envelope = submit(
        app, "wavefront", WAVEFRONT, deadline_ms=0.0001
    )
    assert http == 200
    assert envelope["status"] in ("ok", "degraded")
    if envelope["status"] == "degraded":
        assert envelope["degradations"]
        # Superset soundness: every exact live dependence survives.
        exact = direct_answer("wavefront", WAVEFRONT)
        degraded_live = {
            (d["kind"], d["source"]["statement"], d["destination"]["statement"])
            for kind in ("flow", "anti", "output")
            for d in envelope["result"][kind]
            if d["status"] == "live"
        }
        exact_live = {
            (d["kind"], d["source"]["statement"], d["destination"]["statement"])
            for kind in ("flow", "anti", "output")
            for d in exact[kind]
            if d["status"] == "live"
        }
        assert exact_live <= degraded_live
        # Load-shaped answers are not memoized for later clients.
        assert app.stats()["result_cache"]["size"] == 0


def test_requests_write_nothing_under_the_working_directory(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    app = ServeApp()
    try:
        http, envelope = submit(app, "recurrence", RECURRENCE)
    finally:
        app.close()
    assert http == 200 and envelope["status"] == "ok"
    assert list(tmp_path.iterdir()) == []


def test_handle_never_raises_even_on_garbage(app):
    for payload in (None, 42, [], {"op": None}, {"op": "analyze"}):
        http, envelope = app.handle(payload)
        assert http in (200, 400, 429)
        assert envelope["status"] in ("ok", "invalid", "rejected")
