"""Explain-mode tests: the ExplainLog itself, plus engine integration."""

from contextlib import nullcontext

from repro.analysis import AnalysisOptions, analyze
from repro.ir import parse
from repro.obs.explain import (
    ACTIONS,
    Decision,
    ExplainLog,
    Step,
    explain_view,
)
from repro.omega import SolverCache, caching

KILL_PROGRAM = """
a(n) :=
for i := n to n+10 do a(i) :=
for i := n to n+20 do := a(i)
"""


class TestExplainLog:
    def test_record_and_group(self):
        log = explain_view(
            [
                Step("flow: a -> b", "killed", by="flow: c -> b"),
                Step("flow: a -> b", "kept"),
                Step("flow: c -> b", "covers", used_omega=True),
            ]
        )
        assert len(log) == 3
        assert log.subjects() == ["flow: a -> b", "flow: c -> b"]
        assert [d.action for d in log.for_subject("flow: a -> b")] == [
            "killed",
            "kept",
        ]
        assert log.actions() == {"killed", "kept", "covers"}
        assert log.decisions[0].by == "flow: c -> b"

    def test_step_views_share_one_action_table(self):
        refined = Step("s", "refined", used_omega=True, directions=("+", "1"))
        assert refined.event() == ("refine", "(+) -> (1)")
        assert refined.decision().reason.startswith(
            "distance narrowed from (+) to (1): "
        )
        killed = Step("s", "killed", by="t", used_omega=False)
        assert killed.event() == ("kill", "quick test by t")
        assert killed.decision().reason == ACTIONS["killed"][2]
        joined = Step("s", "killed", by="t", used_omega=True, test="join")
        assert joined.event() == ("kill", "covering join by t")
        general = joined._replace(test="general")
        assert general.event() == ("kill", "general omega test by t")
        assert Step("s", "covered", by="t").event() == (
            "cover",
            "eliminated by t",
        )

    def test_describe_variants(self):
        plain = Decision("s", "kept", "why")
        assert plain.describe() == "kept: why"
        full = Decision("s", "killed", "why", by="killer", used_omega=True)
        assert full.describe() == "killed: why [by killer] (omega general test)"
        quick = Decision("s", "killed", "why", used_omega=False)
        assert quick.describe().endswith("(quick test)")
        joined = Decision("s", "killed", "why", used_omega=True, test="join")
        assert joined.describe().endswith("(covering join)")

    def test_render_empty(self):
        assert "(no decisions recorded)" in ExplainLog().render()

    def test_to_dict(self):
        log = explain_view([Step("s", "covered", by="t")])
        payload = log.to_dict()
        assert payload["decisions"][0]["action"] == "covered"
        assert payload["decisions"][0]["by"] == "t"


class TestEngineIntegration:
    def test_disabled_by_default(self):
        result = analyze(parse(KILL_PROGRAM, "kill"))
        assert result.explain is None

    def test_trail_records_kill_and_keep(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(explain=True)
        )
        log = result.explain
        assert log is not None and len(log) > 0
        actions = log.actions()
        assert "killed" in actions
        assert "kept" in actions
        killed = [d for d in log if d.action == "killed"]
        assert killed[0].by is not None
        assert killed[0].used_omega is not None
        # Every dead dependence has a decision explaining why it died.
        dead_subjects = {
            f"{dep.kind.value}: {dep.src} -> {dep.dst}"
            for dep in result.dead_flow()
        }
        explained = set(log.subjects())
        assert dead_subjects <= explained

    def test_default_run_records_no_trail(self, monkeypatch):
        # With no observer on, no step is written and no record is built.
        from repro.analysis import engine

        def refuse(*args, **kwargs):
            raise AssertionError("trail recorded on a default run")

        monkeypatch.setattr(engine, "Step", refuse)
        monkeypatch.setattr(engine.Analyzer, "_dependence_record", refuse)
        monkeypatch.setattr(engine.Analyzer, "_independent_record", refuse)
        for options in (AnalysisOptions(), AnalysisOptions(terminate=True)):
            result = analyze(parse(KILL_PROGRAM, "kill"), options)
            assert result.dead_flow() and result.explain is None

    def test_render_mentions_the_killer(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(explain=True)
        )
        text = result.explain.render()
        assert "Decision trail" in text
        assert "[by flow:" in text


class TestMergeDeterminism:
    """Explain trails must not depend on the solver cache: per-read
    trails are merged in program (read) order."""

    def test_trail_identical_on_corpus_program(self):
        from repro.programs import corpus_programs

        program = corpus_programs()[0]

        def trail(cache):
            with caching(SolverCache()) if cache else nullcontext():
                result = analyze(program, AnalysisOptions(explain=True))
            return [
                (d.subject, d.action, d.reason, d.by, d.used_omega)
                for d in result.explain
            ]

        assert trail(True) == trail(False)
