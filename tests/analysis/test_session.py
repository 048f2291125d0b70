"""Tests for the interactive-style symbolic session."""

import pytest

from repro.analysis import (
    AnalysisOptions,
    DependenceKind,
    DependenceStatus,
    SymbolicSession,
    analyze,
    parse_assertion,
)
from repro.analysis.symbolic import ArrayProperty
from repro.ir import parse
from repro.omega import Problem, Variable
from repro.programs import example1, example8
from repro.programs.paper_examples import example1_variant_m


class TestParseAssertion:
    def check(self, text, satisfied, violated):
        constraint = parse_assertion(text)
        assert constraint.is_satisfied_by(satisfied)
        assert not constraint.is_satisfied_by(violated)

    def test_le(self):
        n, m = Variable("n", "sym"), Variable("m", "sym")
        self.check("n <= m", {n: 1, m: 2}, {n: 3, m: 2})

    def test_lt(self):
        n, m = Variable("n", "sym"), Variable("m", "sym")
        self.check("n < m", {n: 1, m: 2}, {n: 2, m: 2})

    def test_ge(self):
        n = Variable("n", "sym")
        self.check("n >= 5", {n: 5}, {n: 4})

    def test_gt(self):
        n = Variable("n", "sym")
        self.check("n > 5", {n: 6}, {n: 5})

    def test_eq(self):
        n, m = Variable("n", "sym"), Variable("m", "sym")
        self.check("m = n + 10", {n: 1, m: 11}, {n: 1, m: 12})

    def test_arithmetic(self):
        n, m = Variable("n", "sym"), Variable("m", "sym")
        self.check("2*n + 1 <= m - 3", {n: 0, m: 4}, {n: 0, m: 3})

    def test_missing_operator(self):
        with pytest.raises(ValueError):
            parse_assertion("n m")

    def test_nonaffine_rejected(self):
        with pytest.raises(ValueError):
            parse_assertion("n*m <= 5")


class TestSessionAssertions:
    def test_example1_variant_dialogue(self):
        # Without knowledge: the a(m) write's flow survives.  Asserting
        # n <= m <= n+10 (as the paper suggests) kills it.
        session = SymbolicSession(example1_variant_m())
        result = session.analyze()
        assert ("s1", "s3") in {
            (d.src.statement.label, d.dst.statement.label)
            for d in result.live_flow()
        }
        session.assert_text("n <= m").assert_text("m <= n + 10")
        result = session.analyze()
        dead = {
            (d.src.statement.label, d.dst.statement.label)
            for d in result.dead_flow()
        }
        assert ("s1", "s3") in dead

    def test_assertions_accumulate(self):
        session = SymbolicSession(example1_variant_m())
        session.assert_text("n <= m")
        session.assert_text("m <= n + 10")
        assert len(session.assertions) == 2


class TestSessionOptions:
    def test_observers_reach_the_run(self):
        # Every option the session was built with reaches the analysis,
        # not only the ones that shape the dependences.
        options = AnalysisOptions(audit=True, explain=True)
        direct = analyze(example1(), options)
        via_session = SymbolicSession(example1(), options).analyze()
        assert len(direct.provenance) == 8
        assert [r.subject for r in via_session.provenance] == [
            r.subject for r in direct.provenance
        ]
        assert via_session.explain is not None
        assert via_session.explain.to_dict() == direct.explain.to_dict()

    def test_deadline_governs_the_run(self):
        options = AnalysisOptions(deadline_ms=600_000)
        result = SymbolicSession(example1(), options).analyze()
        assert result.degradations is not None
        assert len(result.degradations) == 0


class TestSessionQueries:
    def test_pending_queries_for_example8(self):
        session = SymbolicSession(example8())
        queries = session.pending_queries()
        assert queries
        rendered = [q.render() for q in queries]
        assert any("Q[a] = Q[b]" in text for text in rendered)

    def test_properties_settle_queries(self):
        session = SymbolicSession(example8())
        before = {
            (q.src, q.dst, q.kind) for q in session.pending_queries()
        }
        session.declare_property("Q", ArrayProperty.PERMUTATION)
        after = {(q.src, q.dst, q.kind) for q in session.pending_queries()}
        # The output-dependence question is settled by the property.
        output_questions_before = {
            key for key in before if key[2] is DependenceKind.OUTPUT
        }
        output_questions_after = {
            key for key in after if key[2] is DependenceKind.OUTPUT
        }
        assert output_questions_before
        assert not output_questions_after

    def test_answer_never_marks_refuted(self):
        session = SymbolicSession(example8())
        queries = [
            q
            for q in session.pending_queries()
            if q.kind is DependenceKind.FLOW
        ]
        assert queries
        for query in queries:
            session.answer_never(query)
        result = session.analyze()
        statuses = {
            d.status
            for d in result.flow
            if d.src.array == "A" and not d.src.ref.subscripts[0].is_affine
        }
        assert DependenceStatus.REFUTED in statuses

    def test_answered_queries_not_asked_again(self):
        session = SymbolicSession(example8())
        queries = session.pending_queries()
        for query in queries:
            session.answer_never(query)
        assert not session.pending_queries()

    def test_affine_programs_have_no_queries(self):
        session = SymbolicSession(parse("for i := 1 to n do a(i) := a(i-1)"))
        assert session.pending_queries() == []
