"""The covering join of the kill phase (``analysis/kills.py``).

A covering flow killer K = B -> C decides a kill by one join: the victim
A -> C is killed when no instance of K's relation runs before A.  The
contract is that the join never kills what the general test keeps: on
every kill attempt with a covering killer, join "killed" implies
``_general_test`` "killed".  Only undegraded decisions are compared, so
the contract holds under a fault plan too.  The named programs pin the
cases where the join must decline and leave the decision to the general
test.
"""

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings

from repro.analysis import AnalysisOptions, analyze
from repro.analysis.kills import KillTester
from repro.guard import Budget, governed, injecting, plan_from_env
from repro.ir import parse, run_program, value_based_flows
from repro.obs import MetricsRegistry, collecting
from repro.programs import PAPER_EXAMPLES, corpus_programs
from repro.solver import current_service

from .test_cache_determinism import random_program
from .test_engine import random_programs


def fault_scope():
    """The fault plan ``REPRO_FAULTS`` names (a fresh one: plans count
    calls per site), or no faults."""

    plan = plan_from_env()
    return injecting(plan) if plan is not None else nullcontext()


def covering_attempts(program, options=None, faults=False):
    """Every kill attempt of one analysis whose killer covers, decided by
    both the join and the general test: ``(victim, killer, join,
    general)`` for each attempt where neither decision degraded.  With
    ``faults`` the analysis runs under :func:`fault_scope`."""

    found = []
    real_decide = KillTester._decide

    def decide(tester, victim, killer):
        if killer.covers:
            b_ctx = tester.plan.instance(killer.src, "b")
            service = current_service()
            before = service.degraded
            join = tester._covering_join(victim, killer, b_ctx)
            general = tester._general_test(victim, killer, b_ctx)
            if service.degraded == before:
                found.append((str(victim), str(killer), join, general))
        return real_decide(tester, victim, killer)

    KillTester._decide = decide
    try:
        with fault_scope() if faults else nullcontext():
            analyze(program, options or AnalysisOptions())
    finally:
        KillTester._decide = real_decide
    return found


def curated():
    found = {}
    for program in corpus_programs() + [f() for f in PAPER_EXAMPLES.values()]:
        found.setdefault(program.name, program)
    return list(found.values())


def unsound(attempts):
    return [a for a in attempts if a[2] and not a[3]]


class TestJoinImpliesGeneral:
    """The contract, under the ``REPRO_FAULTS`` plan when one is set."""

    def test_curated_programs(self):
        for program in curated():
            attempts = covering_attempts(program, faults=True)
            assert not unsound(attempts), program.name

    def test_join_decides_the_curated_covering_kills(self):
        # The join is not vacuous: it decides every covering kill the
        # general test makes on the curated programs (CHOLSKY's 8->6 and
        # 7->6 among them).
        attempts = [a for p in curated() for a in covering_attempts(p)]
        general = [a for a in attempts if a[3]]
        assert len(general) >= 20
        assert all(a[2] for a in general), [a for a in general if not a[2]]

    @pytest.mark.parametrize("seed", [19920617, 1, 2])
    def test_fuzzed_programs(self, seed):
        rng = random.Random(seed)
        for index in range(220):
            program = random_program(rng, index)
            attempts = covering_attempts(program, faults=True)
            assert not unsound(attempts), program.name

    def test_distances_renamed_apart(self):
        # s2 -> s3 covers s3 with distances (0, 0:8); the refined victim
        # s1 -> s3 (0, 0) is live for i2 > 2, where s2's only write of
        # b(3), at i2 = 2, ran before s1.  Sharing the two dependences'
        # distance variables would force b = k and "kill" it.
        program = parse(
            """
            for i1 := 1 to n do
              for i2 := 2 to 10 do {
                b(i1+2) := x(i2)
                b(i2+1) := y(i2)
                z(i2) := b(3)
              }
            """
        )
        attempts = covering_attempts(program)
        assert attempts and not unsound(attempts)
        trace = run_program(program, {"n": 2})
        live = {(d.src, d.dst) for d in analyze(program).live_flow()}
        assert {
            (f.source, f.destination) for f in value_based_flows(trace)
        } <= live

    @settings(max_examples=60, deadline=None)
    @given(random_programs())
    def test_random_programs(self, source):
        attempts = covering_attempts(
            parse(source), AnalysisOptions(partial_refine=True), faults=True
        )
        assert not unsound(attempts), source


class TestJoinDeclines:
    def test_self_killer(self):
        # The refined s1 -> s2 dependence (t-distance 0) covers s2; the
        # unrefined one from the same write still holds its own t = t'
        # instances, where b = i is no overwrite.  The join must not
        # kill it, and neither does the general test.
        from repro.analysis import (
            DependenceKind,
            QueryPlan,
            compute_dependences,
            covers_destination,
            refine_dependence,
        )

        program = parse(
            """
            for t := 1 to steps do {
              for i := 1 to n do a(i) := b(i, t)
              for i := 1 to n do := a(i)
            }
            """
        )
        (write,) = [w for w in program.writes() if w.array == "a"]
        (read,) = [r for r in program.reads() if r.array == "a"]
        plan = QueryPlan()
        (victim,) = compute_dependences(write, read, DependenceKind.FLOW, plan)
        killer = refine_dependence(victim).dependence
        killer.covers = covers_destination(killer)
        assert killer.covers and killer.src is victim.src
        tester = KillTester(plan, {(write, write)})
        b_ctx = plan.instance(killer.src, "b")
        assert not tester._covering_join(victim, killer, b_ctx)
        assert not tester.kills(victim, killer).killed

    def test_anti_killer(self, monkeypatch):
        # On an anti dependence ``covers`` holds terminates_source (the
        # write overwrites everything the read saw): the join must not
        # read it as covering, nor ask the solver anything.
        from repro.analysis import (
            DependenceKind,
            QueryPlan,
            compute_dependences,
            kills,
            terminates_source,
        )

        program = parse(
            """
            for i := 1 to n do a(i) := b(i)
            for i := 1 to n do c(i) := a(i)
            for i := 1 to n do a(i) := d(i)
            """
        )
        s1, s3 = [w for w in program.writes() if w.array == "a"]
        (read,) = [r for r in program.reads() if r.array == "a"]
        plan = QueryPlan()
        (victim,) = compute_dependences(s1, read, DependenceKind.FLOW, plan)
        (anti,) = compute_dependences(read, s3, DependenceKind.ANTI, plan)
        anti.covers = terminates_source(anti)
        assert anti.covers
        asked = []
        real_batch = kills.satisfiable_batch
        monkeypatch.setattr(
            kills,
            "satisfiable_batch",
            lambda probes: asked.extend(probes) or real_batch(probes),
        )
        tester = KillTester(plan, set())
        b_ctx = plan.instance(anti.src, "b")
        assert not tester._covering_join(victim, anti, b_ctx)
        assert asked == []

    #: s1 writes through the index array p, so the victim s1 -> s3 has an
    #: uninterpreted-term occurrence; s2 covers s3 within each t.
    INDEX_VICTIM = """
        for t := 1 to m do {
          for i := 1 to n do a(p(i)) := b(i)
          for i := 1 to n do a(i) := c(i)
          for i := 1 to n do d(i) := a(i)
        }
    """

    def test_victim_reading_an_index_array(self):
        program = parse(self.INDEX_VICTIM)
        registry = MetricsRegistry()
        with collecting(registry):
            result = analyze(program)
        victims = [
            d for d in result.flow if d.src.statement.label == "s1"
            and d.dst.statement.label == "s3"
        ]
        assert victims and all(d.eliminated_by is not None for d in victims)
        assert registry.counter("analysis.kills_succeeded") >= 1
        assert registry.counter("analysis.kill_joins") == 0

        def initial(address):
            name, index = address
            return [2, 1, 4, 3][index[0] - 1] if name == "p" else 0

        trace = run_program(program, {"m": 2, "n": 4}, initial)
        live = {(d.src, d.dst) for d in result.live_flow()}
        assert {
            (f.source, f.destination) for f in value_based_flows(trace)
        } <= live

    def test_killer_reading_an_index_array(self, monkeypatch):
        # s2 writes through q: even when flagged as covering, a killer
        # with an uninterpreted-term occurrence is declined by the join
        # (and by the general test).
        program = parse(
            """
            for t := 1 to m do {
              for i := 1 to n do a(i) := b(i)
              for i := 1 to n do a(q(i)) := c(i)
              for i := 1 to n do d(i) := a(i)
            }
            """
        )
        joins = []
        real_decide = KillTester._decide

        def decide(tester, victim, killer):
            if killer.src.statement.label == "s2":
                killer.covers = True
                b_ctx = tester.plan.instance(killer.src, "b")
                joins.append(tester._covering_join(victim, killer, b_ctx))
            return real_decide(tester, victim, killer)

        monkeypatch.setattr(KillTester, "_decide", decide)
        analyze(program)
        assert joins and not any(joins)

    @pytest.mark.parametrize(
        "program", curated(), ids=lambda p: p.name
    )
    def test_deadline_zero_run_keeps_a_superset(self, program):
        plain = {(d.src, d.dst) for d in analyze(program).live_flow()}
        registry = MetricsRegistry()
        with collecting(registry), governed(
            Budget(deadline_ms=0.0), policy="degrade"
        ):
            degraded = analyze(program)
        assert plain <= {(d.src, d.dst) for d in degraded.live_flow()}
        assert registry.counter("analysis.kill_joins") == 0

    def test_degraded_join_falls_back(self, monkeypatch):
        # The join alone under a zero deadline: every case sat degrades to
        # "satisfiable", so each covering attempt goes to the general test
        # and the run's verdicts stay the ungoverned ones.
        from repro.programs import cholsky

        declined = []
        real_join = KillTester._covering_join

        def join(tester, victim, killer, b_ctx):
            with governed(Budget(deadline_ms=0.0), policy="degrade"):
                decided = real_join(tester, victim, killer, b_ctx)
            declined.append(not decided)
            return decided

        plain = analyze(cholsky())
        monkeypatch.setattr(KillTester, "_covering_join", join)
        degraded = analyze(cholsky())
        assert declined and all(declined)
        assert [d.describe() for d in degraded.flow] == [
            d.describe() for d in plain.flow
        ]
