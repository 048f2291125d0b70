"""Edge cases of the Section 4.5 kill quick tests.

The quick tests must *never* reject a feasible kill (they only skip the
general test when the kill is provably impossible), so their edge cases —
statements sharing no loops (common depth 0), direction information that
has decayed to all-``*``, and victim/killer built from the same statement —
must all fall through to the conservative answer.
"""

from repro.analysis import (
    DependenceKind,
    KillTester,
    QueryPlan,
    SymbolTable,
    compute_dependences,
    kill_quick_reject,
)
from repro.analysis.kills import distance_ranges
from repro.analysis.vectors import MINUS, PLUS, DirectionVector
from repro.ir import parse
from repro.obs import MetricsRegistry, collecting


def flow_deps(program, src_label, dst_label, symbols):
    writes = [w for w in program.writes() if w.statement.label == src_label]
    reads = [r for r in program.reads() if r.statement.label == dst_label]
    found = []
    for w in writes:
        for r in reads:
            if w.array == r.array:
                found.extend(
                    compute_dependences(w, r, DependenceKind.FLOW, QueryPlan(symbols))
                )
    return found


def counters(registry):
    return registry.to_dict()["counters"]


DEPTH_ZERO = """
for i := 1 to n do a(i) := b(i)
for i := 1 to n do a(i) := c(i)
for i := 1 to n do := a(i)
"""

SHARED_LOOP = """
for i := 1 to n do {
  a(i) := b(i)
  a(i) := c(i)
  := a(i)
}
"""


class TestDistanceRanges:
    def test_depth_zero_dependence_has_no_ranges(self):
        # Statements in disjoint loops share no common loop: no deltas, so
        # there is no per-level range to compute.
        program = parse(DEPTH_ZERO)
        symbols = SymbolTable()
        (dep,) = flow_deps(program, "s1", "s3", symbols)
        assert dep.deltas == ()
        assert distance_ranges(dep) == []

    def test_no_direction_vectors_means_all_star(self):
        # With direction enumeration skipped the ranges must widen to
        # fully-unknown (*) per level, never to something narrower.
        program = parse(SHARED_LOOP)
        symbols = SymbolTable()
        (dep,) = flow_deps(program, "s1", "s3", symbols)
        dep.directions = []
        ranges = distance_ranges(dep)
        assert len(ranges) == len(dep.deltas) == 1
        assert all(r.is_star for r in ranges)

    def test_opposite_signs_merge_to_star(self):
        # A + vector and a - vector union to the unbounded interval.
        program = parse(SHARED_LOOP)
        symbols = SymbolTable()
        (dep,) = flow_deps(program, "s1", "s3", symbols)
        dep.directions = [DirectionVector((PLUS,)), DirectionVector((MINUS,))]
        (merged,) = distance_ranges(dep)
        assert merged.is_star


class TestQuickRejectEdges:
    def test_depth_zero_never_quick_rejects(self):
        # Interval arithmetic needs at least one common loop; at depth 0
        # the quick test must stay conservative (no reject).
        program = parse(DEPTH_ZERO)
        symbols = SymbolTable()
        (victim,) = flow_deps(program, "s1", "s3", symbols)
        (killer,) = flow_deps(program, "s2", "s3", symbols)
        output_pairs = {(victim.src, killer.src)}
        assert not kill_quick_reject(victim, killer, output_pairs)

    def test_same_source_statement_never_quick_rejects(self):
        # victim.src is killer.src: the killer trivially writes the same
        # elements, so the distance test does not apply.
        program = parse(SHARED_LOOP)
        symbols = SymbolTable()
        (victim,) = flow_deps(program, "s1", "s3", symbols)
        (killer,) = flow_deps(program, "s1", "s3", symbols)
        assert victim.src is killer.src
        assert not kill_quick_reject(victim, killer, set())

    def test_all_star_ranges_never_quick_reject(self):
        # Unknown distances admit any total, so the interval check cannot
        # prove the kill impossible.
        program = parse(SHARED_LOOP)
        symbols = SymbolTable()
        (victim,) = flow_deps(program, "s1", "s3", symbols)
        (killer,) = flow_deps(program, "s2", "s3", symbols)
        victim.directions = []
        killer.directions = []
        output_pairs = {(victim.src, killer.src)}
        assert not kill_quick_reject(victim, killer, output_pairs)

    def test_tester_ignores_victim_equal_killer(self):
        # kills(victim, victim) is vacuously false and must not record an
        # attempt (a statement cannot kill its own dependence instance).
        program = parse(SHARED_LOOP)
        symbols = SymbolTable()
        (victim,) = flow_deps(program, "s1", "s3", symbols)
        tester = KillTester(QueryPlan(symbols), set())
        registry = MetricsRegistry()
        with collecting(registry):
            assert not tester.kills(victim, victim).killed
        assert counters(registry)["analysis.kills_attempted"] == 0

    def test_tester_requires_shared_destination(self):
        program = parse(DEPTH_ZERO)
        symbols = SymbolTable()
        (victim,) = flow_deps(program, "s1", "s3", symbols)
        (other,) = flow_deps(program, "s2", "s3", symbols)
        # Same dst: a real decision is made (and recorded).
        tester = KillTester(QueryPlan(symbols), {(victim.src, other.src)})
        registry = MetricsRegistry()
        with collecting(registry):
            tester.kills(victim, other)
        assert counters(registry)["analysis.kills_attempted"] == 1
