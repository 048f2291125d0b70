"""Query-plan state tests: memoized cores, prefix reuse, metrics.

The reductions sit below the solver service; their ``solver.plan.*``
metrics are what the benchmark's layer table reads.
"""

from repro.analysis.plan import PlanState, QueryPlan
from repro.obs import MetricsRegistry, collecting
from repro.omega import Problem, Variable, eq, ge, is_satisfiable, le

I, J, D = Variable("i"), Variable("j"), Variable("d")


def nest_problem():
    return (
        Problem()
        .add_bounds(1, I, 10)
        .add_bounds(1, J, 10)
        .add_eq(D - J + I)
    )


class TestPlanSpace:
    """QueryPlan's memo of reduced cores."""

    def test_core_is_memoized_structurally(self):
        plan = QueryPlan()
        with collecting(MetricsRegistry()) as registry:
            first = plan.core(nest_problem(), [D])
            # A structurally identical (but distinct) problem hits the memo.
            second = plan.core(nest_problem(), [D])
        assert second is first
        assert registry.counter("solver.plan.cores_built") == 1
        assert registry.counter("solver.plan.cores_reused") == 1

    def test_different_keep_sets_get_different_cores(self):
        plan = QueryPlan()
        with_d, _ = plan.core(nest_problem(), [D])
        with_dj, _ = plan.core(nest_problem(), [D, J])
        assert with_d is not with_dj
        assert J not in with_d.variables()
        assert J in with_dj.variables()

    def test_base_state_carries_the_root_elimination(self):
        state = QueryPlan().base_state(nest_problem(), [D])
        assert isinstance(state, PlanState)
        assert state.kept == (D,)
        assert state.eliminated > 0


class TestPlanState:
    def test_probe_matches_full_problem(self):
        problem = nest_problem()
        state = QueryPlan().base_state(problem, [D])
        for extra in ([], [le(D, -1)], [ge(D), le(D, 0)], [ge(D - 1)]):
            full = Problem(list(problem.constraints) + list(extra))
            assert is_satisfiable(state.probe(extra)) == is_satisfiable(full)

    def test_extend_drops_the_pinned_variable(self):
        state = QueryPlan().base_state(nest_problem(), [D])
        child = state.extend([eq(D - 2)], drop=D)
        assert child.kept == ()
        assert child.eliminated >= state.eliminated
        assert is_satisfiable(child.probe())
        dead = state.extend([eq(D - 50)], drop=D)
        assert not is_satisfiable(dead.probe())

    def test_sibling_extensions_share_the_memo(self):
        # Keeping j leaves ``1 <= j - d <= 10`` in the core: not separable,
        # so extending reduces through the memo (a separable state
        # intersects its intervals instead; see test_interval_states).
        plan = QueryPlan()
        state_a = plan.base_state(nest_problem(), [D, J])
        state_b = plan.base_state(nest_problem(), [D, J])
        assert not state_a.separable
        with collecting(MetricsRegistry()) as registry:
            child_a = state_a.extend([eq(D - 2)], drop=D)
            child_b = state_b.extend([eq(D - 2)], drop=D)
        assert child_b.core is child_a.core
        assert registry.counter("solver.plan.prefix_extensions") == 2
        assert registry.counter("solver.plan.cores_built") == 1
        assert registry.counter("solver.plan.cores_reused") == 1

    def test_probe_counts_prefix_reuse(self):
        state = QueryPlan().base_state(nest_problem(), [D])
        assert state.eliminated > 0
        with collecting(MetricsRegistry()) as registry:
            state.probe()
            state.probe([ge(D)])
        assert registry.counter("solver.plan.prefix_reuses") == 2
