"""Kill analysis (Section 4.1) and the quick tests of Section 4.5.

A dependence from A to C is killed by the dependence from a write B to C
iff every element A passes to C is overwritten by B in between::

    forall i, k, Sym:
      i in [A] and k in [C] and A(i) << C(k) and A(i) sub= C(k)
        =>  exists j . j in [B] and A(i) << B(j) << C(k)
                       and B(j) sub= C(k)

The left side is the victim dependence's own problem (already a
conjunction, thanks to restraint vectors).  The right side needs a fresh
instance of B; the two execution orders are disjunctions over carrier
levels, so we enumerate case pairs, project each onto (i, k, Sym), and test
the implication against the union of all resulting pieces.  A B that reads
an index array kills nothing: its function values would sit on the
existential side, free to suit the kill.  The case sats run on one exact
core of ``victim and [B] and B sub= C`` that keeps the order-case
variables; the projections and the implication stay on the full cases.

*The covering join.*  A flow killer K = B -> C that covers C can decide
the kill without the general test's projections.  ``K.covers`` is decided
on the (refined) K relation, so for every C(k) some K(b) in that relation
wrote C's element before k.  If no such b runs before A(i), then
A(i) << B(b) << C(k) and A's value was overwritten (B is not A, so b and
i are distinct instances and one of them runs first).  The join therefore
kills when::

    victim(i, k) and rho(K)(b, k) and B(b) << A(i)

is unsatisfiable for every execution-order case of ``B(b) << A(i)``.
``rho`` renames K's source loop variables to B's ``b`` instance and its
distances and wildcards apart; C's variables and the symbols stay
shared.  The cases are decided on one exact core of ``victim and rho(K)``
that keeps the order-case variables.

The join declines when K's source is A (``b = i`` is no overwrite), when
K is not a flow dependence (an anti dependence's ``covers`` means it
terminates its source) and when either pair has uninterpreted-term
occurrences (each pair mints its own variables for an index array's
values, so the two problems would not share them).  A satisfiable (or
degraded) case leaves the decision to the general test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..guard import budget as _guard
from ..ir.ast import Access
from ..obs import metrics as _metrics
from ..obs.audit import note_conservative as _note_conservative
from ..obs.trace import span as _span
from ..omega import Constraint, LinearExpr, Problem, Variable
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from ..solver import implies_union, is_satisfiable, project
from .dependences import Dependence, DependenceKind
from .ordering import execution_order_cases
from .plan import QueryPlan
from .problem import InstanceContext, common_depth
from .vectors import DirComponent

__all__ = ["KillTester", "kill_quick_reject", "closer_cover_quick_kill", "distance_ranges"]

#: The most (A before B) x (B before C) execution-order case pairs the
#: general kill test enumerates; beyond it the kill is declined.
MAX_CASES = 16


def distance_ranges(dep: Dependence) -> list[DirComponent]:
    """Per-level distance intervals, unioned over direction vectors."""

    if not dep.directions:
        return [DirComponent(None, None) for _ in dep.deltas]
    merged = list(dep.directions[0])
    for vector in dep.directions[1:]:
        merged = [m.merge(c) for m, c in zip(merged, vector)]
    return merged


def kill_quick_reject(
    victim: Dependence,
    killer: Dependence,
    output_pairs: set[tuple[Access, Access]],
) -> bool:
    """True when the quick tests show the kill cannot happen.

    1.  "there must be an output dependence between A and B" — no output
        dependence from the victim's source to the killer's source means
        the killer writes different elements.
    2.  "it must be possible for the dependence distance from A to C to
        equal the total distance from A to B and B to C": interval
        arithmetic on the per-level distance ranges over the loops common
        to all three statements.
    """

    a, b = victim.src, killer.src
    if a is not b and (a, b) not in output_pairs:
        return True

    # Distance compatibility on the loops common to A, B and C.
    depth = min(
        common_depth(a, b),
        common_depth(b, victim.dst),
        len(victim.deltas),
    )
    if depth <= 0 or a is b:
        return False
    victim_ranges = distance_ranges(victim)
    killer_ranges = distance_ranges(killer)
    for level in range(min(depth, len(killer_ranges))):
        v = victim_ranges[level]
        k = killer_ranges[level]
        # total = (A->B distance) + (B->C distance); A->B distance >= ...
        # We only know the B->C component k; A->B is unconstrained here
        # except it must be >= 0 at the first differing level.  A cheap,
        # sound check: the victim's max distance must be at least the
        # killer's min distance (the killer acts after A).
        if v.hi is not None and k.lo is not None and v.hi < k.lo:
            return True
    return False


def closer_cover_quick_kill(victim: Dependence, killer: Dependence) -> bool:
    """Section 4.5's positive quick test.

    "If we are trying to kill a dependence from A to C with a *covering*
    dependence from B to C, and the dependence from B is always closer
    than the dependence from A, then we know the dependence from A to C is
    killed without having to perform the general test."

    Sound criterion used here: the killer covers C, the two dependences
    share C's full common depth, and the killer's distance is always
    lexicographically smaller — i.e. at some level the killer's maximum
    distance is below the victim's minimum while every outer level is
    pinned to the same constant for both.
    """

    if not killer.covers:
        return False
    if len(victim.deltas) != len(killer.deltas) or not victim.deltas:
        return False
    victim_ranges = distance_ranges(victim)
    killer_ranges = distance_ranges(killer)
    for v, k in zip(victim_ranges, killer_ranges):
        if k.hi is not None and v.lo is not None and k.hi < v.lo:
            return True
        # To keep looking deeper, both must be pinned to the same value.
        if not (v.is_exact and k.is_exact and v.lo == k.lo):
            return False
    return False


@dataclass
class KillRecord:
    victim: Dependence
    killer: Dependence
    killed: bool
    #: The test that decided: ``"quick"`` (Section 4.5), ``"join"`` (the
    #: covering join) or ``"general"`` (the general Omega test).
    test: str
    elapsed: float = 0.0

    @property
    def used_omega(self) -> bool:
        """Did the decision ask the Omega test (join or general)?"""

        return self.test != "quick"


class KillTester:
    """Performs kill tests for dependences sharing a destination.

    ``plan`` is the query plan the dependences came from: it supplies the
    symbols and the killer's instance (shared when the access is pure).
    """

    def __init__(
        self, plan: QueryPlan, output_pairs: set[tuple[Access, Access]]
    ):
        self.plan = plan
        self.output_pairs = output_pairs

    def kills(self, victim: Dependence, killer: Dependence) -> KillRecord:
        """Does ``killer`` (a write -> dst dependence) kill ``victim``?"""

        if (
            victim is killer
            or victim.dst is not killer.dst
            or not killer.src.is_write
        ):
            return KillRecord(victim, killer, False, "quick")
        _metrics.inc("analysis.kills_attempted")
        with _span(
            "analysis.kill",
            victim=victim.src,
            killer=killer.src,
            dst=victim.dst,
        ) as sp:
            record = self._decide(victim, killer)
        record.elapsed = sp.duration
        if record.killed:
            _metrics.inc("analysis.kills_succeeded")
        if record.used_omega:
            _metrics.inc("analysis.kill_omega_tests")
        if sp.duration:
            _metrics.observe("analysis.kill_seconds", sp.duration)
        return record

    def _decide(self, victim: Dependence, killer: Dependence) -> KillRecord:
        """Quick tests first, then the covering join, then the general
        (Omega-backed) test."""

        if kill_quick_reject(victim, killer, self.output_pairs):
            _metrics.inc("analysis.kill_quick_rejects")
            return KillRecord(victim, killer, False, "quick")
        if closer_cover_quick_kill(victim, killer):
            return KillRecord(victim, killer, True, "quick")
        b_ctx = self.plan.instance(killer.src, "b")
        if self._covering_join(victim, killer, b_ctx):
            _metrics.inc("analysis.kill_joins")
            return KillRecord(victim, killer, True, "join")
        killed = self._general_test(victim, killer, b_ctx)
        return KillRecord(victim, killer, killed, "general")

    # ------------------------------------------------------------------
    def _covering_join(
        self, victim: Dependence, killer: Dependence, b_ctx: InstanceContext
    ) -> bool:
        """Is the victim killed because no covering write runs before A?

        True when ``victim and rho(killer) and B(b) << A(i)`` is
        unsatisfiable for every execution-order case (see the module
        docstring); False when the join does not apply or some case is
        satisfiable, leaving the decision to the general test.
        """

        if (
            not killer.covers
            or killer.kind is not DependenceKind.FLOW
            or killer.src is victim.src
            or victim.pair.occurrences()
            or killer.pair.occurrences()
        ):
            return False
        rho = _renaming(killer, b_ctx)
        cases = execution_order_cases(b_ctx, victim.pair.src_ctx)
        joined = Problem(
            list(victim.problem.constraints)
            + _renamed(killer.problem.constraints, rho),
            name="kill-join",
        )
        return not any(self._feasible_cases(joined, cases))

    def _feasible_cases(
        self, problem: Problem, cases: list[list[Constraint]]
    ) -> list[bool]:
        """``sat(problem and case)`` for each execution-order case, asked
        of one exact core of ``problem`` that keeps the loop variables the
        cases constrain (see :mod:`repro.analysis.plan`).  Every case
        goes to the solver service, even on a separable core, so the
        kill's audit footprint counts each case sat."""

        state = self.plan.base_state(problem, _case_variables(cases))
        return [is_satisfiable(state.probe(case)) for case in cases]

    def _general_test(
        self, victim: Dependence, killer: Dependence, b_ctx: InstanceContext
    ) -> bool:
        pair = victim.pair
        symbols = self.plan.symbols

        # Subscript equality B(j) sub= C(k).
        from .problem import _translate

        coupling = Problem(name="B sub= C")
        extra_domain = Problem(name="[B]")
        extra_domain.extend(b_ctx.domain.constraints)
        if len(killer.src.ref.subscripts) != len(victim.dst.ref.subscripts):
            return False
        for b_sub, c_sub in zip(
            killer.src.ref.subscripts, victim.dst.ref.subscripts
        ):
            lhs = _translate(b_sub, b_ctx, symbols, extra_domain)
            rhs = _translate(c_sub, pair.dst_ctx, symbols, extra_domain)
            coupling.add_eq(lhs, rhs)
        # B reads an index array (in its bounds, or in a subscript the
        # loop above translated).  A sound kill must hold for every
        # interpretation of that function, but the projection below
        # would let the solver pick B's values to suit the kill: decline.
        if b_ctx.occurrences:
            return False

        ab_cases = execution_order_cases(pair.src_ctx, b_ctx)
        bc_cases = execution_order_cases(b_ctx, pair.dst_ctx)
        if not ab_cases or not bc_cases:
            return False
        if len(ab_cases) * len(bc_cases) > MAX_CASES:
            _note_conservative(
                _guard.current_subject(), "kill-cases-overflow"
            )
            return False  # conservative

        keep = (
            list(pair.src_ctx.loop_vars)
            + list(pair.dst_ctx.loop_vars)
            + list(pair.delta_vars)
            + pair.sym_vars()
        )
        keep_set = set(keep)
        base = (
            list(victim.problem.constraints)
            + list(extra_domain.constraints)
            + list(coupling.constraints)
        )
        orders = [ab + bc for ab in ab_cases for bc in bc_cases]
        # The projections keep loop variables and symbols that the case
        # sats' core has eliminated, so they run on the full cases.
        feasible = self._feasible_cases(Problem(base, name="kill-rhs"), orders)
        survivors = [
            Problem(base + order, name="kill-rhs")
            for order, satisfiable in zip(orders, feasible)
            if satisfiable
        ]
        projections = [
            project(
                case,
                [v for v in case.variables() if v in keep_set or v.is_symbolic],
            )
            for case in survivors
        ]
        pieces: list[Problem] = []
        for projection in projections:
            if not projection.exact_union:
                _note_conservative(
                    _guard.current_subject(), "kill-case-dropped"
                )
                continue  # drop this case, conservative
            pieces.extend(projection.pieces)

        if not pieces:
            return False
        try:
            return implies_union(victim.problem, pieces)
        except BudgetExhausted:
            # Only reachable under the strict ("raise") policy — the
            # solver service degrades this to False itself otherwise.
            raise
        except OmegaComplexityError:
            return False


def _case_variables(cases: list[list[Constraint]]) -> list[Variable]:
    """The variables the execution-order cases constrain: the keep set of
    the core their sats probe."""

    return list(
        dict.fromkeys(v for case in cases for c in case for v in c.expr.terms)
    )


def _renaming(
    killer: Dependence, b_ctx: InstanceContext
) -> Callable[[Variable], Variable]:
    """rho: the killer's source loop variables become ``b_ctx``'s, C's loop
    variables and the symbols stay shared, and every other variable (its
    distances, its wildcards) gets a primed name."""

    mapping = dict(zip(killer.pair.src_ctx.loop_vars, b_ctx.loop_vars))
    mapping.update((v, v) for v in killer.pair.dst_ctx.loop_vars)

    def rho(var: Variable) -> Variable:
        renamed = mapping.get(var)
        if renamed is None:
            renamed = mapping[var] = (
                var if var.is_symbolic else Variable(f"{var.name}'", var.kind)
            )
        return renamed

    return rho


def _renamed(
    constraints, rename: Callable[[Variable], Variable]
) -> list[Constraint]:
    return [
        Constraint(
            LinearExpr(
                {rename(v): c for v, c in con.expr.terms.items()},
                con.expr.constant,
            ),
            con.relation,
        )
        for con in constraints
    ]
