"""Reusable partial elimination: shrink a problem once, probe it many times.

The direction-vector search (``repro.analysis.vectors``) asks dozens of
satisfiability questions per dependence pair, every one of the form
``sat(P ∧ E)`` where ``P`` is the pair's full iteration-space problem and
``E`` constrains only the dependence-distance variables.  Answering each
from scratch re-runs equality elimination and Fourier-Motzkin over the
same loop-bound constraints — the dominant cost of the whole analysis.

:func:`partial_eliminate` performs the *shared prefix* of that work once:
it eliminates every variable outside a protected ``keep`` set using only
**exact** reductions (equality substitution and Fourier-Motzkin steps
where every lower/upper pair has a unit coefficient — the condition under
which the dark and real shadows coincide, Section 2.3.1 of the paper).
Exactness is what makes the handle reusable: an exact step preserves the
full integer solution set over the remaining variables, so for any added
constraints ``E`` mentioning only ``keep`` variables,

    sat(core ∧ E)  ==  sat(problem ∧ E).

Inexact eliminations (which would need dark shadows and splinters, both
sound only for a fixed right-hand side) are simply not taken — the
variable stays in the core and later probes pay for it, keeping the
handle conservative in cost but never in answers.

:meth:`PartialElimination.refine` re-runs the reduction after conjoining
more constraints (a direction-tree branch pinning one distance's sign),
which is how sibling branches of the search share the prefix work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .constraints import Constraint, NormalizeStatus, Problem
from .eliminate import choose_variable, eliminate_equalities, fourier_motzkin
from .errors import BudgetExhausted, OmegaComplexityError

__all__ = ["PartialElimination", "partial_eliminate"]


@dataclass(frozen=True)
class PartialElimination:
    """An exactly-reduced core of a problem, safe to extend and re-probe.

    ``problem`` has the same integer solutions as the original when both
    are restricted to the ``keep`` variables; ``eliminated`` counts the
    variables removed (0 means no reduction was possible and the handle
    is just the original problem).
    """

    problem: Problem
    keep: frozenset
    eliminated: int = 0

    def probe(self, constraints: Iterable[Constraint] = ()) -> Problem:
        """The core conjoined with extra constraints over kept variables."""

        extra = list(constraints)
        if not extra:
            return self.problem
        return Problem(
            list(self.problem.constraints) + extra, self.problem.name
        )

    def refine(
        self,
        constraints: Iterable[Constraint],
        keep: Iterable | None = None,
        *,
        max_growth: int = 0,
    ) -> "PartialElimination":
        """A new handle for ``core ∧ constraints``, reduced further.

        ``keep`` (default: this handle's) may *narrow* the protected set —
        sound only when no future probe constrains the dropped variables
        again (the direction-tree search drops each distance variable once
        its sign is pinned at that level).
        """

        kept = self.keep if keep is None else frozenset(keep)
        derived = partial_eliminate(
            self.probe(constraints), kept, max_growth=max_growth
        )
        return PartialElimination(
            derived.problem, kept, self.eliminated + derived.eliminated
        )


def partial_eliminate(
    problem: Problem,
    keep: Iterable | Sequence,
    *,
    max_growth: int = 8,
) -> PartialElimination:
    """Exactly eliminate as many non-``keep`` variables as possible.

    Runs equality elimination (protecting ``keep``) and then repeated
    exact Fourier-Motzkin steps, re-normalizing and re-eliminating
    equalities after each.  Stops when only inexact or too-costly
    (``max_growth`` new constraints) eliminations remain.  Never raises
    on complexity: a blow-up inside the reduction falls back to an
    unreduced handle, so callers degrade to per-probe solving.
    :class:`BudgetExhausted` (a deadline, a work meter, an injected fault)
    does propagate: it is a property of the run, not of the problem, so
    the caller decides whether the unreduced handle may be memoized.
    """

    kept = frozenset(keep)
    try:
        return _partial_eliminate(problem, kept, max_growth)
    except BudgetExhausted:
        raise
    except OmegaComplexityError:
        return PartialElimination(problem, kept, 0)


def _partial_eliminate(
    problem: Problem, keep: frozenset, max_growth: int
) -> PartialElimination:
    eliminated = 0
    outcome = eliminate_equalities(problem, protected=keep)
    if not outcome.satisfiable:
        return PartialElimination(Problem.false(problem.name), keep, 1)
    current = outcome.problem
    eliminated += len(outcome.substitutions)
    while True:
        # Equality elimination has run: the equalities left are
        # protected-only or strides, whose variables FM must not touch.
        pinned = set(keep)
        for constraint in current.constraints:
            if constraint.is_equality:
                pinned.update(constraint.variables())
        var, _ = choose_variable(
            current,
            [v for v in current.variables() if v not in pinned],
            max_growth=max_growth,
        )
        if var is None:
            return PartialElimination(current, keep, eliminated)
        result = fourier_motzkin(current, var, want_splinters=False)
        # Exact by construction (unit pairs), so dark == real == projection.
        shadow, status = result.dark.normalized()
        eliminated += 1
        if status is NormalizeStatus.UNSATISFIABLE:
            return PartialElimination(
                Problem.false(problem.name), keep, eliminated
            )
        if status is NormalizeStatus.TAUTOLOGY:
            return PartialElimination(
                Problem(name=problem.name), keep, eliminated
            )
        outcome = eliminate_equalities(shadow, protected=keep)
        if not outcome.satisfiable:
            return PartialElimination(
                Problem.false(problem.name), keep, eliminated
            )
        current = outcome.problem
        eliminated += len(outcome.substitutions)
