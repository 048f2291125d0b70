"""Gists and implication tests (Section 3.3 of the paper).

``gist p given q`` is "the new information contained in p, given that we
already know q": a conjunction of a minimal subset of p's constraints such
that ``(gist p given q) and q  ==  p and q``.  In particular::

    gist p given q == True    iff    q implies p

The naive algorithm needs one satisfiability test per constraint of p; the
paper lists four fast checks that usually decide most constraints without
consulting the Omega test.  Full gists run the naive algorithm alone: on
the small, dependence-shaped gists dependence analysis computes, the fast
checks cost more than the tests they save.  Implication tests only ask
whether the gist is True; they run fast checks 1-3, which settle many of
them without a satisfiability test, then the naive algorithm with the
short-circuit the paper describes for tautology testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs import off as _obs_off
from ..obs.trace import span as _span
from . import cache as _cache
from .constraints import Constraint, Problem, canonicalize_problems
from .errors import BudgetExhausted, OmegaComplexityError
from .solve import is_satisfiable
from .terms import Variable

__all__ = [
    "gist",
    "implies",
    "implies_union",
    "GistStats",
]


@dataclass
class GistStats:
    """Breakdown of how constraints of p were decided."""

    dropped_single: int = 0
    kept_unmatched_bound: int = 0
    kept_no_positive_pair: int = 0
    naive_tests: int = 0
    dropped_naive: int = 0

    @property
    def dropped(self) -> int:
        """Constraints of p removed as redundant ("simplifications")."""

        return self.dropped_single + self.dropped_naive


def _implied_by_single(e: Constraint, other: Constraint) -> bool:
    """Fast check 1: is constraint ``e`` implied by the single ``other``?

    For inequalities ``e: a.x + c >= 0``:

    * another inequality with the same normal and a constant ``c' <= c``
      implies it;
    * an equality ``a.x + k = 0`` (so ``a.x = -k``) implies it iff
      ``k <= c``;
    * an equality ``-a.x + k = 0`` (so ``a.x = k``) implies it iff
      ``k + c >= 0``.

    Equalities are implied only by an identical equality.
    """

    if e.is_equality:
        return other.is_equality and (
            other.expr == e.expr or other.expr == -e.expr
        )
    key = e.expr.key()
    c = e.expr.constant
    if other.is_equality:
        if other.expr.key() == key:
            return other.expr.constant <= c
        if other.expr.negated_key() == key:
            return -other.expr.constant <= c
        return False
    if other.expr.key() == key:
        return other.expr.constant <= c
    return False


def gist(
    p: Problem,
    q: Problem,
    *,
    stats: GistStats | None = None,
    stop_if_not_true: bool = False,
) -> Problem:
    """Compute ``gist p given q``.

    Equalities in p are first converted into matched inequality pairs, as
    the paper prescribes.  When ``stop_if_not_true`` is set the computation
    short-circuits as soon as some constraint of p is known to survive (used
    by the implication test, which only cares whether the gist is ``True``).

    If q itself is unsatisfiable the gist is ``True`` (anything is implied).

    Memoized on the joint canonical form of ``(p, q)`` when a solver cache
    is active — except when the caller passes its own ``stats`` object,
    which asks for the work breakdown and therefore bypasses the cache.
    """

    cache = _cache.current_cache() if stats is None else None
    stats = stats if stats is not None else GistStats()
    if cache is None:
        return _gist_traced(p, q, stats, stop_if_not_true=stop_if_not_true)

    joint = canonicalize_problems([p, q])
    key = _cache.gist_key(joint, stop_if_not_true)
    entry = cache.get(key)
    if entry is not _cache.MISSING:
        if not _obs_off():
            with _span("omega.gist", p=p.name, q=q.name, cache="hit"):
                pass
        stored = _cache.unwrap(entry)
        return _cache.thaw_problems(
            [stored], joint.inverse(), name=f"gist {p.name}"
        )[0]
    try:
        result = _gist_traced(
            p,
            q,
            stats,
            stop_if_not_true=stop_if_not_true,
            cache_tag="miss",
        )
    except OmegaComplexityError as exc:
        if not isinstance(exc, BudgetExhausted):
            cache.put(key, _cache.Raised.from_exception(exc))
        raise
    cache.put(key, _cache.freeze_problems([result], joint.rename)[0])
    return result


def _gist_traced(
    p: Problem,
    q: Problem,
    stats: GistStats,
    *,
    stop_if_not_true: bool,
    cache_tag: str | None = None,
) -> Problem:
    if _obs_off():
        return _gist(p, q, stats, stop_if_not_true=stop_if_not_true)
    attrs: dict = {"p": p.name, "q": q.name}
    if cache_tag is not None:
        attrs["cache"] = cache_tag
    with _span("omega.gist", **attrs) as sp:
        result = _gist(p, q, stats, stop_if_not_true=stop_if_not_true)
    _metrics.observe("omega.gist_seconds", sp.duration)
    _metrics.inc("omega.gists")
    if stats.dropped:
        _metrics.inc("omega.gist_simplifications", stats.dropped)
    if stats.naive_tests:
        _metrics.inc("omega.gist_naive_tests", stats.naive_tests)
    return result


def _gist(
    p: Problem,
    q: Problem,
    stats: GistStats,
    *,
    stop_if_not_true: bool,
) -> Problem:
    from .constraints import NormalizeStatus

    name = f"gist {p.name}"
    p_norm, p_status = p.normalized()
    if p_status is NormalizeStatus.UNSATISFIABLE:
        return Problem.false(name)
    p_constraints: list[Constraint] = []
    for constraint in p_norm.constraints:
        if constraint.is_equality and any(
            v.is_wildcard for v in constraint.variables()
        ):
            # Stride equalities stay whole: their wildcard scopes over the
            # conjunction, so the matched-inequality-pair expansion would
            # change the meaning.
            p_constraints.append(constraint)
        else:
            p_constraints.extend(constraint.as_inequalities())

    q_norm, q_status = q.normalized()
    if q_status is NormalizeStatus.UNSATISFIABLE:
        return Problem(name=name)  # q implies anything
    q_constraints = list(q_norm.constraints)

    if not stop_if_not_true:
        return _naive(name, p_constraints, q_constraints, stats, False)

    # ``working`` is the live remainder of p; every drop below is justified
    # against the *current* working set plus q, which keeps sequential
    # redundancy removal sound (two mutually-redundant constraints cannot
    # both disappear).
    working: list[Constraint] = list(p_constraints)

    # --- Fast check 1: drop constraints implied by a single constraint. ---
    for e in list(working):
        context = [c for c in working if c is not e] + q_constraints
        if any(_implied_by_single(e, other) for other in context):
            stats.dropped_single += 1
            working.remove(e)

    # --- Fast check 2: a variable with an upper (lower) bound in p but not
    # in q must contribute at least one such bound to the gist; when p has
    # exactly one, it is definitely in.  Fast check 3: a constraint with no
    # positively-correlated companion anywhere must be in the gist.  Either
    # way the gist is not True, which is all an implication test asks. ---
    def bound_vars(constraints: list[Constraint], sign: int) -> set[Variable]:
        found: set[Variable] = set()
        for c in constraints:
            for v, coeff in c.expr.terms.items():
                if c.is_equality or coeff * sign > 0:
                    found.add(v)
        return found

    q_uppers = bound_vars(q_constraints, -1)
    q_lowers = bound_vars(q_constraints, +1)

    for e in working:
        if any(v.is_wildcard for v in e.expr.terms):
            # Stride equalities quantify their wildcard existentially; the
            # "unmatched bound" and "no positive companion" arguments do
            # not apply.  Decide them with the exact naive test below.
            continue
        keep = False
        for v, coeff in e.expr.terms.items():
            if coeff < 0 and v not in q_uppers:
                if not any(
                    c is not e and c.expr.coeff(v) < 0 for c in working
                ):
                    keep = True
                    stats.kept_unmatched_bound += 1
                    break
            if coeff > 0 and v not in q_lowers:
                if not any(
                    c is not e and c.expr.coeff(v) > 0 for c in working
                ):
                    keep = True
                    stats.kept_unmatched_bound += 1
                    break
        if not keep:
            companions = [c for c in working if c is not e] + q_constraints
            if not any(_positive_inner_product(e, other) for other in companions):
                keep = True
                stats.kept_no_positive_pair += 1
        if keep:
            return Problem([e], name=name)

    return _naive(name, working, q_constraints, stats, True)


def _naive(
    name: str,
    constraints: list[Constraint],
    q_constraints: list[Constraint],
    stats: GistStats,
    stop_if_not_true: bool,
) -> Problem:
    """The paper's naive algorithm: keep each constraint whose negation is
    consistent with q, the constraints still pending and those kept so
    far; drop the rest.  With ``stop_if_not_true`` the first kept
    constraint is returned alone."""

    result: list[Constraint] = []
    pending = list(constraints)
    while pending:
        _guard.checkpoint("omega.gist")
        e = pending.pop(0)
        stats.naive_tests += 1
        if _negation_satisfiable(e, pending + q_constraints + result):
            if stop_if_not_true:
                return Problem([e], name=name)
            result.append(e)
        else:
            # e is redundant given the remainder: drop it.
            stats.dropped_naive += 1
    normalized, _ = Problem(result, name=name).normalized()
    normalized.name = name
    return normalized


def _negation_satisfiable(e: Constraint, context: list[Constraint]) -> bool:
    """Is ``not(e) and context`` satisfiable (integer negation of e)?"""

    from .constraints import negation_clauses

    for clause in negation_clauses(e):
        if is_satisfiable(Problem(clause + context)):
            return True
    return False


def _positive_inner_product(e: Constraint, other: Constraint) -> bool:
    """Can ``other`` help imply ``e`` (fast check 3's correlation test)?

    An inequality correlates when its normal has a positive inner product
    with ``e``'s.  An equality bounds its expression from both sides, so
    it correlates whenever the inner product is non-zero.
    """

    total = 0
    for v, coeff in e.expr.terms.items():
        total += coeff * other.expr.coeff(v)
    if other.is_equality:
        return total != 0
    return total > 0


def implies(q: Problem, p: Problem) -> bool:
    """True iff ``q implies p`` is a tautology (over the integers).

    Implemented as the paper does: ``q => p  iff  gist p given q == True``,
    with the gist computation short-circuited.  An unsatisfiable ``q``
    implies anything.
    """

    if not is_satisfiable(q):
        return True
    return gist(p, q, stop_if_not_true=True).is_trivially_true()


def implies_union(
    p: Problem,
    pieces: list[Problem],
    *,
    max_cubes: int = 4096,
) -> bool:
    """Exactly decide ``p  =>  (pieces[0] OR pieces[1] OR ...)``.

    Needed when the right-hand side of an implication is a projection that
    splintered.  We check that ``p AND not(S0) AND not(S1) ...`` has no
    integer solutions, expanding the negations into DNF cubes with eager
    unsatisfiability pruning.

    Raises :class:`OmegaComplexityError` when the cube budget is exceeded;
    callers should then fall back to the sound single-piece check
    ``implies(p, pieces[0])``.

    Memoized (including cached budget failures, replayed as the same
    exception) on the joint canonical form of ``[p] + pieces`` when a
    solver cache is active.
    """

    cache = _cache.current_cache()
    if cache is None:
        return _implies_union(p, pieces, max_cubes=max_cubes)
    joint = canonicalize_problems([p] + list(pieces))
    key = _cache.union_key(joint, max_cubes)
    entry = cache.get(key)
    if entry is not _cache.MISSING:
        return _cache.unwrap(entry)
    try:
        result = _implies_union(p, pieces, max_cubes=max_cubes)
    except OmegaComplexityError as exc:
        if not isinstance(exc, BudgetExhausted):
            cache.put(key, _cache.Raised.from_exception(exc))
        raise
    cache.put(key, result)
    return result


def _implies_union(
    p: Problem,
    pieces: list[Problem],
    *,
    max_cubes: int,
) -> bool:
    if not pieces:
        return not is_satisfiable(p)
    if not is_satisfiable(p):
        return True
    # Fast path: a single conjunction on the right (``implies`` without
    # its satisfiability check, which just ran).
    if len(pieces) == 1:
        return gist(pieces[0], p, stop_if_not_true=True).is_trivially_true()

    from .constraints import negation_clauses

    cubes: list[list[Constraint]] = [[]]
    for piece in pieces:
        negation_literals: list[list[Constraint]] = []
        for constraint in piece.constraints:
            negation_literals.extend(negation_clauses(constraint))
        new_cubes: list[list[Constraint]] = []
        for cube in cubes:
            _guard.checkpoint("omega.gist")
            for literal in negation_literals:
                candidate = cube + literal
                trial = Problem(candidate + list(p.constraints))
                if is_satisfiable(trial):
                    _guard.spend("dnf_size", site="omega.gist")
                    new_cubes.append(candidate)
                if len(new_cubes) > max_cubes:
                    raise OmegaComplexityError(
                        "implication cube budget exceeded",
                        site="omega.gist",
                        budget="max_cubes",
                        limit=max_cubes,
                        spent=len(new_cubes),
                    )
        if not new_cubes:
            return True
        cubes = new_cubes
    # Some cube consistent with p survived every negation: p does not imply
    # the union.
    return False
