"""The SolverService: the single path from analysis code to the Omega core.

Every Omega query the analysis layers issue — satisfiability, projection,
gist, implication — goes through one :class:`SolverService`.  The service
sees *all* queries, so it can deduplicate batches, cache answers, enforce
the active resource budget and note every outcome on the audit log.

The service is serial: queries execute inline, in submission order, on the
calling thread.  A service given a :class:`repro.omega.cache.SolverCache`
activates it, so the omega entry points it calls answer repeated queries
from that cache — and, when a :class:`repro.omega.store.PersistentStore`
backs it, from disk.  Results, cache hits and spans are bit-identical to
calling the omega entry points directly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from ..guard import budget as _guard
from ..obs import off as _obs_off
from ..obs.audit import current_audit as _current_audit
from ..obs.instrument import metrics as _metrics
from ..obs.instrument import span as _span
from ..omega.cache import Raised, SolverCache, caching
from ..omega.constraints import Problem
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from ..omega.gist import gist as _gist
from ..omega.gist import implies as _implies
from ..omega.gist import implies_union as _implies_union
from ..omega.project import Projection
from ..omega.project import project as _project
from ..omega.solve import is_satisfiable as _is_satisfiable
from .queries import SolverQuery, degraded_projection

__all__ = ["SolverService", "current_service"]


def _assume_sat() -> bool:
    """Conservative SAT answer: assume the dependence problem holds."""

    return True


def _not_proven() -> bool:
    """Conservative implication answer: nothing is proven."""

    return False


def gist_call(problem: Problem, given: Problem, options: tuple) -> Problem:
    """``gist`` with its keyword options flattened to a sorted tuple."""

    return _gist(problem, given, **dict(options))


def union_call(problem: Problem, pieces: tuple, options: tuple) -> bool:
    """``implies_union`` with options flattened to a sorted tuple."""

    return _implies_union(problem, list(pieces), **dict(options))


class _ActiveServices(threading.local):
    def __init__(self) -> None:
        self.stack: list["SolverService"] = []


_active = _ActiveServices()


def current_service() -> "SolverService | None":
    """The innermost active service on this thread, or None."""

    stack = _active.stack
    return stack[-1] if stack else None


class SolverService:
    """Serial, batch-deduplicating, optionally cached Omega query broker."""

    def __init__(self, *, cache: SolverCache | None = None):
        #: The canonical-form LRU, or None for an uncached service; the
        #: service activates it so the omega entry points see it.
        self.cache = cache
        self.queries = 0
        self.batches = 0
        self.batch_dedup = 0
        self.tasks = 0
        self.degraded = 0

    # -- lifecycle -------------------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["SolverService"]:
        """Make this service (and its cache layer) current on this thread."""

        _active.stack.append(self)
        try:
            if self.cache is not None:
                with caching(self.cache):
                    yield self
            else:
                yield self
        finally:
            _active.stack.pop()

    def _evaluate(self, fn: Callable, args: tuple):
        """Evaluate one top-level query under the active governor.

        The ``solver.query`` checkpoint fires the deadline check (and any
        injected faults) at the query boundary; ``fresh_query`` resets the
        per-query work meters so one expensive query cannot starve the
        rest of the analysis of FM/splinter/DNF budget.
        """

        _guard.checkpoint("solver.query")
        gov = _guard.active()
        if gov is None:
            return fn(*args)
        with gov.fresh_query():
            return fn(*args)

    @staticmethod
    def _note_audit(kind: str, value) -> None:
        """Note one settled query outcome on the active audit log.

        Fires once per query *call* — after the value materialized,
        whether it was computed or replayed from a cache — keyed on the
        guard subject active at the call site.  That placement is what
        makes audit footprints identical across cache configurations: hit
        patterns change, call sites do not.
        """

        log = _current_audit()
        if log is None:
            return
        subject = _guard.current_subject()
        if isinstance(value, Raised):
            log.note_query(subject, kind, exact=False, reason="complexity")
        elif isinstance(value, Projection):
            log.note_query(
                subject,
                kind,
                exact=value.exact_union,
                reason="inexact-projection",
                splintered=value.splintered,
            )
        else:
            log.note_query(subject, kind)

    def _degrade(self, kind: str, fallback: Callable, answer: str, failure):
        """Apply the degradation policy to an exhausted query.

        Under ``degrade`` the sound conservative ``fallback`` answer is
        substituted and the event is recorded with full provenance; under
        ``raise`` (``--strict``) — or with no governor at all — the
        structured :class:`BudgetExhausted` propagates unchanged.
        Degraded answers are never cached.
        """

        gov = _guard.active()
        if gov is None or gov.policy != "degrade":
            raise failure
        value = fallback()
        self.degraded += 1
        gov.note_degradation(kind=kind, answer=answer, failure=failure)
        log = _current_audit()
        if log is not None:
            log.note_conservative(
                _guard.current_subject(), f"degraded-{kind}"
            )
        if not _obs_off():
            with _span(
                "guard.degraded",
                kind=kind,
                site=failure.site or "?",
                budget=failure.budget or "?",
            ):
                pass
        return value

    def _shielded(
        self, fn: Callable, args: tuple, kind: str, fallback: Callable,
        answer: str,
    ):
        """A scalar query with the degradation shield around it."""

        try:
            value = self._evaluate(fn, args)
        except BudgetExhausted as failure:
            return self._degrade(kind, fallback, answer, failure)
        except OmegaComplexityError:
            log = _current_audit()
            if log is not None:
                log.note_query(
                    _guard.current_subject(),
                    kind,
                    exact=False,
                    reason="complexity",
                )
            raise
        self._note_audit(kind, value)
        return value

    def _protected(
        self,
        fn: Callable,
        args: tuple,
        kind: str = "query",
        fallback: Callable | None = None,
        answer: str = "",
    ):
        """Batch cell: a value, a degraded answer, or a :class:`Raised`."""

        try:
            return self._evaluate(fn, args)
        except BudgetExhausted as failure:
            gov = _guard.active()
            if fallback is not None and gov is not None and gov.policy == "degrade":
                return self._degrade(kind, fallback, answer, failure)
            return Raised.from_exception(failure)
        except OmegaComplexityError as failure:
            return Raised.from_exception(failure)

    # -- scalar primitives ----------------------------------------------
    def sat(self, problem: Problem) -> bool:
        self.queries += 1
        _metrics.inc("solver.queries")
        return self._shielded(
            _is_satisfiable,
            (problem,),
            "sat",
            _assume_sat,
            "assumed satisfiable",
        )

    def project(self, problem: Problem, keep):
        self.queries += 1
        _metrics.inc("solver.queries")
        return self._shielded(
            _project,
            (problem, keep),
            "project",
            lambda: degraded_projection(keep),
            "left unprojected (inexact union)",
        )

    def gist(self, problem: Problem, given: Problem, **options):
        self.queries += 1
        _metrics.inc("solver.queries")
        return self._shielded(
            gist_call,
            (problem, given, tuple(sorted(options.items()))),
            "gist",
            problem.copy,
            "left unsimplified",
        )

    def implies(self, problem: Problem, given: Problem) -> bool:
        self.queries += 1
        _metrics.inc("solver.queries")
        return self._shielded(
            _implies,
            (problem, given),
            "implies",
            _not_proven,
            "implication not proven",
        )

    def implies_union(
        self, problem: Problem, pieces: Sequence[Problem], **options
    ) -> bool:
        self.queries += 1
        _metrics.inc("solver.queries")
        return self._shielded(
            union_call,
            (problem, tuple(pieces), tuple(sorted(options.items()))),
            "implies-union",
            _not_proven,
            "implication not proven",
        )

    def run(self, query: SolverQuery):
        """Execute one declarative query."""

        self.queries += 1
        _metrics.inc("solver.queries")
        with _span("solver.query", kind=query.kind.value):
            return self._shielded(
                query.execute,
                (),
                query.kind.value,
                query.conservative,
                query.conservative_answer(),
            )

    # -- batches ---------------------------------------------------------
    def _run_batch(self, keyed: list) -> list:
        """Execute ``(key, fn, args, kind, fallback, answer)`` cells.

        Duplicate keys compute once.  Results come back in submission
        order, and the first complexity failure (in submission order) is
        re-raised — with its structured fields — after every cell has
        settled.  Budget exhaustion is degraded per cell (see
        :meth:`_protected`) before it can become a batch failure.
        """

        self.batches += 1
        _metrics.inc("solver.batches")
        _metrics.inc("solver.batch.queries", len(keyed))
        order: list = []
        index_of: dict = {}
        for cell in keyed:
            if cell[0] not in index_of:
                index_of[cell[0]] = len(order)
                order.append(cell)
        duplicates = len(keyed) - len(order)
        if duplicates:
            self.batch_dedup += duplicates
            _metrics.inc("solver.batch.dedup_hits", duplicates)
        with _span("solver.batch", size=len(keyed), distinct=len(order)):
            computed = [self._protected(*cell[1:]) for cell in order]
        results: list = []
        failure: Raised | None = None
        for cell in keyed:
            entry = computed[index_of[cell[0]]]
            # Audit noting happens per submitted cell, duplicates
            # included — the same set of notes the equivalent scalar
            # calls would leave.
            self._note_audit(cell[3], entry)
            if isinstance(entry, Raised) and failure is None:
                failure = entry
            results.append(entry)
        if failure is not None:
            raise failure.rebuild()
        return results

    def submit_batch(self, queries: Sequence[SolverQuery]) -> list:
        """Execute declarative queries; results in submission order."""

        queries = list(queries)
        if not queries:
            return []
        self.queries += len(queries)
        _metrics.inc("solver.queries", len(queries))
        return self._run_batch(
            [
                (
                    query.key(),
                    query.execute,
                    (),
                    query.kind.value,
                    query.conservative,
                    query.conservative_answer(),
                )
                for query in queries
            ]
        )

    def sat_batch(self, problems: Sequence[Problem]) -> list[bool]:
        """Batched satisfiability; one bool per problem, in order."""

        problems = list(problems)
        if not problems:
            return []
        self.queries += len(problems)
        _metrics.inc("solver.queries", len(problems))
        return self._run_batch(
            [
                (
                    ("sat", tuple(problem.constraints)),
                    _is_satisfiable,
                    (problem,),
                    "sat",
                    _assume_sat,
                    "assumed satisfiable",
                )
                for problem in problems
            ]
        )

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, in order (counted as tasks)."""

        items = list(items)
        self.tasks += len(items)
        _metrics.inc("solver.tasks", len(items))
        return [fn(item) for item in items]

    # -- introspection ----------------------------------------------------
    def cache_stats(self) -> dict | None:
        """The canonical LRU's counters, or None when uncached."""

        return self.cache.stats() if self.cache is not None else None

    def stats(self) -> dict:
        """A snapshot of the service counters (for ``--stats`` etc.)."""

        return {
            "queries": self.queries,
            "batches": self.batches,
            "batch_dedup": self.batch_dedup,
            "tasks": self.tasks,
            "degraded": self.degraded,
            "cache": self.cache_stats(),
        }
