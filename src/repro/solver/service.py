"""The SolverService: the single path from analysis code to the Omega core.

Every Omega query the analysis layers issue — satisfiability, projection,
gist, implication — goes through one :class:`SolverService`.  The service
is a governance shim: each query runs through one governed path,
:meth:`SolverService._shielded`, which enforces the active resource
budget, substitutes the sound conservative answer when it runs out, and
notes every outcome on the audit log.  A batch is an in-order loop over
the scalar calls, so it leaves exactly the answers, audit notes and
degradation events the equivalent scalar calls would.

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
from typing import Callable, Iterator, Sequence

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs import off as _obs_off
from ..obs.audit import current_audit as _current_audit
from ..obs.trace import span as _span
from ..omega.cache import SolverCache, caching
from ..omega.constraints import Problem
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from ..omega.gist import gist as _gist
from ..omega.gist import implies as _implies
from ..omega.gist import implies_union as _implies_union
from ..omega.project import Projection
from ..omega.project import project as _project
from ..omega.solve import is_satisfiable as _is_satisfiable
from .queries import QueryKind, SolverQuery, degraded_projection

__all__ = ["SolverService", "current_service"]


def _assume_sat() -> bool:
    """Conservative SAT answer: assume the dependence problem holds."""

    return True


def _not_proven() -> bool:
    """Conservative implication answer: nothing is proven."""

    return False


class _ActiveServices(threading.local):
    def __init__(self) -> None:
        self.stack: list["SolverService"] = []


_active = _ActiveServices()


def current_service() -> "SolverService | None":
    """The innermost active service on this thread, or None."""

    stack = _active.stack
    return stack[-1] if stack else None


class SolverService:
    """Serial, governed, optionally cached Omega query broker."""

    def __init__(self, *, cache: SolverCache | None = None):
        #: The canonical-form LRU, or None for an uncached service; the
        #: service activates it so the omega entry points see it.
        self.cache = cache
        self.queries = 0
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
        if isinstance(value, Projection):
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
        self, kind: str, fallback: Callable, answer: str, fn: Callable, /,
        *args, **options,
    ):
        """One query, governed: the path every primitive takes.

        The ``solver.query`` checkpoint fires the deadline check (and any
        injected faults) at the query boundary; ``fresh_query`` resets the
        per-query work meters so one expensive query cannot starve the
        rest of the analysis of FM/splinter/DNF budget.  Budget
        exhaustion is degraded (see :meth:`_degrade`); a complexity
        failure is noted on the audit log and propagates.
        """

        self.queries += 1
        _metrics.inc("solver.queries")
        try:
            _guard.checkpoint("solver.query")
            gov = _guard.active()
            if gov is None:
                value = fn(*args, **options)
            else:
                with gov.fresh_query():
                    value = fn(*args, **options)
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

    # -- scalar primitives ----------------------------------------------
    def sat(self, problem: Problem) -> bool:
        return self._shielded(
            "sat", _assume_sat, "assumed satisfiable", _is_satisfiable, problem
        )

    def project(self, problem: Problem, keep):
        return self._shielded(
            "project",
            lambda: degraded_projection(keep),
            "left unprojected (inexact union)",
            _project,
            problem,
            keep,
        )

    def gist(self, problem: Problem, given: Problem, **options):
        return self._shielded(
            "gist", problem.copy, "left unsimplified", _gist, problem, given,
            **options,
        )

    def implies(self, problem: Problem, given: Problem) -> bool:
        return self._shielded(
            "implies", _not_proven, "implication not proven", _implies,
            problem, given,
        )

    def implies_union(
        self, problem: Problem, pieces: Sequence[Problem], **options
    ) -> bool:
        return self._shielded(
            "implies-union", _not_proven, "implication not proven",
            _implies_union, problem, list(pieces), **options,
        )

    # -- batches: in-order loops over the scalar calls --------------------
    def sat_batch(self, problems: Sequence[Problem]) -> list[bool]:
        """One :meth:`sat` answer per problem, in order."""

        return [self.sat(problem) for problem in problems]

    def submit_batch(self, queries: Sequence[SolverQuery]) -> list:
        """One :meth:`sat` or :meth:`project` answer per query, in order."""

        return [
            self.sat(query.problem)
            if query.kind is QueryKind.SAT
            else self.project(query.problem, query.keep)
            for query in queries
        ]

    # -- introspection ----------------------------------------------------
    def cache_stats(self) -> dict | None:
        """The canonical LRU's counters, or None when uncached."""

        return self.cache.stats() if self.cache is not None else None

    def stats(self) -> dict:
        """A snapshot of the service counters (for ``--stats`` etc.)."""

        return {
            "queries": self.queries,
            "degraded": self.degraded,
            "cache": self.cache_stats(),
        }
