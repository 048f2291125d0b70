"""Benchmark suite definitions over the paper's workloads.

Each suite is one deterministic unit of repeatable work, mirroring the
populations of the paper's timing study:

``corpus``
    Full extended analysis over the Figure 6/7 timing corpus (the
    *tiny*-style kernels plus paper examples 1-6) — the workload behind
    the per-pair timing reproduction.
``cholsky``
    Extended analysis of the NAS CHOLSKY kernel alone (Figures 3/4).
``symbolic``
    The Section 5 symbolic machinery: Example 7's dependence conditions
    under the ``50 <= n <= 100`` assertion and Example 8's index-array
    queries.

A suite's ``run(cache, planner)`` callable performs one timed
iteration.  The ``cache`` flag selects the solver-cache leg; ``planner``
selects the single-pass query planner (the ``legacy`` leg turns it off to
time the per-pair path).  State never leaks *between* iterations (the
symbolic suite's cache scope is rebuilt per call), so trials stay
independent and cold.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from ..analysis import AnalysisOptions, DependenceKind, analyze
from ..analysis.symbolic import dependence_conditions, generate_query
from ..omega import SolverCache, Variable, caching, le
from ..programs import cholsky, example7, example8, timing_corpus

__all__ = ["SUITES", "Suite", "default_suites"]


@dataclass(frozen=True)
class Suite:
    """One benchmarkable workload; ``run(cache, planner)`` is a single
    iteration."""

    name: str
    description: str
    run: Callable[..., None]


def _run_corpus(cache: bool, planner: bool = True) -> None:
    options = AnalysisOptions(cache=cache, planner=planner)
    for program in timing_corpus():
        analyze(program, options)


def _run_cholsky(cache: bool, planner: bool = True) -> None:
    analyze(cholsky(), AnalysisOptions(cache=cache, planner=planner))


def _run_symbolic(cache: bool, planner: bool = True) -> None:
    # ``planner`` is accepted for leg-signature uniformity but has no
    # effect: the symbolic suite drives the solver directly, without the
    # analysis engine, so there is no pair traversal to plan.
    scope = caching(SolverCache()) if cache else nullcontext()
    with scope:
        program = example7()
        write = [a for a in program.writes() if a.array == "A"][0]
        read = [a for a in program.reads() if a.array == "A"][0]
        n = Variable("n", "sym")
        dependence_conditions(
            write,
            read,
            DependenceKind.FLOW,
            assertions=[le(50, n), le(n, 100)],
            array_bounds=program.array_bounds,
            keep_syms=[
                Variable("x", "sym"),
                Variable("y", "sym"),
                Variable("m", "sym"),
            ],
        )
        program = example8()
        write = [a for a in program.writes() if a.array == "A"][0]
        read = [a for a in program.reads() if a.array == "A"][0]
        generate_query(
            write, write, DependenceKind.OUTPUT, array_bounds=program.array_bounds
        )
        generate_query(
            write, read, DependenceKind.FLOW, array_bounds=program.array_bounds
        )


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "corpus",
            "extended analysis over the Figure 6/7 timing corpus",
            _run_corpus,
        ),
        Suite(
            "cholsky",
            "extended analysis of the NAS CHOLSKY kernel (Figures 3/4)",
            _run_cholsky,
        ),
        Suite(
            "symbolic",
            "Example 7 conditions + Example 8 index-array queries (Section 5)",
            _run_symbolic,
        ),
    )
}


def default_suites() -> list[Suite]:
    return list(SUITES.values())
