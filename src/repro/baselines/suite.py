"""Combined baseline test and whole-program comparison drivers.

``combined_test`` chains the classical tests the way a 1992 production
compiler would: ZIV, then exact SIV, then GCD, then Banerjee with direction
hierarchies — and, like all of them, answers the *memory overlap* question
only.  ``compare_with_omega`` quantifies the paper's motivating claim: the
baselines report the Figure 4 dead dependences as real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.ast import Access, Program
from .banerjee import banerjee_directions
from .common import Verdict, dimension_problems, pair_loop_ranges
from .gcdtest import gcd_test
from .siv import siv_test
from .ziv import ziv_test

__all__ = [
    "combined_test",
    "baseline_dependences",
    "compare_with_omega",
    "BaselineResult",
]


def _common_vars(src: Access, dst: Access) -> list[str]:
    names: list[str] = []
    for la, lb in zip(src.statement.loops, dst.statement.loops):
        if la is lb:
            names.append(la.var)
        else:
            break
    return names


def combined_test(src: Access, dst: Access) -> tuple[Verdict, list[dict[str, str]]]:
    """Classical combined dependence test for an access pair.

    Returns the verdict and, when MAYBE, the direction vectors Banerjee
    could not refute (over the common loops; `<` means source iteration
    earlier).
    """

    if src.array != dst.array or len(src.ref.subscripts) != len(
        dst.ref.subscripts
    ):
        return Verdict.NO, []
    dimensions = dimension_problems(src, dst)
    common = _common_vars(src, dst)
    ranges = pair_loop_ranges(src, dst)

    for dim in dimensions:
        if not ziv_test(dim):
            return Verdict.NO, []
        if not siv_test(dim, common, ranges):
            return Verdict.NO, []
        if not gcd_test(dim):
            return Verdict.NO, []

    directions = banerjee_directions(dimensions, common, ranges)
    if not directions:
        return Verdict.NO, []
    return Verdict.MAYBE, directions


@dataclass
class BaselineResult:
    """Flow dependences a classical compiler would report for a program."""

    program: Program
    #: (write access, read access) pairs with a surviving forward direction.
    flow_pairs: list[tuple[Access, Access]] = field(default_factory=list)
    #: Per-pair surviving direction vectors.
    directions: dict[tuple[Access, Access], list[dict[str, str]]] = field(
        default_factory=dict
    )


def _has_forward_direction(
    src: Access, dst: Access, directions: list[dict[str, str]]
) -> bool:
    """Some direction is lexicographically forward (or loop-independent
    with src textually before dst)."""

    from ..analysis.problem import syntactically_forward

    for direction in directions:
        for theta in direction.values():
            if theta == "<":
                return True
            if theta == ">":
                break
        else:
            if syntactically_forward(src, dst):
                return True
    return False


def baseline_dependences(program: Program) -> BaselineResult:
    """All flow dependences the classical combined test reports."""

    result = BaselineResult(program)
    for write in program.writes():
        for read in program.reads():
            if write.array != read.array:
                continue
            verdict, directions = combined_test(write, read)
            if not verdict:
                continue
            if not _has_forward_direction(write, read, directions):
                continue
            result.flow_pairs.append((write, read))
            result.directions[(write, read)] = directions
    return result


def compare_with_omega(program: Program) -> dict[str, int]:
    """Counts comparing the baselines against the Omega-based analysis.

    Returns counts of flow-dependence pairs reported by (a) the classical
    combined test, (b) the Omega test without kills ("standard"), and
    (c) the Omega test with the paper's extended analysis ("live").
    """

    from ..analysis import AnalysisOptions, analyze

    baseline = baseline_dependences(program)
    standard = analyze(program, AnalysisOptions(extended=False))
    extended = analyze(program, AnalysisOptions())
    standard_pairs = {(d.src, d.dst) for d in standard.flow}
    live_pairs = {(d.src, d.dst) for d in extended.live_flow()}
    return {
        "baseline": len(set(baseline.flow_pairs)),
        "omega_standard": len(standard_pairs),
        "omega_live": len(live_pairs),
    }
