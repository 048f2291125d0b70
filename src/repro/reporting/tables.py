"""Figure 3/4-style dependence tables.

``flow_tables`` renders the live and dead flow dependences of an analysis
in the paper's format::

    FROM              TO                 dir/dist    status
    3: A(L,I,J)       3: A(L,I,J)        (0,0,1,0)   [ r]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..analysis.dependences import Dependence
from ..analysis.results import AnalysisResult

__all__ = ["DependenceRow", "flow_rows", "flow_tables", "format_rows"]


@dataclass(frozen=True)
class DependenceRow:
    source: str
    destination: str
    direction: str
    status: str

    def key(self) -> tuple[str, str]:
        return (self.source, self.destination)


def _row(dep: Dependence) -> DependenceRow:
    return DependenceRow(
        str(dep.src),
        str(dep.dst),
        dep.direction_text(),
        f"[{dep.tags()}]" if dep.tags() else "",
    )


def flow_rows(result: AnalysisResult) -> tuple[list[DependenceRow], list[DependenceRow]]:
    """(live rows, dead rows), each sorted by statement labels."""

    def sort_key(dep: Dependence):
        return (
            dep.src.statement.position,
            dep.src.slot,
            dep.dst.statement.position,
            dep.dst.slot,
        )

    live = [_row(d) for d in sorted(result.live_flow(), key=sort_key)]
    dead = [_row(d) for d in sorted(result.dead_flow(), key=sort_key)]
    return live, dead


def format_rows(rows: Sequence[DependenceRow], title: str) -> str:
    """Render rows as an aligned FROM/TO/dir-dist/status table."""

    if not rows:
        return f"{title}\n  (none)\n"
    width_from = max(len(r.source) for r in rows) + 2
    width_to = max(len(r.destination) for r in rows) + 2
    width_dir = max([len(r.direction) for r in rows] + [8]) + 2
    lines = [title]
    header = (
        f"  {'FROM':<{width_from}}{'TO':<{width_to}}"
        f"{'dir/dist':<{width_dir}}status"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"  {row.source:<{width_from}}{row.destination:<{width_to}}"
            f"{row.direction:<{width_dir}}{row.status}"
        )
    return "\n".join(lines) + "\n"


def flow_tables(result: AnalysisResult) -> str:
    """The Figure 3 + Figure 4 pair of tables as text."""

    live, dead = flow_rows(result)
    return (
        format_rows(live, f"Live flow dependences for {result.program.name}")
        + "\n"
        + format_rows(dead, f"Dead flow dependences for {result.program.name}")
    )
