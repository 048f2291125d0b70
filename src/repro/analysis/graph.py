"""Statement-level dependence graphs and their classic consumers.

Builds a directed multigraph over statements from an
:class:`AnalysisResult` (optionally restricted to live dependences) and
answers the questions loop restructurers ask of it:

* strongly connected components (recurrences),
* which statements are vectorizable (not part of any dependence cycle
  carried at the candidate level — Allen & Kennedy's codegen criterion),
* a topological statement order for loop distribution.

Uses :mod:`networkx` for the graph algorithms.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from ..ir.ast import Loop, Statement
from .dependences import DependenceKind, DependenceStatus
from .results import AnalysisResult

__all__ = [
    "dependence_graph",
    "recurrences",
    "vectorizable_statements",
    "distribution_order",
]


def dependence_graph(
    result: AnalysisResult,
    *,
    live_only: bool = True,
    kinds: Iterable[DependenceKind] = (
        DependenceKind.FLOW,
        DependenceKind.ANTI,
        DependenceKind.OUTPUT,
    ),
) -> "nx.MultiDiGraph":
    """The statement-level dependence graph.

    Nodes are :class:`~repro.ir.ast.Statement` objects; each edge carries
    its :class:`Dependence` under the ``"dependence"`` attribute — and,
    for audited results, the matching :class:`~repro.obs.ProvenanceRecord`
    under ``"provenance"`` (None when the run was not audited).
    """

    wanted = set(kinds)
    graph = nx.MultiDiGraph()
    for statement in result.program.statements:
        graph.add_node(statement)
    provenance_index = {
        record.subject: record for record in result.provenance
    }
    for dep in result.all_dependences():
        if dep.kind not in wanted:
            continue
        if live_only and dep.status is not DependenceStatus.LIVE:
            continue
        graph.add_edge(
            dep.src.statement,
            dep.dst.statement,
            dependence=dep,
            provenance=provenance_index.get(dep.subject()),
        )
    return graph


def recurrences(result: AnalysisResult, **kwargs) -> list[set[Statement]]:
    """Non-trivial strongly connected components (dependence cycles).

    A single statement forms a recurrence only if it has a self edge.
    """

    graph = dependence_graph(result, **kwargs)
    found: list[set[Statement]] = []
    for component in nx.strongly_connected_components(graph):
        if len(component) > 1:
            found.append(set(component))
            continue
        (statement,) = component
        if graph.has_edge(statement, statement):
            found.append({statement})
    return found


def vectorizable_statements(
    result: AnalysisResult, loop: Loop
) -> set[Statement]:
    """Statements inside ``loop`` that vectorize along it.

    Allen-Kennedy style: a statement vectorizes at a loop when it is not
    part of a dependence cycle among the statements of that loop, once
    loop-independent edges inside one iteration are kept and the cycle
    check is done over live dependences only.
    """

    inside = [s for s in result.program.statements if loop in s.loops]
    graph = dependence_graph(result)
    sub = graph.subgraph(inside)
    vectorizable: set[Statement] = set()
    for component in nx.strongly_connected_components(sub):
        if len(component) == 1:
            (statement,) = component
            if not sub.has_edge(statement, statement):
                vectorizable.add(statement)
    return vectorizable


def distribution_order(result: AnalysisResult, loop: Loop) -> list[list[Statement]]:
    """Groups of statements in a legal loop-distribution order.

    Condenses the dependence subgraph of the loop body into its SCCs and
    returns them topologically sorted — each group may become its own
    loop, recurrences staying together.
    """

    inside = [s for s in result.program.statements if loop in s.loops]
    graph = dependence_graph(result).subgraph(inside)
    condensation = nx.condensation(nx.DiGraph(graph))
    order: list[list[Statement]] = []
    for node in nx.topological_sort(condensation):
        members = condensation.nodes[node]["members"]
        order.append(sorted(members, key=lambda s: s.position))
    return order
