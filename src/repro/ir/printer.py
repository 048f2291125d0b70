"""Pretty-printer for the mini loop language.

``parse(to_text(p))`` round-trips modulo formatting; the printed form is
also what the examples and reports show to users.
"""

from __future__ import annotations

from .affine import AffineExpr
from .ast import Declaration, Node, Program, Statement

__all__ = ["to_text"]


def _bound_text(bounds: tuple[AffineExpr, ...], kind: str) -> str:
    if len(bounds) == 1:
        return str(bounds[0])
    return f"{kind}({', '.join(str(b) for b in bounds)})"


def _statement_text(stmt: Statement) -> str:
    lhs = str(stmt.target) if stmt.target is not None else ""
    if stmt.rhs.is_constant and stmt.rhs.constant == 0:
        rhs = ""
    else:
        rhs = f" {stmt.rhs}"
    return f"{lhs} :={rhs}"


def _node_lines(node: Node, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(node, Declaration):
        dims = ", ".join(f"{lo}:{hi}" for lo, hi in node.bounds)
        return [f"{pad}array {node.array}[{dims}]"]
    if isinstance(node, Statement):
        return [f"{pad}{_statement_text(node)}"]
    header = (
        f"{pad}for {node.var} := {_bound_text(node.lowers, 'max')} "
        f"to {_bound_text(node.uppers, 'min')}"
    )
    if node.step != 1:
        header += f" step {node.step}"
    header += " do {"
    lines = [header]
    for child in node.body:
        lines.extend(_node_lines(child, indent + 1))
    lines.append(f"{pad}}}")
    return lines


def to_text(program: Program) -> str:
    """Render a program as parseable source text."""

    lines: list[str] = []
    for node in program.body:
        lines.extend(_node_lines(node, 0))
    return "\n".join(lines) + "\n"
