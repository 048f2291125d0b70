"""Abstract syntax for the mini loop language (a *tiny*-style IR).

A program is a list of nodes; a node is a :class:`Loop` or a
:class:`Statement`.  Loops have ``max``-style lower bounds (the iteration
starts at the maximum of the listed expressions) and ``min``-style upper
bounds, which is what the CHOLSKY kernel needs (``DO 2 I = MAX(-M,-J), -1``).

Statements are single assignments ``target := rhs`` where ``rhs`` is a
linear combination of array reads (plain values only; see
:mod:`repro.ir.affine`).  A statement may omit the target (a pure read,
written ``:= a(L1)`` as in the paper's figures) or have a constant/empty
right-hand side (a pure write, ``a(n) :=``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .affine import AffineExpr

__all__ = ["ArrayRef", "Statement", "Loop", "Declaration", "Program", "Access", "IRError"]


class IRError(Exception):
    """Raised for malformed programs."""


@dataclass(frozen=True)
class ArrayRef:
    """A reference ``array(sub1, sub2, ...)``; scalars have no subscripts."""

    array: str
    subscripts: tuple[AffineExpr, ...] = ()

    def __str__(self) -> str:
        if not self.subscripts:
            return self.array
        return f"{self.array}({','.join(str(s) for s in self.subscripts)})"

    def referenced_arrays(self) -> frozenset[str]:
        found = {self.array}
        for sub in self.subscripts:
            found.update(sub.referenced_arrays())
        return frozenset(found)


@dataclass(eq=False)
class Statement:
    """An assignment (or pure read / pure write) statement."""

    target: ArrayRef | None
    rhs: AffineExpr
    label: str = ""
    #: Filled in by Program.finalize():
    position: int = -1
    loops: tuple["Loop", ...] = ()

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(loop.var for loop in self.loops)

    def reads(self) -> list[ArrayRef]:
        """Every array/scalar read in the right-hand side and subscripts.

        Includes index-array reads nested inside subscripts of other reads,
        and reads inside the *target's* subscripts.
        """

        found: list[ArrayRef] = []

        def collect_expr(expr: AffineExpr) -> None:
            for _c, term in expr.uterms:
                if term.kind == "array":
                    found.append(ArrayRef(term.name, term.args))
                elif term.kind == "scalar":
                    # A mutated scalar read: participates in dependence
                    # analysis as a zero-dimensional array.
                    found.append(ArrayRef(term.name, ()))
                for arg in term.args:
                    collect_expr(arg)

        collect_expr(self.rhs)
        if self.target is not None:
            for sub in self.target.subscripts:
                collect_expr(sub)
        # A statement that reads the same reference several times (e.g.
        # squaring, a(i)*a(i)) has a single read site for analysis purposes.
        deduped: list[ArrayRef] = []
        for ref in found:
            if ref not in deduped:
                deduped.append(ref)
        return deduped

    def __str__(self) -> str:
        lhs = str(self.target) if self.target is not None else ""
        rhs = "" if self.rhs.is_constant and self.rhs.constant == 0 else str(self.rhs)
        return f"{lhs} := {rhs}".strip()


@dataclass(eq=False)
class Loop:
    """``for var := max(lowers) to min(uppers) step s do body``."""

    var: str
    lowers: tuple[AffineExpr, ...]
    uppers: tuple[AffineExpr, ...]
    body: list["Node"] = field(default_factory=list)
    step: int = 1

    def __post_init__(self) -> None:
        if not self.lowers or not self.uppers:
            raise IRError(f"loop {self.var} needs lower and upper bounds")
        if self.step < 1:
            raise IRError(
                f"loop {self.var}: only positive steps are supported; "
                "normalize negative-step loops first (as the paper does "
                "for CHOLSKY's second K loop)"
            )
        if self.step > 1 and len(self.lowers) > 1:
            raise IRError(
                f"loop {self.var}: strided loops need a single lower bound"
            )


@dataclass(eq=False)
class Declaration:
    """``array A[lo1:hi1, lo2:hi2]`` — declared array bounds.

    Declaring an array asserts that every reference to it is in bounds (the
    paper's "the user has asserted that all array references are in
    bounds"); the analysis adds the corresponding constraints to every
    instance domain.
    """

    array: str
    bounds: tuple[tuple[AffineExpr, AffineExpr], ...]


Node = Loop | Statement | Declaration


@dataclass(frozen=True)
class Access:
    """One array access site: a read or write slot of a statement."""

    statement: Statement
    ref: ArrayRef
    is_write: bool
    #: Index of this access within the statement (reads numbered before
    #: the write so that, within one statement instance, reads happen
    #: before the write).
    slot: int

    @property
    def array(self) -> str:
        return self.ref.array

    @property
    def depth(self) -> int:
        return len(self.statement.loops)

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"{self.statement.label}: {self.ref} [{kind}]"

    def __str__(self) -> str:
        return f"{self.statement.label}: {self.ref}"


class Program:
    """A finalized mini-language program."""

    def __init__(self, body: Sequence[Node], name: str = "program"):
        self.body = list(body)
        self.name = name
        self.statements: list[Statement] = []
        self.symbolic_constants: set[str] = set()
        self.written_names: set[str] = set()
        self.array_bounds: dict[str, tuple[tuple[AffineExpr, AffineExpr], ...]] = {}
        self._finalize()

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        position = itertools.count()
        label_counter = itertools.count(1)

        def walk(nodes: Sequence[Node], loops: tuple[Loop, ...]) -> None:
            loop_vars = [loop.var for loop in loops]
            if len(set(loop_vars)) != len(loop_vars):
                raise IRError(f"shadowed loop variable in {loop_vars}")
            for node in nodes:
                if isinstance(node, Declaration):
                    if loops:
                        raise IRError(
                            f"array declaration for {node.array} must be at "
                            "top level"
                        )
                    self.array_bounds[node.array] = node.bounds
                elif isinstance(node, Loop):
                    if node.var in loop_vars:
                        raise IRError(f"loop variable {node.var} shadowed")
                    walk(node.body, loops + (node,))
                elif isinstance(node, Statement):
                    node.position = next(position)
                    node.loops = loops
                    if not node.label:
                        node.label = f"s{next(label_counter)}"
                    self.statements.append(node)
                else:  # pragma: no cover - defensive
                    raise IRError(f"unknown node {node!r}")

        walk(self.body, ())

        # Classify names: anything written is an array/scalar variable;
        # any other non-loop-variable name is a symbolic constant.
        for stmt in self.statements:
            if stmt.target is not None:
                self.written_names.add(stmt.target.array)
        loop_var_names = {
            loop.var for stmt in self.statements for loop in stmt.loops
        }
        # also loops with empty bodies of statements below them:
        for stmt in self.statements:
            names: set[str] = set()
            for loop in stmt.loops:
                for bound in loop.lowers + loop.uppers:
                    names.update(bound.all_names())
            names.update(stmt.rhs.all_names())
            if stmt.target:
                for sub in stmt.target.subscripts:
                    names.update(sub.all_names())
            for name in names:
                if name not in loop_var_names and name not in self.written_names:
                    self.symbolic_constants.add(name)
        for bounds in self.array_bounds.values():
            for lo, hi in bounds:
                for name in lo.all_names() | hi.all_names():
                    if name not in loop_var_names and name not in self.written_names:
                        self.symbolic_constants.add(name)

        self._validate()

    def _validate(self) -> None:
        for stmt in self.statements:
            loop_vars = set(stmt.loop_vars)
            for loop in stmt.loops:
                for bound in loop.lowers + loop.uppers:
                    for name in bound.names():
                        if name not in loop_vars and name in self.written_names:
                            # A mutated scalar in a loop bound: handled by
                            # the symbolic layer, fine here.
                            pass

    # ------------------------------------------------------------------
    def accesses(self) -> list[Access]:
        """All array accesses, in textual order (reads before writes).

        The list is computed once and cached so that every caller sees the
        same Access objects (identity comparisons are used throughout the
        analysis).
        """

        cached = getattr(self, "_accesses", None)
        if cached is not None:
            return list(cached)
        result: list[Access] = []
        for stmt in self.statements:
            slot = 0
            for ref in stmt.reads():
                result.append(Access(stmt, ref, False, slot))
                slot += 1
            if stmt.target is not None:
                result.append(Access(stmt, stmt.target, True, slot))
        self._accesses = tuple(result)
        return result

    def writes(self) -> list[Access]:
        return [a for a in self.accesses() if a.is_write]

    def reads(self) -> list[Access]:
        return [a for a in self.accesses() if not a.is_write]

    def arrays(self) -> set[str]:
        found: set[str] = set()
        for access in self.accesses():
            found.add(access.array)
        return found

    def loops(self) -> list[Loop]:
        """All loops, outermost-first preorder."""

        result: list[Loop] = []

        def walk(nodes: Sequence[Node]) -> None:
            for node in nodes:
                if isinstance(node, Loop):
                    result.append(node)
                    walk(node.body)

        walk(self.body)
        return result

    def statement(self, label: str) -> Statement:
        for stmt in self.statements:
            if stmt.label == label:
                return stmt
        raise KeyError(label)

    def __str__(self) -> str:
        from .printer import to_text

        return to_text(self)
