"""An interactive-style analysis session (the paper's user dialogue).

Section 5 envisions a compiler that "generate[s] a useful dialog with the
user about which relationships hold".  :class:`SymbolicSession` makes that
dialogue scriptable:

* accumulate assertions about symbolic constants (``assert_text("n <= m")``),
* declare properties of index arrays (permutation, strictly increasing...),
* list the open questions for ambiguous access pairs
  (:meth:`pending_queries`), answer them (:meth:`answer_never`),
* and (re-)analyse the program with everything that is known.

Dependences refuted by an answered query are reported with status
``REFUTED``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from ..ir.ast import Access, Program
from ..ir.parser import _Parser
from ..ir.lexer import tokenize
from ..omega import Constraint, LinearExpr, Variable, eq as oeq, le as ole
from .dependences import DependenceKind, DependenceStatus
from .engine import AnalysisOptions, analyze
from .results import AnalysisResult
from .symbolic import (
    ArrayProperty,
    DependenceQuery,
    PropertyRegistry,
    generate_query,
    symbolic_dependence_exists,
)

__all__ = ["SymbolicSession", "parse_assertion"]

_COMPARISONS = ("<=", ">=", "=", "<", ">")


def _expr_to_linear(text: str) -> LinearExpr:
    """Parse an affine expression over symbolic constants."""

    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect("EOF")
    if not expr.is_affine:
        raise ValueError(f"assertion side {text!r} is not affine")
    result = LinearExpr({}, expr.constant)
    for name, coeff in expr.coeffs.items():
        result = result + LinearExpr({Variable(name, "sym"): coeff})
    return result


def parse_assertion(text: str) -> Constraint:
    """Parse ``"lhs OP rhs"`` with OP in <=, <, =, >=, > into a Constraint.

    Names are symbolic constants.  Example: ``parse_assertion("n <= m")``.
    """

    for op in _COMPARISONS:
        if op in text:
            lhs_text, rhs_text = text.split(op, 1)
            lhs = _expr_to_linear(lhs_text.strip())
            rhs = _expr_to_linear(rhs_text.strip())
            if op == "<=":
                return ole(lhs, rhs)
            if op == ">=":
                return ole(rhs, lhs)
            if op == "<":
                return ole(lhs + 1, rhs)
            if op == ">":
                return ole(rhs + 1, lhs)
            return oeq(lhs, rhs)
    raise ValueError(f"no comparison operator in assertion {text!r}")


def _query_key(query: DependenceQuery) -> tuple:
    return (
        query.src,
        query.dst,
        query.kind,
        tuple(str(component) for component in query.restraint),
    )


class SymbolicSession:
    """Accumulates user knowledge and re-analyses on demand."""

    def __init__(self, program: Program, options: AnalysisOptions | None = None):
        self.program = program
        self.base_options = options or AnalysisOptions()
        self.assertions: list[Constraint] = list(self.base_options.assertions)
        self.properties = PropertyRegistry()
        self._refuted: set[tuple] = set()

    # ------------------------------------------------------------------
    # Knowledge input
    # ------------------------------------------------------------------
    def assert_text(self, text: str) -> "SymbolicSession":
        """Add an assertion like ``"50 <= n"`` or ``"m = n + 10"``."""

        self.assertions.append(parse_assertion(text))
        return self

    def declare_property(
        self, array: str, *properties: ArrayProperty
    ) -> "SymbolicSession":
        """State a property of an index array (e.g. permutation)."""

        self.properties.declare(array, *properties)
        return self

    def bound_array_values(self, array: str, lo, hi) -> "SymbolicSession":
        self.properties.bound_values(array, lo, hi)
        return self

    # ------------------------------------------------------------------
    # Dialogue
    # ------------------------------------------------------------------
    def pending_queries(
        self, kinds: Iterable[DependenceKind] = (DependenceKind.FLOW, DependenceKind.OUTPUT)
    ) -> list[DependenceQuery]:
        """Open questions: pairs whose dependence hinges on unknown values.

        Only pairs containing uninterpreted terms generate questions, and
        only when the declared properties do not already settle them.
        """

        queries: list[DependenceQuery] = []
        for kind in kinds:
            for src, dst in self._pairs(kind):
                candidates = generate_query(
                    src,
                    dst,
                    kind,
                    assertions=self.assertions,
                    array_bounds=self.program.array_bounds,
                )
                for query in candidates:
                    if query.is_trivial:
                        continue
                    key = _query_key(query)
                    if key in self._refuted:
                        continue
                    if not symbolic_dependence_exists(
                        src,
                        dst,
                        kind,
                        self.properties,
                        assertions=self.assertions,
                        array_bounds=self.program.array_bounds,
                    ):
                        continue  # properties already settle it
                    queries.append(query)
        return queries

    def answer_never(self, query: DependenceQuery) -> "SymbolicSession":
        """Record a 'yes, that never happens' answer: the dependence the
        query guards is refuted."""

        self._refuted.add(_query_key(query))
        return self

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self) -> AnalysisResult:
        """Run the extended analysis under everything currently known."""

        options = replace(self.base_options, assertions=tuple(self.assertions))
        result = analyze(self.program, options)
        if self._refuted:
            refuted_pairs = {(key[0], key[1], key[2]) for key in self._refuted}
            for dep in result.all_dependences():
                if (dep.src, dep.dst, dep.kind) in refuted_pairs:
                    if dep.status is DependenceStatus.LIVE:
                        dep.status = DependenceStatus.REFUTED
        return result

    # ------------------------------------------------------------------
    def _pairs(self, kind: DependenceKind):
        writes = self.program.writes()
        reads = self.program.reads()
        if kind is DependenceKind.FLOW:
            sources, destinations = writes, reads
        elif kind is DependenceKind.ANTI:
            sources, destinations = reads, writes
        else:
            sources, destinations = writes, writes
        for src in sources:
            for dst in destinations:
                if src.array != dst.array:
                    continue
                if not self._mentions_unknowns(src) and not self._mentions_unknowns(dst):
                    continue
                yield src, dst

    @staticmethod
    def _mentions_unknowns(access: Access) -> bool:
        for sub in access.ref.subscripts:
            if not sub.is_affine:
                return True
        for loop in access.statement.loops:
            for bound in loop.lowers + loop.uppers:
                if not bound.is_affine:
                    return True
        return False
