"""Building integer programming problems from access pairs.

For an array access pair (``src``, ``dst``) we create one Omega variable per
enclosing loop of each statement instance (``i``-copies for the source,
``j``-copies for the destination), shared variables for symbolic constants,
and *dependence distance* variables ``d1, d2, ...`` for the loops common to
both statements, pinned by ``d_l = dst_l - src_l``.

The problem splits into two conjunctions, following Figure 5 of the paper:

``domain``
    Iteration-space constraints for both instances ("loop bounds"), stride
    constraints, and any uterm argument bindings.
``coupling``
    Subscript equality ("the dependence exists").

Uninterpreted terms (index arrays, products, mutated scalars) become fresh
symbolic variables per occurrence, recorded in :class:`UTermOccurrence` so
the symbolic-analysis layer can relate and query them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..ir.affine import AffineExpr, UTerm
from ..ir.ast import Access, IRError
from ..omega import LinearExpr, Problem, Variable, fresh_wildcard

__all__ = [
    "UTermOccurrence",
    "InstanceContext",
    "PairProblem",
    "build_pair_problem",
    "build_instance",
    "common_depth",
    "syntactically_forward",
    "SymbolTable",
]


def common_depth(a: Access, b: Access) -> int:
    """Number of loops shared by the two statements (same Loop objects)."""

    depth = 0
    for la, lb in zip(a.statement.loops, b.statement.loops):
        if la is lb:
            depth += 1
        else:
            break
    return depth


def syntactically_forward(src: Access, dst: Access) -> bool:
    """True when src executes before dst within a single iteration of all
    common loops (textual order; reads before writes within a statement)."""

    if src.statement is dst.statement:
        if src.is_write == dst.is_write:
            return False
        return (not src.is_write) and dst.is_write
    return src.statement.position < dst.statement.position


class SymbolTable:
    """Shared symbolic-constant variables for one analysis run."""

    def __init__(self) -> None:
        self._vars: dict[str, Variable] = {}

    def sym(self, name: str) -> Variable:
        if name not in self._vars:
            self._vars[name] = Variable(name, "sym")
        return self._vars[name]

    def all(self) -> list[Variable]:
        return list(self._vars.values())


@dataclass
class UTermOccurrence:
    """One occurrence of an uninterpreted term within an instance."""

    term: UTerm
    #: Variable standing for the term's value in this occurrence.
    value_var: Variable
    #: Variables standing for each argument (the paper's s-variables).
    arg_vars: tuple[Variable, ...]
    #: Which instance ("src" or "dst") the occurrence belongs to.
    side: str

    @property
    def key(self) -> tuple[str, str, int]:
        """Occurrences with the same key denote the same unknown function."""

        return (self.term.kind, self.term.name, len(self.term.args))


@dataclass
class InstanceContext:
    """One statement instance with its iteration-space variables."""

    access: Access
    prefix: str
    loop_vars: tuple[Variable, ...]
    domain: Problem
    occurrences: list[UTermOccurrence]
    _name_map: dict[str, Variable]
    #: Memoized occurrences: the same uninterpreted term expression within
    #: one instance denotes one unknown value (e.g. a subscript Q[L1]
    #: translated for subscript equality and again for an in-bounds
    #: assertion must share the value variable).
    _uterm_cache: dict[UTerm, UTermOccurrence] = field(default_factory=dict)


_occurrence_counter = itertools.count(1)


def _translate(
    expr: AffineExpr,
    ctx: InstanceContext,
    symbols: SymbolTable,
    domain: Problem | None = None,
) -> LinearExpr:
    """Map an IR expression into solver space for one instance.

    Affine parts map through the instance's loop variables or the symbol
    table (symbolic constants).  Each uninterpreted term becomes a
    "sym"-kind value variable plus argument variables bound by equalities in
    the instance domain — symbolic analysis later reasons about and queries
    them.  Identical terms within an instance share one occurrence.
    """

    name_map = ctx._name_map
    bind_domain = domain if domain is not None else ctx.domain
    result = LinearExpr({}, expr.constant)
    for name, coeff in expr.coeffs.items():
        if name in name_map:
            result = result + LinearExpr({name_map[name]: coeff})
        else:
            result = result + LinearExpr({symbols.sym(name): coeff})
    for coeff, term in expr.uterms:
        cached = ctx._uterm_cache.get(term)
        if cached is None:
            occ_id = next(_occurrence_counter)
            arg_vars: list[Variable] = []
            for index, arg in enumerate(term.args):
                arg_expr = _translate(arg, ctx, symbols, domain)
                arg_var = Variable(f"{ctx.prefix}_s{occ_id}_{index}", "sym")
                bind_domain.add_eq(LinearExpr({arg_var: 1}), arg_expr)
                arg_vars.append(arg_var)
            cached = UTermOccurrence(
                term,
                Variable(f"{ctx.prefix}_{term.name}_{occ_id}", "sym"),
                tuple(arg_vars),
                ctx.prefix,
            )
            ctx._uterm_cache[term] = cached
            ctx.occurrences.append(cached)
        result = result + LinearExpr({cached.value_var: coeff})
    return result


def build_instance(
    access: Access,
    prefix: str,
    symbols: SymbolTable,
    array_bounds: Mapping[str, tuple] | None = None,
) -> InstanceContext:
    """Create iteration-space variables and constraints for one instance.

    ``array_bounds`` (array name -> ((lo, hi), ...)) adds in-bounds
    constraints for the instance's own reference — the paper's "the user
    has asserted that all array references are in bounds".
    """

    name_map: dict[str, Variable] = {}
    loop_vars: list[Variable] = []
    domain = Problem(name=f"[{access.statement.label}]")
    occurrences: list[UTermOccurrence] = []
    ctx = InstanceContext(access, prefix, (), domain, occurrences, name_map)

    for depth, loop in enumerate(access.statement.loops, start=1):
        var = Variable(f"{prefix}{depth}", "var")
        name_map[loop.var] = var
        loop_vars.append(var)

    for depth, loop in enumerate(access.statement.loops, start=1):
        var = name_map[loop.var]
        lower_exprs = [_translate(b, ctx, symbols) for b in loop.lowers]
        upper_exprs = [_translate(b, ctx, symbols) for b in loop.uppers]
        for lo in lower_exprs:
            domain.add_le(lo, var)
        for hi in upper_exprs:
            domain.add_le(var, hi)
        if loop.step != 1:
            # var = lower + step*q for a nonnegative wildcard q.
            quotient = fresh_wildcard("stp")
            domain.add_ge(quotient)
            domain.add_eq(
                LinearExpr({var: 1}), lower_exprs[0] + LinearExpr({quotient: loop.step})
            )

    ctx.loop_vars = tuple(loop_vars)

    if array_bounds and access.ref.array in array_bounds:
        declared = array_bounds[access.ref.array]
        for sub, (lo, hi) in zip(access.ref.subscripts, declared):
            sub_expr = _translate(sub, ctx, symbols)
            lo_expr = _translate(lo, ctx, symbols)
            hi_expr = _translate(hi, ctx, symbols)
            domain.add_le(lo_expr, sub_expr)
            domain.add_le(sub_expr, hi_expr)

    return ctx


@dataclass
class PairProblem:
    """The dependence problem for one (src access, dst access) pair."""

    src: Access
    dst: Access
    src_ctx: InstanceContext
    dst_ctx: InstanceContext
    symbols: SymbolTable
    #: Iteration spaces + uterm bindings (+ caller-added assertions).
    domain: Problem
    #: Subscript equality: the accesses touch the same location.
    coupling: Problem
    #: d_l = dst_l - src_l for the common loops; constrained in ``domain``.
    delta_vars: tuple[Variable, ...]
    #: User assertions over symbolic variables (also conjoined into domain).
    assertions: tuple = ()

    @property
    def depth(self) -> int:
        return len(self.delta_vars)

    @property
    def forward(self) -> bool:
        return syntactically_forward(self.src, self.dst)

    def full(self) -> Problem:
        """domain AND coupling."""

        return self.domain.conjoin(self.coupling)

    def occurrences(self) -> list[UTermOccurrence]:
        return self.src_ctx.occurrences + self.dst_ctx.occurrences

    def sym_vars(self) -> list[Variable]:
        """Every 'sym'-kind variable mentioned anywhere in the problem."""

        found: set[Variable] = set()
        for problem in (self.domain, self.coupling):
            for v in problem.variables():
                if v.is_symbolic:
                    found.add(v)
        return sorted(found)


def build_pair_problem(
    src: Access,
    dst: Access,
    symbols: SymbolTable | None = None,
    *,
    assertions: Iterable = (),
    array_bounds: Mapping[str, tuple] | None = None,
    src_ctx: InstanceContext | None = None,
    dst_ctx: InstanceContext | None = None,
) -> PairProblem:
    """Construct the dependence problem for a pair of same-array accesses.

    ``assertions`` are extra :class:`~repro.omega.Constraint` objects over
    symbolic variables (user knowledge such as ``50 <= n <= 100``); they are
    conjoined into the domain.  ``src_ctx`` / ``dst_ctx`` let the query
    planner (:mod:`repro.analysis.plan`) supply prebuilt instance contexts
    shared across the pairs of an iteration-space group; the instance
    domains are conjoined by copy, so a shared context is never mutated.
    """

    if src.array != dst.array:
        raise IRError(
            f"access pair on different arrays: {src.array} vs {dst.array}"
        )
    symbols = symbols or SymbolTable()
    if src_ctx is None:
        src_ctx = build_instance(src, "i", symbols, array_bounds)
    if dst_ctx is None:
        dst_ctx = build_instance(dst, "j", symbols, array_bounds)

    domain = src_ctx.domain.conjoin(dst_ctx.domain)
    domain.name = f"{src} -> {dst}"
    for constraint in assertions:
        domain.add(constraint)

    depth = common_depth(src, dst)
    deltas: list[Variable] = []
    for level in range(depth):
        d = Variable(f"d{level + 1}", "var")
        deltas.append(d)
        domain.add_eq(
            LinearExpr({d: 1}),
            LinearExpr({dst_ctx.loop_vars[level]: 1})
            - LinearExpr({src_ctx.loop_vars[level]: 1}),
        )

    coupling = Problem(name="subscripts")
    if len(src.ref.subscripts) != len(dst.ref.subscripts):
        raise IRError(
            f"rank mismatch for array {src.array}: "
            f"{len(src.ref.subscripts)} vs {len(dst.ref.subscripts)}"
        )
    for s_sub, d_sub in zip(src.ref.subscripts, dst.ref.subscripts):
        lhs = _translate(s_sub, src_ctx, symbols, domain)
        rhs = _translate(d_sub, dst_ctx, symbols, domain)
        coupling.add_eq(lhs, rhs)

    return PairProblem(
        src,
        dst,
        src_ctx,
        dst_ctx,
        symbols,
        domain,
        coupling,
        tuple(deltas),
        tuple(assertions),
    )
