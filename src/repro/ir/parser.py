"""Recursive-descent parser for the mini loop language.

Grammar (statements are newline-insensitive; ``;`` is optional)::

    program  :=  stmt*
    stmt     :=  loop | assign
    loop     :=  'for' IDENT ':=' bound 'to' bound ('step' INT)? 'do' body
    body     :=  '{' stmt* '}'  |  stmt
    bound    :=  'max' '(' expr (',' expr)* ')'     (lower bounds)
              |  'min' '(' expr (',' expr)* ')'     (upper bounds)
              |  expr
    assign   :=  ref ':=' expr?  ';'?
              |  ':=' expr ';'?                     (pure read, as in the
                                                     paper's ":= a(L1)")
    ref      :=  IDENT ( '(' expr (',' expr)* ')'
                       | '[' expr (',' expr)* ']' )?
    expr     :=  term (('+'|'-') term)*
    term     :=  factor ('*' factor)*
    factor   :=  INT | ref | '(' expr ')' | '-' factor

    An array reference in an expression becomes an uninterpreted "array"
    term; products of two non-constant factors become "product" terms
    (Section 5's i*j-as-Q[i,j] treatment).

Example::

    for L1 := 1 to n do
      for L2 := 2 to m do
        a(L2) := a(L2-1)
"""

from __future__ import annotations

from typing import Sequence

from .affine import AffineExpr, UTerm, affine, uterm_ref, var
from .ast import ArrayRef, Declaration, Loop, Node, Program, Statement
from .lexer import Token, tokenize

__all__ = ["ParseError", "parse"]


class ParseError(Exception):
    """Raised on syntax errors, with line/column context."""


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.index = 0

    # Token plumbing ----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "EOF":
            self.index += 1
        return token

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.kind} {token.text!r} "
                f"at line {token.line}, column {token.column}"
            )
        return self.advance()

    # Grammar -----------------------------------------------------------
    def parse_program(self, name: str) -> Program:
        body = self.parse_statements(stop={"EOF"})
        self.expect("EOF")
        return Program(body, name)

    def parse_statements(self, stop: set[str]) -> list[Node]:
        nodes: list[Node] = []
        while self.peek().kind not in stop:
            nodes.append(self.parse_statement())
        return nodes

    def parse_statement(self) -> Node:
        kind = self.peek().kind
        if kind == "FOR":
            return self.parse_loop()
        if kind in ("ARRAY", "REAL", "INT", "INTEGER"):
            return self.parse_declaration()
        return self.parse_assign()

    def parse_declaration(self) -> Declaration:
        self.advance()  # array / real / int / integer
        name = self.expect("IDENT").text
        opener = self.peek().kind
        if opener == "LBRACKET":
            self.advance()
            closer = "RBRACKET"
        else:
            self.expect("LPAREN")
            closer = "RPAREN"
        bounds: list[tuple[AffineExpr, AffineExpr]] = []
        while True:
            lo = self.parse_expr()
            self.expect("COLON")
            hi = self.parse_expr()
            bounds.append((lo, hi))
            if not self.accept("COMMA"):
                break
        self.expect(closer)
        self.accept("SEMI")
        return Declaration(name, tuple(bounds))

    def parse_loop(self) -> Loop:
        self.expect("FOR")
        var_token = self.expect("IDENT")
        self.expect("ASSIGN")
        lowers = self.parse_bound(lower=True)
        self.expect("TO")
        uppers = self.parse_bound(lower=False)
        step = 1
        if self.accept("STEP"):
            negative = bool(self.accept("MINUS"))
            step_token = self.expect("INT")
            step = int(step_token.text)
            if negative:
                raise ParseError(
                    f"negative step at line {step_token.line}: normalize "
                    "the loop first (the paper normalizes CHOLSKY's "
                    "negative-step loop the same way)"
                )
        self.expect("DO")
        if self.accept("LBRACE"):
            body = self.parse_statements(stop={"RBRACE"})
            self.expect("RBRACE")
        else:
            body = [self.parse_statement()]
        return Loop(var_token.text, tuple(lowers), tuple(uppers), body, step)

    def parse_bound(self, lower: bool) -> list[AffineExpr]:
        token = self.peek()
        if token.kind in ("MAX", "MIN"):
            self.advance()
            if (token.kind == "MAX") != lower:
                raise ParseError(
                    f"{token.text} at line {token.line}: max() is only "
                    "allowed in lower bounds and min() in upper bounds "
                    "(anything else is not expressible as a conjunction)"
                )
            self.expect("LPAREN")
            exprs = [self.parse_expr()]
            while self.accept("COMMA"):
                exprs.append(self.parse_expr())
            self.expect("RPAREN")
            return exprs
        return [self.parse_expr()]

    def parse_assign(self) -> Statement:
        if self.accept("ASSIGN"):  # pure read:  := expr
            rhs = self.parse_expr() if self._expr_ahead() else affine(0)
            self.accept("SEMI")
            return Statement(None, rhs)
        target = self.parse_ref()
        self.expect("ASSIGN")
        rhs = self.parse_expr() if self._expr_ahead() else affine(0)
        self.accept("SEMI")
        return Statement(target, rhs)

    def _expr_ahead(self) -> bool:
        return self.peek().kind in {
            "INT",
            "IDENT",
            "LPAREN",
            "MINUS",
            "PLUS",
        }

    def parse_ref(self) -> ArrayRef:
        name = self.expect("IDENT").text
        subscripts: list[AffineExpr] = []
        if self.accept("LPAREN"):
            subscripts.append(self.parse_expr())
            while self.accept("COMMA"):
                subscripts.append(self.parse_expr())
            self.expect("RPAREN")
        elif self.accept("LBRACKET"):
            subscripts.append(self.parse_expr())
            while self.accept("COMMA"):
                subscripts.append(self.parse_expr())
            self.expect("RBRACKET")
        return ArrayRef(name, tuple(subscripts))

    def parse_expr(self) -> AffineExpr:
        expr = self.parse_term()
        while True:
            if self.accept("PLUS"):
                expr = expr + self.parse_term()
            elif self.accept("MINUS"):
                expr = expr - self.parse_term()
            else:
                return expr

    def parse_term(self) -> AffineExpr:
        expr = self.parse_factor()
        while self.accept("STAR"):
            expr = expr * self.parse_factor()
        return expr

    def parse_factor(self) -> AffineExpr:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return affine(int(token.text))
        if token.kind == "MINUS":
            self.advance()
            return -self.parse_factor()
        if token.kind == "PLUS":
            self.advance()
            return self.parse_factor()
        if token.kind == "LPAREN":
            self.advance()
            expr = self.parse_expr()
            self.expect("RPAREN")
            return expr
        if token.kind == "IDENT":
            # Lookahead: array reference or plain name.
            if self.peek(1).kind in ("LPAREN", "LBRACKET"):
                ref = self.parse_ref()
                return uterm_ref(ref.array, *ref.subscripts)
            self.advance()
            return var(token.text)
        raise ParseError(
            f"unexpected {token.kind} {token.text!r} at line {token.line}, "
            f"column {token.column}"
        )


def parse(source: str, name: str = "program") -> Program:
    """Parse program text into a finalized :class:`Program`.

    Plain names on right-hand sides that are written nowhere in the program
    are treated as symbolic constants (loop-invariant scalars); names that
    are written become scalar variables and participate in dependence
    analysis.
    """

    parser = _Parser(tokenize(source))
    program = parser.parse_program(name)
    return _reclassify_names(program, name)


def _reclassify_names(program: Program, name: str) -> Program:
    """Turn references to never-written, subscript-free names into plain
    symbolic uses.

    At parse time ``x`` inside an expression becomes a linear name; that is
    already correct.  However ``k`` for a *written* scalar parsed as a
    linear name must become a "scalar" uterm (its value varies).  We rebuild
    statements accordingly.
    """

    written = {
        stmt.target.array for stmt in program.statements if stmt.target is not None
    }
    if not written:
        return program

    loop_var_names = {
        loop.var for stmt in program.statements for loop in stmt.loops
    }

    def fix_expr(expr: AffineExpr, loops: tuple[str, ...]) -> AffineExpr:
        result = AffineExpr({}, expr.constant)
        for nm, coeff in expr.coeffs.items():
            if nm in written and nm not in loop_var_names:
                # A mutated scalar read: value is an unknown function of
                # the enclosing iteration vector.
                term = UTerm(nm, tuple(var(lv) for lv in loops), "scalar")
                result = result + AffineExpr({}, 0, [(coeff, term)])
            else:
                result = result + AffineExpr({nm: coeff})
        for coeff, term in expr.uterms:
            new_args = tuple(fix_expr(arg, loops) for arg in term.args)
            result = result + AffineExpr(
                {}, 0, [(coeff, UTerm(term.name, new_args, term.kind))]
            )
        return result

    def rebuild(nodes: list[Node], loops: tuple[str, ...]) -> list[Node]:
        out: list[Node] = []
        for node in nodes:
            if isinstance(node, Declaration):
                out.append(node)
            elif isinstance(node, Loop):
                new_loops = loops + (node.var,)
                out.append(
                    Loop(
                        node.var,
                        tuple(fix_expr(b, loops) for b in node.lowers),
                        tuple(fix_expr(b, loops) for b in node.uppers),
                        rebuild(node.body, new_loops),
                        node.step,
                    )
                )
            else:
                target = node.target
                if target is not None:
                    target = ArrayRef(
                        target.array,
                        tuple(fix_expr(s, loops) for s in target.subscripts),
                    )
                out.append(Statement(target, fix_expr(node.rhs, loops)))
        return out

    # Detect whether any fixing is needed at all (cheap common case).
    needs_fix = False
    for stmt in program.statements:
        names = set(stmt.rhs.all_names())
        if stmt.target:
            for sub in stmt.target.subscripts:
                names.update(sub.all_names())
        for loop in stmt.loops:
            for bound in loop.lowers + loop.uppers:
                names.update(bound.all_names())
        if names & (written - loop_var_names):
            needs_fix = True
            break
    if not needs_fix:
        return program
    return Program(rebuild(program.body, ()), name)
