"""Recursive-descent parser for the kernel language.

Grammar (statements must carry labels so they can be named in analyses,
matching the paper's ``S:`` / ``R:`` convention; unlabelled statements get
synthetic labels ``S0, S1, ...``)::

    program    := loop+
    loop       := 'for' '(' IDENT '=' expr ';' IDENT ('<'|'<=') expr ';' incr ')' body
    incr       := IDENT '++' | IDENT '+=' NUMBER
    body       := loop | '{' item* '}' | stmt
    item       := loop | stmt
    stmt       := [IDENT ':'] access ('='|'+='|'-='|'*='|'/='|'%=') expr ';'
    access     := IDENT ('[' expr ']')+
    expr       := term (('+'|'-') term)*
    term       := unary (('*'|'/'|'%') unary)*
    unary      := '-' unary | atom
    atom       := NUMBER | call | access | IDENT | '(' expr ')'
    call       := IDENT '(' [expr (',' expr)*] ')'
"""

from __future__ import annotations

from .ast import (
    ArrayAccess,
    Assign,
    BinOp,
    Call,
    Expr,
    IntLit,
    Loop,
    Program,
    VarRef,
)
from .errors import ParseError
from .lexer import tokenize
from .tokens import ASSIGN_OPS, Token, TokenKind

#: an assignment operator's token kind -> its text (``ASSIGN_OPS``)
_ASSIGN_KINDS = {TokenKind(op): op for op in ASSIGN_OPS}
_EXPECTED_ASSIGN = (
    ", ".join(repr(op) for op in list(ASSIGN_OPS)[:-1])
    + f" or {list(ASSIGN_OPS)[-1]!r}"
)


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.source = source
        self._auto_label = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.current
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.location
            )
        return self.advance()

    def accept(self, kind: TokenKind) -> Token | None:
        if self.current.kind is kind:
            return self.advance()
        return None

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------
    def parse_program(self) -> Program:
        nests: list[Loop] = []
        while self.current.kind is not TokenKind.EOF:
            if self.current.kind is not TokenKind.KW_FOR:
                raise ParseError(
                    f"expected a top-level 'for' loop, found {self.current.text!r}",
                    self.current.location,
                )
            nests.append(self.parse_loop())
        if not nests:
            raise ParseError("empty program")
        return Program(tuple(nests), self.source)

    def parse_loop(self) -> Loop:
        loc = self.expect(TokenKind.KW_FOR).location
        self.expect(TokenKind.LPAREN)
        var_tok = self.expect(TokenKind.IDENT)
        self.expect(TokenKind.ASSIGN)
        lower = self.parse_expr()
        self.expect(TokenKind.SEMI)

        cond_var = self.expect(TokenKind.IDENT)
        if cond_var.text != var_tok.text:
            raise ParseError(
                f"loop condition tests {cond_var.text!r}, "
                f"but the loop variable is {var_tok.text!r}",
                cond_var.location,
            )
        if self.accept(TokenKind.LT):
            strict = True
        elif self.accept(TokenKind.LE):
            strict = False
        else:
            raise ParseError(
                f"expected '<' or '<=' in loop condition, found {self.current.text!r}",
                self.current.location,
            )
        upper = self.parse_expr()
        self.expect(TokenKind.SEMI)

        incr_var = self.expect(TokenKind.IDENT)
        if incr_var.text != var_tok.text:
            raise ParseError(
                f"loop increment updates {incr_var.text!r}, "
                f"but the loop variable is {var_tok.text!r}",
                incr_var.location,
            )
        if self.accept(TokenKind.PLUS_PLUS):
            pass
        elif self.accept(TokenKind.PLUS_ASSIGN):
            step_tok = self.expect(TokenKind.NUMBER)
            if step_tok.value != 1:
                raise ParseError(
                    "only unit-step loops are supported "
                    f"(got step {step_tok.value})",
                    step_tok.location,
                )
        else:
            raise ParseError(
                f"expected '++' or '+= 1', found {self.current.text!r}",
                self.current.location,
            )
        self.expect(TokenKind.RPAREN)

        body = self.parse_body()
        return Loop(var_tok.text, lower, upper, strict, tuple(body), loc)

    def parse_body(self) -> list[Loop | Assign]:
        if self.accept(TokenKind.LBRACE):
            items: list[Loop | Assign] = []
            while not self.accept(TokenKind.RBRACE):
                if self.current.kind is TokenKind.EOF:
                    raise ParseError("unterminated '{' block", self.current.location)
                items.append(self.parse_item())
            return items
        return [self.parse_item()]

    def parse_item(self) -> Loop | Assign:
        if self.current.kind is TokenKind.KW_FOR:
            return self.parse_loop()
        return self.parse_statement()

    def parse_statement(self) -> Assign:
        loc = self.current.location
        label: str | None = None
        if (
            self.current.kind is TokenKind.IDENT
            and self.peek().kind is TokenKind.COLON
        ):
            label = self.advance().text
            self.expect(TokenKind.COLON)
        if label is None:
            label = f"S{self._auto_label}"
            self._auto_label += 1

        target = self.parse_access()
        op = _ASSIGN_KINDS.get(self.current.kind)
        if op is None:
            raise ParseError(
                f"expected {_EXPECTED_ASSIGN}, found {self.current.text!r}",
                self.current.location,
            )
        self.advance()
        value = self.parse_expr()
        self.expect(TokenKind.SEMI)
        return Assign(label, target, op, value, loc)

    def parse_access(self) -> ArrayAccess:
        name = self.expect(TokenKind.IDENT)
        if self.current.kind is not TokenKind.LBRACKET:
            raise ParseError(
                f"expected a subscripted array access after {name.text!r}",
                self.current.location,
            )
        indices: list[Expr] = []
        while self.accept(TokenKind.LBRACKET):
            indices.append(self.parse_expr())
            self.expect(TokenKind.RBRACKET)
        return ArrayAccess(name.text, tuple(indices), name.location)

    # -- expressions -----------------------------------------------------
    def parse_expr(self) -> Expr:
        lhs = self.parse_term()
        while self.current.kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance()
            rhs = self.parse_term()
            lhs = BinOp(op.text, lhs, rhs, op.location)
        return lhs

    def parse_term(self) -> Expr:
        lhs = self.parse_unary()
        while self.current.kind in (
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
        ):
            op = self.advance()
            rhs = self.parse_unary()
            lhs = BinOp(op.text, lhs, rhs, op.location)
        return lhs

    def parse_unary(self) -> Expr:
        if self.current.kind is TokenKind.MINUS:
            op = self.advance()
            inner = self.parse_unary()
            return BinOp("-", IntLit(0, op.location), inner, op.location)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.current
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            return IntLit(tok.value, tok.location)
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            return inner
        if tok.kind is TokenKind.IDENT:
            nxt = self.peek()
            if nxt.kind is TokenKind.LPAREN:
                return self.parse_call()
            if nxt.kind is TokenKind.LBRACKET:
                return self.parse_access()
            self.advance()
            return VarRef(tok.text, tok.location)
        raise ParseError(f"unexpected token {tok.text!r}", tok.location)

    def parse_call(self) -> Call:
        name = self.expect(TokenKind.IDENT)
        self.expect(TokenKind.LPAREN)
        args: list[Expr] = []
        if self.current.kind is not TokenKind.RPAREN:
            args.append(self.parse_expr())
            while self.accept(TokenKind.COMMA):
                args.append(self.parse_expr())
        self.expect(TokenKind.RPAREN)
        return Call(name.text, tuple(args), name.location)


def parse(source: str) -> Program:
    """Parse kernel source text into a :class:`~repro.lang.ast.Program`."""
    return Parser(source).parse_program()
