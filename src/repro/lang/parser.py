"""One-pass parser for the kernel language.

Grammar (statements must carry labels so they can be named in analyses,
matching the paper's ``S:`` / ``R:`` convention; unlabelled statements get
synthetic labels ``S0, S1, ...``, skipping every label the program
spells out)::

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

One pass over the lexer's matches (``_TOKEN.findall``'s tuples) by
index: no ``Token`` is built, a ``SourceLocation`` only for an AST node
or an error.  ``expr``/``term`` is one precedence-climbing loop, a run
of unary minuses one loop.  A source the pattern does not scan cleanly
goes through ``tokenize`` first, so its ``LexerError`` wins.  **Nesting
bound:** a loop, a parenthesis, a call's or subscript's brackets, a
unary minus and each binary operator of a chain (``i+i+i`` is a tree two
levels deep) nest one level; past :data:`MAX_NESTING` levels a
``ParseError`` names the token that went too deep, so no input exhausts
the recursion limit here, in the AST's recursive walks downstream or in
the code generated from it.
Two equal explicit labels are a ``SemanticError`` at the second.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from .ast import ArrayAccess, Assign, BinOp, Call, IntLit, Loop, Program, VarRef
from .errors import ParseError, SemanticError, SourceLocation
from .lexer import _TOKEN, tokenize
from .tokens import ASSIGN_OPS

MAX_NESTING = 100  # the deepest nesting accepted (module docstring)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}  # binary operators
_EXPECTED_ASSIGN = (
    ", ".join(repr(op) for op in list(ASSIGN_OPS)[:-1])
    + f" or {list(ASSIGN_OPS)[-1]!r}"
)


class _Parser:
    __slots__ = ("source", "toks", "ends", "newlines", "i", "labels",
                 "repeated", "taken", "auto")

    def __init__(self, source: str):
        self.source = source
        self.toks = toks = _TOKEN.findall(source)
        self.ends = list(accumulate(map(len, map("".join, toks))))
        if self.ends[-1] != len(source) or not source.isascii():
            # a skipped character or a non-ASCII name start: the lexer's
            # error, if any (a clean scan is exactly these matches)
            tokenize(source)
        #: -1, the offset of each newline, then the source's length
        self.newlines = list(accumulate(
            map(len, source.split("\n")), lambda nl, n: nl + n + 1, initial=-1
        ))
        self.i = self.auto = 0
        self.labels: dict[str, int] = {}  # explicit label -> first match
        self.repeated: list[int] = []  # matches of repeated labels
        self.taken: set[str] | None = None  # what auto labels skip

    def text(self, i: int) -> str:
        t = self.toks[i]
        return t[1] or t[2] or t[3]  # "" at the end of input

    def loc(self, i: int) -> SourceLocation:
        t = self.toks[i]
        width = len(t[1] or t[2] or t[3])
        start = self.ends[i] - width
        k = bisect_left(self.newlines, start) - 1  # newlines before it
        column = start - self.newlines[k]
        return SourceLocation(k + 1, column, column + width if width else None)

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.loc(i))

    def expected(self, what: str, i: int) -> ParseError:
        return self.error(f"expected {what}, found {self.text(i)!r}", i)

    def deeper(self, nest: int, i: int) -> int:
        if nest >= MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", i)
        return nest + 1

    def expect(self, op: str) -> None:
        if self.toks[self.i][3] != op:
            raise self.expected(repr(op), self.i)
        self.i += 1

    def name(self) -> str:
        name = self.toks[self.i][1]
        if not name or name == "for":
            raise self.expected("'identifier'", self.i)
        self.i += 1
        return name

    def program(self) -> Program:
        nests: list[Loop] = []
        while self.text(self.i):
            if self.toks[self.i][1] != "for":
                raise self.expected("a top-level 'for' loop", self.i)
            nests.append(self.loop(0))
        if not nests:
            raise ParseError("empty program")
        if self.repeated:
            i = self.repeated[0]
            raise SemanticError(f"duplicate statement label "
                                f"{self.text(i)!r}", self.loc(i))
        return Program(tuple(nests), self.source)

    def loop(self, nest: int) -> Loop:
        toks, at = self.toks, self.i
        nest = self.deeper(nest, at)
        self.i += 1
        self.expect("(")
        var = self.name()
        self.expect("=")
        lower = self.expr(nest)
        self.expect(";")
        self.loop_var(var, "condition tests")
        cond = toks[self.i][3]
        if cond not in ("<", "<="):
            raise self.expected("'<' or '<=' in loop condition", self.i)
        self.i += 1
        upper = self.expr(nest)
        self.expect(";")
        self.loop_var(var, "increment updates")
        i = self.i
        if toks[i][3] == "+=":
            i += 1
            if not toks[i][2]:
                raise self.expected("'number'", i)
            if int(toks[i][2]) != 1:
                raise self.error("only unit-step loops are supported "
                                 f"(got step {int(toks[i][2])})", i)
        elif toks[i][3] != "++":
            raise self.expected("'++' or '+= 1'", i)
        self.i = i + 1
        self.expect(")")
        if toks[self.i][3] != "{":
            body = [self.item(nest)]
        else:
            self.i += 1
            body = []
            while toks[self.i][3] != "}":
                if not self.text(self.i):
                    raise self.error("unterminated '{' block", self.i)
                body.append(self.item(nest))
            self.i += 1
        return Loop(var, lower, upper, cond == "<", tuple(body), self.loc(at))

    def loop_var(self, var: str, what: str) -> None:
        if self.name() != var:
            raise self.error(f"loop {what} {self.text(self.i - 1)!r}, but "
                             f"the loop variable is {var!r}", self.i - 1)

    def item(self, nest: int) -> Loop | Assign:
        toks, i = self.toks, self.i
        label = toks[i][1]
        if label == "for":
            return self.loop(nest)
        if label and toks[i + 1][3] == ":":
            if self.labels.setdefault(label, i) != i:
                self.repeated.append(i)
            self.i = i + 2
        else:
            label = self.auto_label()
        at = self.i
        target = self.subscripts(self.name(), at, nest)
        op = toks[self.i][3]
        if op not in ASSIGN_OPS:
            raise self.expected(_EXPECTED_ASSIGN, self.i)
        self.i += 1
        value = self.expr(nest)
        self.expect(";")
        return Assign(label, target, op, value, self.loc(i))

    def auto_label(self) -> str:
        if self.taken is None:  # a label is the name before a ':'
            toks = self.toks
            self.taken = {a[1] for a, b in zip(toks, toks[1:]) if b[3] == ":"}
        while f"S{self.auto}" in self.taken:
            self.auto += 1
        self.auto += 1
        return f"S{self.auto - 1}"

    def subscripts(self, name: str, at: int, nest: int) -> ArrayAccess:
        """The access to ``name`` (match ``at``) from its first ``[``."""
        toks, i = self.toks, self.i
        if toks[i][3] != "[":
            raise self.error("expected a subscripted array access "
                             f"after {name!r}", i)
        nest = self.deeper(nest, i)
        indices = []
        while toks[self.i][3] == "[":
            self.i += 1
            indices.append(self.expr(nest))
            self.expect("]")
        return ArrayAccess(name, tuple(indices), self.loc(at))

    def expr(self, nest: int, min_prec: int = 1):
        """Operands joined by operators binding at least ``min_prec``."""
        toks = self.toks
        lhs = self.operand(nest)
        while True:
            i = self.i
            op = toks[i][3]
            prec = _PREC.get(op, 0)
            if prec < min_prec:
                return lhs
            self.i = i + 1
            nest = self.deeper(nest, i)  # the chain's node is one deeper
            rhs = self.operand(nest) if prec == 2 else self.expr(nest, 2)
            lhs = BinOp(op, lhs, rhs, self.loc(i))

    def operand(self, nest: int):
        """A unary: its run of minuses (in a loop), then an atom."""
        toks, i = self.toks, self.i
        _, name, number, op = toks[i]
        if op == "-":
            first = i
            while toks[i][3] == "-":
                nest = self.deeper(nest, i)
                i += 1
            self.i = i
            node = self.operand(nest)
            for k in range(i - 1, first - 1, -1):
                loc = self.loc(k)
                node = BinOp("-", IntLit(0, loc), node, loc)
            return node
        if number:
            self.i = i + 1
            return IntLit(int(number), self.loc(i))
        if op == "(":
            self.i = i + 1
            inner = self.expr(self.deeper(nest, i))
            self.expect(")")
            return inner
        if not name or name == "for":
            raise self.error(f"unexpected token {self.text(i)!r}", i)
        self.i = i + 1
        after = toks[i + 1][3]
        if after == "[":
            return self.subscripts(name, i, nest)
        if after != "(":
            return VarRef(name, self.loc(i))
        nest = self.deeper(nest, i + 1)
        self.i = i + 2
        args = [] if toks[self.i][3] == ")" else [self.expr(nest)]
        while toks[self.i][3] == ",":
            self.i += 1
            args.append(self.expr(nest))
        self.expect(")")
        return Call(name, tuple(args), self.loc(i))


def parse(source: str) -> Program:
    """Parse kernel source text into a :class:`~repro.lang.ast.Program`."""
    return _Parser(source).program()
