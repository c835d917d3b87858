"""Recursive-descent parser for the manifold DSL.

Grammar::

    expr   := term ('#' term)*
    term   := [INT '*'] atom
    atom   := 'cover' '(' BASE ',' 'd' '=' INT ',' 'branch' '=' branch ')'
            | 'bicyclic' '(' INT ',' INT ';' INT ',' INT ',' INT ',' INT ')'
            | 'quotient' '(' expr ',' INT [',' ('standard'|'weighted')] ')'
            | 'fibersum' '(' expr ',' expr ',' 'g' '=' INT ')'
            | 'logt' '(' expr ',' INT ')'
            | NAME [ '(' args ')' ]
            | '(' expr ')'
    branch := INT | '(' INT ',' INT ')'
    args   := arg (',' arg)* ;  arg := ['-'] INT | NAME

Parsing is total: every input yields an expression or a positioned
syntax error.  Printing an expression with ``str`` re-parses to an
identical tree.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from fourcalc.errors import DslSyntaxError, InvalidExpr, UnknownPrimitive
from fourcalc.expr import (
    BicyclicCover,
    CyclicCover,
    DivisorClass,
    FiberSum,
    LogTransform,
    ManifoldExpr,
    Primitive,
    Quotient,
    connected_sum_of,
)
from fourcalc.registry import REGISTRY

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[#*(),;=\-]))")

_CONSTRUCTORS = ("cover", "bicyclic", "quotient", "fibersum", "logt")
_COVER_BASES = {"CP2": "CP2", "CP1xCP1": "CP1xCP1", "S2xS2": "CP1xCP1"}


class _Token(NamedTuple):
    kind: str  # "int" | "name" | "sym" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    """Split text into tokens with 1-based line and column positions.

    Positions are tracked incrementally: ``line`` counts the newlines
    before ``pos`` and ``newline`` is the index of the last of them (-1
    on the first line), so each character is scanned a bounded number of
    times.  Tokens never contain a newline; only the whitespace skipped
    in front of a token (or of a character no token begins with) can.
    """
    tokens = []
    pos = 0
    line, newline = 1, -1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            start = len(text) - len(rest)  # the character no token begins with
        else:
            kind = match.lastgroup
            start = match.start(kind)
        skipped = text.count("\n", pos, start)
        if skipped:
            line += skipped
            newline = text.rfind("\n", pos, start)
        if match is None:
            raise DslSyntaxError(f"unexpected character {rest[0]!r}", line, start - newline)
        tokens.append(_Token(kind, match.group(kind), line, start - newline))
        pos = match.end()
    skipped = text.count("\n", pos)
    if skipped:
        line += skipped
        newline = text.rfind("\n", pos)
    tokens.append(_Token("end", "", line, len(text) - newline))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str):
        tok = self.current
        raise DslSyntaxError(message, tok.line, tok.column)

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.current
        if tok.kind != "sym" or tok.text != sym:
            self.error(f"expected {sym!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_int(self) -> int:
        negative = False
        if self.current.kind == "sym" and self.current.text == "-":
            negative = True
            self.advance()
        tok = self.current
        if tok.kind != "int":
            self.error(f"expected an integer, found {tok.text or 'end of input'!r}")
        self.advance()
        value = int(tok.text)
        return -value if negative else value

    def expect_name(self, what: str = "a name") -> str:
        tok = self.current
        if tok.kind != "name":
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance().text

    def expect_keyword_assignment(self, keyword: str) -> int:
        name = self.expect_name(f"'{keyword}='")
        if name != keyword:
            self.error(f"expected '{keyword}=', found {name!r}")
        self.expect_sym("=")
        return self.expect_int()

    def at_sym(self, sym: str) -> bool:
        return self.current.kind == "sym" and self.current.text == sym

    # grammar rules ----------------------------------------------------

    def parse_expr(self) -> ManifoldExpr:
        pieces = [self.parse_term()]
        while self.at_sym("#"):
            self.advance()
            pieces.append(self.parse_term())
        return connected_sum_of(*pieces)

    def parse_term(self) -> tuple[ManifoldExpr, int]:
        mult = 1
        if self.current.kind == "int":
            mult = int(self.advance().text)
            if mult < 1:
                self.error("multiplicity must be >= 1")
            self.expect_sym("*")
        return self.parse_atom(), mult

    def parse_atom(self) -> ManifoldExpr:
        tok = self.current
        if self.at_sym("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if tok.kind != "name":
            self.error(f"expected a manifold, found {tok.text or 'end of input'!r}")
        if tok.text in _CONSTRUCTORS:
            return self.parse_constructor()
        return self.parse_primitive()

    def parse_constructor(self) -> ManifoldExpr:
        head = self.advance()
        self.expect_sym("(")
        try:
            if head.text == "cover":
                return self.finish_cover()
            if head.text == "bicyclic":
                return self.finish_bicyclic()
            if head.text == "quotient":
                return self.finish_quotient()
            if head.text == "fibersum":
                return self.finish_fibersum()
            return self.finish_logt()
        except InvalidExpr as exc:
            raise DslSyntaxError(str(exc), head.line, head.column) from exc

    def finish_cover(self) -> ManifoldExpr:
        base_name = self.expect_name("a cover base (CP2 or CP1xCP1)")
        if base_name not in _COVER_BASES:
            self.error(f"unsupported cover base {base_name!r}")
        base = _COVER_BASES[base_name]
        self.expect_sym(",")
        d = self.expect_keyword_assignment("d")
        self.expect_sym(",")
        name = self.expect_name("'branch='")
        if name != "branch":
            self.error(f"expected 'branch=', found {name!r}")
        self.expect_sym("=")
        if self.at_sym("("):
            self.advance()
            p = self.expect_int()
            self.expect_sym(",")
            q = self.expect_int()
            self.expect_sym(")")
            degrees: tuple[int, ...] = (p, q)
        else:
            degrees = (self.expect_int(),)
        self.expect_sym(")")
        return CyclicCover(base, d, DivisorClass(base, degrees))

    def finish_bicyclic(self) -> ManifoldExpr:
        d = self.expect_int()
        self.expect_sym(",")
        p = self.expect_int()
        self.expect_sym(";")
        values = [self.expect_int()]
        for _ in range(3):
            self.expect_sym(",")
            values.append(self.expect_int())
        self.expect_sym(")")
        return BicyclicCover(d, p, *values)

    def finish_quotient(self) -> ManifoldExpr:
        inner = self.parse_expr()
        self.expect_sym(",")
        d = self.expect_int()
        action = "standard"
        if self.at_sym(","):
            self.advance()
            action = self.expect_name("an action kind")
            if action not in ("standard", "weighted"):
                self.error(f"unknown action {action!r}")
        self.expect_sym(")")
        return Quotient(inner, d, action)

    def finish_fibersum(self) -> ManifoldExpr:
        left = self.parse_expr()
        self.expect_sym(",")
        right = self.parse_expr()
        self.expect_sym(",")
        genus = self.expect_keyword_assignment("g")
        self.expect_sym(")")
        return FiberSum(left, right, genus)

    def finish_logt(self) -> ManifoldExpr:
        inner = self.parse_expr()
        self.expect_sym(",")
        at = self.current
        mult = self.expect_int()
        if mult < 1:
            raise DslSyntaxError(
                f"logt multiplicity must be >= 1, found {mult}", at.line, at.column
            )
        self.expect_sym(")")
        return LogTransform(inner, mult) if mult > 1 else inner

    def parse_primitive(self) -> ManifoldExpr:
        tok = self.advance()
        name = tok.text
        if name not in REGISTRY:
            raise UnknownPrimitive(f"unknown primitive {name!r}", tok.line, tok.column)
        params: list = []
        if self.at_sym("("):
            self.advance()
            params.append(self.parse_arg())
            while self.at_sym(","):
                self.advance()
                params.append(self.parse_arg())
            self.expect_sym(")")
        expr = Primitive(name, tuple(params))
        try:
            REGISTRY.instantiate(name, tuple(params))
        except InvalidExpr as exc:
            raise DslSyntaxError(str(exc), tok.line, tok.column) from exc
        return expr

    def parse_arg(self):
        if self.current.kind == "name":
            return self.advance().text
        return self.expect_int()


def parse_dsl(text: str) -> ManifoldExpr:
    """Parse DSL text into an expression; raises positioned errors."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    if parser.current.kind != "end":
        parser.error(f"unexpected trailing input {parser.current.text!r}")
    return expr
