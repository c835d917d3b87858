"""The DSL parser as it was when every token was a ``_Token`` with its
kind, text and offset, kept as the oracle of the differential tests in
``test_parser.py``: the parser reading plain token texts must give the
same trees and the same errors at the same positions."""

from __future__ import annotations

import re
import sys
from typing import NamedTuple, NoReturn

from fourcalc.errors import (
    DslSyntaxError, InconsistentFlags, InvalidExpr, RefusedPrimitive, UnknownPrimitive,
)
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
    sum_parts,
)
from fourcalc.registry import PRIMITIVES, instantiate

# One token per match.  ``bad`` matches a character no token begins with;
# the tokenizer reports the first one.
_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[#*(),;=\-])|(?P<bad>\S)"
)

_CONSTRUCTORS = ("cover", "bicyclic", "quotient", "fibersum", "logt")
_COVER_BASES = {"CP2": "CP2", "CP1xCP1": "CP1xCP1", "S2xS2": "CP1xCP1"}


class _Token(NamedTuple):
    kind: str  # "int" | "name" | "sym" | "end"
    text: str
    offset: int


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``; counted only for an error."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _found(tok: _Token) -> str:
    return repr(tok.text or "end of input")


def _tokenize(text: str) -> list[_Token]:
    """Split text into tokens, each with its offset in the text."""
    # tuple.__new__ builds each token without the Python-level __new__
    # that NamedTuple generates.
    tokens = [
        tuple.__new__(_Token, (m.lastgroup, m.group(), m.start())) for m in _TOKEN_RE.finditer(text)
    ]
    for tok in tokens:
        if tok.kind == "bad":
            raise DslSyntaxError(f"unexpected character {tok.text!r}", *_position(text, tok.offset))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Reads ``tokens`` by index.  A symbol is recognised by its text
    alone: no int, name or end token has the text of one."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # Each distinct (name, params) is validated once; its occurrences
        # share one node.
        self.primitives: dict[tuple[str, tuple], Primitive] = {}

    def error(self, message: str, tok: _Token | None = None) -> NoReturn:
        """Raise a syntax error at ``tok``, by default the current token."""
        if tok is None:
            tok = self.tokens[self.pos]
        raise DslSyntaxError(message, *_position(self.text, tok.offset))

    def accept(self, sym: str) -> bool:
        """Consume the current token if it is ``sym``."""
        if self.tokens[self.pos].text == sym:
            self.pos += 1
            return True
        return False

    def expect_sym(self, sym: str) -> None:
        if not self.accept(sym):
            self.error(f"expected {sym!r}, found {_found(self.tokens[self.pos])}")

    def expect_int(self) -> int:
        negative = self.accept("-")
        tok = self.tokens[self.pos]
        if tok.kind != "int":
            self.error(f"expected an integer, found {_found(tok)}")
        self.pos += 1
        value = int(tok.text)
        return -value if negative else value

    def expect_name(self, what: str = "a name") -> str:
        tok = self.tokens[self.pos]
        if tok.kind != "name":
            self.error(f"expected {what}, found {_found(tok)}")
        self.pos += 1
        return tok.text

    def expect_keyword_assignment(self, keyword: str) -> int:
        name = self.expect_name(f"'{keyword}='")
        if name != keyword:
            self.error(f"expected '{keyword}=', found {name!r}")
        self.expect_sym("=")
        return self.expect_int()

    # grammar rules ----------------------------------------------------

    def parse_expr(self) -> ManifoldExpr:
        """A sum, with each parenthesised group flattened into it as it is
        read.  An open group is only the multiplicity factor outside it, on
        ``outside``, so groups nest without recursion and build no sum of
        their own.  Parts keep the order of their first occurrence, as in
        ``connected_sum_of``."""
        tokens = self.tokens
        pos = self.pos
        counts: dict[ManifoldExpr, int] = {}
        outside: list[int] = []
        factor = 1
        while True:
            tok = tokens[pos]
            mult = factor
            if tok.kind == "int":
                value = int(tok.text)
                if value < 1:
                    self.error(f"multiplicity must be >= 1, found {value}", tok)
                pos += 1
                if tokens[pos].text != "*":
                    self.error(f"expected '*', found {_found(tokens[pos])}", tokens[pos])
                pos += 1
                tok = tokens[pos]
                mult = factor * value
            if tok.text == "(":
                outside.append(factor)
                factor = mult
                pos += 1
                continue
            if tok.kind != "name":
                self.error(f"expected a manifold, found {_found(tok)}", tok)
            self.pos = pos
            if tok.text in _CONSTRUCTORS:
                # logt(sum, 1) is the sum itself, so a constructor may give parts.
                for part, submult in sum_parts(self.parse_constructor()):
                    counts[part] = counts.get(part, 0) + submult * mult
            else:
                part = self.parse_primitive()
                counts[part] = counts.get(part, 0) + mult
            pos = self.pos
            tok = tokens[pos]
            while tok.text != "#":
                if not outside:
                    self.pos = pos
                    return connected_sum_of(*counts.items())
                if tok.text != ")":
                    self.error(f"expected ')', found {_found(tok)}", tok)
                factor = outside.pop()
                pos += 1
                tok = tokens[pos]
            pos += 1

    def parse_constructor(self) -> ManifoldExpr:
        head = self.tokens[self.pos]
        self.pos += 1
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
            self.error(str(exc), head)

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
        if self.accept("("):
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
        if self.accept(","):
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
        at = self.tokens[self.pos]
        mult = self.expect_int()
        if mult < 1:
            self.error(f"logt multiplicity must be >= 1, found {mult}", at)
        self.expect_sym(")")
        return LogTransform(inner, mult) if mult > 1 else inner

    def parse_primitive(self) -> Primitive:
        """NAME ['(' args ')'], read by index: one node per distinct
        (name, params), validated when it first occurs."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        name = tok.text
        if name not in PRIMITIVES:
            raise UnknownPrimitive(f"unknown primitive {name!r}", *_position(self.text, tok.offset))
        pos += 1
        params: list = []
        if tokens[pos].text == "(":
            sep = ","
            while sep == ",":
                pos += 1
                arg = tokens[pos]
                if arg.kind == "int":
                    params.append(int(arg.text))
                    pos += 1
                elif arg.kind == "name":
                    params.append(arg.text)
                    pos += 1
                else:  # a negative integer, or an error
                    self.pos = pos
                    params.append(self.expect_int())
                    pos = self.pos
                sep = tokens[pos].text
            if sep != ")":
                self.error(f"expected ')', found {_found(tokens[pos])}", tokens[pos])
            pos += 1
        self.pos = pos
        key = (name, tuple(params))
        node = self.primitives.get(key)
        if node is None:
            try:
                instantiate(*key)
            except InvalidExpr as exc:
                self.error(str(exc), tok)
            except InconsistentFlags as exc:
                raise RefusedPrimitive(str(exc), *_position(self.text, tok.offset))
            node = self.primitives[key] = Primitive(*key)
        return node


def reference_parse_dsl(text: str) -> ManifoldExpr:
    """Parse DSL text into an expression; raises positioned errors."""
    parser = _Parser(text)
    try:
        expr = parser.parse_expr()
    except ValueError:
        # int() refuses a literal past the interpreter's int/str digit
        # limit.  The parser converts every integer it consumes, in order,
        # so the first literal over the limit is the one refused.
        limit = sys.get_int_max_str_digits()
        for tok in parser.tokens:
            if tok.kind == "int" and 0 < limit < len(tok.text):
                parser.error(
                    f"integer literal of {len(tok.text)} digits exceeds the limit of {limit}", tok
                )
        raise
    tok = parser.tokens[parser.pos]
    if tok.kind != "end":
        parser.error(f"unexpected trailing input {tok.text!r}")
    return expr
