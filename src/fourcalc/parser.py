"""Parser for the manifold DSL.

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
error: a syntax error, or the table's refusal of a well-written
primitive (``RefusedPrimitive``).  Printing an expression with ``str``
re-parses to an identical tree.

One ``findall`` splits the text into token texts, and a token's kind is
read off its text; a set check finds a character no token begins with
before that.  Offsets are not kept: an error rescans the text up to its
token to place it.  So a parse costs one C-level scan plus the grammar's
own steps, and nothing per token that it does not read.

Every nesting is read in one loop, on explicit stacks, so it nests to
any depth at the default recursion limit.  A parenthesised group's parts
go straight into the enclosing sum, with multiplicities multiplied.
Each constructor is read by a generator, which waits on a stack of open
constructors while each sum it contains (in ``quotient``, ``fibersum``
and ``logt``) is read.  Each distinct primitive ``(name, params)`` is
validated once per parse, at its first occurrence, and its occurrences
share one node.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Generator
from itertools import islice
from typing import NoReturn

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

# One token per match; the text between matches is whitespace.
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[#*(),;=\-]")
# A character no token begins with and that is not whitespace.  ``\d`` and
# ``\s`` are Unicode classes; the ASCII characters below are all tokens or
# whitespace, so a text of them alone needs no search.
_BAD_RE = re.compile(r"[^\d\sA-Za-z_#*(),;=\-]")
_ASCII_GOOD = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_#*(),;=- \t\n\r\x0b\x0c"
)

_COVER_BASES = {"CP2": "CP2", "CP1xCP1": "CP1xCP1", "S2xS2": "CP1xCP1"}
# A constructor's reader, started after its '(': it yields for each sum
# the constructor contains, is sent that sum, and returns the node.
_Reader = Generator[None, ManifoldExpr, ManifoldExpr]


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``; counted only for an error."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _token_position(text: str, index: int) -> tuple[int, int]:
    """The line and column of token ``index`` of ``text``, found by scanning
    the text again up to it; counted only for an error."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    return _position(text, len(text) if match is None else match.start())


def _found(tok: str) -> str:
    return repr(tok or "end of input")


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, ending in the empty end token.  A token
    is an integer when it is decimal digits, a name when it is an
    identifier, and a symbol otherwise."""
    if not _ASCII_GOOD.issuperset(text):
        bad = _BAD_RE.search(text)
        if bad is not None:
            raise DslSyntaxError(
                f"unexpected character {bad.group()!r}", *_position(text, bad.start())
            )
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    """Reads ``tokens`` by index.  A symbol is recognised by its text
    alone: no int, name or end token has the text of one.  An error names
    the index of its token; only then is its position found."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # Memoizes the table check of each distinct (name, params).
        self.primitives: dict[tuple[str, tuple], Primitive] = {}

    def error(self, message: str, index: int | None = None) -> NoReturn:
        """Raise a syntax error at token ``index``, by default the current one."""
        raise DslSyntaxError(
            message, *_token_position(self.text, self.pos if index is None else index)
        )

    def accept(self, sym: str) -> bool:
        """Consume the current token if it is ``sym``."""
        if self.tokens[self.pos] == sym:
            self.pos += 1
            return True
        return False

    def expect_sym(self, sym: str) -> None:
        if not self.accept(sym):
            self.error(f"expected {sym!r}, found {_found(self.tokens[self.pos])}")

    def expect_int(self) -> int:
        negative = self.accept("-")
        tok = self.tokens[self.pos]
        if not tok.isdecimal():
            self.error(f"expected an integer, found {_found(tok)}")
        self.pos += 1
        value = int(tok)
        return -value if negative else value

    def expect_name(self, what: str = "a name") -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            self.error(f"expected {what}, found {_found(tok)}")
        self.pos += 1
        return tok

    def expect_keyword_assignment(self, keyword: str) -> int:
        name = self.expect_name(f"'{keyword}='")
        if name != keyword:
            self.error(f"expected '{keyword}=', found {name!r}")
        self.expect_sym("=")
        return self.expect_int()

    # grammar rules ----------------------------------------------------

    def parse_expr(self) -> ManifoldExpr:
        """A sum, with every nesting in it read by this one loop.  A
        parenthesised group is flattened into the enclosing sum as it is
        read: an open group is only the multiplicity factor outside it, on
        ``outside``.  An open constructor is a frame on ``frames``: its
        reader, its head's index and the enclosing sum's state, kept while
        each sum the reader asks for is read.  Parts keep the order of
        their first occurrence, as in ``connected_sum_of``."""
        tokens = self.tokens
        pos = self.pos
        counts: dict[ManifoldExpr, int] = {}
        outside: list[int] = []
        factor = 1
        frames: list[tuple[_Reader, int, dict[ManifoldExpr, int], list[int], int, int]] = []
        while True:
            tok = tokens[pos]
            mult = factor
            if tok.isdecimal():
                value = int(tok)
                if value < 1:
                    self.error(f"multiplicity must be >= 1, found {value}", pos)
                pos += 1
                if tokens[pos] != "*":
                    self.error(f"expected '*', found {_found(tokens[pos])}", pos)
                pos += 1
                tok = tokens[pos]
                mult = factor * value
            if tok == "(":
                outside.append(factor)
                factor = mult
                pos += 1
                continue
            if not tok.isidentifier():
                self.error(f"expected a manifold, found {_found(tok)}", pos)
            self.pos = pos
            if tok in _CONSTRUCTORS:
                self.pos += 1
                self.expect_sym("(")
                frames.append((_CONSTRUCTORS[tok](self), pos, counts, outside, factor, mult))
                # ``tok`` is still the head, so the loop below at once sends
                # the reader an empty sum, None, which starts it.
                counts, outside = {}, []
                pos = self.pos
            else:
                part = self.parse_primitive()
                counts[part] = counts.get(part, 0) + mult
                pos = self.pos
                tok = tokens[pos]
            while tok != "#":
                if not outside:
                    node = connected_sum_of(*counts.items()) if counts else None
                    self.pos = pos
                    if not frames:
                        return node
                    # The sum is an open constructor's: its reader takes it.
                    reader, at, counts, outside, factor, mult = frames[-1]
                    try:
                        reader.send(node)
                    except StopIteration as closed:
                        frames.pop()
                        # logt(sum, 1) is the sum itself, so a constructor may give parts.
                        for part, submult in sum_parts(closed.value):
                            counts[part] = counts.get(part, 0) + submult * mult
                        pos = self.pos
                        tok = tokens[pos]
                        continue
                    except InvalidExpr as exc:
                        self.error(str(exc), at)
                    # The reader asks for its next sum.
                    counts, outside, factor = {}, [], 1
                    pos = self.pos
                    break
                if tok != ")":
                    self.error(f"expected ')', found {_found(tok)}", pos)
                factor = outside.pop()
                pos += 1
                tok = tokens[pos]
            else:
                pos += 1

    def finish_cover(self) -> _Reader:
        yield from ()  # a cover contains no sum
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

    def finish_bicyclic(self) -> _Reader:
        yield from ()  # nor does a bicyclic cover
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

    def finish_quotient(self) -> _Reader:
        inner = yield
        self.expect_sym(",")
        d = self.expect_int()
        action = "standard"
        if self.accept(","):
            action = self.expect_name("an action kind")
            if action not in ("standard", "weighted"):
                self.error(f"unknown action {action!r}")
        self.expect_sym(")")
        return Quotient(inner, d, action)

    def finish_fibersum(self) -> _Reader:
        left = yield
        self.expect_sym(",")
        right = yield
        self.expect_sym(",")
        genus = self.expect_keyword_assignment("g")
        self.expect_sym(")")
        return FiberSum(left, right, genus)

    def finish_logt(self) -> _Reader:
        inner = yield
        self.expect_sym(",")
        at = self.pos
        mult = self.expect_int()
        if mult < 1:
            self.error(f"logt multiplicity must be >= 1, found {mult}", at)
        self.expect_sym(")")
        return LogTransform(inner, mult) if mult > 1 else inner

    def parse_primitive(self) -> Primitive:
        """NAME ['(' args ')'], read by index.  The primitive table checks each
        distinct (name, params) once per parse: ``self.primitives`` only
        memoizes that check, since the node is interned either way."""
        tokens = self.tokens
        at = pos = self.pos
        name = tokens[pos]
        if name not in PRIMITIVES:
            raise UnknownPrimitive(f"unknown primitive {name!r}", *_token_position(self.text, at))
        pos += 1
        params: list = []
        if tokens[pos] == "(":
            sep = ","
            while sep == ",":
                pos += 1
                arg = tokens[pos]
                if arg.isdecimal():
                    params.append(int(arg))
                    pos += 1
                elif arg.isidentifier():
                    params.append(arg)
                    pos += 1
                else:  # a negative integer, or an error
                    self.pos = pos
                    params.append(self.expect_int())
                    pos = self.pos
                sep = tokens[pos]
            if sep != ")":
                self.error(f"expected ')', found {_found(sep)}", pos)
            pos += 1
        self.pos = pos
        key = (name, tuple(params))
        node = self.primitives.get(key)
        if node is None:
            try:
                instantiate(*key)
            except InvalidExpr as exc:
                self.error(str(exc), at)
            except InconsistentFlags as exc:
                raise RefusedPrimitive(str(exc), *_token_position(self.text, at))
            node = self.primitives[key] = Primitive(*key)
        return node


# The reader of each constructor, by its head.
_CONSTRUCTORS = {
    "cover": _Parser.finish_cover, "bicyclic": _Parser.finish_bicyclic,
    "quotient": _Parser.finish_quotient, "fibersum": _Parser.finish_fibersum,
    "logt": _Parser.finish_logt,
}


def parse_dsl(text: str) -> ManifoldExpr:
    """Parse DSL text into an expression; raises positioned errors."""
    parser = _Parser(text)
    try:
        expr = parser.parse_expr()
    except ValueError:
        # int() refuses a literal past the interpreter's int/str digit
        # limit.  The parser converts every integer it consumes, in order,
        # so the first literal over the limit is the one refused.
        limit = sys.get_int_max_str_digits()
        for index, tok in enumerate(parser.tokens):
            if tok.isdecimal() and 0 < limit < len(tok):
                parser.error(
                    f"integer literal of {len(tok)} digits exceeds the limit of {limit}", index
                )
        raise
    tok = parser.tokens[parser.pos]
    if tok:
        parser.error(f"unexpected trailing input {tok!r}")
    return expr
