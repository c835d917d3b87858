"""DSL parsing: grammar, positioned errors, print/parse round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from fourcalc.errors import DslSyntaxError, UnknownPrimitive
from fourcalc.expr import (
    BicyclicCover,
    ConnectedSum,
    CyclicCover,
    DivisorClass,
    FiberSum,
    LogTransform,
    Primitive,
    Quotient,
    connected_sum_of,
)
from fourcalc.parser import _TOKEN_RE, _tokenize, parse_dsl


class TestGrammar:
    def test_connected_sum_with_multiplicities(self):
        expr = parse_dsl("CP2 # 2*CP2b")
        assert expr == ConnectedSum(((Primitive("CP2"), 1), (Primitive("CP2b"), 2)))

    def test_quotient_of_bicyclic(self):
        expr = parse_dsl("quotient(bicyclic(3,2;3,3,3,3), 3)")
        assert expr == Quotient(BicyclicCover(3, 2, 3, 3, 3, 3), 3, "standard")

    def test_weighted_quotient(self):
        expr = parse_dsl("quotient(bicyclic(2,3;6,3,2,2), 2, weighted)")
        assert expr.action == "weighted"

    def test_cover_plane(self):
        expr = parse_dsl("cover(CP2, d=2, branch=8)")
        assert expr == CyclicCover("CP2", 2, DivisorClass("CP2", (8,)))

    def test_cover_quadric(self):
        expr = parse_dsl("cover(CP1xCP1, d=3, branch=(6, 9))")
        assert expr == CyclicCover("CP1xCP1", 3, DivisorClass("CP1xCP1", (6, 9)))

    def test_fibersum_and_logt(self):
        expr = parse_dsl("fibersum(E(4), logt(E(2), 5), g=1)")
        assert expr == FiberSum(
            Primitive("E", (4,)), LogTransform(Primitive("E", (2,)), 5), 1
        )

    def test_group_block_params(self):
        expr = parse_dsl("XG(24, -16, G5)")
        assert expr == Primitive("XG", (24, -16, "G5"))

    def test_parenthesized_sums(self):
        expr = parse_dsl("(K3 # S2xS2) # K3")
        assert expr == connected_sum_of((Primitive("K3"), 2), (Primitive("S2xS2"), 1))

    def test_multiplicity_on_group(self):
        expr = parse_dsl("3*(S2xS2 # K3)")
        assert expr == connected_sum_of((Primitive("S2xS2"), 3), (Primitive("K3"), 3))


class TestErrors:
    def test_unknown_primitive_position(self):
        with pytest.raises(UnknownPrimitive) as err:
            parse_dsl("CP2 # Nope")
        assert err.value.line == 1 and err.value.column == 7

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_dsl("CP2 #")
        assert err.value.line == 1

    def test_trailing_garbage(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("CP2 CP2")

    def test_bad_character(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("CP2 @ CP2")

    def test_bad_branch_divisibility(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("cover(CP2, d=2, branch=7)")

    def test_bad_constructor_arity(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("bicyclic(3,2;3,3)")

    def test_bad_primitive_params(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("E(0)")

    def test_logt_multiplicity_below_one(self):
        for text, column in (("logt(E(2),0)", 11), ("logt(E(2), -3)", 12)):
            with pytest.raises(DslSyntaxError) as err:
                parse_dsl(text)
            assert err.value.line == 1 and err.value.column == column
            assert "multiplicity" in str(err.value)

    def test_logt_multiplicity_one_is_the_inner_expression(self):
        assert parse_dsl("logt(E(2),1)") == Primitive("E", (2,))


ATOMS = st.sampled_from(
    [
        Primitive("CP2"),
        Primitive("CP2b"),
        Primitive("S2xS2"),
        Primitive("K3"),
        Primitive("E", (2,)),
        Primitive("E", (3,)),
        Primitive("Sd", (4,)),
        Primitive("Y", (2,)),
        Primitive("XG", (24, -16, "G")),
        CyclicCover("CP2", 2, DivisorClass("CP2", (8,))),
        CyclicCover("CP1xCP1", 2, DivisorClass("CP1xCP1", (4, 2))),
        BicyclicCover(3, 2, 3, 3, 3, 3),
        Quotient(BicyclicCover(3, 2, 3, 3, 3, 3), 3),
        LogTransform(Primitive("E", (2,)), 3),
        FiberSum(Primitive("E", (2,)), Primitive("E", (2,)), 1),
    ]
)


@st.composite
def expressions(draw):
    parts = draw(st.lists(st.tuples(ATOMS, st.integers(1, 3)), min_size=1, max_size=4))
    return connected_sum_of(*parts)


@given(expressions())
def test_round_trip(expr):
    assert parse_dsl(str(expr)) == expr


def reference_tokenize(text):
    """The tokenizer _tokenize replaced: each token's line and column
    recounted from the start of the text."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            bad = len(text) - len(rest)
            line = text.count("\n", 0, bad) + 1
            column = bad - text.rfind("\n", 0, bad)
            raise DslSyntaxError(f"unexpected character {rest[0]!r}", line, column)
        start = match.start() + len(match.group(0)) - len(match.group(0).lstrip())
        line = text.count("\n", 0, start) + 1
        column = start - text.rfind("\n", 0, start)
        for kind in ("int", "name", "sym"):
            if match.group(kind) is not None:
                tokens.append((kind, match.group(kind), line, column))
                break
        pos = match.end()
    last_line = text.count("\n") + 1
    tokens.append(("end", "", last_line, len(text) - text.rfind("\n", 0, len(text))))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except DslSyntaxError as exc:
        return str(exc), exc.line, exc.column


# Pieces of DSL text: tokens, runs of spaces, tabs and newlines (blank
# lines included), other whitespace, non-ASCII digits and characters the
# grammar does not know.
DSL_PIECES = st.sampled_from(
    ["CP2", "K3", "E", "Sd", "cover", "x_1", "12", "0", "#", "*", "(", ")", ",",
     ";", "=", "-", " ", "  ", "\t", "\n", "\n\n", " \n\t ", "\r\n", "\x0b",
     "\u2028", "\u00a0", "\u0663", "@", "!", "{", "\u00e9", "."]
)


@settings(max_examples=500)
@given(st.lists(DSL_PIECES, max_size=40).map("".join))
def test_tokenize_matches_reference(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


@given(st.text(max_size=60))
def test_tokenize_matches_reference_on_any_text(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)

