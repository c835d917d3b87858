"""DSL parsing: grammar, positioned errors, print/parse round trips."""

import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from fourcalc import parser as parser_module
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
from fourcalc.parser import _token_position, _tokenize, parse_dsl

from .reference_parser import reference_parse_dsl
from .work import line_events


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

    def test_multiplicity_below_one_points_at_the_integer(self):
        for text, column in (("0*CP2", 1), ("2*(CP2 # 0*K3)", 10)):
            with pytest.raises(DslSyntaxError) as err:
                parse_dsl(text)
            assert err.value.message == "multiplicity must be >= 1, found 0"
            assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("CP2 # (K3", "expected ')', found 'end of input'", 1, 10),
            ("()", "expected a manifold, found ')'", 1, 2),
            ("CP2)", "unexpected trailing input ')'", 1, 4),
            ("2*", "expected a manifold, found 'end of input'", 1, 3),
            ("(CP2, K3)", "expected ')', found ','", 1, 5),
            ("2*(CP2 # (K3", "expected ')', found 'end of input'", 1, 13),
        ],
    )
    def test_group_errors(self, text, message, line, column):
        with pytest.raises(DslSyntaxError) as err:
            parse_dsl(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


class TestPrimitiveChecks:
    @pytest.fixture
    def instantiations(self, monkeypatch):
        calls = []
        instantiate = parser_module.instantiate

        def counting(name, params=()):
            calls.append((name, params))
            return instantiate(name, params)

        monkeypatch.setattr(parser_module, "instantiate", counting)
        return calls

    def test_each_distinct_primitive_is_checked_once_per_parse(self, instantiations):
        text = "E(2) # CP2 # 2*(E(2) # K3 # (CP2 # E(3))) # logt(E(2),1) # E(2)"
        distinct = [("E", (2,)), ("CP2", ()), ("K3", ()), ("E", (3,))]
        expr = parse_dsl(text)
        assert instantiations == distinct
        assert expr == connected_sum_of(
            (Primitive("E", (2,)), 5), (Primitive("CP2"), 3), (Primitive("K3"), 2),
            (Primitive("E", (3,)), 2),
        )
        parse_dsl(text)
        assert instantiations == distinct * 2

    def test_an_invalid_primitive_fails_at_its_first_occurrence(self, instantiations):
        with pytest.raises(DslSyntaxError) as err:
            parse_dsl("CP2 # BK(0,0,0) # BK(0,0,0)")
        assert (err.value.line, err.value.column) == (1, 7)
        assert instantiations == [("CP2", ()), ("BK", (0, 0, 0))]


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


TERMS = st.lists(st.tuples(ATOMS, st.integers(1, 3)), max_size=2)


@st.composite
def nested_recipes(draw):
    """The summands of a core sum, then per level of nesting the terms
    before the inner group, its multiplicity and the terms after it.  The
    levels repeat a few drawn ones, so that the depth reaches 5,000 from
    little drawn data."""
    core = draw(st.lists(st.tuples(ATOMS, st.integers(1, 3)), min_size=1, max_size=3))
    shapes = draw(st.lists(st.tuples(TERMS, st.integers(1, 3), TERMS), min_size=1, max_size=4))
    depth = draw(st.integers(0, 5000))
    return core, [shapes[i % len(shapes)] for i in range(depth)]


def _term(atom, mult):
    return str(atom) if mult == 1 else f"{mult}*{atom}"


@settings(max_examples=30, deadline=None)
@given(nested_recipes())
@example(([(Primitive("K3"), 1)], [([(Primitive("CP2b"), 1)], 2, [])] * 5000))
def test_nested_groups_parse_to_the_flattened_sum(recipe):
    # Text and expected tree are both built from the inside out, without
    # recursion.
    core, levels = recipe
    text = " # ".join(_term(atom, mult) for atom, mult in core)
    expected = connected_sum_of(*core)
    for before, mult, after in levels:
        group = f"({text})" if mult == 1 else f"{mult}*({text})"
        text = " # ".join([*(_term(*t) for t in before), group, *(_term(*t) for t in after)])
        expected = connected_sum_of(*before, (expected, mult), *after)
    assert parse_dsl(text) == expected


# The token pattern of the reference tokenizer, kept here so that the
# reference does not share the pattern it is checked against.
REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[#*(),;=\-]))"
)


def reference_tokenize(text):
    """A tokenizer that matches one token at a time from the current
    position and recounts each token's line and column from the start of
    the text."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = REFERENCE_TOKEN_RE.match(text, pos)
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


def _kind(tok):
    """The kind of a token text, read from its first character."""
    if not tok:
        return "end"
    if tok[0].isdecimal():
        return "int"
    return "name" if tok[0].isalpha() or tok[0] == "_" else "sym"


def _tokens_or_error(tokenize, text):
    """(kind, text, line, column) per token, or the error and its position.
    The tokenizer's texts are placed by the parser's ``_token_position``,
    which places the token of a syntax error."""
    try:
        tokens = tokenize(text)
    except DslSyntaxError as exc:
        return str(exc), exc.line, exc.column
    return [
        (_kind(tok), tok, *_token_position(text, index)) if isinstance(tok, str) else tok
        for index, tok in enumerate(tokens)
    ]


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


def _parsed_or_error(parse, text):
    """The tree, or the error's type, message and position."""
    try:
        return parse(text)
    except DslSyntaxError as exc:
        return type(exc).__name__, exc.message, exc.line, exc.column


@st.composite
def spliced_texts(draw):
    """The text of an expression with a slice cut out and pieces put in
    its place, so that errors fall at every depth of the grammar."""
    text = str(draw(expressions()))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 4)))
    return text[:start] + "".join(draw(st.lists(DSL_PIECES, max_size=2))) + text[end:]


@settings(max_examples=500)
@given(st.one_of(st.lists(DSL_PIECES, max_size=40).map("".join), st.text(max_size=60),
                 spliced_texts()))
def test_parse_matches_the_parser_with_token_records(text):
    parsed = _parsed_or_error(parse_dsl, text)
    assert parsed == _parsed_or_error(reference_parse_dsl, text)
    if not isinstance(parsed, tuple):
        assert parse_dsl(str(parsed)) is parsed


# Each constructor that contains a sum, as one level of a nest.
NESTS = {
    "logt": lambda node: LogTransform(node, 3),
    "quotient": lambda node: Quotient(node, 1),
    "fibersum": lambda node: FiberSum(node, Primitive("E", (2,)), 1),
}


def _nest(kind, depth):
    tree = Primitive("E", (2,))
    for _ in range(depth):
        tree = NESTS[kind](tree)
    return tree


@pytest.mark.parametrize("kind", NESTS)
def test_constructors_nest_to_any_depth(kind):
    assert sys.getrecursionlimit() == 1000  # the interpreter's default
    tree = _nest(kind, 10_000)
    assert parse_dsl(str(tree)) is tree


@pytest.mark.parametrize("kind", NESTS)
def test_parsing_a_nest_is_linear_in_its_depth(kind):
    # Counted in line events of the parser, not in wall time.
    shallow, deep = str(_nest(kind, 1_000)), str(_nest(kind, 2_000))
    ratio = line_events(parser_module, lambda: parse_dsl(deep)) / line_events(
        parser_module, lambda: parse_dsl(shallow)
    )
    assert ratio <= 2.2, ratio


@pytest.mark.parametrize("head, inner, tail, planted", [
    ("logt(", "E(2)", ",3)", ",x)"),
    ("logt(", "E(2)", ",3)", " # 0*K3,3)"),
    ("quotient(", "K3", ",1)", ",1 # K3)"),
    ("fibersum(", "E(2)", ",E(2),g=1)", ",E(2);g=1)"),
    ("fibersum(", "E(2)", ",E(2),g=1)", ",E(2),h=1)"),
])
def test_an_error_deep_in_a_nest_keeps_its_message_and_place(head, inner, tail, planted):
    # ``planted`` closes the constructor at depth ``level`` on a line of
    # its own, so that its error has the same line and column at any depth.
    def text(depth, level):
        return head * depth + inner + tail * (depth - level) + "\n" + planted + tail * (level - 1)

    expected = _parsed_or_error(reference_parse_dsl, text(200, 100))
    assert expected[0] == "DslSyntaxError" and expected[2] == 2
    assert _parsed_or_error(parse_dsl, text(10_000, 5_000)) == expected
