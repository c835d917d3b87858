"""The certificate arithmetic checker is exact and independent."""

import ast
import json
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from fourcalc import certificates
from fourcalc.certificates import (
    Certificate,
    CertificateError,
    Step,
    check_arithmetic,
    verify_certificate,
)
from fourcalc.reproduce import Report


def reference_value(node):
    """The checker's language evaluated over Fractions only."""
    if isinstance(node, ast.Constant):
        return Fraction(node.value)
    if isinstance(node, ast.UnaryOp):
        return -reference_value(node.operand)
    if isinstance(node, ast.BinOp):
        left, right = reference_value(node.left), reference_value(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if right == 0:
            raise CertificateError("division by zero")
        return left / right
    args = [reference_value(a) for a in node.args]
    if node.func.id == "floor":
        return Fraction(floor(args[0]))
    a, b = args
    if a.denominator != 1 or b.denominator != 1 or b == 0:
        raise CertificateError("mod needs integers and nonzero modulus")
    return Fraction(a.numerator % b.numerator)


def reference_check(text):
    body = ast.parse(text, mode="eval").body
    left = reference_value(body.left)
    compare = {
        ast.Eq: Fraction.__eq__, ast.NotEq: Fraction.__ne__,
        ast.Lt: Fraction.__lt__, ast.LtE: Fraction.__le__,
        ast.Gt: Fraction.__gt__, ast.GtE: Fraction.__ge__,
    }
    for op, comparator in zip(body.ops, body.comparators):
        right = reference_value(comparator)
        if not compare[type(op)](left, right):
            return False
        left = right
    return True


def _terms(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"floor({c})"),
        st.tuples(children, children).map(lambda t: f"mod({t[0]}, {t[1]})"),
    )


# Zero is drawn often, so that divisions and moduli by zero come up.
TERMS = st.recursive(st.just("0") | st.integers(-12, 12).map(str), _terms, max_leaves=10)
CHAINS = st.tuples(
    TERMS,
    st.lists(st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), TERMS),
             min_size=1, max_size=3),
).map(lambda t: t[0] + "".join(f" {op} {term}" for op, term in t[1]))


class TestArithmetic:
    def test_chained_comparison(self):
        assert check_arithmetic("2*24 + 3*(-16) == 0 >= 0")
        assert not check_arithmetic("2*24 + 3*(-16) == 1")

    def test_exact_rationals(self):
        assert check_arithmetic("1 + 4*0 >= 1/3 * 2")
        assert not check_arithmetic("1/3 + 1/3 == 2/3 + 1/100")
        assert check_arithmetic("1/3 + 1/6 == 1/2")

    def test_floor_and_mod(self):
        assert check_arithmetic("floor(3/2) == 1")
        assert check_arithmetic("floor(-3/2) == -2")
        assert check_arithmetic("mod(28, 8) == 4")
        assert check_arithmetic("mod(-106, 4) == 2")

    def test_division_by_zero_is_a_failed_step(self):
        for text in ("1/0 == 1", "floor(1/0) == 0", "mod(3, 2) == 1/(2 - 2)"):
            with pytest.raises(CertificateError, match="division by zero"):
                check_arithmetic(text)
        cert = Certificate("no_verdict", (Step("broken", "cite", "1/0 == 1"),))
        assert verify_certificate(cert) == ["step 0 (broken): division by zero"]

    @settings(max_examples=400, deadline=None)
    @given(CHAINS)
    def test_agrees_with_a_fraction_only_reference(self, text):
        try:
            expected = reference_check(text)
        except CertificateError as exc:
            with pytest.raises(CertificateError) as raised:
                check_arithmetic(text)
            assert str(raised.value) == str(exc)
        else:
            assert check_arithmetic(text) is expected

    def test_strict_and_nonequal(self):
        assert check_arithmetic("2 > 1 != 3 <= 3")
        assert not check_arithmetic("2 < 1")

    @pytest.mark.parametrize(
        "bad",
        [
            "2 + 2",  # not a comparison
            "x == 1",  # names
            "2 ** 3 == 8",  # unsupported operator
            "__import__('os') == 1",
            "mod(1/2, 3) == 0",
            "1 = 1",
        ],
    )
    def test_rejects_unsupported_syntax(self, bad):
        with pytest.raises(CertificateError):
            check_arithmetic(bad)


class TestCertificates:
    def test_verify_and_roundtrip(self):
        cert = Certificate(
            verdict="einstein_obstructed",
            steps=(
                Step("positivity", "cite", "2*46 + 3*(-30) == 2 > 0"),
                Step("excess", "cite", "1 + 4*0 >= 1/3 * 2"),
                Step("qualitative", "cite", None),
            ),
            inputs={"k": 1},
        )
        assert verify_certificate(cert) == []
        # The CLI prints as_dict through json.dumps; it survives the round trip.
        assert json.loads(json.dumps(cert.as_dict())) == cert.as_dict()

    def test_false_step_reported(self):
        cert = Certificate(
            verdict="no_verdict",
            steps=(Step("broken", "cite", "1 >= 2"),),
        )
        failures = verify_certificate(cert)
        assert len(failures) == 1 and "broken" in failures[0]

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            Certificate(verdict="sounds_good", steps=())


class TestOnePass:
    """A verification pass checks each distinct step text once."""

    @staticmethod
    def report():
        report = Report("test")
        report.certificates = [
            Certificate("no_verdict", (
                Step("false", "cite", "1 >= 2"),
                Step("true", "cite", "1/2 + 1/2 == 1"),
                Step("undefined", "cite", "1/0 == 1"),
            )),
            Certificate("no_verdict", (
                Step("true-again", "cite", "1/2 + 1/2 == 1"),
                Step("qualitative", "cite", None),
                Step("false-again", "cite", "1 >= 2"),
                Step("undefined-again", "cite", "1/0 == 1"),
            )),
        ]
        return report

    def test_repeated_failures_reported_at_every_step(self):
        report = self.report()
        alone = [f for cert in report.certificates for f in verify_certificate(cert)]
        assert report.self_verify() == alone
        assert alone == [
            "step 0 (false): arithmetic is false: 1 >= 2",
            "step 2 (undefined): division by zero",
            "step 2 (false-again): arithmetic is false: 1 >= 2",
            "step 3 (undefined-again): division by zero",
        ]

    def test_each_distinct_text_once_per_pass(self, monkeypatch):
        texts = []

        def counting(text):
            texts.append(text)
            return check_arithmetic(text)

        monkeypatch.setattr(certificates, "check_arithmetic", counting)
        report = self.report()
        distinct = ["1 >= 2", "1/2 + 1/2 == 1", "1/0 == 1"]
        first = report.self_verify()
        assert texts == distinct
        assert report.self_verify() == first
        assert texts == distinct + distinct
