"""The certificate arithmetic checker is exact and independent."""

import json

import pytest

from fourcalc.certificates import (
    Certificate,
    CertificateError,
    Step,
    check_arithmetic,
    verify_certificate,
)


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
