"""Derived-invariant bookkeeping on exact records."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fourcalc.invariants import (
    InvariantRecord,
    connected_sum_record,
    derive_betti,
    rohlin_compatible,
)


def test_chern_identities():
    rec = InvariantRecord(46, -30, 0)
    assert rec.c1sq == 2 * 46 + 3 * (-30) == 2
    assert rec.c2 == 46
    assert rec.chi_h == Fraction(46 - 30, 4) == 4
    assert rec.chi_h == Fraction(rec.c1sq + rec.c2, 12)


def test_betti_from_octic_cover_values():
    b2p, b2m, warnings = derive_betti(InvariantRecord(46, -30, 0))
    assert (b2p, b2m) == (7, 37)
    assert warnings == []


def test_betti_quadric():
    b2p, b2m, _ = derive_betti(InvariantRecord(4, 0, 0))
    assert (b2p, b2m) == (1, 1)


def test_betti_elliptic_family_oracle():
    # Direct substitution into b2 = chi - 2 + 2 b1 and b2+- = (b2 +- tau)/2.
    for n in range(1, 11):
        chi, tau = 12 * n, -8 * n
        b2 = chi - 2
        expected_plus = Fraction(b2 + tau, 2)
        b2p, b2m, _ = derive_betti(InvariantRecord(chi, tau, 0))
        assert b2p == expected_plus == 2 * n - 1
        assert b2m == Fraction(b2 - tau, 2) == 10 * n - 1


def test_betti_nonintegral_warns_not_raises():
    b2p, b2m, warnings = derive_betti(InvariantRecord(213, -106, 0))
    assert b2p.denominator == 2
    assert any("non-integral" in w for w in warnings)


def test_betti_b1_positive():
    rec = InvariantRecord(0, 0, 1)  # S1 x S3
    assert rec.b2 == 0
    b2p, b2m, _ = derive_betti(rec)
    assert (b2p, b2m) == (0, 0)


def test_betti_unknown_b1_rejected():
    with pytest.raises(ValueError):
        derive_betti(InvariantRecord(10, 2, None))


def test_rohlin_compatibility():
    assert rohlin_compatible(24, -16, 0)
    assert not rohlin_compatible(46, -30, 0)
    assert rohlin_compatible(46, -30, 1)  # b1 > 0: no constraint imposed


def test_connected_sum_record():
    k3, cp2b, s1s3 = InvariantRecord(24, -16, 0), InvariantRecord(3, -1, 0), InvariantRecord(0, 0, 1)
    # chi adds with -2 per neck; tau and b1 add.
    assert connected_sum_record([(k3, 2), (cp2b, 3), (s1s3, 1)]) == InvariantRecord(47, -35, 1)
    assert connected_sum_record([(k3, 1)]) == k3
    unknown = InvariantRecord(3, 1, None)
    assert connected_sum_record([(s1s3, 1), (unknown, 2)]).b1 is None
    assert connected_sum_record([(unknown, 1), (s1s3, 1)]).b1 is None


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(0, 10))
def test_signature_splits_exactly(chi, tau, b1):
    rec = InvariantRecord(chi, tau, b1)
    assert rec.b2plus - rec.b2minus == tau
    assert rec.b2plus + rec.b2minus == rec.b2
    assert rec.chi_h == Fraction(rec.c1sq + rec.c2, 12)


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 20))
def test_cover_scaling(chi, tau, d):
    rec = InvariantRecord(chi, tau, 0)
    scaled = rec.scaled(d)
    assert (scaled.chi, scaled.tau) == (d * chi, d * tau)
    assert scaled.c1sq == d * rec.c1sq
