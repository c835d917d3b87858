"""Derived-invariant bookkeeping on exact records."""

from fractions import Fraction

from hypothesis import given, strategies as st

from fourcalc.invariants import (
    InvariantRecord,
    connected_sum_record,
    rohlin_compatible,
)


def test_chern_identities():
    rec = InvariantRecord(46, -30, 0)
    assert rec.c1sq == 2 * 46 + 3 * (-30) == 2
    assert rec.c2 == 46
    assert rec.chi_h == Fraction(46 - 30, 4) == 4
    assert rec.chi_h == Fraction(rec.c1sq + rec.c2, 12)


def test_betti_from_octic_cover_values():
    rec = InvariantRecord(46, -30, 0)
    assert (rec.b2plus, rec.b2minus) == (7, 37)


def test_betti_quadric():
    rec = InvariantRecord(4, 0, 0)
    assert (rec.b2plus, rec.b2minus) == (1, 1)


def test_betti_elliptic_family_oracle():
    # Direct substitution into b2 = chi - 2 + 2 b1 and b2+- = (b2 +- tau)/2.
    for n in range(1, 11):
        chi, tau = 12 * n, -8 * n
        b2 = chi - 2
        expected_plus = Fraction(b2 + tau, 2)
        rec = InvariantRecord(chi, tau, 0)
        assert rec.b2plus == expected_plus == 2 * n - 1
        assert rec.b2minus == Fraction(b2 - tau, 2) == 10 * n - 1


def test_betti_b1_positive():
    rec = InvariantRecord(0, 0, 1)  # S1 x S3
    assert rec.b2 == 0
    assert (rec.b2plus, rec.b2minus) == (0, 0)


def test_betti_unknown_b1_rejected():
    # Without b1 there is no b2, so b2+ and b2- are not derived.
    rec = InvariantRecord(10, 2, None)
    assert rec.b2 is None
    assert rec.b2plus is None and rec.b2minus is None


def test_rohlin_compatibility():
    assert rohlin_compatible(-16)
    # Rohlin's theorem has no b1 hypothesis: tau = -30 rules out spin for
    # (46, -30, 1) as much as for (46, -30, 0).
    assert not rohlin_compatible(-30)


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
