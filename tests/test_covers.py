"""Branched-cover formulas, admissibility and quotient arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from fourcalc import covers
from fourcalc.errors import AdmissibilityFail, NonDivisibleBranch, NonIntegralQuotient
from fourcalc.evaluate import eval_invariants, evaluate
from fourcalc.expr import BicyclicCover, CyclicCover, DivisorClass, Quotient
from fourcalc.invariants import InvariantRecord

QUADRIC = "CP1xCP1"


class TestBranchCurveEuler:
    def test_bidegree_two_two_is_torus(self):
        assert covers.branch_curve_euler(DivisorClass(QUADRIC, (2, 2))) == 0

    def test_matches_general_formula(self):
        # chi = 2d((a+b) - d a b) for a bidegree (da, db) curve.
        for d in range(1, 5):
            for a in range(1, 4):
                for b in range(1, 4):
                    cls = DivisorClass(QUADRIC, (d * a, d * b))
                    assert covers.branch_curve_euler(cls) == 2 * d * ((a + b) - d * a * b)

    def test_plane_octic(self):
        # Genus formula oracle: g = (k-1)(k-2)/2, chi = 2 - 2g.
        k = 8
        genus = (k - 1) * (k - 2) // 2
        assert covers.branch_curve_euler(DivisorClass("CP2", (k,))) == 2 - 2 * genus == -40
        # Cross-check by back-solving c2 of the double plane: 2*3 + 40 = 46.
        rec = eval_invariants(CyclicCover("CP2", 2, DivisorClass("CP2", (8,))))
        assert rec.c2 == 2 * 3 - (2 - 1) * (-40) == 46


class TestCyclicCover:
    def test_octic_double_plane(self):
        rec = covers.cyclic_cover_invariants(
            covers.BASES["CP2"].entry.record, covers.BASES["CP2"].c1, 2, DivisorClass("CP2", (4,))
        )
        assert (rec.c2, rec.c1sq, rec.tau) == (46, 2, -30)

    def test_degree_one_is_identity(self):
        base = covers.BASES[QUADRIC].entry.record
        rec = covers.cyclic_cover_invariants(
            base, covers.BASES[QUADRIC].c1, 1, DivisorClass(QUADRIC, (3, 2))
        )
        assert rec == base

    def test_quadric_double_cover(self):
        rec = covers.cyclic_cover_invariants(
            covers.BASES[QUADRIC].entry.record,
            covers.BASES[QUADRIC].c1,
            2,
            DivisorClass(QUADRIC, (1, 1)),
        )
        # Hand evaluation: chi(D) = 0, c2 = 2*4 - 0 = 8; c1^2 = 2*(1,1)^2 = 4.
        assert (rec.c2, rec.c1sq) == (8, 4)


class TestBicyclic:
    def test_degenerate_is_quadric(self):
        rec = covers.bicyclic_invariants(1, 1, 3, 1, 2, 5)
        assert (rec.c1sq, rec.c2) == (8, 4)

    def test_smallest_double_double(self):
        rec = covers.bicyclic_invariants(2, 2, 1, 1, 1, 1)
        assert (rec.c1sq, rec.c2, rec.tau) == (0, 24, -16)

    def test_quotient_family_cover(self):
        rec = covers.bicyclic_invariants(3, 2, 3, 3, 3, 3)
        assert rec.c1sq == 588
        assert covers.quotient_invariants(rec, 3).c1sq == 196

    @given(
        st.integers(1, 4), st.integers(1, 4),
        st.integers(1, 3), st.integers(1, 3),
        st.integers(1, 3), st.integers(1, 3),
    )
    def test_commutativity(self, d, p, a, b, m, n):
        # Swapping the two covers swaps (d,a,b) with (p,m,n).
        first = covers.bicyclic_invariants(d, p, a, b, m, n)
        second = covers.bicyclic_invariants(p, d, m, n, a, b)
        assert first == second

    def test_two_signature_routes_agree(self):
        for params in ((2, 2, 1, 1, 1, 1), (3, 2, 3, 3, 3, 3), (4, 3, 2, 1, 3, 2)):
            rec = covers.bicyclic_invariants(*params)
            b2p, b2m = rec.b2plus, rec.b2minus
            assert b2p - b2m == rec.tau == Fraction(rec.c1sq - 2 * rec.c2, 3)


class TestAdmissibility:
    def test_standard_pass(self):
        assert covers.action_admissibility(3, 3, 3, "standard") == ()

    def test_standard_parity_clash(self):
        result = covers.action_admissibility(2, 1, 2, "standard")
        assert result == ("gcd(a+1=2, d=2) = 2", "gcd(a+b+1=4, d=2) = 2")

    def test_weighted_pass(self):
        assert covers.action_admissibility(4, 2, 1, "weighted") == ()

    def test_brute_force_table(self):
        for d in range(2, 8):
            for a in range(1, 8):
                for b in range(1, 8):
                    std = covers.action_admissibility(d, a, b, "standard")
                    assert (not std) == all(
                        gcd(v, d) == 1 for v in (a + 1, b + 1, a + b + 1)
                    )
                    wtd = covers.action_admissibility(d, a, b, "weighted")
                    assert (not wtd) == all(
                        gcd(v, d) == 1 for v in (a + 1, 2 * b + 1, a + 2 * b + 1)
                    )


class TestQuotient:
    def test_identity(self):
        rec = InvariantRecord(46, -30, 0)
        assert covers.quotient_invariants(rec, 1) == rec

    def test_quotient_family_chi_h(self):
        cover = covers.bicyclic_invariants(3, 2, 3, 3, 3, 3)
        quotient = covers.quotient_invariants(cover, 3)
        assert quotient.chi_h == Fraction(quotient.c1sq + quotient.c2, 12) == 41

    def test_non_divisible_rejected(self):
        with pytest.raises(NonIntegralQuotient):
            covers.quotient_invariants(InvariantRecord(46, -30, 0), 4)

    def test_non_integral_chi_h_rejected(self):
        # chi, tau divide but (chi + tau)/4 does not stay integral.
        with pytest.raises(NonIntegralQuotient):
            covers.quotient_invariants(InvariantRecord(756, -344, 0), 2)

    def test_expr_level_admissibility_gate(self):
        good = Quotient(BicyclicCover(3, 2, 3, 3, 3, 3), 3)
        assert eval_invariants(good).c1sq == 196
        with pytest.raises(AdmissibilityFail):
            evaluate(Quotient(BicyclicCover(2, 2, 1, 2, 1, 1), 2))

    def test_second_branch_must_be_invariant(self):
        # The gcd conditions hold for (a, b) = (3, 3) and d = 3, but the
        # second branch O(2,2) has no Z/3-invariant smooth section.
        assert covers.action_admissibility(3, 3, 3) == ()
        with pytest.raises(AdmissibilityFail) as err:
            evaluate(Quotient(BicyclicCover(3, 2, 3, 3, 1, 1), 3))
        assert str(err.value) == "second branch O(2,2) is not invariant under Z/3"

    def test_quotient_consistency(self):
        inner = BicyclicCover(3, 2, 3, 3, 3, 3)
        quotient = Quotient(inner, 3)
        cover_rec = eval_invariants(inner)
        quo_rec = eval_invariants(quotient)
        assert (cover_rec.chi, cover_rec.tau) == (3 * quo_rec.chi, 3 * quo_rec.tau)
        assert (cover_rec.c1sq, cover_rec.c2) == (3 * quo_rec.c1sq, 3 * quo_rec.c2)

    def test_single_cover_quotient(self):
        cover = CyclicCover("CP1xCP1", 3, DivisorClass("CP1xCP1", (9, 9)))
        cover_rec = eval_invariants(cover)
        assert (cover_rec.c2, cover_rec.c1sq) == (264, 96)
        quo_rec = eval_invariants(Quotient(cover, 3))
        assert (quo_rec.chi, quo_rec.tau, quo_rec.chi_h) == (88, -48, 10)


class TestAmpleness:
    def test_boundary_false(self):
        assert not covers.ample_canonical(2, 2, 1, 1, 1, 1)

    def test_family_parameters(self):
        assert covers.ample_canonical(3, 2, 3, 3, 3, 3)

    def test_single_cover_ampleness(self):
        assert covers.cyclic_cover_ample("CP2", 2, DivisorClass("CP2", (4,)))
        assert not covers.cyclic_cover_ample("CP2", 2, DivisorClass("CP2", (3,)))


class TestConstructibility:
    def test_branch_must_be_divisible(self):
        CyclicCover("CP2", 2, DivisorClass("CP2", (8,)))
        with pytest.raises(NonDivisibleBranch):
            CyclicCover("CP2", 2, DivisorClass("CP2", (7,)))
        with pytest.raises(NonDivisibleBranch):
            CyclicCover("CP1xCP1", 3, DivisorClass("CP1xCP1", (3, 4)))


DEGREE = st.integers(0, 60)


@given(st.tuples(DEGREE, DEGREE), st.tuples(DEGREE, DEGREE), st.integers(1, 8))
def test_generic_cover_formulas_match_the_per_base_closed_forms(x, y, d):
    # The per-base formulas the table replaced, kept as the oracle: on CP2
    # genus (k-1)(k-2)/2 and pairing k k'; on the quadric genus
    # (p-1)(q-1) and pairing p q' + q p'.
    (p, q), (p2, q2) = x, y
    k, k2 = p, p2
    assert covers.pairing("CP2", (k,), (k2,)) == k * k2
    assert covers.pairing(QUADRIC, (p, q), (p2, q2)) == p * q2 + q * p2
    assert covers.branch_curve_euler(DivisorClass("CP2", (k,))) == 2 - (k - 1) * (k - 2)
    assert covers.branch_curve_euler(DivisorClass(QUADRIC, (p, q))) == 2 - 2 * (p - 1) * (q - 1)
    assert covers.cyclic_cover_ample("CP2", d, DivisorClass("CP2", (k,))) == ((d - 1) * k > 3)
    assert covers.cyclic_cover_ample(QUADRIC, d, DivisorClass(QUADRIC, (p, q))) == (
        (d - 1) * p > 2 and (d - 1) * q > 2
    )
