"""Connected sums, fiber sums, log transforms, universal covers."""

import random

import pytest
from hypothesis import given, strategies as st

from fourcalc.errors import MissingCapability, UnsupportedPattern
from fourcalc.evaluate import eval_invariants, evaluate
from fourcalc.expr import (
    ConnectedSum,
    CyclicCover,
    DivisorClass,
    FiberSum,
    LogTransform,
    Primitive,
    connected_sum_of,
)
from fourcalc.flags import NO, YES, GroupLabel
from fourcalc.surgery import gompf_sum_blueprint, universal_cover

CP2 = Primitive("CP2")
CP2B = Primitive("CP2b")
S2XS2 = Primitive("S2xS2")
K3 = Primitive("K3")
E2 = Primitive("E", (2,))
OCTIC = CyclicCover("CP2", 2, DivisorClass("CP2", (8,)))

PART_POOL = [CP2, CP2B, S2XS2, K3, Primitive("S1xS3"), Primitive("E", (3,)), OCTIC]


class TestConnectedSum:
    def test_planes(self):
        rec = eval_invariants(connected_sum_of((CP2, 1), (CP2B, 1)))
        assert (rec.chi, rec.tau) == (4, 0)

    def test_obstruction_sum(self):
        expr = connected_sum_of((OCTIC, 1), (CP2B, 1), (Primitive("Sd", (2,)), 1))
        rec = eval_invariants(expr)
        assert (rec.chi, rec.tau, rec.b2plus) == (47, -31, 7)

    def test_plane_sum_closed_form(self):
        # chi = 2 + a + b and tau = a - b for a CP2 # b CP2b.
        for a, b in ((15, 77), (23, 116), (1, 1), (3, 5)):
            rec = eval_invariants(connected_sum_of((CP2, a), (CP2B, b)))
            assert (rec.chi, rec.tau) == (2 + a + b, a - b)
        rec = eval_invariants(connected_sum_of((CP2, 15), (CP2B, 77)))
        assert rec.c1sq == 2

    def test_spin_and_parity_transport(self):
        spin_sum = connected_sum_of((K3, 2), (S2XS2, 3))
        flags = evaluate(spin_sum).flags
        assert flags.spin is YES and flags.pi1.is_trivial
        mixed = connected_sum_of((K3, 1), (CP2B, 1))
        assert evaluate(mixed).flags.spin is NO

    def test_pi1_single_nontrivial_factor(self):
        expr = connected_sum_of((OCTIC, 1), (Primitive("Sd", (3,)), 1))
        assert evaluate(expr).flags.pi1 == GroupLabel.cyclic(3)
        two = connected_sum_of((Primitive("Sd", (3,)), 2))
        assert evaluate(two).flags.pi1.kind == "presented"

    def test_unknown_b1_part_makes_b1_unknown(self):
        # A fiber sum of two non-simply-connected blocks has unknown pi1
        # and b1; every sum containing it inherits the unknown b1.
        torus_sum = FiberSum(Primitive("FgProd", (1, 1)), Primitive("FgProd", (1, 1)), 1)
        inner = eval_invariants(torus_sum)
        assert inner.b1 is None
        rec = eval_invariants(connected_sum_of((torus_sum, 1), (CP2, 2)))
        assert rec.b1 is None and rec.b2 is None
        assert (rec.chi, rec.tau) == (inner.chi + 2, inner.tau + 2)
        rec = eval_invariants(connected_sum_of((Primitive("S1xS3"), 1), (torus_sum, 1)))
        assert rec.b1 is None and (rec.chi, rec.tau) == (inner.chi - 2, inner.tau)

    def test_fold_order_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            parts = [(rng.choice(PART_POOL), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
            rec = eval_invariants(connected_sum_of(*parts))
            # Pairwise folding oracle in shuffled order.
            flat = [p for p, m in parts for _ in range(m)]
            rng.shuffle(flat)
            chi, tau = evaluate(flat[0]).record.chi, evaluate(flat[0]).record.tau
            for part in flat[1:]:
                sub = evaluate(part).record
                chi = chi + sub.chi - 2
                tau = tau + sub.tau
            assert (rec.chi, rec.tau) == (chi, tau)


class TestFiberSum:
    def test_elliptic_additivity(self):
        sum_expr = FiberSum(Primitive("E", (1,)), Primitive("E", (1,)), 1)
        assert eval_invariants(sum_expr).chi == 24 == eval_invariants(Primitive("E", (2,))).chi

    def test_gompf_blueprint_matches_registry(self):
        # Chains of 602 and 2,002 fiber sums print and evaluate at the
        # default recursion limit.
        for k in (1, 2, 300, 1000):
            blueprint = gompf_sum_blueprint(k)
            assert str(blueprint).count("fibersum(") == 2 * k + 2
            rec = eval_invariants(blueprint)
            registry = eval_invariants(Primitive("Xk", (k,)))
            assert (rec.chi, rec.tau) == (registry.chi, registry.tau) == (52 * k + 48, -32 * (k + 1))

    def test_genus_two_offset(self):
        left = Primitive("E", (4,))
        right = Primitive("Xk", (1,))
        rec = eval_invariants(FiberSum(left, right, 2))
        base = eval_invariants(left).chi + eval_invariants(right).chi
        assert rec.chi == base + 4  # -2 chi(Sigma_2) = +4

    def test_missing_capability(self):
        with pytest.raises(MissingCapability):
            evaluate(FiberSum(CP2, Primitive("E", (2,)), 1))
        with pytest.raises(MissingCapability):
            evaluate(FiberSum(Primitive("E", (2,)), Primitive("E", (2,)), 2))

    def test_symplectic_and_spin_transport(self):
        expr = FiberSum(Primitive("E", (2,)), Primitive("E", (2,)), 1)
        flags = evaluate(expr).flags
        assert flags.spin is YES and flags.symplectic is YES

    def test_group_block_pi1_absorption(self):
        chain = FiberSum(Primitive("XG", (24, -16, "Q8")), Primitive("E", (2,)), 1)
        assert str(evaluate(chain).flags.pi1) == "Q8"

    def test_torus_sum_commutes_with_sum_bookkeeping(self):
        # Along tori chi and tau are strictly additive, so interleaving
        # fiber sums with connected-sum accounting gives the same totals.
        torus_sum = FiberSum(Primitive("E", (2,)), Primitive("E", (2,)), 1)
        chain = connected_sum_of((torus_sum, 1), (CP2B, 4))
        rec = eval_invariants(chain)
        e2 = eval_invariants(Primitive("E", (2,)))
        bar = eval_invariants(CP2B)
        assert rec.chi == 2 * e2.chi + 4 * bar.chi - 2 * 4
        assert rec.tau == 2 * e2.tau + 4 * bar.tau


class TestLogTransform:
    def test_multiplicity_one_is_identity(self):
        assert evaluate(LogTransform(E2, 1)) is evaluate(E2)

    def test_invariants_unchanged(self):
        base = eval_invariants(E2)
        for j in (2, 3, 7):
            rec = eval_invariants(LogTransform(E2, j))
            assert (rec.chi, rec.tau) == (base.chi, base.tau)
            assert (rec.b2plus, rec.b2minus) == (3, 19)

    def test_labels_distinguish_structures(self):
        a = evaluate(LogTransform(E2, 3)).labels
        b = evaluate(LogTransform(E2, 5)).labels
        assert a != b

    def test_sw_flag_preserved(self):
        flags = evaluate(LogTransform(E2, 4)).flags
        assert flags.sw_nontrivial is YES

    def test_requires_elliptic_fiber(self):
        with pytest.raises(MissingCapability):
            evaluate(LogTransform(CP2, 2))


class TestUniversalCover:
    def test_homology_sphere(self):
        assert universal_cover(Primitive("Sd", (2,))) == S2XS2
        cover = universal_cover(Primitive("Sd", (4,)))
        assert cover == ConnectedSum(((S2XS2, 3),))

    @pytest.mark.parametrize("d", [2, 3])
    def test_homology_sphere_alone_and_beside_k3(self, d):
        sphere = Primitive("Sd", (d,))
        assert universal_cover(sphere) == connected_sum_of((S2XS2, d - 1))
        cover = universal_cover(connected_sum_of((sphere, 1), (K3, 1)))
        assert cover == ConnectedSum(((K3, d), (S2XS2, d - 1)))

    def test_trivial_group_identity(self):
        assert universal_cover(K3) == K3

    def test_obstruction_sum_expansion(self):
        expr = connected_sum_of((OCTIC, 1), (CP2B, 1), (Primitive("Sd", (2,)), 1))
        cover = universal_cover(expr)
        assert cover == connected_sum_of((OCTIC, 2), (CP2B, 2), (S2XS2, 1))

    def test_quotient_pattern(self):
        from fourcalc.expr import BicyclicCover, Quotient

        inner = BicyclicCover(3, 2, 3, 3, 3, 3)
        assert universal_cover(Quotient(inner, 3)) == inner

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 3))
    def test_multiplicativity(self, d, block_mult, bars):
        expr = connected_sum_of(
            (K3, block_mult), (CP2B, bars) if bars else (K3, block_mult),
            (Primitive("Sd", (d,)), 1),
        )
        cover = universal_cover(expr)
        base, lifted = eval_invariants(expr), eval_invariants(cover)
        assert (lifted.chi, lifted.tau) == (d * base.chi, d * base.tau)

    def test_unsupported_patterns(self):
        with pytest.raises(UnsupportedPattern):
            universal_cover(Primitive("S1xS3"))
        two_spheres = connected_sum_of(
            (Primitive("Sd", (2,)), 1), (Primitive("Sd", (3,)), 1)
        )
        with pytest.raises(UnsupportedPattern):
            universal_cover(two_spheres)
