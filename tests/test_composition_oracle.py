"""Composition oracle: the bi-cyclic closed forms must agree exactly with
composing the two cyclic-cover steps on every small parameter tuple.

This sweep also adjudicates the printed-formula discrepancy for the
quotient invariants: the variant carrying a doubled cross term is
refuted by the very first case it touches.
"""

from itertools import product

from fourcalc import covers
from fourcalc.expr import DivisorClass
from fourcalc.invariants import InvariantRecord

QUADRIC = "CP1xCP1"


def proper_transform_euler(d: int, chi_d: int, c_dot_d: int) -> int:
    """Euler characteristic of the proper transform of the second branch
    curve inside the first cover: d*chi(D) - (d-1)(C.D)."""
    return d * chi_d - (d - 1) * c_dot_d


def two_step_composition(d, p, a, b, m, n) -> InvariantRecord:
    """Cover along (da, db) first, then along the proper transform of the
    (pm, pn) curve, using only the single-cover operations."""
    step_one = covers.cyclic_cover_invariants(
        covers.BASES[QUADRIC].entry.record,
        covers.BASES[QUADRIC].c1,
        d,
        DivisorClass(QUADRIC, (a, b)),
    )
    chi_d = covers.branch_curve_euler(DivisorClass(QUADRIC, (p * m, p * n)))
    c_dot_d = covers.pairing(QUADRIC, (d * a, d * b), (p * m, p * n))
    chi_transform = proper_transform_euler(d, chi_d, c_dot_d)
    c2 = p * step_one.c2 - (p - 1) * chi_transform
    # The second cover's classes are pullbacks from the quadric, so their
    # self-intersections scale by the first cover's degree d.
    shifted = (2 - (d - 1) * a - (p - 1) * m, 2 - (d - 1) * b - (p - 1) * n)
    c1sq = p * d * covers.self_intersection(QUADRIC, shifted)
    assert (c1sq - 2 * c2) % 3 == 0
    return InvariantRecord(chi=c2, tau=(c1sq - 2 * c2) // 3, b1=0)


class TestProperTransform:
    def test_degree_one(self):
        assert proper_transform_euler(1, -7, 100) == -7

    def test_direct_substitution(self):
        # C = D = (2,2): C.D = 2*2 + 2*2 = 8, chi(D) = 0.
        c_dot_d = covers.pairing(QUADRIC, (2, 2), (2, 2))
        assert c_dot_d == 8
        assert proper_transform_euler(2, 0, 8) == -8

    def test_symbolic_form(self):
        # p d (2(m+n-pmn) - (d-1)(an+bm)) at (d,p,a,b,m,n) = (2,2,1,1,1,1).
        d, p, a, b, m, n = 2, 2, 1, 1, 1, 1
        chi_d = covers.branch_curve_euler(DivisorClass(QUADRIC, (p * m, p * n)))
        c_dot_d = covers.pairing(QUADRIC, (d * a, d * b), (p * m, p * n))
        value = proper_transform_euler(d, chi_d, c_dot_d)
        assert value == p * d * (2 * (m + n - p * m * n) - (d - 1) * (a * n + b * m))
        assert value == -8


def doubled_cross_term_c2(d, p, a, b, m, n) -> int:
    """The refuted printed variant with cross term 2 (p-1)(d-1)(an + bm)."""
    return p * d * (
        4
        - 2 * (d - 1) * (a + b - d * a * b)
        - 2 * (p - 1) * (m + n - p * m * n)
        + 2 * (p - 1) * (d - 1) * (a * n + b * m)
    )


def test_composition_oracle_full_sweep():
    cases = 0
    for d, p, a, b, m, n in product(
        range(1, 5), range(1, 5), range(1, 4), range(1, 4), range(1, 4), range(1, 4)
    ):
        closed = covers.bicyclic_invariants(d, p, a, b, m, n)
        composed = two_step_composition(d, p, a, b, m, n)
        assert closed == composed, (d, p, a, b, m, n)
        cases += 1
    assert cases == 4 * 4 * 3 * 3 * 3 * 3  # 1296 exact agreements


def test_doubled_cross_term_is_refuted():
    # The oracle confirms the single cross-term formula; the doubled
    # variant disagrees whenever both covers are nontrivial.
    witness = (2, 2, 1, 1, 1, 1)
    assert two_step_composition(*witness).c2 == 24
    assert doubled_cross_term_c2(*witness) == 32
    agree = refute = 0
    for d, p, a, b, m, n in product(
        range(1, 5), range(1, 5), range(1, 3), range(1, 3), range(1, 3), range(1, 3)
    ):
        truth = two_step_composition(d, p, a, b, m, n).c2
        alt = doubled_cross_term_c2(d, p, a, b, m, n)
        if alt == truth:
            agree += 1
            assert d == 1 or p == 1  # the variants coincide only degenerately
        else:
            refute += 1
    assert refute > 0
