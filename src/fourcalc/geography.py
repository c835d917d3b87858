"""Lattice-region enumeration and the named manifold families.

Every family generator returns a :class:`FamilyBlueprint`: a quotient
expression with finite cyclic (or prescribed) fundamental group, its
universal-cover expression, the quotient's record, pre-verified
certificates and, where the cover is a canonical sum, its normal form.
Reports read each number from the one of these that states it.
Enumerators are deterministic (lexicographic order) and all
comparisons are exact: the region predicates compare integers, each
inequality multiplied through by its positive denominators.

The free-action region checks every point's numbers exactly
(``quotient_arithmetic``) and builds one oracle blueprint per class
(d, n mod 2d), which proves what rests on flags and rewrite rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from fourcalc.config import N1, WALL_N0, eps_prime_of
from fourcalc.certificates import Certificate
from fourcalc.covers import action_admissibility, ample_canonical
from fourcalc.errors import BadP, BadParity, InfeasiblePoint
from fourcalc.evaluate import evaluate
from fourcalc.expr import (
    BicyclicCover,
    FiberSum,
    LogTransform,
    ManifoldExpr,
    Primitive,
    Quotient,
    connected_sum_of,
)
from fourcalc.invariants import InvariantRecord, connected_sum_record
from fourcalc.obstruction import hitchin_thorpe, homeo_equal, lebrun_einstein, spin_einstein
from fourcalc.registry import instantiate
from fourcalc.rewrite import CP2, CP2B, NormalizeResult, normalize
from fourcalc.surgery import universal_cover

CITE_GEOGRAPHY = (
    "every lattice point under the slope-(9 - eps) line is realized by "
    "infinitely many ACD minimal symplectic manifolds"
)


@dataclass(frozen=True)
class GeographyQuery:
    """A free-action region: the degree d, eps, c(eps') and the (NMAX, MMAX) bounds."""

    d: int
    epsilon: Fraction
    c_of_eps: Fraction
    bounds: tuple[int, int]

    def __post_init__(self):
        if self.d < 2:
            raise InfeasiblePoint("free actions need d >= 2")
        if self.epsilon <= 0 or self.c_of_eps <= 0:
            raise InfeasiblePoint("epsilon and c(eps') must be positive")

    @property
    def eps_prime(self) -> Fraction:
        return eps_prime_of(self.epsilon)

    @property
    def n_of_eps(self) -> Fraction:
        # Derived, never stored: N(eps) = (2d/3)(c(eps') + 1).
        return Fraction(2 * self.d, 3) * (self.c_of_eps + 1)


@dataclass(frozen=True)
class FamilyBlueprint:
    """A family member: quotient and cover, the quotient's record, its
    certificates (Hitchin-Thorpe first, the Einstein obstruction last
    where the family has one) and the cover's normal form, where it is
    a canonical sum."""

    quotient: ManifoldExpr
    cover: ManifoldExpr
    quotient_record: InvariantRecord
    certificates: tuple[Certificate, ...]
    cover_normal_form: Optional[NormalizeResult] = None


def _build_blueprint(
    quotient: ManifoldExpr,
    cover: ManifoldExpr,
    certificates: tuple[Certificate, ...],
    cover_sum: Optional[ManifoldExpr] = None,
) -> FamilyBlueprint:
    """A family member's blueprint: the evaluated quotient record, its
    Hitchin-Thorpe certificate (asserted to hold) before ``certificates``
    and, given the canonical sum ``cover_sum``, the cover's normal form,
    asserted to be that sum.  ``universal_cover`` or ``Quotient``
    evaluation already tied the cover's record to the quotient's by the
    factor d."""
    quotient_record = evaluate(quotient).record
    ht = hitchin_thorpe(quotient_record, inputs={"expr": str(quotient)})
    assert ht.verdict == "hitchin_thorpe_ok", f"Hitchin-Thorpe fails on {quotient}"
    nf = None
    if cover_sum is not None:
        nf = normalize(cover)
        assert nf.canonical and nf.expr == cover_sum, f"cover normal form {nf.expr} != {cover_sum}"
    return FamilyBlueprint(
        quotient=quotient,
        cover=cover,
        quotient_record=quotient_record,
        certificates=(ht, *certificates),
        cover_normal_form=nf,
    )


def bk_columns(eps_prime: Fraction, c: Fraction, bounds: tuple[int, int]) -> list[tuple[int, int]]:
    """The region 0 < y <= (9 - eps') x - c inside the bounds, as columns
    (x, top): the column at x holds y = 1..top.  Each top is one exact
    floor, clipped at YMAX; columns with no point are left out, and the
    walk starts at the first column with one."""
    if eps_prime <= 0 or c <= 0:
        raise InfeasiblePoint("eps' and c must be positive")
    x_max, y_max = bounds
    slope = 9 - eps_prime
    if y_max < 1 or slope <= 0:
        return []
    # top >= 1 exactly when slope x - c >= 1, so from this x on.
    first = max(1, math.ceil((1 + c) / slope))
    return [(x, min(y_max, math.floor(slope * x - c))) for x in range(first, x_max + 1)]


def bk_region(eps_prime: Fraction, c: Fraction, bounds: tuple[int, int]) -> list[tuple[int, int]]:
    """The integer points (x, y) of ``bk_columns``, column by column."""
    columns = bk_columns(eps_prime, c, bounds)
    return [(x, y) for x, top in columns for y in range(1, top + 1)]


def bk_contains(eps_prime: Fraction, c: Fraction, x: int, y: int) -> bool:
    """0 < y <= (9 - eps') x - c, with both sides times the denominators
    of eps' and c."""
    (e_num, e_den), (c_num, c_den) = eps_prime.as_integer_ratio(), c.as_integer_ratio()
    return 0 < y and y * e_den * c_den <= (9 * e_den - e_num) * c_den * x - c_num * e_den


@dataclass(frozen=True)
class FreeActionPoint:
    """An admissible point (n, m) of a free-action region, its k and its verdict."""

    n: int
    m: int
    k: int
    verdict: str


def region_lattice_points(query: GeographyQuery) -> Iterator[tuple[int, int]]:
    """The lattice points (n, m) with d | n, d | m, n > 0 and
    n < (6 - eps) m - N(eps) inside the bounds, n-major.

    Every point also satisfies the chained inequality
    3n/2d + 1 < (9 - eps') m/d - c(eps'), which is what makes the
    symplectic block exist; it is asserted per point, in integers.
    """
    d = query.d
    n_max, m_max = query.bounds
    eps_prime, c_of_eps, n_of_eps = query.eps_prime, query.c_of_eps, query.n_of_eps
    six_minus_eps = 6 - query.epsilon
    if six_minus_eps <= 0:
        return  # (6 - eps) m - N(eps) < 0 < n for every m
    # The chained inequality times 2d and the denominators of eps' and
    # c(eps'): n_coef n + shift < m_coef m.
    (e_num, e_den), (c_num, c_den) = eps_prime.as_integer_ratio(), c_of_eps.as_integer_ratio()
    n_coef, m_coef = 3 * e_den * c_den, 2 * (9 * e_den - e_num) * c_den
    shift = 2 * d * e_den * (c_den + c_num)
    for n in range(d, n_max + 1, d):
        # The least multiple of d with (6 - eps) m > n + N(eps); it is at
        # least d because n + N(eps) > 0.  It never decreases as n grows,
        # so the first column past MMAX ends the region.
        m_start = d * ((n + n_of_eps) // (six_minus_eps * d) + 1)
        if m_start > m_max:
            return
        lhs = n_coef * n + shift
        for m in range(m_start, m_max + 1, d):
            assert lhs < m_coef * m, f"region point ({n},{m}) fails the chained inequality"
            yield n, m


def free_action_region(query: GeographyQuery) -> list[FreeActionPoint]:
    """The points of ``region_lattice_points``, each with the verdict of
    its quotient.

    Every point passes ``quotient_arithmetic``, which asserts its numbers
    in integers.  What rests on flags and rule applicability (the
    Seiberg-Witten step of LeBrun's certificate, the universal-cover
    pattern and the normal form of the cover) is proved once per class
    n mod 2d, by ``build_quotient_blueprint`` at the class's first point;
    each point has its class's verdict.  On a class floor(3n/2d) is
    affine in n, so k and every record are affine in (n, m).
    """
    d, eps_prime, c_of_eps = query.d, query.eps_prime, query.c_of_eps
    points = []
    verdicts: dict[int, str] = {}  # n mod 2d -> verdict of the class's blueprint
    for n, m in region_lattice_points(query):
        k = quotient_arithmetic(n, m, d, eps_prime, c_of_eps).k
        verdict = verdicts.get(n % (2 * d))
        if verdict is None:
            bp = build_quotient_blueprint(n, m, d, eps_prime=eps_prime, c_of_eps=c_of_eps)
            verdict = verdicts[n % (2 * d)] = bp.certificates[-1].verdict
        points.append(FreeActionPoint(n, m, k, verdict))
    return points


class QuotientArithmetic(NamedTuple):
    block: tuple[int, int]  # (chi_h, c1sq) of the geography block
    k: int
    quotient_record: InvariantRecord
    cover_counts: tuple[int, int]  # (CP2, CP2b) of the cover's normal form


def quotient_arithmetic(
    n: int, m: int, d: int, eps_prime: Fraction, c_of_eps: Fraction
) -> QuotientArithmetic:
    """Every numeric fact of the blueprint for (n, m), in integers over
    the primitive table's records: no expression is built and nothing is
    evaluated.

    It also asserts each point-dependent predicate that the flag and
    rewrite rules read on the way to the verdict and the cover's normal
    form, so that a point whose structure could differ from its class's
    blueprint raises instead of taking the class's verdict:

    * b2+(BK) >= 1 with b1(BK) known: BK is then the one summand of
      X = BK # Sd(d) with b2+ > 0, so X keeps BK's Seiberg-Witten flag
      (``sum-with-null-pieces``), the SW step of LeBrun's certificate;
    * k >= 1: the quotient and its cover have a CP2b summand, so both,
      and every sum the rewrite passes through, are non-spin whatever
      BK's own spin flag reads;
    * d - 1 >= 1: pi1 = Z/d is nontrivial, so the universal cover is
      d BK # dk CP2b # (d-1)(S2xS2);
    * d k >= 1: the cover has the CP2b that quadric-blowup needs beside
      each S2xS2, which yields the CP2 that decompose needs beside BK.

    BK's other derived flags vary inside a class and nothing on that route
    reads them: spin (Rohlin rules it out unless tau(BK) = 0 mod 16) and
    sw_mod2_nontrivial (Taubes' rule needs b2+(BK) > 1, so not at
    chi_h = 1).  BK's declared flags are one constant, ``BK_FLAGS``.
    """
    if n <= 0:
        raise InfeasiblePoint("need n > 0 (Hitchin-Thorpe side)")
    if n % d or m % d:
        raise InfeasiblePoint(f"admissibility: d={d} must divide n={n} and m={m}")
    f = (3 * n) // (2 * d)  # inputs positive: floor = integer division
    c1sq_block, chi_h_block = f + 1, m // d
    if not bk_contains(eps_prime, c_of_eps, chi_h_block, c1sq_block):
        raise InfeasiblePoint(
            f"block (chi_h, c1sq) = ({chi_h_block}, {c1sq_block}) outside the "
            "realizable geography region"
        )
    k = f + 1 - n // d
    block = instantiate("BK", (chi_h_block, c1sq_block, 0)).record
    sphere = instantiate("Sd", (d,)).record
    assert block.b2 is not None and block.b2 + block.tau > 0, "b2+(BK) >= 1"
    assert k >= 1 and d - 1 >= 1 and d * k >= 1, f"class predicates: k={k}, d={d}"

    cp2, cp2b = (instantiate(name).record for name in ("CP2", "CP2b"))
    qrec = connected_sum_record(((block, 1), (sphere, 1), (cp2b, k)))
    assert qrec.c1sq == n // d and d * (qrec.chi + qrec.tau) == 4 * m  # chi_h = m/d
    x_c1sq = connected_sum_record(((block, 1), (sphere, 1))).c1sq
    assert x_c1sq > 0 and 3 * k >= x_c1sq, "LeBrun: positivity and blow-up excess"
    assert 3 * k > c1sq_block

    crec = qrec.scaled(d)
    counts = (2 * m - 1, 10 * m - n - 1)
    assert min(counts) >= 0
    assert crec == connected_sum_record(zip((cp2, cp2b), counts))
    assert crec.c1sq == n and crec.chi + crec.tau == 4 * m  # chi_h = m
    return QuotientArithmetic((chi_h_block, c1sq_block), k, qrec, counts)


def build_quotient_blueprint(
    n: int, m: int, d: int, eps_prime: Fraction, c_of_eps: Fraction
) -> FamilyBlueprint:
    """Blueprint for the point (n, m): a symplectic block B with
    c1^2 = floor(3n/2d) + 1 and chi_h = m/d, summed with the homology
    sphere Sd(d) and k = floor(3n/2d) + 1 - n/d copies of CP2b.

    The quotient satisfies (2 chi + 3 tau) = n/d and chi_h = m/d; its
    universal cover normalizes to (2m-1) CP2 # (10m-n-1) CP2b.  The
    numbers are ``quotient_arithmetic``'s; this adds what rests on flags
    and rules, and checks that evaluation gives the same records.
    """
    arith = quotient_arithmetic(n, m, d, eps_prime, c_of_eps)
    block = Primitive("BK", (*arith.block, 0))
    sphere = Primitive("Sd", (d,))
    quotient = connected_sum_of((block, 1), (sphere, 1), (CP2B, arith.k))
    assert evaluate(quotient).record == arith.quotient_record

    x_part = connected_sum_of((block, 1), (sphere, 1))
    cert = lebrun_einstein(x_part, arith.k, 0)
    assert cert.verdict == "einstein_obstructed"

    return _build_blueprint(
        quotient,
        universal_cover(quotient),
        certificates=(cert,),
        cover_sum=connected_sum_of(*zip((CP2, CP2B), arith.cover_counts)),
    )


def _odd_part(d: int) -> int:
    while d % 2 == 0:
        d //= 2
    return d


def printed_even_invariants(d: int, i: int) -> tuple[int, int, int]:
    """(c1sq, c2, tau) of the even-d quotient family, from the printed
    closed forms (with the odd part of d, or 3 when d is a 2-power)."""
    dd = _odd_part(d)
    if dd == 1:
        dd = 3
    c1 = 6 * (2 * (d - 1) * dd + 2 * i - 2) * ((d - 1) * dd + 2 * i - 2)
    c2 = 3 * (
        4
        - 2 * (d - 1) * (3 * dd - 2 * dd * dd * d)
        - 4 * (2 * i - 3 * i * i)
        + 3 * (d - 1) * dd * i
    )
    assert (c1 - 2 * c2) % 3 == 0
    return c1, c2, (c1 - 2 * c2) // 3


def ke_quotient_family(d: int, i: int) -> FamilyBlueprint:
    """The i-th member of the Kaehler-Einstein-admitting quotient family
    for the group Z/d: a free quotient of a bi-cyclic cover of the
    quadric, minimal of general type with ample canonical class (so
    Aubin-Yau gives a Kaehler-Einstein metric), w2-type I and odd
    intersection form, with c1^2 < 5 chi_h from the family start index
    onwards.

    Odd d: type (d, 2) covers with branch bidegrees (d^2, d^2) and
    (2di, 2di), evaluated exactly; the printed chi_h exceeds the
    evaluated value by d(d-1) (see ``ke_printed_chi_h``).  Even d: the
    dedicated type (d, 3) weighted-action generator, whose quotient
    record is imported from the printed closed forms and is formal: on
    the members sampled so far, the literal cover expression does not
    evaluate to d times those values.
    """
    if i % 2 == 0 or i < 1:
        raise BadParity("the family is indexed by odd i >= 1")
    if d < 2:
        raise InfeasiblePoint("need d >= 2")
    if d % 2 == 1:
        return _ke_family_odd(d, i)
    return _ke_family_even(d, i)


def ke_printed_chi_h(d: int, i: int) -> Fraction:
    """The printed odd-d chi_h closed form (known to exceed the evaluated
    value by exactly d(d-1); kept for reproduction reports)."""
    return (
        Fraction(d * d * (d - 1) * (2 * d - 1), 3)
        + d * (d - 1) * (d * i - 1)
        + d * d * i * i
        - 2 * d * i
        + 2
    )


def ke_corrected_chi_h(d: int, i: int) -> Fraction:
    """chi_h of the odd-d family member as forced by exact evaluation
    (the printed form with (di - 1) replaced by (di - 2))."""
    return ke_printed_chi_h(d, i) - d * (d - 1)


def ke_odd_c1sq(d: int, i: int) -> int:
    """c1^2 of the odd-d family member, as exact evaluation gives it."""
    return 4 * (d * (d - 1) + d * i - 2) ** 2


def _ke_family_odd(d: int, i: int) -> FamilyBlueprint:
    cover_expr = BicyclicCover(d, 2, d, d, d * i, d * i)
    quotient = Quotient(cover_expr, d, "standard")
    rec = evaluate(quotient).record

    assert rec.c1sq == ke_odd_c1sq(d, i)
    assert rec.chi_h == ke_corrected_chi_h(d, i)
    assert ample_canonical(d, 2, d, d, d * i, d * i)

    return _build_blueprint(quotient, cover_expr, certificates=())


def _ke_family_even(d: int, i: int) -> FamilyBlueprint:
    dd = _odd_part(d)
    a, b = (6, 3) if dd == 1 else (2 * dd, dd)
    formula_dd = 3 if dd == 1 else dd
    c1sq, c2, tau = printed_even_invariants(d, i)
    rec = InvariantRecord(chi=c2, tau=tau, b1=0)
    assert rec.c1sq == c1sq

    assert not action_admissibility(d, a, b, "weighted"), (
        "weighted-action gcd conditions hold for these degrees"
    )
    congruence = (-6 * (d - 1) * formula_dd * i) % 4
    assert tau % 4 == congruence
    assert tau % 8 != 0  # odd i: the intersection form is odd

    cover_expr = BicyclicCover(d, 3, a, b, d * i, d * i)
    return FamilyBlueprint(
        quotient=Quotient(cover_expr, d, "weighted"),
        cover=cover_expr,
        quotient_record=rec,
        certificates=(),
    )


def _ke_margin(d: int, i: int) -> Fraction:
    """5 chi_h - c1^2 of the i-th family member, up to a positive factor:
    the member has c1^2 <= 5 chi_h exactly when this is >= 0.  It is a
    quadratic in i."""
    if d % 2 == 1:
        return 5 * ke_corrected_chi_h(d, i) - ke_odd_c1sq(d, i)
    # 12 chi_h = c1^2 + c2, and both are positive for i >= 1.
    c1sq, c2, _ = printed_even_invariants(d, i)
    return Fraction(5 * (c1sq + c2) - 12 * c1sq)


def ke_family_start(d: int) -> int:
    """Least odd index from which every member up to the odd index 2001
    has c1^2 <= 5 chi_h (2003 when member 2001 has not).

    The margin of ``_ke_margin`` is a quadratic in i with a positive
    leading coefficient, so the members that fail have consecutive
    indices, below its larger root: the start is two past the last odd
    one.  The root is found exactly, in integers.
    """
    top = 2001
    m0, m1, m2 = (_ke_margin(d, i) for i in (0, 1, 2))
    a = Fraction(m2 - 2 * m1 + m0, 2)
    b = m1 - m0 - a
    assert a > 0 and _ke_margin(d, 3) == 9 * a + 3 * b + m0, "the margin is a convex quadratic"
    scale = math.lcm(a.denominator, b.denominator, m0.denominator)
    a, b, c = (int(v * scale) for v in (a, b, m0))

    def fails(i: int) -> bool:
        return (a * i + b) * i + c < 0

    disc = b * b - 4 * a * c
    if disc <= 0:
        return 1
    # The larger root rounded down, or one less: the last failing index
    # is one of these three.
    root = (math.isqrt(disc) - b) // (2 * a)
    last = next((i for i in (root + 1, root, root - 1) if fails(i)), None)
    if last is None:
        return 1
    last = min(last, top)
    last -= 1 - last % 2  # the last odd index
    return last + 2 if last >= 1 and fails(last) else 1


def exotic_partner_family(d: int, i: int, j: int) -> FamilyBlueprint:
    """The j-th exotic partner of the i-th Kaehler-Einstein quotient:
    homeomorphic to it, carrying no Einstein metric.

    Built as B # Sd(d) # k CP2b where B is a geography block with the
    same chi_h and c1^2(B) = 8 chi_h, so k = c1^2(B) - c1^2(quotient)
    satisfies both k >= 3 chi_h and k >= c1^2/3.  Its universal cover
    normalizes to b2+ CP2 # b2- CP2b.
    """
    if d % 2 == 0:
        raise InfeasiblePoint(
            "even-d family records come from printed closed forms and are "
            "formal; homeomorphism keys are only verified for odd d"
        )
    z = ke_quotient_family(d, i)
    zrec = z.quotient_record
    chi_h = zrec.chi_h
    assert chi_h.denominator == 1
    chi_h = int(chi_h)
    if Fraction(zrec.c1sq) > 5 * Fraction(chi_h):
        raise InfeasiblePoint(
            f"index i={i} is below the family start: c1^2 > 5 chi_h"
        )
    if chi_h <= N1:
        raise InfeasiblePoint(
            f"chi_h = {chi_h} not above the geography threshold n1 = {N1}"
        )
    block = Primitive("BK", (chi_h, 8 * chi_h, j))
    k = 8 * chi_h - zrec.c1sq
    assert k >= 3 * chi_h
    partner = connected_sum_of(
        (block, 1), (Primitive("Sd", (d,)), 1), (Primitive("CP2b"), k)
    )
    prec = evaluate(partner).record
    assert (prec.chi, prec.tau) == (zrec.chi, zrec.tau)

    homeo = homeo_equal(partner, z.quotient)
    assert homeo.verdict == "homeomorphic"
    x_part = connected_sum_of((block, 1), (Primitive("Sd", (d,)), 1))
    lebrun = lebrun_einstein(x_part, k, 0)
    assert lebrun.verdict == "einstein_obstructed"
    assert Fraction(k) >= Fraction(prec.c1sq, 3)

    crec = prec.scaled(d)
    return _build_blueprint(
        partner,
        universal_cover(partner),
        certificates=(homeo, lebrun),
        cover_sum=connected_sum_of((CP2, int(crec.b2plus)), (CP2B, int(crec.b2minus))),
    )


def fourth_congruence_piece(pieces) -> ManifoldExpr:
    """The registry piece (K3 or E(4)) whose b2+ brings the b2+ sum of
    ``pieces`` to 4 mod 8."""
    b2plus_sum = sum(int(evaluate(p).record.b2plus) for p in pieces)
    for candidate in (Primitive("K3"), Primitive("E", (4,))):
        b2p = int(evaluate(candidate).record.b2plus)
        if (b2plus_sum + b2p) % 8 == 4:
            return candidate
    raise InfeasiblePoint("no registry piece completes the mod-8 congruence")


def spin_sum_families(d: int, n: int, j: int) -> tuple[FamilyBlueprint, FamilyBlueprint]:
    """The two spin families with free Z/d actions: connected sums of the
    (4,4,2) hypersurface, odd log transforms of E(2), elliptic pieces and
    the homology sphere Sd(d).  Their covers normalize to
    d(n+5) K3 # (d(n+7)-1) S2xS2 and d(2n+5) K3 # (d(2n+6)-1) S2xS2.
    """
    if n < 1 or j < 1:
        raise InfeasiblePoint("need n >= 1 and j >= 1")
    if d <= WALL_N0:
        raise InfeasiblePoint(f"need d > wall stabilization constant n0 = {WALL_N0}")
    x442, sphere = Primitive("X442"), Primitive("Sd", (d,))
    y_piece = Primitive("Y", (j,))

    def build(pieces_summed, m, expected_k3, expected_s):
        quotient = connected_sum_of(*[(p, 1) for p in pieces_summed], (sphere, 1))
        pieces4 = list(pieces_summed)
        assumption = ""
        if m == 3:
            fourth = fourth_congruence_piece(pieces4)
            pieces4.append(fourth)
            assumption = (
                f"fourth congruence piece {fourth} supplied by the engine; "
                "only the first 3 pieces are summed"
            )
        cert = spin_einstein(pieces4, m, sphere, assumption=assumption)
        assert cert.verdict == "einstein_obstructed"
        assert evaluate(quotient).record.c1sq > 0
        return _build_blueprint(
            quotient,
            universal_cover(quotient),
            certificates=(cert,),
            cover_sum=connected_sum_of(
                (Primitive("K3"), expected_k3), (Primitive("S2xS2"), expected_s)
            ),
        )

    first = build(
        [x442, y_piece, Primitive("E", (2 * n,))],
        m=3,
        expected_k3=d * (n + 5),
        expected_s=d * (n + 7) - 1,
    )
    second = build(
        [x442, Primitive("E", (2,)), y_piece, Primitive("E", (2 * (2 * n - 1),))],
        m=4,
        expected_k3=d * (2 * n + 5),
        expected_s=d * (2 * n + 6) - 1,
    )
    return first, second


def blowup_range(k: int) -> tuple[Fraction, int]:
    """The bounds (low, high) of the blow-up counts p that
    ``group_family`` takes with the Gompf sum Xk: low < p < high, with
    high = c1^2(Xk) + 16 and low = high/3."""
    high = evaluate(Primitive("Xk", (k,))).record.c1sq + 16
    return Fraction(high, 3), high


def group_family(
    chi_g: int,
    tau_g: int,
    group: str,
    k_index: int,
    p: int,
    j: int,
) -> FamilyBlueprint:
    """Non-spin manifolds with prescribed fundamental group and no
    Einstein metric: a chain of fiber sums linking the group block to a
    Gompf sum through two copies of E(4), log-transformed E(2) at the
    end, blown up p times.

    Requires p inside ``blowup_range(k_index)``.
    """
    low, high = blowup_range(k_index)
    if not (low < p < high):
        raise BadP(f"need {high} > p > {low}, got p = {p}")
    e2 = Primitive("E", (2,))
    chain = FiberSum(Primitive("XG", (chi_g, tau_g, group)), Primitive("E", (4,)), 1)
    chain = FiberSum(chain, Primitive("Xk", (k_index,)), 2)
    chain = FiberSum(chain, Primitive("E", (4,)), 2)
    chain = FiberSum(chain, e2 if j == 1 else LogTransform(e2, j), 1)
    total = connected_sum_of((chain, 1), (Primitive("CP2b"), p))

    ev = evaluate(total)
    assert str(ev.flags.pi1) == group
    lebrun = lebrun_einstein(chain, p, 0)
    assert lebrun.verdict == "einstein_obstructed"
    assert ev.record.c1sq == high - p > 0

    return _build_blueprint(total, total, certificates=(lebrun,))
