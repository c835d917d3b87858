"""Lattice-region enumeration and the named manifold families.

Every family generator returns a :class:`FamilyBlueprint`: a quotient
expression with finite cyclic (or prescribed) fundamental group, its
universal-cover expression, pre-verified certificates and bookkeeping
labels.  Enumerators are deterministic (lexicographic order) and all
comparisons are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Optional

from fourcalc.config import Config, eps_prime_of
from fourcalc.certificates import Certificate
from fourcalc.covers import action_admissibility, ample_canonical
from fourcalc.errors import BadP, BadParity, InfeasiblePoint
from fourcalc.evaluate import evaluate
from fourcalc.expr import (
    BicyclicCover,
    FiberSum,
    ManifoldExpr,
    Primitive,
    Quotient,
    connected_sum_of,
)
from fourcalc.invariants import InvariantRecord
from fourcalc.obstruction import hitchin_thorpe, homeo_equal, lebrun_einstein, spin_einstein
from fourcalc.rewrite import NormalizeResult, normalize
from fourcalc.surgery import log_transform, universal_cover

CITE_GEOGRAPHY = (
    "every lattice point under the slope-(9 - eps) line is realized by "
    "infinitely many ACD minimal symplectic manifolds"
)
CITE_AUBIN_YAU = "Aubin-Yau: ample canonical class gives a Kaehler-Einstein metric"
CITE_BASIC_CLASSES = "connected-sum gluing keeps Seiberg-Witten basic classes distinct"


@dataclass(frozen=True)
class GeographyQuery:
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
    quotient: ManifoldExpr
    cover: ManifoldExpr
    quotient_record: InvariantRecord
    cover_record: InvariantRecord
    certificates: tuple[Certificate, ...]
    labels: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    cover_normal_form: Optional[NormalizeResult] = None


def _make_blueprint(
    quotient: ManifoldExpr,
    cover: ManifoldExpr,
    d: int,
    certificates: tuple[Certificate, ...],
    labels: dict,
    notes: tuple[str, ...] = (),
    quotient_record: Optional[InvariantRecord] = None,
    cover_normal_form: Optional[NormalizeResult] = None,
) -> FamilyBlueprint:
    cover_record = evaluate(cover).record
    if quotient_record is None:
        quotient_record = evaluate(quotient).record
        assert cover_record.chi == d * quotient_record.chi
        assert cover_record.tau == d * quotient_record.tau
    return FamilyBlueprint(
        quotient=quotient,
        cover=cover,
        quotient_record=quotient_record,
        cover_record=cover_record,
        certificates=certificates,
        labels=labels,
        notes=notes,
        cover_normal_form=cover_normal_form,
    )


def bk_region(eps_prime: Fraction, c: Fraction, bounds: tuple[int, int]) -> list[tuple[int, int]]:
    """Integer points (x, y) with 0 < y <= (9 - eps') x - c inside the
    bounds, column by column.  Each column's top is one exact floor."""
    if eps_prime <= 0 or c <= 0:
        raise InfeasiblePoint("eps' and c must be positive")
    x_max, y_max = bounds
    slope = 9 - eps_prime
    points = []
    for x in range(1, x_max + 1):
        top = min(y_max, math.floor(slope * x - c))
        points.extend(zip(repeat(x), range(1, top + 1)))
    return points


def bk_contains(eps_prime: Fraction, c: Fraction, x, y) -> bool:
    return 0 < y and Fraction(y) <= (9 - eps_prime) * Fraction(x) - c


@dataclass(frozen=True)
class FreeActionPoint:
    n: int
    m: int
    k: int
    blueprint: FamilyBlueprint


def free_action_region(query: GeographyQuery) -> list[FreeActionPoint]:
    """Admissible lattice points (n, m) with d | n, d | m, n > 0 and
    n < (6 - eps) m - N(eps), each with its quotient blueprint.

    Every accepted point also satisfies the chained inequality
    floor(3n/2d) + 1 < (9 - eps') m/d - c(eps'), which is what makes the
    symplectic block exist; this is asserted per point.
    """
    d = query.d
    n_max, m_max = query.bounds
    eps_prime, c_of_eps, n_of_eps = query.eps_prime, query.c_of_eps, query.n_of_eps
    six_minus_eps, slope = 6 - query.epsilon, 9 - eps_prime
    points = []
    if six_minus_eps <= 0:
        return points  # (6 - eps) m - N(eps) < 0 < n for every m
    for n in range(d, n_max + 1, d):
        # The least multiple of d with (6 - eps) m > n + N(eps); it is at
        # least d because n + N(eps) > 0.
        m_start = d * ((n + n_of_eps) // (six_minus_eps * d) + 1)
        for m in range(m_start, m_max + 1, d):
            chained = Fraction(3 * n, 2 * d) + 1 < slope * Fraction(m, d) - c_of_eps
            assert chained, f"region point ({n},{m}) fails the chained inequality"
            bp = build_quotient_blueprint(n, m, d, eps_prime=eps_prime, c_of_eps=c_of_eps)
            points.append(FreeActionPoint(n, m, bp.labels["k"], bp))
    return points


def build_quotient_blueprint(
    n: int,
    m: int,
    d: int,
    eps_prime: Fraction = Fraction(3, 4),
    c_of_eps: Fraction = Fraction(10),
    j: int = 0,
) -> FamilyBlueprint:
    """Blueprint for the point (n, m): a symplectic block B with
    c1^2 = floor(3n/2d) + 1 and chi_h = m/d, summed with the homology
    sphere Sd(d) and k = floor(3n/2d) + 1 - n/d copies of CP2b.

    The quotient satisfies (2 chi + 3 tau) = n/d and chi_h = m/d; its
    universal cover normalizes to (2m-1) CP2 # (10m-n-1) CP2b.
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
    block = Primitive("BK", (chi_h_block, c1sq_block, j))
    k = f + 1 - n // d
    assert k >= 1
    quotient = connected_sum_of((block, 1), (Primitive("Sd", (d,)), 1), (Primitive("CP2b"), k))
    qrec = evaluate(quotient).record
    assert qrec.c1sq == n // d and qrec.chi_h == Fraction(m, d)

    x_part = connected_sum_of((block, 1), (Primitive("Sd", (d,)), 1))
    cert = lebrun_einstein(x_part, k, 0)
    assert cert.verdict == "einstein_obstructed"
    assert Fraction(k) > Fraction(c1sq_block, 3)
    ht = hitchin_thorpe(qrec, inputs={"expr": str(quotient)})

    cover = universal_cover(quotient)
    nf = normalize(cover)
    assert nf.canonical
    expected = connected_sum_of(
        (Primitive("CP2"), 2 * m - 1), (Primitive("CP2b"), 10 * m - n - 1)
    )
    assert nf.expr == expected, f"cover normal form {nf.expr} != {expected}"
    crec = evaluate(cover).record
    assert crec.c1sq == n and crec.chi_h == m

    return _make_blueprint(
        quotient,
        cover,
        d,
        certificates=(ht, cert),
        labels={"n": n, "m": m, "d": d, "k": k, "j": j},
        notes=(
            f"cover normal form: {nf.expr}",
            "smooth structures for different j are distinguished by "
            "Seiberg-Witten basic classes; " + CITE_BASIC_CLASSES,
        ),
        cover_normal_form=nf,
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


def ke_quotient_family(d: int, i: int, config: Config = Config()) -> FamilyBlueprint:
    """The i-th member of the Kaehler-Einstein-admitting quotient family
    for the group Z/d: a free quotient of a bi-cyclic cover of the
    quadric, minimal of general type with ample canonical class, w2-type
    I and odd intersection form, with c1^2 < 5 chi_h from the family
    start index onwards.

    Odd d: type (d, 2) covers with branch bidegrees (d^2, d^2) and
    (2di, 2di), evaluated exactly.  Even d: the dedicated type (d, 3)
    weighted-action generator whose invariants are imported from the
    printed closed forms (see the notes attached to the blueprint).
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
    return (
        Fraction(d * d * (d - 1) * (2 * d - 1), 3)
        + d * (d - 1) * (d * i - 2)
        + d * d * i * i
        - 2 * d * i
        + 2
    )


def _ke_family_odd(d: int, i: int) -> FamilyBlueprint:
    cover_expr = BicyclicCover(d, 2, d, d, d * i, d * i)
    quotient = Quotient(cover_expr, d, "standard")
    ev = evaluate(quotient)
    rec = ev.record

    c1sq_formula = 4 * (d * (d - 1) + d * i - 2) ** 2
    assert rec.c1sq == c1sq_formula
    assert rec.chi_h == ke_corrected_chi_h(d, i)
    delta = ke_printed_chi_h(d, i) - rec.chi_h
    assert delta == d * (d - 1)
    assert ample_canonical(d, 2, d, d, d * i, d * i, mode="cover")
    adm = action_admissibility(d, d, d, "standard")
    assert adm.passed

    ht = hitchin_thorpe(rec, inputs={"expr": str(quotient)})
    notes = (
        f"Kaehler-Einstein metric exists: {CITE_AUBIN_YAU}",
        "printed chi_h closed form exceeds the evaluated value by exactly "
        f"d(d-1) = {d * (d - 1)}; the evaluated value is confirmed by the "
        "two-step cover composition oracle",
    )
    return _make_blueprint(
        quotient,
        cover_expr,
        d,
        certificates=(ht,),
        labels={
            "d": d,
            "i": i,
            "c1sq": rec.c1sq,
            "chi_h": rec.chi_h,
            "einstein": "exists (Kaehler-Einstein)",
        },
        notes=notes,
    )


def _ke_family_even(d: int, i: int) -> FamilyBlueprint:
    dd = _odd_part(d)
    a, b = (6, 3) if dd == 1 else (2 * dd, dd)
    formula_dd = 3 if dd == 1 else dd
    c1sq, c2, tau = printed_even_invariants(d, i)
    rec = InvariantRecord(chi=c2, tau=tau, b1=0)
    assert rec.c1sq == c1sq

    adm = action_admissibility(d, a, b, "weighted")
    assert adm.passed, "weighted-action gcd conditions hold for these degrees"
    congruence = (-6 * (d - 1) * formula_dd * i) % 4
    assert tau % 4 == congruence
    assert tau % 8 != 0  # odd i: the intersection form is odd

    cover_expr = BicyclicCover(d, 3, a, b, d * i, d * i)
    quotient = Quotient(cover_expr, d, "weighted")
    cover_rec = evaluate(cover_expr).record
    notes = (
        f"Kaehler-Einstein metric exists: {CITE_AUBIN_YAU}",
        "even-d member: the quotient record is imported from the printed "
        "closed forms of the dedicated type-(d,3) weighted family",
        "exact evaluation of the literal cover expression gives "
        f"(c1sq, c2) = ({cover_rec.c1sq}, {cover_rec.chi}) against "
        f"d * printed = ({d * c1sq}, {d * c2}); the printed forms are kept "
        "as the family's defining data and this record is formal",
    )
    return FamilyBlueprint(
        quotient=quotient,
        cover=cover_expr,
        quotient_record=rec,
        cover_record=cover_rec,
        certificates=(),
        labels={
            "d": d,
            "i": i,
            "c1sq": c1sq,
            "c2": c2,
            "tau": tau,
            "tau_mod_4": tau % 4,
            "einstein": "exists (Kaehler-Einstein)",
        },
        notes=notes,
    )


def ke_family_start(d: int, config: Config = Config(), search_limit: int = 2001) -> int:
    """Least odd index from which every member has c1^2 <= 5 chi_h."""
    top = search_limit if search_limit % 2 == 1 else search_limit - 1
    start = None
    for i in range(top, 0, -2):
        if d % 2 == 1:
            c1sq = 4 * (d * (d - 1) + d * i - 2) ** 2
            ok = Fraction(c1sq) <= 5 * ke_corrected_chi_h(d, i)
        else:
            c1sq, c2, _ = printed_even_invariants(d, i)
            ok = Fraction(12 * c1sq, c1sq + c2) <= 5
        if not ok:
            return start if start is not None else top + 2
        start = i
    return start


def exotic_partner_family(
    d: int, i: int, j: int, config: Config = Config()
) -> FamilyBlueprint:
    """The j-th exotic partner of the i-th Kaehler-Einstein quotient:
    homeomorphic to it, carrying no Einstein metric.

    Built as B # Sd(d) # k CP2b where B is a geography block with the
    same chi_h and c1^2(B) = 8 chi_h, so k = c1^2(B) - c1^2(quotient)
    satisfies both k >= 3 chi_h and k >= c1^2/3.
    """
    if d % 2 == 0:
        raise InfeasiblePoint(
            "even-d family records come from printed closed forms and are "
            "formal; homeomorphism keys are only verified for odd d"
        )
    z = ke_quotient_family(d, i, config)
    zrec = z.quotient_record
    chi_h = zrec.chi_h
    assert chi_h.denominator == 1
    chi_h = int(chi_h)
    if Fraction(zrec.c1sq) > 5 * Fraction(chi_h):
        raise InfeasiblePoint(
            f"index i={i} is below the family start: c1^2 > 5 chi_h"
        )
    if chi_h <= config.n1_effective:
        raise InfeasiblePoint(
            f"chi_h = {chi_h} not above the geography threshold n1 = "
            f"{config.n1_effective}"
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
    ht = hitchin_thorpe(prec, inputs={"expr": str(partner)})

    cover = universal_cover(partner)
    return _make_blueprint(
        partner,
        cover,
        d,
        certificates=(ht, homeo, lebrun),
        labels={"d": d, "i": i, "j": j, "k": k, "chi_h": chi_h},
        notes=(
            "homeomorphic to the Kaehler-Einstein quotient with the same "
            "(d, i); smooth structures for different j stay distinct: "
            + CITE_BASIC_CLASSES,
        ),
    )


def fourth_congruence_piece(b2plus_sum: int) -> ManifoldExpr:
    """The registry piece (K3 or E(4)) whose b2+ brings the sum to 4 mod 8."""
    for candidate in (Primitive("K3"), Primitive("E", (4,))):
        b2p = int(evaluate(candidate).record.b2plus)
        if (b2plus_sum + b2p) % 8 == 4:
            return candidate
    raise InfeasiblePoint("no registry piece completes the mod-8 congruence")


def spin_sum_families(
    d: int, n: int, j: int, config: Config = Config()
) -> tuple[FamilyBlueprint, FamilyBlueprint]:
    """The two spin families with free Z/d actions: connected sums of the
    (4,4,2) hypersurface, odd log transforms of E(2), elliptic pieces and
    the homology sphere Sd(d).  Their covers normalize to
    d(n+5) K3 # (d(n+7)-1) S2xS2 and d(2n+5) K3 # (d(2n+6)-1) S2xS2.
    """
    if n < 1 or j < 1:
        raise InfeasiblePoint("need n >= 1 and j >= 1")
    if d <= config.wall_n0:
        raise InfeasiblePoint(
            f"need d > wall stabilization constant n0 = {config.wall_n0}"
        )
    x442, sphere = Primitive("X442"), Primitive("Sd", (d,))
    y_piece = Primitive("Y", (j,))

    def build(pieces_summed, m, expected_k3, expected_s):
        quotient = connected_sum_of(*[(p, 1) for p in pieces_summed], (sphere, 1))
        pieces4 = list(pieces_summed)
        assumption = ""
        if m == 3:
            partial = sum(int(evaluate(p).record.b2plus) for p in pieces4)
            fourth = fourth_congruence_piece(partial)
            pieces4.append(fourth)
            assumption = (
                f"fourth congruence piece {fourth} supplied by the engine; "
                "only the first 3 pieces are summed"
            )
        cert = spin_einstein(pieces4, m, sphere, assumption=assumption)
        assert cert.verdict == "einstein_obstructed"
        qrec = evaluate(quotient).record
        ht = hitchin_thorpe(qrec, inputs={"expr": str(quotient)})
        assert ht.verdict == "hitchin_thorpe_ok" and qrec.c1sq > 0

        cover = universal_cover(quotient)
        nf = normalize(cover, wall_n0=config.wall_n0)
        assert nf.canonical
        expected = connected_sum_of(
            (Primitive("K3"), expected_k3), (Primitive("S2xS2"), expected_s)
        )
        assert nf.expr == expected, f"{nf.expr} != {expected}"
        return _make_blueprint(
            quotient,
            cover,
            d,
            certificates=(ht, cert),
            labels={"d": d, "n": n, "j": j, "cover_k3": expected_k3, "cover_s2xs2": expected_s},
            notes=(
                f"cover normal form {nf.expr} is independent of j",
            ),
            cover_normal_form=nf,
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


def group_family(
    chi_g: int,
    tau_g: int,
    group: str,
    k_index: int,
    p: int,
    j: int,
    config: Config = Config(),
    b1: int = 0,
) -> FamilyBlueprint:
    """Non-spin manifolds with prescribed fundamental group and no
    Einstein metric: a chain of fiber sums linking the group block to a
    Gompf sum through two copies of E(4), log-transformed E(2) at the
    end, blown up p times.

    Requires (c1^2(Xk) + 16) > p > (c1^2(Xk) + 16)/3.
    """
    xk = Primitive("Xk", (k_index,))
    c1sq_xk = evaluate(xk).record.c1sq
    low, high = Fraction(c1sq_xk + 16, 3), c1sq_xk + 16
    if not (low < p < high):
        raise BadP(f"need {high} > p > {low}, got p = {p}")
    params = (chi_g, tau_g, group) if b1 == 0 else (chi_g, tau_g, group, b1)
    chain = FiberSum(Primitive("XG", params), Primitive("E", (4,)), 1)
    chain = FiberSum(chain, xk, 2)
    chain = FiberSum(chain, Primitive("E", (4,)), 2)
    chain = FiberSum(chain, log_transform(Primitive("E", (2,)), j), 1)
    total = connected_sum_of((chain, 1), (Primitive("CP2b"), p))

    ev = evaluate(total)
    assert str(ev.flags.pi1) == group
    lebrun = lebrun_einstein(chain, p, 0)
    assert lebrun.verdict == "einstein_obstructed"
    ht = hitchin_thorpe(ev.record, inputs={"expr": str(total)})
    assert ht.verdict == "hitchin_thorpe_ok"
    assert ev.record.c1sq == c1sq_xk + 16 - p > 0

    return FamilyBlueprint(
        quotient=total,
        cover=total,
        quotient_record=ev.record,
        cover_record=ev.record,
        certificates=(ht, lebrun),
        labels={
            "group": group,
            "k": k_index,
            "p": p,
            "j": j,
            "c1sq_block": c1sq_xk,
        },
        notes=(
            "log multiplicity j indexes the smooth structure; "
            + CITE_BASIC_CLASSES,
            "members with different j are homeomorphic: the transforms act "
            "on the elliptic piece before the fiber sums",
        ),
    )
