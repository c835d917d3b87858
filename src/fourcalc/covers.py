"""Invariant formulas for cyclic and bi-cyclic branched covers and
free cyclic quotients, plus the predicates guarding them.

Conventions.  Only two bases occur: CP2 with hyperplane degree classes,
and the quadric CP1xCP1 with bidegree classes.  The intersection pairing
is hardcoded per base (k * k' on CP2, (p,q)*(p',q') = p q' + q p' on the
quadric).  Signed classes (e.g. first Chern classes of covers) are plain
integer tuples; effective branch divisors use :class:`DivisorClass`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from fourcalc.errors import InvalidExpr, NegativeDegree, NonIntegralQuotient
from fourcalc.expr import CP2_BASE, QUADRIC_BASE, DivisorClass
from fourcalc.invariants import InvariantRecord

BASE_RECORDS = {
    CP2_BASE: InvariantRecord(3, 1, 0),
    QUADRIC_BASE: InvariantRecord(4, 0, 0),
}
BASE_C1 = {CP2_BASE: (3,), QUADRIC_BASE: (2, 2)}


def pairing(base: str, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """Intersection number of two (possibly signed) classes."""
    if base == CP2_BASE:
        return x[0] * y[0]
    return x[0] * y[1] + x[1] * y[0]


def self_intersection(base: str, x: tuple[int, ...]) -> int:
    return pairing(base, x, x)


def branch_curve_euler(cls: DivisorClass) -> int:
    """Euler characteristic of a smooth curve in the given class.

    Adjunction: on CP2 a degree-k curve has genus (k-1)(k-2)/2; on the
    quadric a bidegree-(p, q) curve has genus (p-1)(q-1).
    """
    if any(k < 1 for k in cls.degrees):
        raise NegativeDegree("branch curve degrees must be >= 1")
    if cls.base == CP2_BASE:
        k = cls.degrees[0]
        return 2 - (k - 1) * (k - 2)
    p, q = cls.degrees
    return 2 * (p + q) - 2 * p * q


def cyclic_cover_invariants(
    base_rec: InvariantRecord,
    base_c1: tuple[int, ...],
    d: int,
    line_bundle: DivisorClass,
) -> InvariantRecord:
    """Invariants of the d-cyclic cover branched along D = d * L.

    c2(X) = d c2(Y) - (d-1) chi(D) and c1^2(X) = d (c1(Y) - (d-1)L)^2;
    the branch curve is assumed smooth and flexible, so the cover is
    simply connected and b1 = 0.
    """
    if d < 1:
        raise NegativeDegree("cover degree must be >= 1")
    if d == 1:
        return base_rec
    if any(k < 1 for k in line_bundle.degrees):
        raise NegativeDegree("cover line bundle degrees must be >= 1")
    branch = line_bundle.scaled(d)
    base = line_bundle.base
    chi_branch = branch_curve_euler(branch)
    c2 = d * base_rec.c2 - (d - 1) * chi_branch
    shifted = tuple(
        c - (d - 1) * l for c, l in zip(base_c1, line_bundle.degrees)
    )
    c1sq = d * self_intersection(base, shifted)
    if (c1sq - 2 * c2) % 3 != 0:
        raise InvalidExpr("cover signature is not integral; formula misuse")
    tau = (c1sq - 2 * c2) // 3
    return InvariantRecord(chi=c2, tau=tau, b1=0)


def proper_transform_euler(d: int, chi_d: int, c_dot_d: int) -> int:
    """Euler characteristic of the proper transform of the second branch
    curve inside the first cover: d*chi(D) - (d-1)(C.D)."""
    if d < 1:
        raise NegativeDegree("cover degree must be >= 1")
    return d * chi_d - (d - 1) * c_dot_d


def bicyclic_invariants(d: int, p: int, a: int, b: int, m: int, n: int) -> InvariantRecord:
    """Invariants of the type-(d, p) bi-cyclic cover of the quadric
    branched along transversal curves of bidegrees (d a, d b), (p m, p n).

    These closed forms agree exactly with composing the two cyclic-cover
    steps (the composition oracle in the test suite pins this on every
    small parameter tuple).
    """
    for value in (d, p, a, b, m, n):
        if value < 1:
            raise NegativeDegree("bicyclic parameters must be >= 1")
    c1sq = 2 * p * d * ((d - 1) * a + (p - 1) * m - 2) * ((d - 1) * b + (p - 1) * n - 2)
    c2 = p * d * (
        4
        - 2 * (d - 1) * (a + b - d * a * b)
        - 2 * (p - 1) * (m + n - p * m * n)
        + (p - 1) * (d - 1) * (a * n + b * m)
    )
    assert (c1sq - 2 * c2) % 3 == 0
    tau = (c1sq - 2 * c2) // 3
    # Strictly positive degrees make both branch curves flexible, so the
    # cover is simply connected.
    return InvariantRecord(chi=c2, tau=tau, b1=0)


@dataclass(frozen=True)
class GcdCheck:
    label: str
    value: int
    modulus: int

    @property
    def passed(self) -> bool:
        return gcd(self.value, self.modulus) == 1

    @property
    def witness(self) -> str:
        return f"gcd({self.label}={self.value}, d={self.modulus}) = {gcd(self.value, self.modulus)}"


@dataclass(frozen=True)
class AdmissibilityResult:
    action: str
    checks: tuple[GcdCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[GcdCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def action_admissibility(d: int, a: int, b: int, action: str = "standard") -> AdmissibilityResult:
    """gcd conditions for the cyclic weight-(a, b) line-bundle action to
    restrict freely: standard needs a+1, b+1, a+b+1 coprime to d; the
    weighted variant needs a+1, 2b+1, a+2b+1 coprime to d."""
    if d < 2:
        raise InvalidExpr("admissibility is about actions of order >= 2")
    if action == "standard":
        triples = (("a+1", a + 1), ("b+1", b + 1), ("a+b+1", a + b + 1))
    elif action == "weighted":
        triples = (("a+1", a + 1), ("2b+1", 2 * b + 1), ("a+2b+1", a + 2 * b + 1))
    else:
        raise InvalidExpr(f"unknown action {action!r}")
    return AdmissibilityResult(
        action=action,
        checks=tuple(GcdCheck(label, value, d) for label, value in triples),
    )


def quotient_invariants(inner: InvariantRecord, d: int) -> InvariantRecord:
    """Invariants of the quotient by a free Z/d action: chi and tau divide.

    The holomorphic Euler characteristic of the quotient must come out
    integral; failure means the declared action cannot exist.
    """
    if d < 1:
        raise NegativeDegree("quotient degree must be >= 1")
    if d == 1:
        return inner
    if inner.b1 != 0:
        raise InvalidExpr("quotient formulas assume a simply connected cover")
    if inner.chi % d != 0 or inner.tau % d != 0:
        raise NonIntegralQuotient(
            f"chi={inner.chi}, tau={inner.tau} not divisible by d={d}"
        )
    chi, tau = inner.chi // d, inner.tau // d
    if (chi + tau) % 4 != 0:
        raise NonIntegralQuotient(
            f"quotient chi_h = {chi + tau}/4 is not an integer"
        )
    return InvariantRecord(chi=chi, tau=tau, b1=0)


def ample_canonical(
    d: int, p: int, a: int, b: int, m: int, n: int, mode: str = "cover"
) -> bool:
    """Ampleness of the canonical bundle of a bi-cyclic cover (mode
    "cover", thresholds >= 3) or of its free cyclic quotient in quotient
    parameters (mode "quotient", strict thresholds > 2)."""
    for value in (d, p, a, b, m, n):
        if value < 1:
            raise NegativeDegree("parameters must be >= 1")
    if mode == "cover":
        return (d - 1) * a + (p - 1) * m >= 3 and (d - 1) * b + (p - 1) * n >= 3
    if mode == "quotient":
        return (d - 1) * a + d * (p - 1) * m > 2 and (d - 1) * b + d * (p - 1) * n > 2
    raise InvalidExpr(f"unknown ampleness mode {mode!r}")


def cyclic_cover_ample(base: str, d: int, line_bundle: DivisorClass) -> bool:
    """K of the cover is ample iff (d-1)L - c1(base) is positive."""
    c1 = BASE_C1[base]
    return all((d - 1) * l - c > 0 for l, c in zip(line_bundle.degrees, c1))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    citation: str = ""


@dataclass(frozen=True)
class CoverBlueprint:
    """A cover/quotient construction plus its named precondition checks."""

    kind: str
    description: str
    checks: tuple[CheckResult, ...]

    @property
    def constructible(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def cyclic_blueprint(base: str, d: int, branch: DivisorClass) -> CoverBlueprint:
    checks = [
        CheckResult(
            "smooth-branch", True, "generic section is smooth", "Bertini"
        ),
        CheckResult(
            "d-divisibility",
            branch.divisible_by(d),
            f"branch {branch} vs degree {d}",
            "cyclic covers need O(D) = L^d",
        ),
        CheckResult(
            "flexibility",
            all(k >= 1 for k in branch.degrees),
            f"branch degrees {branch.degrees}",
            "flexible branch loci give simply connected covers",
        ),
    ]
    return CoverBlueprint(
        kind="cyclic-cover",
        description=f"{d}-cyclic cover of {base} branched along {branch}",
        checks=tuple(checks),
    )
