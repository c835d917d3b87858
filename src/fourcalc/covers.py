"""Invariant formulas for cyclic and bi-cyclic branched covers and
free cyclic quotients, plus the predicates guarding them.

The formulas assume nodes that their constructors validated and the
evaluator admitted: positive degrees, a flexible branch, a known action,
and a simply connected cover under a quotient of order at least 2.

Conventions.  ``BASES`` declares each base once: CP2 with hyperplane
degree classes and the quadric CP1xCP1 with bidegree classes, with the
Gram matrix of the intersection form and c1 that the pairing and the
adjunction formula read.  Signed classes (e.g. first Chern classes of
covers) are plain integer tuples; effective branch divisors use
:class:`DivisorClass`.

Free actions are admitted by gcd conditions; ``action_admissibility``
returns the text of each failing condition, so an empty result means free.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from fourcalc.errors import NonIntegralQuotient
from fourcalc.expr import CP2_BASE, QUADRIC_BASE, DivisorClass
from fourcalc.invariants import InvariantRecord
from fourcalc.registry import PRIMITIVES, Evaluation


class Base(NamedTuple):
    entry: Evaluation  # as the primitive table declares it
    gram: tuple[tuple[int, ...], ...]  # the intersection form on degree classes
    c1: tuple[int, ...]
    acd_citation: str


BASES = {
    CP2_BASE: Base(
        PRIMITIVES["CP2"], ((1,),), (3,),
        "cyclic covers of ACD surfaces branched along hypersurface sections are ACD",
    ),
    QUADRIC_BASE: Base(  # CP1xCP1 is S2xS2
        PRIMITIVES["S2xS2"], ((0, 1), (1, 0)), (2, 2),
        "iterated cyclic covers of the quadric are almost completely decomposable",
    ),
}


def pairing(base: str, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """Intersection number x^T Q y of two (possibly signed) classes."""
    return sum(xi * q * yj for xi, row in zip(x, BASES[base].gram) for q, yj in zip(row, y))


def self_intersection(base: str, x: tuple[int, ...]) -> int:
    return pairing(base, x, x)


def branch_curve_euler(cls: DivisorClass) -> int:
    """Euler characteristic of a smooth curve in the given class.

    Adjunction: 2 - 2g = -(K.C + C.C) with K = -c1, so chi = c1.C - C.C.
    """
    c = cls.degrees
    return pairing(cls.base, BASES[cls.base].c1, c) - self_intersection(cls.base, c)


def cyclic_cover_invariants(
    base_rec: InvariantRecord,
    base_c1: tuple[int, ...],
    d: int,
    line_bundle: DivisorClass,
) -> InvariantRecord:
    """Invariants of the d-cyclic cover branched along D = d * L.

    c2(X) = d c2(Y) - (d-1) chi(D) and c1^2(X) = d (c1(Y) - (d-1)L)^2;
    the branch curve is assumed smooth and flexible, so the cover is
    simply connected and b1 = 0.  At d = 1 it gives the base record.
    """
    branch = line_bundle.scaled(d)
    base = line_bundle.base
    chi_branch = branch_curve_euler(branch)
    c2 = d * base_rec.c2 - (d - 1) * chi_branch
    shifted = tuple(
        c - (d - 1) * l for c, l in zip(base_c1, line_bundle.degrees)
    )
    c1sq = d * self_intersection(base, shifted)
    assert (c1sq - 2 * c2) % 3 == 0
    tau = (c1sq - 2 * c2) // 3
    return InvariantRecord(chi=c2, tau=tau, b1=0)


def bicyclic_invariants(d: int, p: int, a: int, b: int, m: int, n: int) -> InvariantRecord:
    """Invariants of the type-(d, p) bi-cyclic cover of the quadric
    branched along transversal curves of bidegrees (d a, d b), (p m, p n).

    These closed forms agree exactly with composing the two cyclic-cover
    steps (the composition oracle in the test suite pins this on every
    small parameter tuple).
    """
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


def action_admissibility(d: int, a: int, b: int, action: str = "standard") -> tuple[str, ...]:
    """gcd conditions for the cyclic weight-(a, b) line-bundle action to
    restrict freely: standard needs a+1, b+1, a+b+1 coprime to d; the
    weighted variant needs a+1, 2b+1, a+2b+1 coprime to d.

    Returns the failing conditions as witnesses such as
    ``"gcd(a+1=2, d=2) = 2"``; the tuple is empty when the action is free.
    """
    if action == "standard":
        triples = (("a+1", a + 1), ("b+1", b + 1), ("a+b+1", a + b + 1))
    else:
        triples = (("a+1", a + 1), ("2b+1", 2 * b + 1), ("a+2b+1", a + 2 * b + 1))
    return tuple(
        f"gcd({label}={value}, d={d}) = {gcd(value, d)}"
        for label, value in triples
        if gcd(value, d) != 1
    )


def quotient_invariants(inner: InvariantRecord, d: int) -> InvariantRecord:
    """Invariants of the quotient by a free Z/d action: chi and tau divide.

    The holomorphic Euler characteristic of the quotient must come out
    integral; failure means the declared action cannot exist.
    """
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


def ample_canonical(d: int, p: int, a: int, b: int, m: int, n: int) -> bool:
    """Ampleness of the canonical bundle of a bi-cyclic cover."""
    return (d - 1) * a + (p - 1) * m >= 3 and (d - 1) * b + (p - 1) * n >= 3


def cyclic_cover_ample(base: str, d: int, line_bundle: DivisorClass) -> bool:
    """K of the cover is ample iff (d-1)L - c1(base) is positive."""
    c1 = BASES[base].c1
    return all((d - 1) * l - c > 0 for l, c in zip(line_bundle.degrees, c1))

