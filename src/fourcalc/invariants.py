"""Exact numerical invariants of closed oriented 4-manifolds.

The primary data is the pair (Euler characteristic, signature) together
with the first Betti number.  Everything else -- the Chern numbers of an
(almost) complex structure, the holomorphic Euler characteristic and the
positive/negative parts of the second Betti number -- is derived, always
as exact integers or `Fraction`s.  No floating point enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


@dataclass(frozen=True)
class InvariantRecord:
    """Exact invariants of a closed oriented 4-manifold.

    ``b1 is None`` means the first Betti number could not be determined
    (for instance a fiber sum whose fundamental group no rule resolves);
    all purely (chi, tau)-derived quantities remain available.
    """

    chi: int
    tau: int
    b1: Optional[int] = 0

    def __post_init__(self):
        if self.b1 is not None and self.b1 < 0:
            raise ValueError("b1 must be nonnegative")

    # Chern numbers of a compatible almost complex structure.
    @property
    def c1sq(self) -> int:
        return c1sq_of(self.chi, self.tau)

    @property
    def c2(self) -> int:
        return self.chi

    @property
    def chi_h(self) -> Fraction:
        """Holomorphic Euler characteristic (chi + tau)/4 = (c1^2 + c2)/12.

        Integral for complex surfaces; reported as an exact rational for
        every manifold and marked "formal" by callers when the expression
        is not known to carry a complex structure.
        """
        return Fraction(self.chi + self.tau, 4)

    @property
    def b2(self) -> Optional[int]:
        if self.b1 is None:
            return None
        return self.chi - 2 + 2 * self.b1

    @property
    def b2plus(self) -> Optional[Fraction]:
        if self.b2 is None:
            return None
        return Fraction(self.b2 + self.tau, 2)

    @property
    def b2minus(self) -> Optional[Fraction]:
        if self.b2 is None:
            return None
        return Fraction(self.b2 - self.tau, 2)

    def scaled(self, d: int) -> "InvariantRecord":
        """Invariants of a free d-fold cover (chi and tau multiply)."""
        return InvariantRecord(chi=self.chi * d, tau=self.tau * d, b1=self.b1)


def c1sq_of(chi: int, tau: int) -> int:
    """c1^2 = 2 chi + 3 tau of a compatible almost complex structure."""
    return 2 * chi + 3 * tau


def connected_sum_invariants(
    parts: Iterable[tuple[InvariantRecord, int]]
) -> tuple[int, int, Optional[int]]:
    """(chi, tau, b1) of the connected sum of (record, multiplicity) pairs.

    chi adds and loses 2 per connecting neck; tau and b1 add.  b1 is
    unknown when any part's b1 is.
    """
    chi = tau = b1 = total = 0
    for rec, mult in parts:
        chi += rec.chi * mult
        tau += rec.tau * mult
        total += mult
        if b1 is not None:
            b1 = None if rec.b1 is None else b1 + rec.b1 * mult
    return summed_invariants(chi, tau, b1, total)


def connected_sum_record(parts: Iterable[tuple[InvariantRecord, int]]) -> InvariantRecord:
    """``connected_sum_invariants`` as a record."""
    return InvariantRecord(*connected_sum_invariants(parts))


def summed_invariants(
    chi: int, tau: int, b1: Optional[int], total: int
) -> tuple[int, int, Optional[int]]:
    """(chi, tau, b1) of a connected sum of ``total`` parts whose chi, tau
    and b1 add up to ``chi``, ``tau`` and ``b1`` (None when any part's is)."""
    return chi - 2 * (total - 1), tau, b1


def rohlin_compatible(tau: int) -> bool:
    """Whether tau allows a spin structure: Rohlin's theorem forces tau = 0 mod 16
    on every smooth closed spin 4-manifold, whatever its b1."""
    return tau % 16 == 0
