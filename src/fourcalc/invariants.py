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
        return 2 * self.chi + 3 * self.tau

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

    def consistency_warnings(self) -> list[str]:
        """Soft sanity checks; violations signal inconsistent inputs."""
        warnings = []
        b2 = self.b2
        if b2 is None:
            return warnings
        if b2 < abs(self.tau):
            warnings.append(f"b2={b2} is smaller than |tau|={abs(self.tau)}")
        if (self.chi + self.tau) % 2 != 0:
            warnings.append("chi + tau is odd; no closed oriented 4-manifold")
        for name, value in (("b2plus", self.b2plus), ("b2minus", self.b2minus)):
            if value is not None and value.denominator == 1 and value < 0:
                warnings.append(f"{name}={value} is negative")
        return warnings


def derive_betti(rec: InvariantRecord) -> tuple[Fraction, Fraction, list[str]]:
    """Return (b2plus, b2minus, warnings) for a record with known b1.

    Non-integrality is reported as a warning rather than an error: it
    means the (chi, tau, b1) inputs cannot belong to an actual manifold,
    which some imported formula families are allowed to produce.
    """
    if rec.b1 is None:
        raise ValueError("b1 unknown; cannot derive b2+/b2-")
    b2p, b2m = rec.b2plus, rec.b2minus
    warnings = []
    if b2p.denominator != 1 or b2m.denominator != 1:
        warnings.append(
            f"non-integral b2+/b2- ({b2p}, {b2m}); inputs are not realizable"
        )
    warnings.extend(rec.consistency_warnings())
    assert b2p - b2m == rec.tau
    return b2p, b2m, warnings


def connected_sum_record(parts: Iterable[tuple[InvariantRecord, int]]) -> InvariantRecord:
    """Invariants of the connected sum of (record, multiplicity) pairs.

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
    return InvariantRecord(chi=chi - 2 * (total - 1), tau=tau, b1=b1)


def rohlin_compatible(chi: int, tau: int, b1: Optional[int]) -> bool:
    """Whether invariants allow a spin structure: b1=0 forces tau = 0 mod 16."""
    if b1 == 0 and tau % 16 != 0:
        return False
    return True
