"""The existence constants the constructions depend on.

Three constants come from cited existence theorems that fix no explicit
value.  The ``reproduce`` goldens pin one value of each, so they are
module constants, not settings:

* ``C_EPS``   -- the geography constant c(eps'): lattice points (x, y)
  with 0 < y <= (9 - eps') x - c(eps') are realized by minimal
  symplectic, almost completely decomposable manifolds;
* ``N1``      -- the threshold above which chi_h admits blocks with
  c1^2 = 8 chi_h, taken as the ceiling of 2 c(eps');
* ``WALL_N0`` -- the stabilization count after which homeomorphic spin
  sums become diffeomorphic.

``EPS`` is the slope margin the enumerators use by default.  Only
``fourcalc enumerate`` takes other values of eps, eps' and c, through
its ``--eps``, ``--eps-prime`` and ``--c`` options.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

EPS = Fraction(1, 2)
C_EPS = Fraction(10)
N1 = ceil(2 * C_EPS)
WALL_N0 = 1


def eps_prime_of(eps: Fraction) -> Fraction:
    """The geography slope margin eps' = 3 eps / 2 that goes with eps."""
    return Fraction(3, 2) * eps
