"""Configuration of the existence constants the constructions depend on.

Three constants come from cited existence theorems that fix no explicit
value; they are configuration with documented defaults, overridable via
a simple ``key=value`` file or CLI assignments:

* ``c_eps``   -- the geography constant c(eps'): lattice points (x, y)
  with 0 < y <= (9 - eps') x - c(eps') are realized by minimal
  symplectic, almost completely decomposable manifolds;
* ``n1``      -- the threshold above which chi_h admits blocks with
  c1^2 = 8 chi_h (derived default 2 * c_eps for eps' = 1/2);
* ``wall_n0`` -- the stabilization count after which homeomorphic spin
  sums become diffeomorphic.

``eps`` is the default slope margin used by the enumerators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil
from typing import Optional


def eps_prime_of(eps: Fraction) -> Fraction:
    """The geography slope margin eps' = 3 eps / 2 that goes with eps."""
    return Fraction(3, 2) * eps


@dataclass(frozen=True)
class Config:
    eps: Fraction = Fraction(1, 2)
    c_eps: Fraction = Fraction(10)
    n1: Optional[int] = None
    wall_n0: int = 1

    @property
    def n1_effective(self) -> int:
        if self.n1 is not None:
            return self.n1
        return ceil(2 * self.c_eps)

    def with_overrides(self, mapping: dict) -> "Config":
        updates = {}
        for key, raw in mapping.items():
            if key in ("eps", "c_eps"):
                updates[key] = Fraction(raw)
            elif key in ("n1", "wall_n0"):
                updates[key] = int(raw)
            else:
                raise KeyError(f"unknown config key {key!r}")
        return replace(self, **updates)


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> Config:
    """Read key=value lines (``#`` comments allowed), then apply overrides."""
    cfg = Config()
    if path is not None:
        mapping = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, value = line.split("=", 1)
                mapping[key.strip()] = value.strip()
        cfg = cfg.with_overrides(mapping)
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg
