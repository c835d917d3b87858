"""Term trees describing how a 4-manifold is built from primitives.

An expression is one of:

* ``Primitive(name, params)`` -- a registry entry such as CP2, K3, E(n);
* ``CyclicCover(base, d, branch)`` -- d-fold cyclic cover of CP2 or
  CP1xCP1 branched along a smooth divisor whose class is d-divisible;
* ``BicyclicCover(d, p, a, b, m, n)`` -- two successive cyclic covers of
  CP1xCP1 branched along transversal curves of bidegrees (d*a, d*b) and
  (p*m, p*n);
* ``Quotient(inner, d, action)`` -- quotient by a free Z/d action;
* ``ConnectedSum(parts)`` -- multiset of summands with multiplicities;
* ``FiberSum(left, right, genus)`` -- symplectic sum along a genus-g
  surface of self-intersection zero;
* ``LogTransform(inner, multiplicity)`` -- logarithmic transform on an
  elliptic fiber (invariants unchanged, smooth structure marked).

Trees are immutable and hashable so evaluation can be cached.  The
recursive nodes (quotients, sums, fiber sums, log transforms) compute
their hash once and keep it: the generated dataclass hash would walk the
whole subtree on every call, and the evaluation cache and
``connected_sum_of`` hash every level of a deep tree.  The kept value is
the hash the generated method would give; it stays out of the state that
``copy`` and ``pickle`` carry, because string hashes differ between
processes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

from fourcalc.errors import InvalidExpr, NegativeDegree, NonDivisibleBranch

_HASH = "_hash"


def _hash_once(node) -> int:
    """The hash the generated dataclass ``__hash__`` gives (that of the
    field tuple), computed on the first call and then kept.  It is
    computed here rather than in a helper, so that hashing a deep tree
    for the first time recurses through one frame per level, as the
    generated method does."""
    value = node.__dict__.get(_HASH)
    if value is None:
        value = hash(tuple(map(node.__dict__.__getitem__, node._field_names)))
        object.__setattr__(node, _HASH, value)
    return value


def _state_without_hash(node) -> dict:
    state = dict(node.__dict__)
    state.pop(_HASH, None)
    return state


def _hashed_once(cls):
    """Give a frozen dataclass a hash computed on first use and then kept."""
    cls._field_names = tuple(f.name for f in fields(cls))
    cls.__hash__ = _hash_once
    cls.__getstate__ = _state_without_hash
    return cls


CP2_BASE = "CP2"
QUADRIC_BASE = "CP1xCP1"
COVER_BASES = (CP2_BASE, QUADRIC_BASE)


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class on CP2 (one degree) or CP1xCP1 (a bidegree)."""

    base: str
    degrees: tuple[int, ...]

    def __post_init__(self):
        if self.base not in COVER_BASES:
            raise InvalidExpr(f"unsupported cover base {self.base!r}")
        want = 1 if self.base == CP2_BASE else 2
        if len(self.degrees) != want:
            raise InvalidExpr(
                f"{self.base} divisor needs {want} degree(s), got {self.degrees}"
            )
        if any(k < 0 for k in self.degrees):
            raise NegativeDegree(f"divisor degrees must be nonnegative: {self.degrees}")

    def divisible_by(self, d: int) -> bool:
        return all(k % d == 0 for k in self.degrees)

    def divided_by(self, d: int) -> "DivisorClass":
        if not self.divisible_by(d):
            raise NonDivisibleBranch(f"{self} not divisible by {d}")
        return DivisorClass(self.base, tuple(k // d for k in self.degrees))

    def scaled(self, k: int) -> "DivisorClass":
        return DivisorClass(self.base, tuple(k * deg for deg in self.degrees))

    def add(self, other: "DivisorClass") -> "DivisorClass":
        assert self.base == other.base
        return DivisorClass(
            self.base, tuple(a + b for a, b in zip(self.degrees, other.degrees))
        )

    def __str__(self):
        if self.base == CP2_BASE:
            return f"O({self.degrees[0]})"
        return f"O({self.degrees[0]},{self.degrees[1]})"


@dataclass(frozen=True)
class Primitive:
    name: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.name
        inner = ",".join(str(p) for p in self.params)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class CyclicCover:
    base: str
    d: int
    branch: DivisorClass

    def __post_init__(self):
        if self.base not in COVER_BASES:
            raise InvalidExpr(f"unsupported cover base {self.base!r}")
        if self.d < 1:
            raise NegativeDegree("cover degree must be >= 1")
        if self.branch.base != self.base:
            raise InvalidExpr("branch class lives on a different base")
        if not self.branch.divisible_by(self.d):
            raise NonDivisibleBranch(
                f"branch class {self.branch} is not {self.d}-divisible"
            )

    def __str__(self):
        if self.base == CP2_BASE:
            return f"cover({self.base},d={self.d},branch={self.branch.degrees[0]})"
        p, q = self.branch.degrees
        return f"cover({self.base},d={self.d},branch=({p},{q}))"


@dataclass(frozen=True)
class BicyclicCover:
    """Bi-cyclic cover of CP1xCP1 of type (d, p).

    Branch curves have bidegrees (d*a, d*b) and (p*m, p*n); the first
    cover has degree d, the second degree p along the proper transform
    of the second curve.  The construction is commutative in (d, p).
    """

    d: int
    p: int
    a: int
    b: int
    m: int
    n: int

    def __post_init__(self):
        for value in (self.d, self.p, self.a, self.b, self.m, self.n):
            if value < 1:
                raise NegativeDegree("bicyclic parameters must be >= 1")

    @property
    def second_branch(self) -> DivisorClass:
        return DivisorClass(QUADRIC_BASE, (self.p * self.m, self.p * self.n))

    def __str__(self):
        return f"bicyclic({self.d},{self.p};{self.a},{self.b},{self.m},{self.n})"


@_hashed_once
@dataclass(frozen=True)
class Quotient:
    inner: "ManifoldExpr"
    d: int
    action: str = "standard"

    def __post_init__(self):
        if self.d < 1:
            raise NegativeDegree("quotient degree must be >= 1")
        if self.action not in ("standard", "weighted"):
            raise InvalidExpr(f"unknown action {self.action!r}")

    def __str__(self):
        tail = ",weighted" if self.action == "weighted" else ""
        return f"quotient({self.inner},{self.d}{tail})"


@_hashed_once
@dataclass(frozen=True)
class ConnectedSum:
    """Connected sum of parts, each with a positive multiplicity."""

    parts: tuple[tuple["ManifoldExpr", int], ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidExpr("connected sum needs at least one part")
        for part, mult in self.parts:
            if mult < 1:
                raise InvalidExpr("multiplicities must be >= 1")
            if isinstance(part, ConnectedSum):
                raise InvalidExpr("nest sums via flatten(), not directly")

    def __str__(self):
        pieces = []
        for part, mult in self.parts:
            text = str(part)
            if not isinstance(part, Primitive):
                text = f"({text})"
            pieces.append(text if mult == 1 else f"{mult}*{text}")
        return " # ".join(pieces)


@_hashed_once
@dataclass(frozen=True)
class FiberSum:
    left: "ManifoldExpr"
    right: "ManifoldExpr"
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise NegativeDegree("fiber-sum genus must be >= 0")

    def __str__(self):
        return f"fibersum({self.left},{self.right},g={self.genus})"


@_hashed_once
@dataclass(frozen=True)
class LogTransform:
    inner: "ManifoldExpr"
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise NegativeDegree("log-transform multiplicity must be >= 1")

    def __str__(self):
        return f"logt({self.inner},{self.multiplicity})"


ManifoldExpr = Union[
    Primitive, CyclicCover, BicyclicCover, Quotient, ConnectedSum, FiberSum, LogTransform
]


def connected_sum_of(*pieces: tuple[ManifoldExpr, int]) -> ManifoldExpr:
    """Build a flattened connected sum; collapses to a single part when trivial."""
    counts: dict[ManifoldExpr, int] = {}
    order: list[ManifoldExpr] = []

    def add(part: ManifoldExpr, mult: int):
        if isinstance(part, ConnectedSum):
            for sub, submult in part.parts:
                add(sub, submult * mult)
            return
        if part not in counts:
            counts[part] = 0
            order.append(part)
        counts[part] += mult

    for part, mult in pieces:
        add(part, mult)
    parts = tuple((part, counts[part]) for part in order)
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    return ConnectedSum(parts)


def sum_parts(expr: ManifoldExpr) -> tuple[tuple[ManifoldExpr, int], ...]:
    """View any expression as a multiset of connected-sum parts."""
    if isinstance(expr, ConnectedSum):
        return expr.parts
    return ((expr, 1),)
