"""Term trees describing how a 4-manifold is built from primitives.

An expression is one of:

* ``Primitive(name, params)`` -- a primitive-table entry such as CP2, K3, E(n);
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

Trees are immutable and interned: building a node runs its constructor
checks and then hands back the one live node of that class with the
same field values, kept in a table of weak references.  Children count
by identity, so equal trees are the same object, ``==`` is ``is`` and a
hash never walks the tree.  ``pickle`` (also into another process) and
``dataclasses.replace`` build through the constructor, so they hand back
the interned node too; ``copy.copy`` and ``copy.deepcopy`` hand back the
node itself, without walking the tree.

Each composite kind states its subtrees once, in its print template
``_pieces()``: literal text and child nodes, the children in the order
evaluation reads them.  ``children`` is read off the template, and
``str`` walks the templates with an explicit stack, so neither printing
nor evaluation (``evaluate.py``) recurses, and printing costs time
linear in the output.  A leaf prints itself whole.  ``repr`` and
``pickle`` of a composite walk the tree with an explicit stack too: a
tree pickles as the post-order list of its composite nodes, each child
named by its index in the list.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Union

from fourcalc.errors import InvalidExpr, NegativeDegree, NonDivisibleBranch

_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    def __call__(cls, *args, **kwargs):
        """Build the node, so that its constructor checks run, then return
        the live node of this class with the same field values."""
        node = super().__call__(*args, **kwargs)
        return _LIVE.setdefault((cls, *vars(node).values()), node)


class _Node(metaclass=_Interned):
    """Base of the term-tree nodes: one live node per class and field values.
    A leaf has no children and prints itself."""

    children = ()

    def __reduce__(self):
        return type(self), tuple(vars(self).values())

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _check_nodes(*children) -> None:
    for child in children:
        if not isinstance(child, _Node):
            raise InvalidExpr(f"a subtree must be a term-tree node, not {child!r}")


def _check_ints(what: str, *values) -> None:
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidExpr(f"{what} must be an int, not {value!r}")


class _Ref(int):
    """A composite child in a pickled tree: its index in the post-order list."""


class _Text(str):
    """Literal text among the pieces of a ``repr``."""


def _map_leaves(value, f):
    """``value`` with ``f`` applied to each item that is not a tuple."""
    if value.__class__ is tuple:
        return tuple(_map_leaves(item, f) for item in value)
    return f(value)


def _unpickle(entries: tuple) -> "_Composite":
    """The tree ``_Composite.__reduce__`` took apart, built bottom up."""
    built: list = []

    def resolve(value):
        return built[value] if value.__class__ is _Ref else value

    for cls, values in entries:
        built.append(cls(*_map_leaves(values, resolve)))
    return built[-1]


def _repr_pieces(value) -> list:
    """``repr`` of a composite node or a tuple one level down: literal
    text, and the values whose own ``repr`` goes between."""
    if value.__class__ is tuple:
        head, tail = "(", ",)" if len(value) == 1 else ")"
        fields = [("", item) for item in value]
    else:
        head, tail = f"{type(value).__qualname__}(", ")"
        fields = [(f"{name}=", item) for name, item in vars(value).items()]
    pieces: list = [_Text(head)]
    for i, (label, item) in enumerate(fields):
        pieces += (_Text(", " * (i > 0) + label), item)
    pieces.append(_Text(tail))
    return pieces


class _Composite(_Node):
    """A node with subtrees, each stated once in its ``_pieces()``."""

    @property
    def children(self) -> tuple:
        """The child nodes, left to right."""
        return tuple(piece for piece in self._pieces() if piece.__class__ is not str)

    def __str__(self):
        out: list[str] = []
        stack: list = [self]
        while stack:
            piece = stack.pop()
            if piece.__class__ is str:
                out.append(piece)
            elif isinstance(piece, _Composite):
                stack += reversed(piece._pieces())
            else:
                out.append(str(piece))
        return "".join(out)

    def __repr__(self):
        out: list[str] = []
        stack: list = [self]
        while stack:
            piece = stack.pop()
            if piece.__class__ is _Text:
                out.append(piece)
            elif isinstance(piece, _Composite) or piece.__class__ is tuple:
                stack += reversed(_repr_pieces(piece))
            else:
                out.append(repr(piece))
        return "".join(out)

    def __reduce__(self):
        index: dict = {}
        entries: list = []

        def ref(value):
            return _Ref(index[value]) if isinstance(value, _Composite) else value

        stack: list = [self]
        while stack:
            node = stack[-1]
            todo = [c for c in node.children if isinstance(c, _Composite) and c not in index]
            if todo:
                stack += todo
                continue
            stack.pop()
            if node not in index:  # else it was reached twice
                index[node] = len(entries)
                entries.append((type(node), _map_leaves(tuple(vars(node).values()), ref)))
        return _unpickle, (tuple(entries),)


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
        _check_ints("a divisor degree", *self.degrees)
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

    def __str__(self):
        if self.base == CP2_BASE:
            return f"O({self.degrees[0]})"
        return f"O({self.degrees[0]},{self.degrees[1]})"


@dataclass(frozen=True, eq=False)
class Primitive(_Node):
    """A block of the primitive table, by name, with its integer parameters."""

    name: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.name
        return f"{self.name}({','.join(map(str, self.params))})"


@dataclass(frozen=True, eq=False)
class CyclicCover(_Node):
    """The d-fold cyclic cover of CP2 or CP1xCP1 branched along a d-divisible class."""

    base: str
    d: int
    branch: DivisorClass

    def __post_init__(self):
        _check_ints("the cover degree", self.d)
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


@dataclass(frozen=True, eq=False)
class BicyclicCover(_Node):
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
        values = (self.d, self.p, self.a, self.b, self.m, self.n)
        _check_ints("a bicyclic parameter", *values)
        for value in values:
            if value < 1:
                raise NegativeDegree("bicyclic parameters must be >= 1")

    @property
    def second_branch(self) -> DivisorClass:
        return DivisorClass(QUADRIC_BASE, (self.p * self.m, self.p * self.n))

    def __str__(self):
        return f"bicyclic({self.d},{self.p};{self.a},{self.b},{self.m},{self.n})"


@dataclass(frozen=True, eq=False, repr=False)
class Quotient(_Composite):
    """The quotient of ``inner`` by a free Z/d action, standard or weighted."""

    inner: "ManifoldExpr"
    d: int
    action: str = "standard"

    def __post_init__(self):
        _check_nodes(self.inner)
        _check_ints("the quotient degree", self.d)
        if self.d < 1:
            raise NegativeDegree("quotient degree must be >= 1")
        if self.action not in ("standard", "weighted"):
            raise InvalidExpr(f"unknown action {self.action!r}")

    def _pieces(self):
        tail = ",weighted" if self.action == "weighted" else ""
        return ("quotient(", self.inner, f",{self.d}{tail})")


@dataclass(frozen=True, eq=False, repr=False)
class ConnectedSum(_Composite):
    """Connected sum of parts, each with a positive multiplicity."""

    parts: tuple[tuple["ManifoldExpr", int], ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidExpr("connected sum needs at least one part")
        for part, mult in self.parts:
            _check_nodes(part)
            _check_ints("a multiplicity", mult)
            if mult < 1:
                raise InvalidExpr("multiplicities must be >= 1")
            if isinstance(part, ConnectedSum):
                raise InvalidExpr("nest sums via flatten(), not directly")

    def _pieces(self):
        pieces: list = []
        for part, mult in self.parts:
            pieces.append(" # " if mult == 1 else f" # {mult}*")
            pieces += (part,) if isinstance(part, Primitive) else ("(", part, ")")
        pieces[0] = pieces[0][3:]  # no " # " before the first part
        return pieces


@dataclass(frozen=True, eq=False, repr=False)
class FiberSum(_Composite):
    """The fiber sum of two manifolds along fibers of genus ``genus``."""

    left: "ManifoldExpr"
    right: "ManifoldExpr"
    genus: int

    def __post_init__(self):
        _check_nodes(self.left, self.right)
        _check_ints("the fiber-sum genus", self.genus)
        if self.genus < 0:
            raise NegativeDegree("fiber-sum genus must be >= 0")

    def _pieces(self):
        return ("fibersum(", self.left, ",", self.right, f",g={self.genus})")


@dataclass(frozen=True, eq=False, repr=False)
class LogTransform(_Composite):
    """A logarithmic transform of multiplicity ``multiplicity`` on a fiber of ``inner``."""

    inner: "ManifoldExpr"
    multiplicity: int

    def __post_init__(self):
        _check_nodes(self.inner)
        _check_ints("the log-transform multiplicity", self.multiplicity)
        if self.multiplicity < 1:
            raise NegativeDegree("log-transform multiplicity must be >= 1")

    def _pieces(self):
        return ("logt(", self.inner, f",{self.multiplicity})")


ManifoldExpr = Union[
    Primitive, CyclicCover, BicyclicCover, Quotient, ConnectedSum, FiberSum, LogTransform
]


def connected_sum_of(*pieces: tuple[ManifoldExpr, int]) -> ManifoldExpr:
    """Build a flattened connected sum; collapses to a single part when trivial."""
    counts: dict[ManifoldExpr, int] = {}
    for piece, mult in pieces:
        for part, submult in sum_parts(piece):
            counts[part] = counts.get(part, 0) + submult * mult
    parts = tuple(counts.items())
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    return ConnectedSum(parts)


def sum_parts(expr: ManifoldExpr) -> tuple[tuple[ManifoldExpr, int], ...]:
    """View any expression as a multiset of connected-sum parts."""
    if isinstance(expr, ConnectedSum):
        return expr.parts
    return ((expr, 1),)
