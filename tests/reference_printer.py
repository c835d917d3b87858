"""The DSL printer as it was when every node kind printed itself with a
recursive ``__str__``, kept as the oracle of the printing tests in
``test_expr.py``: the print templates walked with an explicit stack must
give the same text.  Each body is the old ``__str__``, with ``str(child)``
spelled ``reference_str(child)``."""

from fourcalc.expr import (
    CP2_BASE,
    BicyclicCover,
    ConnectedSum,
    CyclicCover,
    FiberSum,
    LogTransform,
    Primitive,
    Quotient,
)


def _primitive(self):
    if not self.params:
        return self.name
    inner = ",".join(str(p) for p in self.params)
    return f"{self.name}({inner})"


def _cyclic_cover(self):
    if self.base == CP2_BASE:
        return f"cover({self.base},d={self.d},branch={self.branch.degrees[0]})"
    p, q = self.branch.degrees
    return f"cover({self.base},d={self.d},branch=({p},{q}))"


def _bicyclic_cover(self):
    return f"bicyclic({self.d},{self.p};{self.a},{self.b},{self.m},{self.n})"


def _quotient(self):
    tail = ",weighted" if self.action == "weighted" else ""
    return f"quotient({reference_str(self.inner)},{self.d}{tail})"


def _connected_sum(self):
    pieces = []
    for part, mult in self.parts:
        text = reference_str(part)
        if not isinstance(part, Primitive):
            text = f"({text})"
        pieces.append(text if mult == 1 else f"{mult}*{text}")
    return " # ".join(pieces)


def _fiber_sum(self):
    return f"fibersum({reference_str(self.left)},{reference_str(self.right)},g={self.genus})"


def _log_transform(self):
    return f"logt({reference_str(self.inner)},{self.multiplicity})"


_PRINTERS = {
    Primitive: _primitive,
    CyclicCover: _cyclic_cover,
    BicyclicCover: _bicyclic_cover,
    Quotient: _quotient,
    ConnectedSum: _connected_sum,
    FiberSum: _fiber_sum,
    LogTransform: _log_transform,
}


def reference_str(node) -> str:
    """The text the recursive printer gave ``node``."""
    return _PRINTERS[type(node)](node)
