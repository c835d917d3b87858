"""Exact calculus for closed oriented smooth 4-manifolds.

The package represents manifolds as finite term trees built from named
primitives (projective planes, elliptic surfaces, rational homology
spheres, ...) and constructors (cyclic and bi-cyclic branched covers,
free cyclic quotients, connected sums, fiber sums, logarithmic
transforms).  All invariants are computed exactly: arbitrary-precision
integers for the Euler characteristic and signature, `fractions.Fraction`
for every derived quantity.  On top of the evaluator sit

* an obstruction engine deciding Hitchin-Thorpe, curvature (Seiberg-Witten
  based) and Bauer-Furuta style Einstein-metric obstructions, emitting
  self-verifying certificates,
* a rewrite engine that reduces expressions to canonical connected sums,
* a geography module enumerating lattice regions of realizable Chern
  pairs and generating the named manifold families with pre-verified
  certificates, and
* a small DSL plus a command line interface.
"""

from fourcalc.invariants import InvariantRecord
from fourcalc.flags import StructureFlags, TriState, GroupLabel
from fourcalc.expr import (
    BicyclicCover,
    ConnectedSum,
    CyclicCover,
    DivisorClass,
    FiberSum,
    LogTransform,
    Primitive,
    Quotient,
)
from fourcalc.evaluate import eval_invariants, infer_flags

__all__ = [
    "BicyclicCover",
    "ConnectedSum",
    "CyclicCover",
    "DivisorClass",
    "FiberSum",
    "GroupLabel",
    "InvariantRecord",
    "LogTransform",
    "Primitive",
    "Quotient",
    "StructureFlags",
    "TriState",
    "eval_invariants",
    "infer_flags",
]

__version__ = "0.1.0"
