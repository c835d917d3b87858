"""Surgery operations at the expression level.

``universal_cover`` expands the two covering patterns the engine supports:

* ``Quotient(N, d)``  ->  ``N``;
* a connected sum with exactly one rational-homology-sphere summand
  ``Sd(d)`` and otherwise simply connected parts  ->  every other part
  repeated d times plus (d-1) copies of S2xS2.

Both expansions multiply chi and tau by d, which is asserted.
"""

from __future__ import annotations

from fourcalc.errors import UnsupportedPattern
from fourcalc.evaluate import evaluate
from fourcalc.expr import (
    FiberSum,
    ManifoldExpr,
    Primitive,
    Quotient,
    connected_sum_of,
    sum_parts,
)

S2XS2 = Primitive("S2xS2")


def _is_homology_sphere(part: ManifoldExpr) -> bool:
    return isinstance(part, Primitive) and part.name == "Sd"


def universal_cover(expr: ManifoldExpr) -> ManifoldExpr:
    """Expand the universal cover of a supported pattern.

    Returns the input unchanged when the fundamental group is already
    trivial; raises :class:`UnsupportedPattern` when pi1 is nontrivial
    but no expansion rule matches.
    """
    flags = evaluate(expr).flags
    if flags.pi1.is_trivial:
        return expr

    if isinstance(expr, Quotient):
        cover = expr.inner
        _assert_multiplicative(expr, cover, expr.d)
        return cover

    parts = sum_parts(expr)
    spheres = [(p, m) for p, m in parts if _is_homology_sphere(p)]
    if len(spheres) == 1 and spheres[0][1] == 1:
        d = spheres[0][0].params[0]
        rest = [(p, m) for p, m in parts if not _is_homology_sphere(p)]
        if all(evaluate(p).flags.pi1.is_trivial for p, _ in rest):
            # pi1 = Z/d is nontrivial here, so d >= 2.
            cover = connected_sum_of(*[(p, m * d) for p, m in rest], (S2XS2, d - 1))
            _assert_multiplicative(expr, cover, d)
            return cover
    raise UnsupportedPattern(
        f"no universal-cover expansion for pi1 = {flags.pi1}: {expr}"
    )


def _assert_multiplicative(base: ManifoldExpr, cover: ManifoldExpr, d: int) -> None:
    base_rec, cover_rec = evaluate(base).record, evaluate(cover).record
    if cover_rec.chi != d * base_rec.chi or cover_rec.tau != d * base_rec.tau:
        raise UnsupportedPattern(
            f"cover expansion is not {d}-multiplicative: "
            f"chi {cover_rec.chi} vs {d}*{base_rec.chi}, "
            f"tau {cover_rec.tau} vs {d}*{base_rec.tau}"
        )


def gompf_sum_blueprint(k: int) -> ManifoldExpr:
    """The fiber-sum expression behind the registry block Xk(k):
    a genus-(k+1) x genus-2 surface product summed with 2k+2 copies of
    E(2) along disjoint square-zero tori."""
    expr: ManifoldExpr = Primitive("FgProd", (k + 1, 2))
    for _ in range(2 * k + 2):
        expr = FiberSum(expr, Primitive("E", (2,)), 1)
    return expr
