"""Structural evaluation of manifold expressions.

``evaluate`` walks a term tree once and produces an :class:`Evaluation`
bundle: exact invariants, structure flags with provenance, remaining
capability tags and smooth-structure labels.  Evaluation is pure and
memoized; equal trees give identical results.

Flag inference applies a fixed rule set and leaves everything else
``unknown``.  In particular, when the fundamental group may contain
2-torsion the parity of the intersection form is never inferred from
non-spin-ness alone (there are non-spin manifolds with even forms); only
the signature rules and odd-order-group rule apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from fourcalc import covers
from fourcalc.errors import (
    AdmissibilityFail,
    InconsistentFlags,
    InvalidExpr,
    MissingCapability,
)
from fourcalc.expr import (
    BicyclicCover,
    ConnectedSum,
    CyclicCover,
    FiberSum,
    LogTransform,
    ManifoldExpr,
    Primitive,
    Quotient,
)
from fourcalc.flags import (
    NO,
    UNKNOWN,
    YES,
    GroupLabel,
    Parity,
    StructureFlags,
    TriState,
    W2Type,
)
from fourcalc.invariants import InvariantRecord, connected_sum_record, rohlin_compatible
from fourcalc.registry import ELLIPTIC_FIBER, REGISTRY, genus_cap

# Primitives whose distinguished fiber/surface has simply connected
# complement, letting fiber sums kill the fiber's fundamental-group image.
_SC_COMPLEMENT = {"E", "Y", "K3", "X442", "Xk"}

_CITE_ROHLIN = "Rohlin: spin with b1 = 0 forces tau = 0 mod 16"
_CITE_SUM_SPIN = "w2 is additive under connected sum"
_CITE_ODD_PI1 = "no 2-torsion in pi1: non-spin forces an odd intersection form"
_CITE_TAU8 = "smooth even intersection forms have signature divisible by 8"
_CITE_SC = "simply connected: intersection form even iff spin"
_CITE_COVER_SPIN = "spin structures pull back to covers"
_CITE_FLEXIBLE = "flexible branch loci give simply connected covers"
_CITE_ACD_QUADRIC = "iterated cyclic covers of the quadric are almost completely decomposable"
_CITE_ACD_CP2 = "cyclic covers of ACD surfaces branched along hypersurface sections are ACD"
_CITE_AMPLE = "ample canonical bundle: minimal surface of general type"
_CITE_KAEHLER_QUOTIENT = "free holomorphic quotients of minimal general type stay minimal general type"
_CITE_GOMPF_SUM = "symplectic sum along square-zero surfaces"
_CITE_FIBER_PI1 = "fiber summand with simply connected fiber complement kills the fiber generators"
_CITE_LOG = "logarithmic transforms preserve chi, tau and the gauge-theoretic flags"


@dataclass(frozen=True)
class Evaluation:
    record: InvariantRecord
    flags: StructureFlags
    capabilities: dict = field(default_factory=dict)
    labels: tuple[str, ...] = ()
    complex_surface: bool = False


def _finish(
    record: InvariantRecord, flags: StructureFlags, **kwargs
) -> Evaluation:
    """Apply the generic flag rules that depend only on (record, flags)."""
    # Rohlin: declared spin must satisfy it; otherwise it rules spin out.
    if flags.spin is not NO and not rohlin_compatible(record.chi, record.tau, record.b1):
        if flags.spin is YES:
            raise InconsistentFlags(
                f"spin with b1=0 but tau={record.tau} not divisible by 16"
            )
        flags = flags.cite(spin=NO, rule="rohlin-contrapositive", citation=_CITE_ROHLIN)
    if flags.spin is YES:
        updates = {}
        if flags.parity is Parity.UNKNOWN:
            updates["parity"] = Parity.EVEN
        if flags.w2type is W2Type.UNKNOWN:
            updates["w2type"] = W2Type.II
        if updates:
            flags = flags.cite(rule="spin-entails", citation=_CITE_SC, **updates)
    if flags.spin is NO:
        if flags.parity is Parity.UNKNOWN and flags.pi1.odd_order is True:
            flags = flags.cite(parity=Parity.ODD, rule="odd-order-pi1", citation=_CITE_ODD_PI1)
        if flags.w2type is W2Type.UNKNOWN and flags.pi1.is_trivial:
            flags = flags.cite(w2type=W2Type.I, rule="own-cover", citation=_CITE_SC)
    if flags.parity is Parity.UNKNOWN and record.tau % 8 != 0:
        flags = flags.cite(parity=Parity.ODD, rule="signature-mod-8", citation=_CITE_TAU8)
    # Taubes: a symplectic manifold with b2+ > 1 has SW = +-1 on the
    # canonical class, which is in particular odd.
    if (
        flags.symplectic is YES
        and record.b2plus is not None
        and record.b2plus > 1
    ):
        updates = {}
        if flags.sw_nontrivial is UNKNOWN:
            updates["sw_nontrivial"] = YES
        if flags.sw_mod2_nontrivial is UNKNOWN:
            updates["sw_mod2_nontrivial"] = YES
        if updates:
            flags = flags.cite(
                rule="taubes-symplectic",
                citation="symplectic with b2+ > 1: SW of the canonical class is +-1",
                **updates,
            )
    if flags.parity is Parity.EVEN and flags.w2type is W2Type.I and flags.pi1.odd_order is True:
        raise InconsistentFlags("even form with odd-order pi1 but non-spin cover")
    return Evaluation(record=record, flags=flags, **kwargs)


def _eval_primitive(expr: Primitive) -> Evaluation:
    info = REGISTRY.instantiate(expr.name, expr.params)
    return _finish(
        info.record,
        info.flags,
        capabilities=dict(info.capabilities),
        labels=info.labels,
        complex_surface=info.complex_surface,
    )


def _cover_flags(spin_hint: TriState, ample: bool, acd_citation: str) -> StructureFlags:
    flags = StructureFlags(pi1=GroupLabel.trivial()).cite(
        rule="flexible-branch", citation=_CITE_FLEXIBLE, pi1=GroupLabel.trivial()
    )
    flags = flags.cite(symplectic=YES, rule="kaehler", citation="projective surfaces are Kaehler")
    flags = flags.cite(acd=YES, rule="acd-cover", citation=acd_citation)
    if ample:
        flags = flags.cite(minimal_general_type=YES, rule="ample-canonical", citation=_CITE_AMPLE)
    if spin_hint is not UNKNOWN:
        flags = flags.cite(spin=spin_hint, rule="declared", citation="")
    return flags


def _eval_cyclic(expr: CyclicCover) -> Evaluation:
    blueprint = covers.cyclic_blueprint(expr.base, expr.d, expr.branch)
    if not blueprint.constructible:
        raise InvalidExpr(
            "cover not constructible: "
            + "; ".join(c.name for c in blueprint.failures())
        )
    line = expr.branch.divided_by(expr.d)
    record = covers.cyclic_cover_invariants(
        covers.BASE_RECORDS[expr.base], covers.BASE_C1[expr.base], expr.d, line
    )
    if expr.d == 1:
        base_info = REGISTRY.instantiate("CP2" if expr.base == "CP2" else "S2xS2")
        return _finish(record, base_info.flags, complex_surface=True)
    acd_cite = _CITE_ACD_CP2 if expr.base == "CP2" else _CITE_ACD_QUADRIC
    flags = _cover_flags(UNKNOWN, covers.cyclic_cover_ample(expr.base, expr.d, line), acd_cite)
    return _finish(record, flags, complex_surface=True)


def _eval_bicyclic(expr: BicyclicCover) -> Evaluation:
    record = covers.bicyclic_invariants(expr.d, expr.p, expr.a, expr.b, expr.m, expr.n)
    ample = covers.ample_canonical(
        expr.d, expr.p, expr.a, expr.b, expr.m, expr.n, mode="cover"
    )
    flags = _cover_flags(UNKNOWN, ample, _CITE_ACD_QUADRIC)
    return _finish(record, flags, complex_surface=True)


def _eval_quotient(expr: Quotient) -> Evaluation:
    inner_eval = evaluate(expr.inner)
    if expr.d == 1:
        return inner_eval
    inner = expr.inner
    if isinstance(inner, BicyclicCover):
        a, b = inner.a, inner.b
        second = inner.second_branch
        if expr.d != inner.d:
            raise AdmissibilityFail(
                f"the free action lives along the first cover: need d = {inner.d}"
            )
    elif isinstance(inner, CyclicCover) and inner.base == "CP1xCP1":
        line = inner.branch.divided_by(inner.d)
        a, b = line.degrees
        second = None  # single cover: the branch is d-divisible by construction
        if expr.d != inner.d:
            raise AdmissibilityFail(f"need d = {inner.d}")
    else:
        raise AdmissibilityFail(
            "no free cyclic action rule for this inner expression"
        )
    adm = covers.action_admissibility(expr.d, a, b, expr.action)
    if not adm.passed:
        raise AdmissibilityFail(
            "; ".join(c.witness for c in adm.failures)
        )
    if second is not None and not second.divisible_by(expr.d):
        raise AdmissibilityFail(
            f"second branch {second} is not invariant under Z/{expr.d}"
        )
    record = covers.quotient_invariants(inner_eval.record, expr.d)
    flags = StructureFlags(pi1=GroupLabel.cyclic(expr.d)).cite(
        pi1=GroupLabel.cyclic(expr.d),
        rule="free-quotient",
        citation="free cyclic action on a simply connected cover",
    )
    if inner_eval.flags.minimal_general_type is YES:
        flags = flags.cite(
            minimal_general_type=YES,
            symplectic=YES,
            rule="quotient-ample",
            citation=_CITE_KAEHLER_QUOTIENT,
        )
    # w2-type from the known universal cover.
    if inner_eval.flags.spin is NO:
        flags = flags.cite(w2type=W2Type.I, rule="cover-non-spin", citation=_CITE_COVER_SPIN)
        flags = flags.cite(spin=NO, rule="cover-non-spin", citation=_CITE_COVER_SPIN)
    return _finish(record, flags, complex_surface=inner_eval.complex_surface)


def _combine_pi1(parts: list[tuple[Evaluation, int]]) -> GroupLabel:
    nontrivial: list[tuple[GroupLabel, int]] = []
    for ev, mult in parts:
        label = ev.flags.pi1
        if label.kind == "unknown":
            return GroupLabel.unknown()
        if not label.is_trivial:
            nontrivial.append((label, mult))
    if not nontrivial:
        return GroupLabel.trivial()
    if len(nontrivial) == 1 and nontrivial[0][1] == 1:
        return nontrivial[0][0]
    names = " * ".join(f"{label}^{mult}" if mult > 1 else str(label) for label, mult in nontrivial)
    return GroupLabel.presented(f"free product {names}")


def _eval_connected_sum(expr: ConnectedSum) -> Evaluation:
    parts = [(evaluate(sub), mult) for sub, mult in expr.parts]
    record = connected_sum_record((ev.record, mult) for ev, mult in parts)

    pi1 = _combine_pi1(parts)
    flags = StructureFlags(pi1=pi1).cite(
        pi1=pi1, rule="sum-pi1", citation="van Kampen: free product of summand groups"
    )
    spins = [ev.flags.spin for ev, _ in parts]
    if all(s is YES for s in spins):
        flags = flags.cite(spin=YES, rule="sum-spin", citation=_CITE_SUM_SPIN)
    elif any(s is NO for s in spins):
        flags = flags.cite(spin=NO, rule="sum-spin", citation=_CITE_SUM_SPIN)
    parities = [ev.flags.parity for ev, _ in parts]
    if any(p is Parity.ODD for p in parities):
        flags = flags.cite(
            parity=Parity.ODD, rule="sum-parity",
            citation="a summand class of odd square survives",
        )
    elif all(p is Parity.EVEN for p in parities):
        flags = flags.cite(
            parity=Parity.EVEN, rule="sum-parity", citation="direct sum of even forms"
        )
    # w2-type I whenever the universal cover visibly contains a non-spin
    # summand (covers of sums with finite cyclic pi1 repeat the simply
    # connected summands).
    if pi1.kind == "cyclic" and any(
        ev.flags.spin is NO and ev.flags.pi1.is_trivial for ev, _ in parts
    ):
        flags = flags.cite(w2type=W2Type.I, rule="cover-non-spin", citation=_CITE_COVER_SPIN)
    labels = tuple(sorted({lab for ev, _ in parts for lab in ev.labels}))
    return _finish(record, flags, labels=labels)


def _offers_sc_complement(sub: ManifoldExpr) -> bool:
    if isinstance(sub, Primitive):
        return sub.name in _SC_COMPLEMENT
    if isinstance(sub, LogTransform):
        return _offers_sc_complement(sub.inner)
    return False


def _carries_group_block(sub: ManifoldExpr) -> bool:
    """Whether the expression is built on the prescribed-group block XG,
    whose distinguished torus has trivial image in pi1.  Only then does a
    fiber sum along a simply connected partner preserve the group."""
    if isinstance(sub, Primitive):
        return sub.name == "XG"
    if isinstance(sub, FiberSum):
        return _carries_group_block(sub.left) or _carries_group_block(sub.right)
    if isinstance(sub, LogTransform):
        return _carries_group_block(sub.inner)
    return False


def _eval_fiber_sum(expr: FiberSum) -> Evaluation:
    left, right = evaluate(expr.left), evaluate(expr.right)
    cap = genus_cap(expr.genus)
    for side, name in ((left, "left"), (right, "right")):
        if side.capabilities.get(cap, 0) < 1:
            raise MissingCapability(
                f"{name} side has no genus-{expr.genus} symplectic surface available"
            )
    chi = left.record.chi + right.record.chi - 2 * (2 - 2 * expr.genus)
    tau = left.record.tau + right.record.tau

    lp, rp = left.flags.pi1, right.flags.pi1
    if lp.is_trivial and rp.is_trivial:
        pi1 = GroupLabel.trivial()
        b1 = 0
    elif rp.is_trivial and _offers_sc_complement(expr.right) and _carries_group_block(expr.left):
        pi1, b1 = lp, left.record.b1
    elif lp.is_trivial and _offers_sc_complement(expr.left) and _carries_group_block(expr.right):
        pi1, b1 = rp, right.record.b1
    else:
        pi1, b1 = GroupLabel.unknown(), None
    record = InvariantRecord(chi=chi, tau=tau, b1=b1)

    flags = StructureFlags(pi1=pi1)
    if not pi1.kind == "unknown":
        flags = flags.cite(pi1=pi1, rule="fiber-sum-pi1", citation=_CITE_FIBER_PI1)
    if left.flags.spin is YES and right.flags.spin is YES:
        flags = flags.cite(spin=YES, rule="fiber-sum-spin", citation=_CITE_GOMPF_SUM)
    if left.flags.symplectic is YES and right.flags.symplectic is YES:
        flags = flags.cite(symplectic=YES, rule="fiber-sum-symplectic", citation=_CITE_GOMPF_SUM)

    merged: dict = {}
    for side in (left, right):
        for key, count in side.capabilities.items():
            merged[key] = merged.get(key, 0) + count
    merged[cap] -= 2
    merged = {k: v for k, v in merged.items() if v > 0}
    labels = tuple(sorted(set(left.labels) | set(right.labels)))
    return _finish(record, flags, capabilities=merged, labels=labels)


def _eval_log_transform(expr: LogTransform) -> Evaluation:
    inner = evaluate(expr.inner)
    if inner.capabilities.get(ELLIPTIC_FIBER, 0) < 1:
        raise MissingCapability("log transforms need an elliptic fiber")
    if expr.multiplicity == 1:
        return inner
    flags = inner.flags
    if expr.multiplicity % 2 == 0 and flags.spin is not UNKNOWN:
        # Even-multiplicity transforms can change the spin type.
        flags = StructureFlags(
            pi1=flags.pi1,
            sw_nontrivial=flags.sw_nontrivial,
            sw_mod2_nontrivial=flags.sw_mod2_nontrivial,
            symplectic=flags.symplectic,
            provenance=flags.provenance,
        )
    flags = flags.cite(
        sw_nontrivial=inner.flags.sw_nontrivial,
        rule="log-transform",
        citation=_CITE_LOG,
    )
    labels = inner.labels + (f"log multiplicity {expr.multiplicity}",)
    return _finish(
        inner.record,
        flags,
        capabilities=dict(inner.capabilities),
        labels=labels,
        complex_surface=inner.complex_surface,
    )


@lru_cache(maxsize=None)
def evaluate(expr: ManifoldExpr) -> Evaluation:
    """Evaluate invariants, flags, capabilities and labels of a term tree."""
    if isinstance(expr, Primitive):
        return _eval_primitive(expr)
    if isinstance(expr, CyclicCover):
        return _eval_cyclic(expr)
    if isinstance(expr, BicyclicCover):
        return _eval_bicyclic(expr)
    if isinstance(expr, Quotient):
        return _eval_quotient(expr)
    if isinstance(expr, ConnectedSum):
        return _eval_connected_sum(expr)
    if isinstance(expr, FiberSum):
        return _eval_fiber_sum(expr)
    if isinstance(expr, LogTransform):
        return _eval_log_transform(expr)
    raise InvalidExpr(f"not a manifold expression: {expr!r}")


def eval_invariants(expr: ManifoldExpr) -> InvariantRecord:
    """Exact chi, tau, b1 (plus derived fields) of an expression."""
    return evaluate(expr).record


def infer_flags(expr: ManifoldExpr) -> StructureFlags:
    """Structure flags with provenance; unresolvable entries stay unknown."""
    return evaluate(expr).flags
