"""Structural evaluation of manifold expressions.

``evaluate`` produces an :class:`Evaluation`, the form in which the
primitive table declares its entries: exact invariants, flags with
provenance, capability tags, labels and the facts that rules read.
Evaluation is pure and memoized; equal trees give identical results.

Each node kind has one rule in ``_RULES``, called with the node and the
evaluations of its ``children``.  ``evaluate`` walks the nodes not cached
yet in post-order, left to right, with an explicit stack, so depth costs
no recursion and the leftmost failing subtree raises first.  Its cache,
a dict filled from the bottom up, keeps the ``cache_info()`` and
``cache_clear()`` of ``functools.lru_cache``: each entry is one miss, and
a hit is a call answered from the cache.

The rules of a node read only its direct children's evaluations.  The
facts that span several levels (whether the primitive at the bottom of
a log-transform tower has a fiber with simply connected complement, the
tower's multiple fibers, whether a fiber-sum chain is built on the XG
block) are declared in the primitive table and travel up as
:class:`Evaluation` fields, so a tower or a chain costs work linear in
its depth.  The fundamental group of E(n) with k multiple fibers is the
orbifold group of the base sphere: trivial for k <= 1, Z/gcd(p, q) for
k = 2 and a presented group for k >= 3.

Every flag rule lives here; the primitive table declares only what the
rules cannot derive.  Flag inference applies a fixed rule set and leaves
everything else ``unknown``.  In particular, when the fundamental group
may contain 2-torsion the parity of the intersection form is never
inferred from non-spin-ness alone (there are non-spin manifolds with
even forms); only the signature rules and odd-order-group rule apply.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd
from typing import Iterable, NamedTuple

from fourcalc import covers
from fourcalc.errors import (
    AdmissibilityFail,
    InconsistentFlags,
    InvalidExpr,
    MissingCapability,
)
from fourcalc.expr import (
    QUADRIC_BASE,
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
from fourcalc.registry import ELLIPTIC_FIBER, Evaluation, Fibers, genus_cap, instantiate

_CITE_ROHLIN = "Rohlin: spin forces tau = 0 mod 16"
_CITE_SUM_SPIN = "w2 is additive under connected sum"
_CITE_ODD_PI1 = "no 2-torsion in pi1: non-spin forces an odd intersection form"
_CITE_TAU8 = "smooth even intersection forms have signature divisible by 8"
_CITE_SC = "simply connected: intersection form even iff spin"
_CITE_COVER_SPIN = "spin structures pull back to covers"
_CITE_FLEXIBLE = "flexible branch loci give simply connected covers"
_CITE_AMPLE = "ample canonical bundle: minimal surface of general type"
_CITE_KAEHLER_QUOTIENT = "free holomorphic quotients of minimal general type stay minimal general type"
_CITE_GOMPF_SUM = "symplectic sum along square-zero surfaces"
_CITE_FIBER_PI1 = "fiber summand with simply connected fiber complement kills the fiber generators"
_CITE_LOG = "logarithmic transforms preserve chi, tau and the gauge-theoretic flags"
_CITE_MULTIPLE_FIBER = "E(n) with multiple fibers is spin iff n is even and all multiplicities odd"
_CITE_ORBIFOLD = "E(n) with multiple fibers has the orbifold fundamental group of its base"
_CITE_TAUBES = "symplectic with b2+ > 1: SW of the canonical class is +-1"
_CITE_WITTEN = "Kaehler surfaces of general type have nontrivial SW"
_CITE_SW_VANISH = "SW vanishes on sums of two pieces with positive b2+"
_CITE_KMT = "sums with b2+ = 0 pieces keep a nontrivial SW-type invariant"
# The flags a log transform forgets once the spin type must be decided
# anew, and those it forgets where the Seiberg-Witten flags may change.
_LOG_DECIDED_ANEW = ("spin", "parity", "w2type", "minimal_general_type", "acd")
_SW_FIELDS = ("sw_nontrivial", "sw_mod2_nontrivial")
_ALL_UNKNOWN = StructureFlags()
# pi1 of E(n) with three or more multiple fibers.
_ORBIFOLD_GROUP = GroupLabel.presented("orbifold group of the base sphere")


def _fill(flags: StructureFlags, rule: str, citation: str, **values) -> StructureFlags:
    """Cite those of ``values`` whose fields are still unknown."""
    updates = {name: v for name, v in values.items() if getattr(flags, name).value == "unknown"}
    return flags.cite(rule=rule, citation=citation, **updates) if updates else flags


def _finish(
    record: InvariantRecord, flags: StructureFlags, **kwargs
) -> Evaluation:
    """Apply the generic flag rules that depend only on (record, flags)."""
    # Rohlin: declared spin must satisfy it; otherwise it rules spin out.
    if flags.spin is not NO and not rohlin_compatible(record.tau):
        if flags.spin is YES:
            raise InconsistentFlags(f"spin but tau={record.tau} not divisible by 16")
        flags = flags.cite(spin=NO, rule="rohlin-contrapositive", citation=_CITE_ROHLIN)
    if flags.spin is YES:
        flags = _fill(flags, "spin-entails", _CITE_SC, parity=Parity.EVEN, w2type=W2Type.II)
    if flags.spin is NO:
        if flags.parity is Parity.UNKNOWN and flags.pi1.odd_order is True:
            flags = flags.cite(parity=Parity.ODD, rule="odd-order-pi1", citation=_CITE_ODD_PI1)
        if flags.w2type is W2Type.UNKNOWN and flags.pi1.is_trivial:
            flags = flags.cite(w2type=W2Type.I, rule="own-cover", citation=_CITE_SC)
    if flags.parity is Parity.UNKNOWN and record.tau % 8 != 0:
        flags = flags.cite(parity=Parity.ODD, rule="signature-mod-8", citation=_CITE_TAU8)
    # Taubes: a symplectic manifold with b2+ > 1 (b2 + tau > 2) has
    # SW = +-1 on the canonical class, which is in particular odd.
    if flags.symplectic is YES and record.b2 is not None and record.b2 + record.tau > 2:
        if flags.minimal_general_type is YES:
            rule, citation = "general-type", _CITE_WITTEN
        else:
            rule, citation = "taubes-symplectic", _CITE_TAUBES
        flags = _fill(flags, rule, citation, sw_nontrivial=YES, sw_mod2_nontrivial=YES)
    if flags.parity is Parity.EVEN and flags.w2type is W2Type.I and flags.pi1.odd_order is True:
        raise InconsistentFlags("even form with odd-order pi1 but non-spin cover")
    return Evaluation(record=record, flags=flags, **kwargs)


def _eval_primitive(expr: Primitive) -> Evaluation:
    # The declaration is an Evaluation: finish it with the generic rules.
    info = instantiate(expr.name, expr.params)
    return _finish(**dict(vars(info), capabilities=dict(info.capabilities)))


def _cover_flags(ample: bool, acd_citation: str) -> StructureFlags:
    flags = StructureFlags(pi1=GroupLabel.trivial()).cite(
        rule="flexible-branch", citation=_CITE_FLEXIBLE, pi1=GroupLabel.trivial()
    )
    flags = flags.cite(symplectic=YES, rule="kaehler", citation="projective surfaces are Kaehler")
    flags = flags.cite(acd=YES, rule="acd-cover", citation=acd_citation)
    if ample:
        flags = flags.cite(minimal_general_type=YES, rule="ample-canonical", citation=_CITE_AMPLE)
    return flags


def _eval_cyclic(expr: CyclicCover) -> Evaluation:
    if any(k < 1 for k in expr.branch.degrees):
        raise InvalidExpr("cover not constructible: flexibility")
    line = expr.branch.divided_by(expr.d)
    base = covers.BASES[expr.base]
    record = covers.cyclic_cover_invariants(base.entry.record, base.c1, expr.d, line)
    if expr.d == 1:
        return _finish(record, base.entry.flags, complex_surface=True)
    flags = _cover_flags(covers.cyclic_cover_ample(expr.base, expr.d, line), base.acd_citation)
    return _finish(record, flags, complex_surface=True)


def _eval_bicyclic(expr: BicyclicCover) -> Evaluation:
    record = covers.bicyclic_invariants(expr.d, expr.p, expr.a, expr.b, expr.m, expr.n)
    ample = covers.ample_canonical(expr.d, expr.p, expr.a, expr.b, expr.m, expr.n)
    flags = _cover_flags(ample, covers.BASES[QUADRIC_BASE].acd_citation)
    return _finish(record, flags, complex_surface=True)


def _eval_quotient(expr: Quotient, inner_eval: Evaluation) -> Evaluation:
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
    elif isinstance(inner, CyclicCover) and inner.base == QUADRIC_BASE:
        line = inner.branch.divided_by(inner.d)
        a, b = line.degrees
        second = None  # single cover: the branch is d-divisible by construction
        if expr.d != inner.d:
            raise AdmissibilityFail(f"need d = {inner.d}")
    else:
        raise AdmissibilityFail(
            "no free cyclic action rule for this inner expression"
        )
    failures = covers.action_admissibility(expr.d, a, b, expr.action)
    if failures:
        raise AdmissibilityFail("; ".join(failures))
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


def sum_spin(spins: Iterable[TriState]) -> TriState:
    """The spin flag of a connected sum: w2 is additive, so NO if any
    summand is NO and YES if all are YES."""
    spins = set(spins)
    return NO if NO in spins else YES if spins <= {YES} else UNKNOWN


def _cite_sum_sw(flags: StructureFlags, parts: list[tuple[Evaluation, int]]) -> StructureFlags:
    """Seiberg-Witten nontriviality of a connected sum: it vanishes when
    two summands have b2+ > 0, and one nontrivial summand beside b2+ = 0
    pieces keeps it.  Both rules need every summand's b1."""
    positive = nontrivial = 0
    others_positive = False
    for ev, mult in parts:
        rec = ev.record
        b2 = rec.b2
        if b2 is None:
            return flags
        sw_yes = ev.flags.sw_nontrivial is YES
        if sw_yes:
            nontrivial += mult
        if b2 + rec.tau > 0:  # b2+ > 0, decided on integers
            positive += mult
            others_positive = others_positive or not sw_yes
    if positive >= 2:
        return flags.cite(sw_nontrivial=NO, rule="sum-vanishing", citation=_CITE_SW_VANISH)
    if nontrivial == 1 and not others_positive:
        return flags.cite(sw_nontrivial=YES, rule="sum-with-null-pieces", citation=_CITE_KMT)
    return flags


def _eval_connected_sum(expr: ConnectedSum, *evals: Evaluation) -> Evaluation:
    parts = [(ev, mult) for ev, (_, mult) in zip(evals, expr.parts)]
    record = connected_sum_record((ev.record, mult) for ev, mult in parts)

    pi1 = _combine_pi1(parts)
    flags = StructureFlags(pi1=pi1)
    if pi1.kind != "unknown":
        flags = flags.cite(
            pi1=pi1, rule="sum-pi1", citation="van Kampen: free product of summand groups"
        )
    spin = sum_spin(ev.flags.spin for ev, _ in parts)
    if spin is not UNKNOWN:
        flags = flags.cite(spin=spin, rule="sum-spin", citation=_CITE_SUM_SPIN)
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
    flags = _cite_sum_sw(flags, parts)
    labels = tuple(sorted({lab for ev, _ in parts for lab in ev.labels}))
    return _finish(record, flags, labels=labels)


def _eval_fiber_sum(expr: FiberSum, left: Evaluation, right: Evaluation) -> Evaluation:
    cap = genus_cap(expr.genus)
    for side, name in ((left, "left"), (right, "right")):
        if side.capabilities.get(cap, 0) < 1:
            raise MissingCapability(
                f"{name} side has no genus-{expr.genus} symplectic surface available"
            )
    chi = left.record.chi + right.record.chi - 2 * (2 - 2 * expr.genus)
    tau = left.record.tau + right.record.tau

    lp, rp = left.flags.pi1, right.flags.pi1
    # Along a partner whose fiber has simply connected complement, the XG
    # block keeps its group.
    if lp.is_trivial and rp.is_trivial:
        pi1 = GroupLabel.trivial()
        b1 = 0
    elif rp.is_trivial and left.group_block and right.sc_fiber_complement:
        pi1, b1 = lp, left.record.b1
    elif lp.is_trivial and right.group_block and left.sc_fiber_complement:
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
    return _finish(
        record, flags, capabilities=merged, labels=labels,
        group_block=left.group_block or right.group_block,
    )


def _kept_by_log(flags: StructureFlags) -> bool:
    """Whether the SW value in ``flags`` was last cited as kept by a log transform."""
    for record in reversed(flags.provenance):
        if record.field == "sw_nontrivial":
            return record.rule == "log-transform"
    return False


def _eval_log_transform(expr: LogTransform, inner: Evaluation) -> Evaluation:
    if inner.capabilities.get(ELLIPTIC_FIBER, 0) < 1:
        raise MissingCapability("log transforms need an elliptic fiber")
    m = expr.multiplicity
    if m == 1:
        return inner
    fibers, flags, rec = inner.fibers, inner.flags, inner.record
    if fibers is not None:
        fibers = Fibers(fibers.count + 1, fibers.evens + (m % 2 == 0), gcd(fibers.gcd, m))
    forget = ()
    if flags.spin is not UNKNOWN and (fibers.evens if fibers is not None else m % 2 == 0):
        # Once a multiple fiber is even, the spin type depends on all the
        # multiple fibers: decide it anew at every transform above it.
        forget = _LOG_DECIDED_ANEW
    # SW survives the transform at b2+ > 1, and E(1)_p is E(1).  At
    # b2+ = 1 it depends on the chamber: the Dolgachev surface E(1)_{2,3}
    # is homeomorphic but not diffeomorphic to E(1).
    sw_kept = (rec.b2 is not None and rec.b2 + rec.tau > 2) or (
        fibers is not None and fibers.count <= 1
    )
    if not sw_kept:
        forget += _SW_FIELDS
    if forget:
        # Keep only the fields, and the records, that the transform keeps.
        flags = replace(
            flags,
            **{name: getattr(_ALL_UNKNOWN, name) for name in forget},
            provenance=tuple(p for p in flags.provenance if p.field not in forget),
        )
    if fibers is not None and fibers.count >= 2:
        # The orbifold group of the base sphere, <x_1..x_k | x_i^p_i, x_1...x_k>.
        # It is cited where it changes, not at every level of a tower.
        pi1 = GroupLabel.cyclic(fibers.gcd) if fibers.count == 2 else _ORBIFOLD_GROUP
        if pi1 != flags.pi1:
            flags = flags.cite(pi1=pi1, rule="multiple-fiber-pi1", citation=_CITE_ORBIFOLD)
    # The spin verdict is claimed where pi1 has odd order: one even fiber
    # beside at most one odd one.  With two even fibers, or three or more
    # fibers, the rule holds too, but no verdict is claimed yet.
    if fibers is not None and fibers.evens and flags.pi1.odd_order is True:
        flags = flags.cite(spin=NO, rule="even-multiple-fiber", citation=_CITE_MULTIPLE_FIBER)
    # Like pi1, SW is cited where its reason changes, not at every level
    # of a tower: the inner value kept by a transform below stays cited.
    if sw_kept and inner.flags.sw_nontrivial is not UNKNOWN and not _kept_by_log(inner.flags):
        flags = flags.cite(
            sw_nontrivial=inner.flags.sw_nontrivial,
            rule="log-transform",
            citation=_CITE_LOG,
        )
    labels = inner.labels + (f"log multiplicity {m}",)
    # Of the transforms, only E(2)_p at odd p keeps the split it had.
    odd_e2 = m % 2 and inner.fibers == (0, 0, 0) and inner.spin_split == (1, 0)
    return _finish(
        rec,
        flags,
        capabilities=dict(inner.capabilities),
        labels=labels,
        complex_surface=inner.complex_surface,
        fibers=fibers,
        sc_fiber_complement=inner.sc_fiber_complement,
        group_block=inner.group_block,
        spin_split=inner.spin_split if odd_e2 else None,
    )


_RULES = {
    Primitive: _eval_primitive,
    CyclicCover: _eval_cyclic,
    BicyclicCover: _eval_bicyclic,
    Quotient: _eval_quotient,
    ConnectedSum: _eval_connected_sum,
    FiberSum: _eval_fiber_sum,
    LogTransform: _eval_log_transform,
}
_CACHE: dict = {}
_hits = 0
_CacheInfo = NamedTuple(
    "CacheInfo", [("hits", int), ("misses", int), ("maxsize", None), ("currsize", int)]
)


def evaluate(expr: ManifoldExpr) -> Evaluation:
    """Evaluate invariants, flags, capabilities and labels of a term tree."""
    global _hits
    cache = _CACHE
    done = cache.get(expr)
    if done is not None:
        _hits += 1
        return done
    if type(expr) not in _RULES:
        raise InvalidExpr(f"not a manifold expression: {expr!r}")
    stack = [(expr, expr.children)]
    while stack:
        node, children = stack[-1]
        todo = [(child, child.children) for child in reversed(children) if child not in cache]
        if todo:
            stack += todo
            continue
        stack.pop()
        if node not in cache:  # else it was reached twice
            cache[node] = _RULES[type(node)](node, *map(cache.__getitem__, children))
    return cache[expr]


def _cache_clear() -> None:
    global _hits
    _CACHE.clear()
    _hits = 0


evaluate.cache_clear = _cache_clear
evaluate.cache_info = lambda: _CacheInfo(_hits, len(_CACHE), None, len(_CACHE))


def eval_invariants(expr: ManifoldExpr) -> InvariantRecord:
    """Exact chi, tau, b1 (plus derived fields) of an expression."""
    return evaluate(expr).record


def infer_flags(expr: ManifoldExpr) -> StructureFlags:
    """Structure flags with provenance; unresolvable entries stay unknown."""
    return evaluate(expr).flags
