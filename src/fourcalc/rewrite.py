"""Rewrite engine reducing expressions to canonical connected sums.

Two disjoint rule sets, never mixed in one run:

* non-spin mode targets the form a CP2 # b CP2b, using
  - quadric-blowup: (S2xS2) # CP2b -> CP2 # 2 CP2b,
  - decompose: M # CP2 -> (b2+ + 1) CP2 # b2- CP2b for any summand M
    flagged almost completely decomposable (the flag is derived
    structurally for cyclic covers of CP2 branched along d-divisible
    curves and for iterated cyclic covers of the quadric, or declared on
    geography blocks); the rule consumes exactly one CP2;
* spin mode targets p K3 # q (S2xS2), using the stabilized
  decompositions of elliptic surfaces, their odd log transforms and the
  (4,4,2) hypersurface into K3s and quadrics.

Every application preserves chi, tau, b1 and the spin flag of the total
sum, asserted after each batch of identical firings (in the fixed rule
order, all copies of one summand rewritten by one rule; a randomized
order fires one copy per batch).  That detects the same faults as a
check after every firing: each copy changes (chi, tau) by the same
amount, so k copies change it exactly when one does, and a summand a
firing adds stays to the end of its batch, so a spin flag that one
firing breaks is still broken there.  The canonical multiplicities are forced
by (chi, tau) conservation, which is why normalization is confluent: any
maximal rule order reaching an all-canonical multiset gives the same
answer (the property suite randomizes rule order to check this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

from fourcalc.certificates import Certificate, Step
from fourcalc.errors import MismatchedInvariants, MixedRewriteModes
from fourcalc.evaluate import evaluate
from fourcalc.expr import (
    LogTransform,
    ManifoldExpr,
    Primitive,
    connected_sum_of,
    sum_parts,
)
from fourcalc.flags import NO, UNKNOWN, YES, TriState

CP2 = Primitive("CP2")
CP2B = Primitive("CP2b")
S2XS2 = Primitive("S2xS2")
K3 = Primitive("K3")

CITE_QUADRIC_BLOWUP = "the quadric blown up once is CP2 # 2 CP2b"
CITE_ACD = "almost completely decomposable: M # CP2 decomposes completely"
CITE_SPIN_DECOMP = "elliptic pieces decompose into K3s and quadrics after one stabilization"
CITE_WALL = "Wall stabilization: homeomorphic spin sums agree after adding quadrics"
CITE_IDENTITY = "the 4-sphere is the identity of connected sum"


@dataclass(frozen=True)
class TraceStep:
    rule: str
    citation: str
    detail: str


@dataclass(frozen=True)
class NormalizeResult:
    expr: ManifoldExpr
    trace: tuple[TraceStep, ...]
    canonical: bool
    mode: str

    @property
    def counts(self) -> dict:
        return {str(p): m for p, m in sum_parts(self.expr)}


def _is_identity_part(part: ManifoldExpr) -> bool:
    if isinstance(part, Primitive):
        if part.name == "S4":
            return True
        if part.name == "Sd" and part.params == (1,):
            return True
    return False


def _is_spin_only(part: ManifoldExpr) -> bool:
    if isinstance(part, Primitive):
        if part.name in ("X442", "Y"):
            return True
        if part.name == "E" and part.params[0] % 2 == 0:
            return False  # has a non-spin route via ACD as well
    if isinstance(part, LogTransform):
        return True
    return False


def _elliptic_halves(part: ManifoldExpr) -> Optional[int]:
    """n for parts smoothly equivalent to E(2n); None otherwise."""
    if isinstance(part, Primitive) and part.name == "E" and part.params[0] % 2 == 0:
        return part.params[0] // 2
    if part == K3:
        return 1
    if isinstance(part, LogTransform):
        inner = part.inner
        if isinstance(inner, Primitive) and inner.name == "E" and inner.params == (2,):
            return None  # handled by the log-transform rule, not this one
    return None


def _is_odd_log_e2(part: ManifoldExpr) -> bool:
    if isinstance(part, Primitive) and part.name == "Y":
        return True
    if isinstance(part, LogTransform):
        inner = part.inner
        return isinstance(inner, Primitive) and inner.name == "E" and inner.params == (2,)
    return False


def _total_record(counts: dict) -> tuple[int, int]:
    total = sum(counts.values())
    chi = sum(evaluate(p).record.chi * m for p, m in counts.items()) - 2 * (total - 1)
    tau = sum(evaluate(p).record.tau * m for p, m in counts.items())
    return chi, tau


def _total_spin(counts: dict) -> TriState:
    spins = [evaluate(p).flags.spin for p in counts]
    if any(s is NO for s in spins):
        return NO
    if all(s is YES for s in spins):
        return YES
    return UNKNOWN


def _spin_rule(part: ManifoldExpr, wall_n0: int) -> Optional[tuple[str, int]]:
    """The spin-mode rule for ``part`` and the quadric stock it needs."""
    if part == Primitive("X442"):
        return "wall-stabilize", wall_n0
    if _is_odd_log_e2(part):
        return "log-elliptic-decompose", 1
    if part != K3 and _elliptic_halves(part) is not None:
        return "elliptic-decompose", 1
    return None


def _applicable_rules(counts: dict, mode: str, wall_n0: int) -> list[tuple]:
    rules = []
    if mode == "nonspin":
        if counts.get(S2XS2, 0) >= 1 and counts.get(CP2B, 0) >= 1:
            rules.append(("quadric-blowup", None))
        if counts.get(CP2, 0) >= 1:
            for part in counts:
                if part in (CP2, CP2B):
                    continue
                ev = evaluate(part)
                if ev.flags.acd is YES and ev.flags.pi1.is_trivial:
                    rules.append(("decompose", part))
    else:
        stock = counts.get(S2XS2, 0)
        for part in counts:
            spin_rule = _spin_rule(part, wall_n0)
            if spin_rule is not None and stock >= spin_rule[1]:
                rules.append((spin_rule[0], part))
    return rules


def _firing(rule: str, part, wall_n0: int) -> tuple[dict, TraceStep]:
    """One firing of ``rule``: its net change to the multiset and its step."""
    if rule == "quadric-blowup":
        return {S2XS2: -1, CP2: 1, CP2B: 1}, TraceStep(
            rule, CITE_QUADRIC_BLOWUP, "(S2xS2) # CP2b -> CP2 # 2*CP2b"
        )
    if rule == "decompose":
        ev = evaluate(part)
        b2p, b2m = int(ev.record.b2plus), int(ev.record.b2minus)
        acd_prov = [p for p in ev.flags.provenance if p.field == "acd"]
        origin = acd_prov[-1].citation if acd_prov else CITE_ACD
        # Consumes one CP2 and gives back b2+ + 1.
        return {part: -1, CP2: b2p, CP2B: b2m}, TraceStep(
            rule, CITE_ACD, f"{part} # CP2 -> {b2p + 1}*CP2 # {b2m}*CP2b [{origin}]"
        )
    if rule == "wall-stabilize":
        return {part: -1, K3: 4, S2XS2: 7}, TraceStep(
            rule,
            CITE_WALL,
            f"{part} # {wall_n0}*(S2xS2) -> 4*K3 # {7 + wall_n0}*(S2xS2)",
        )
    if rule == "log-elliptic-decompose":
        return {part: -1, K3: 1}, TraceStep(
            rule, CITE_SPIN_DECOMP, f"{part} # (S2xS2) -> K3 # (S2xS2)"
        )
    if rule == "elliptic-decompose":
        n = _elliptic_halves(part)
        return {part: -1, K3: n, S2XS2: n - 1}, TraceStep(
            rule,
            CITE_SPIN_DECOMP,
            f"{part} # (S2xS2) -> {n}*K3 # {n}*(S2xS2)",
        )
    raise AssertionError(f"unknown rule {rule}")


def _batch_size(counts: dict, rule: str, part, delta: dict, wall_n0: int) -> int:
    """How many copies of one firing to apply in a single step of the
    fixed rule order.

    Every copy of ``part`` (every quadric, for quadric-blowup) can fire in
    turn: no firing takes the CP2, CP2b or quadric stock the next copy
    needs.  The batch stops after one firing when that firing could enable
    a rule listed before this one, so the steps come in the order the
    one-at-a-time loop takes.
    """
    copies = counts[S2XS2] if rule == "quadric-blowup" else counts[part]
    if rule == "decompose":
        # The first CP2b next to a quadric enables quadric-blowup.
        if delta[CP2B] and S2XS2 in counts and CP2B not in counts:
            return 1
    elif rule != "quadric-blowup" and delta.get(S2XS2):
        # Added quadrics may lift an earlier summand over its stock threshold.
        for other in counts:
            if other == part:
                break
            if _spin_rule(other, wall_n0) is not None:
                return 1
    return copies


def _is_spin_eligible(part: ManifoldExpr) -> bool:
    if part in (K3, S2XS2):
        return True
    if isinstance(part, Primitive):
        if part.name in ("X442", "Y"):
            return True
        if part.name == "E" and part.params[0] % 2 == 0:
            return True
    return _is_odd_log_e2(part)


def _choose_mode(counts: dict) -> str:
    has_planes = any(p in (CP2, CP2B) for p in counts)
    has_nonspin_acd = any(
        p not in (CP2, CP2B)
        and not _is_spin_eligible(p)
        and evaluate(p).flags.acd is YES
        for p in counts
    )
    has_spin_only = any(_is_spin_only(p) for p in counts)
    if has_spin_only and (has_planes or has_nonspin_acd):
        raise MixedRewriteModes(
            "expression mixes spin-mode and non-spin-mode summands"
        )
    if has_planes or has_nonspin_acd:
        return "nonspin"
    return "spin"


def normalize(
    expr: ManifoldExpr,
    rng: Optional[random.Random] = None,
    wall_n0: int = 1,
    mode: Optional[str] = None,
) -> NormalizeResult:
    """Rewrite to a canonical sum (a CP2 # b CP2b, or p K3 # q S2xS2).

    When no rule applies and the multiset is not canonical, the partial
    form is returned with ``canonical=False`` rather than failing.  Pass
    ``rng`` to randomize the rule order (the result is order-independent).
    """
    counts: dict = {}
    trace: list[TraceStep] = []
    for part, mult in sum_parts(expr):
        if _is_identity_part(part):
            trace.append(TraceStep("drop-identity", CITE_IDENTITY, f"dropped {mult}*{part}"))
            continue
        counts[part] = counts.get(part, 0) + mult
    if not counts:
        return NormalizeResult(Primitive("S4"), tuple(trace), True, "spin")
    if any(not evaluate(p).flags.pi1.is_trivial for p in counts):
        return NormalizeResult(expr, tuple(trace), False, "blocked")

    if mode is None:
        mode = _choose_mode(counts)
    check = _total_record(counts)
    spin0 = _total_spin(counts)

    while True:
        rules = _applicable_rules(counts, mode, wall_n0)
        if not rules:
            break
        rule, part = rules[0] if rng is None else rng.choice(rules)
        delta, step = _firing(rule, part, wall_n0)
        # A random order fires one copy per choice, so that every maximal
        # order, copies of one summand interleaved with other rules, can
        # come up.
        copies = 1 if rng is not None else _batch_size(counts, rule, part, delta, wall_n0)
        for summand, change in delta.items():
            if change:
                mult = counts.get(summand, 0) + copies * change
                if mult:
                    counts[summand] = mult
                else:
                    del counts[summand]
        trace.extend(repeat(step, copies))
        assert _total_record(counts) == check, "rewrite changed chi or tau"
        assert _total_spin(counts) is spin0 or spin0 is UNKNOWN, "rewrite changed spin"

    canonical_parts = (CP2, CP2B) if mode == "nonspin" else (K3, S2XS2)
    canonical = all(p in canonical_parts for p in counts)
    ordered = [(p, counts[p]) for p in canonical_parts if p in counts]
    ordered += sorted(
        ((p, m) for p, m in counts.items() if p not in canonical_parts),
        key=lambda item: str(item[0]),
    )
    result = connected_sum_of(*ordered) if ordered else Primitive("S4")
    return NormalizeResult(result, tuple(trace), canonical, mode)


@dataclass(frozen=True)
class RewriteSchema:
    """Blow-up decomposition schema for a smoothing of a normal-crossing
    pair: V # CP2 -> X1 # X2 # 2g CP2 # (2g + n - 1) CP2b."""

    genus: int
    crossings: int
    cp2_count: int
    cp2b_count: int
    chi_offset: int  # chi(V) - chi(X1) - chi(X2), forced by chi additivity
    tau_offset: int  # tau(V) - tau(X1) - tau(X2), schema-forced bookkeeping

    def describe(self) -> str:
        return (
            f"V # CP2 -> X1 # X2 # {self.cp2_count}*CP2 # {self.cp2b_count}*CP2b; "
            f"chi(V) = chi(X1) + chi(X2) + {self.chi_offset}, "
            f"tau(V) = tau(X1) + tau(X2) + {self.tau_offset} (lemma-supplied)"
        )


def mm_rule(g: int, n: int) -> RewriteSchema:
    """Instantiate the normal-crossing decomposition schema for genus g
    and n intersection points; chi consistency of both sides is forced
    by connected-sum additivity, the signature bookkeeping is imported.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    cp2, cp2b = 2 * g, 2 * g + n - 1
    # chi(V) + 1 = chi(X1) + chi(X2) + 3*(cp2 + cp2b) - 2*(cp2 + cp2b + 1)
    chi_offset = cp2 + cp2b - 3
    tau_offset = cp2 - cp2b - 1
    assert chi_offset == 4 * g + n - 4
    assert tau_offset == -n
    return RewriteSchema(g, n, cp2, cp2b, chi_offset, tau_offset)


def verify_diffeo_claim(
    lhs: ManifoldExpr, rhs: ManifoldExpr, wall_n0: int = 1
) -> Certificate:
    """Certify that two expressions share a canonical form.

    Equal invariants plus identical canonical sums give the verdict
    "diffeomorphic under rewrite axioms" (the rules encode cited
    decomposition theorems, not checked geometry).
    """
    lrec, rrec = evaluate(lhs).record, evaluate(rhs).record
    if (lrec.chi, lrec.tau, lrec.b1) != (rrec.chi, rrec.tau, rrec.b1):
        raise MismatchedInvariants(
            f"(chi, tau, b1) differ: {(lrec.chi, lrec.tau, lrec.b1)} vs "
            f"{(rrec.chi, rrec.tau, rrec.b1)}"
        )
    left = normalize(lhs, wall_n0=wall_n0)
    right = normalize(rhs, wall_n0=wall_n0)
    steps = [
        Step("chi-equal", "invariant preservation", f"{lrec.chi} == {rrec.chi}"),
        Step("tau-equal", "invariant preservation", f"{lrec.tau} == {rrec.tau}"),
    ]
    for side, result in (("left", left), ("right", right)):
        for ts in result.trace:
            steps.append(Step(f"{side}:{ts.rule}", ts.citation, None))
    same = left.canonical and right.canonical and left.expr == right.expr
    steps.append(
        Step(
            "canonical-compare",
            "canonical forms are normal forms of the rewrite system",
            None,
        )
    )
    return Certificate(
        "diffeomorphic_under_rewrite_axioms" if same else "no_verdict",
        tuple(steps),
        inputs={
            "left": str(lhs),
            "right": str(rhs),
            "left_canonical": str(left.expr),
            "right_canonical": str(right.expr),
        },
    )


def _registration_check():
    """Fixed rules must preserve (chi, tau, b1), verified symbolically here."""
    lhs = connected_sum_of((S2XS2, 1), (CP2B, 1))
    rhs = connected_sum_of((CP2, 1), (CP2B, 2))
    lr, rr = evaluate(lhs).record, evaluate(rhs).record
    assert (lr.chi, lr.tau, lr.b1) == (rr.chi, rr.tau, rr.b1)


_registration_check()
