"""Rewrite engine reducing expressions to canonical connected sums.

Each rule is one row of ``RULES``: its mode, the summand it consumes,
the stock it needs beside that summand, what one firing gives, its
citation and its trace detail.  Which rules apply, how many copies fire
at once and which mode a sum takes are read off the table, so a new rule
is a new row.

* Non-spin mode targets a CP2 # b CP2b: quadric-blowup, and decompose
  for any summand flagged almost completely decomposable (the flag is
  derived for cyclic covers of CP2 and of the quadric, or declared on
  geography blocks), which consumes one CP2.
* Spin mode targets p K3 # q (S2xS2): the stabilized decompositions of
  elliptic surfaces, their odd log transforms and the (4,4,2)
  hypersurface into K3s and quadrics, read off declared facts.

A summand with spin rules only puts a sum in spin mode.  A non-spin
summand (CP2, CP2b, an even log transform of an elliptic surface, ...),
or one other than K3 and S2xS2 with non-spin rules only, puts it in
non-spin mode.  A sum with both is rejected; one with neither is in spin
mode.  E(2n) has rules in both modes.

Rules are tried in one fixed order: stock by stock, in the order the
table names the stocks, and within a stock summand by summand, in the
order the summands entered the sum.  Every application preserves chi,
tau, b1 and the spin flag of the total sum, asserted after each batch of
identical firings (every copy of the consumed summand, unless a firing
adds stock that a rule tried earlier lacks).  That detects the same
faults as a check after every firing: each copy changes (chi, tau) by
the same amount, so k copies change it exactly when one does, and a
summand a firing adds stays to the end of its batch, so a spin flag that
one firing breaks is still broken there.  The canonical multiplicities
are forced by (chi, tau) conservation, which is why normalization is
confluent: any maximal rule order reaching an all-canonical multiset
gives the same answer.

A batch costs time in the summands it changes, not in the size of the
sum.  The check after it reads running totals (the sums of m*chi, m*tau,
m*b1 and m, and how many distinct summands have unknown b1, spin flag no
or spin flag unknown) that each batch updates by its delta, and builds
the record and the flag from them.  The next rule comes from a per-stock
index of the summands waiting on that stock, in order of entry: the
first ready pair is read off its front, and a stock short of what every
rule needs is passed over at once.  So n distinct summands normalize in
time linear in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from fourcalc.certificates import Certificate, Step
from fourcalc.config import WALL_N0
from fourcalc.errors import MismatchedInvariants, MixedRewriteModes
from fourcalc.evaluate import Evaluation, evaluate, sum_spin
from fourcalc.expr import ManifoldExpr, Primitive, connected_sum_of, sum_parts
from fourcalc.flags import NO, UNKNOWN, YES, TriState
from fourcalc.invariants import InvariantRecord, summed_invariants

CP2 = Primitive("CP2")
CP2B = Primitive("CP2b")
S2XS2 = Primitive("S2xS2")
K3 = Primitive("K3")
CANONICAL = {"nonspin": (CP2, CP2B), "spin": (K3, S2XS2)}
S4 = Primitive("S4")
IDENTITY = frozenset((S4, Primitive("Sd", (1,))))

CITE_QUADRIC_BLOWUP = "the quadric blown up once is CP2 # 2 CP2b"
CITE_ACD = "almost completely decomposable: M # CP2 decomposes completely"
CITE_SPIN_DECOMP = "elliptic pieces decompose into K3s and quadrics after one stabilization"
CITE_WALL = "Wall stabilization: homeomorphic spin sums agree after adding quadrics"
CITE_IDENTITY = "the 4-sphere is the identity of connected sum"


@dataclass(frozen=True)
class Rule:
    """A firing replaces one summand that ``consumes`` accepts, given its
    evaluation, by what ``gives`` returns for it, beside ``stock`` copies
    of ``needs`` that it leaves in place.  ``detail`` writes the trace
    line from the summand, the stock and what the firing gives.  An
    exclusive rule is the only rule its summands take.  The import-time
    check fires each rule on its ``sample``."""

    name: str
    mode: str
    consumes: Callable[[ManifoldExpr, Evaluation], bool]
    needs: Primitive
    stock: int
    gives: Callable[[ManifoldExpr], dict]
    citation: str
    detail: Callable[[ManifoldExpr, int, dict], str]
    sample: ManifoldExpr
    exclusive: bool = False


def _planes(part: ManifoldExpr) -> dict:
    rec = evaluate(part).record
    return {CP2: int(rec.b2plus), CP2B: int(rec.b2minus)}


def _split(part: ManifoldExpr) -> dict:
    return dict(zip((K3, S2XS2), evaluate(part).spin_split))


def _acd_origin(part: ManifoldExpr) -> str:
    acd = [p.citation for p in evaluate(part).flags.provenance if p.field == "acd"]
    return acd[-1] if acd else CITE_ACD


# Columns: name, mode, consumes, needs, stock, gives, citation, detail, sample.
RULES = (
    Rule("quadric-blowup", "nonspin", lambda part, ev: part == S2XS2, CP2B, 1,
         lambda part: {CP2: 1, CP2B: 1}, CITE_QUADRIC_BLOWUP,
         lambda part, stock, gives: "(S2xS2) # CP2b -> CP2 # 2*CP2b", S2XS2),
    Rule("decompose", "nonspin",
         lambda part, ev: part not in CANONICAL["nonspin"] and ev.flags.acd is YES,
         CP2, 1, _planes, CITE_ACD,
         lambda part, stock, gives: f"{part} # CP2 -> {gives[CP2] + stock}*CP2 # "
         f"{gives[CP2B]}*CP2b [{_acd_origin(part)}]",
         Primitive("E", (3,))),
    # The spin rows take a declared split: no fibers, none multiple, or some.
    Rule("wall-stabilize", "spin",
         lambda part, ev: ev.spin_split is not None and ev.fibers is None, S2XS2, WALL_N0,
         _split, CITE_WALL,
         lambda part, stock, gives: f"{part} # {stock}*(S2xS2) -> "
         f"{gives[K3]}*K3 # {gives[S2XS2] + stock}*(S2xS2)",
         Primitive("X442")),
    # The ACD flag a log transform inherits gives these summands no
    # non-spin route.
    Rule("log-elliptic-decompose", "spin",
         lambda part, ev: ev.spin_split is not None and ev.fibers not in (None, (0, 0, 0)),
         S2XS2, 1, _split, CITE_SPIN_DECOMP,
         lambda part, stock, gives: f"{part} # (S2xS2) -> K3 # (S2xS2)",
         Primitive("Y", (1,)), exclusive=True),
    Rule("elliptic-decompose", "spin",
         lambda part, ev: ev.spin_split is not None and ev.fibers == (0, 0, 0),
         S2XS2, 1, _split, CITE_SPIN_DECOMP,
         lambda part, stock, gives: f"{part} # (S2xS2) -> "
         f"{gives[K3]}*K3 # {gives[S2XS2] + stock}*(S2xS2)",
         Primitive("E", (4,))),
)
# Per mode, each stock in the order the table names it, with the least
# amount of it that a rule of the mode needs.
STOCKS = {
    mode: {
        need: min(rule.stock for rule in RULES if rule.mode == mode and rule.needs is need)
        for need in dict.fromkeys(rule.needs for rule in RULES if rule.mode == mode)
    }
    for mode in CANONICAL
}


@dataclass(frozen=True)
class TraceStep:
    """One rule firing of a normalization: its rule, citation and detail."""

    rule: str
    citation: str
    detail: str


@dataclass(frozen=True)
class NormalizeResult:
    """A normal form, the trace that reached it, whether it is canonical, and its mode."""

    expr: ManifoldExpr
    trace: tuple[TraceStep, ...]
    canonical: bool
    mode: str


def _rules_of(part: ManifoldExpr, ev: Evaluation) -> list[Rule]:
    rules = _PIECE_RULES.get(part)
    if rules is None:
        rules = [rule for rule in RULES if rule.consumes(part, ev)]
        rules = [rule for rule in rules if rule.exclusive] or rules
    return rules


def _firing(rule: Rule, part: ManifoldExpr) -> tuple[dict, TraceStep]:
    """One firing of ``rule`` on ``part``: its net change to the multiset and its step."""
    gives = rule.gives(part)
    detail = rule.detail(part, rule.stock, gives)
    return {part: -1, **gives}, TraceStep(rule.name, rule.citation, detail)


def _choose_mode(parts: dict) -> str:
    spin_only = nonspin = False
    for part, (_, ev, rules) in parts.items():
        modes = {rule.mode for rule in rules}
        if modes == {"spin"}:
            spin_only = True
        elif ev.flags.spin is NO or (modes == {"nonspin"} and part not in CANONICAL["spin"]):
            nonspin = True
    if spin_only and nonspin:
        raise MixedRewriteModes("expression mixes spin-mode and non-spin-mode summands")
    return "nonspin" if nonspin else "spin"


class _Sum:
    """The summands of a sum, each with its multiplicity, evaluation and
    rules, and what a batch of firings updates by its delta alone: the
    sums of m*chi, m*tau and m*b1 and of m behind the record of the whole
    sum, the numbers of distinct summands with unknown b1, with spin flag
    no and with spin flag unknown, and, once a mode is chosen, per stock
    the summands with a rule of that mode that needs it, in order of
    entry."""

    def __init__(self):
        self.mode: Optional[str] = None
        self.parts: dict = {}  # summand -> [multiplicity, evaluation, rules]
        self.chi = self.tau = self.b1 = self.total = 0
        self.unknown_b1 = self.nonspin = self.unknown_spin = 0
        # Per stock: the waiting summands with their rules that need it, and
        # the least amount of it that any rule of the mode needs.
        self.waiting: dict = {}

    def index(self, mode: str) -> None:
        """Index the summands by the stocks that their rules of ``mode``
        need; a summand that enters later is indexed as it enters."""
        self.mode = mode
        self.waiting = {need: ({}, least) for need, least in STOCKS[mode].items()}
        for part, (_, _, rules) in self.parts.items():
            if rules:
                self._wait(part, rules)

    def _wait(self, part: ManifoldExpr, rules: list) -> None:
        for rule in rules:
            if rule.mode == self.mode:
                self.waiting[rule.needs][0].setdefault(part, []).append(rule)

    def add(self, part: ManifoldExpr, change: int) -> None:
        """Add ``change`` copies of ``part`` (remove them, when negative)."""
        entry = self.parts.get(part)
        if entry is None:
            ev = evaluate(part)
            rules = _rules_of(part, ev)
            entry = self.parts[part] = [0, ev, rules]
            self._present(ev, 1)
            if rules:
                self._wait(part, rules)
        mult, ev, _ = entry
        rec = ev.record
        self.chi += change * rec.chi
        self.tau += change * rec.tau
        self.total += change
        if rec.b1 is not None:
            self.b1 += change * rec.b1
        entry[0] = mult = mult + change
        if not mult:
            del self.parts[part]
            self._present(ev, -1)
            for rule in entry[2]:
                if rule.mode == self.mode:
                    self.waiting[rule.needs][0].pop(part, None)

    def _present(self, ev: Evaluation, sign: int) -> None:
        spin = ev.flags.spin
        self.nonspin += sign * (spin is NO)
        self.unknown_spin += sign * (spin is UNKNOWN)
        self.unknown_b1 += sign * (ev.record.b1 is None)

    def record(self) -> InvariantRecord:
        """The (chi, tau, b1) record of the whole sum."""
        b1 = None if self.unknown_b1 else self.b1
        return InvariantRecord(*summed_invariants(self.chi, self.tau, b1, self.total))

    def spin(self) -> TriState:
        """The spin flag of the whole sum."""
        # Spin summands count only where every summand is spin.
        present = ((NO, self.nonspin), (UNKNOWN, self.unknown_spin))
        return sum_spin(flag for flag, count in present if count)

    def first_ready(self) -> tuple[Optional[tuple[Rule, ManifoldExpr]], set]:
        """The first (rule, summand) pair whose stock is there, in the order
        rules are tried (None if there is none), and the stocks lacked by
        the rules tried before it.  A stock short of what every rule needs
        is passed over without a look at the waiting summands."""
        lacked = set()
        for need, (waiting, least) in self.waiting.items():
            if not waiting:
                continue
            entry = self.parts.get(need)
            have = 0 if entry is None else entry[0]
            if have < least:
                lacked.add(need)
                continue
            for part, rules in waiting.items():
                for rule in rules:
                    if have >= rule.stock:
                        return (rule, part), lacked
                    lacked.add(need)
        return None, lacked


def normalize(expr: ManifoldExpr) -> NormalizeResult:
    """Rewrite to a canonical sum (a CP2 # b CP2b, or p K3 # q S2xS2).

    When no rule applies and the multiset is not canonical, the partial
    form is returned with ``canonical=False`` rather than failing.
    """
    counts: dict = {}
    trace: list[TraceStep] = []
    for part, mult in sum_parts(expr):
        if part in IDENTITY:
            trace.append(TraceStep("drop-identity", CITE_IDENTITY, f"dropped {mult}*{part}"))
            continue
        counts[part] = counts.get(part, 0) + mult
    if not counts:
        return NormalizeResult(S4, tuple(trace), True, "spin")
    if any(not evaluate(p).flags.pi1.is_trivial for p in counts):
        return NormalizeResult(expr, tuple(trace), False, "blocked")

    total = _Sum()
    for part, mult in counts.items():
        total.add(part, mult)
    mode = _choose_mode(total.parts)
    total.index(mode)
    check, spin0 = total.record(), total.spin()

    while True:
        ready, lacked = total.first_ready()
        if ready is None:
            break
        rule, part = ready
        delta, step = _firing(rule, part)
        # Fire every copy of the summand, unless a firing adds stock that a
        # rule tried earlier lacks.
        if any(delta.get(need, 0) > 0 for need in lacked):
            copies = 1
        else:
            copies = total.parts[part][0]
        for summand, change in delta.items():
            if change:
                total.add(summand, copies * change)
        trace.extend(repeat(step, copies))
        assert total.record() == check, "rewrite changed chi or tau"
        spin = total.spin()
        assert spin is spin0 or spin0 is UNKNOWN, "rewrite changed spin"

    counts = {part: entry[0] for part, entry in total.parts.items()}
    canonical_parts = CANONICAL[mode]
    canonical = all(p in canonical_parts for p in counts)
    ordered = [(p, counts[p]) for p in canonical_parts if p in counts]
    ordered += sorted(
        ((p, m) for p, m in counts.items() if p not in canonical_parts),
        key=lambda item: str(item[0]),
    )
    result = connected_sum_of(*ordered) if ordered else S4
    return NormalizeResult(result, tuple(trace), canonical, mode)


def verify_diffeo_claim(lhs: ManifoldExpr, rhs: ManifoldExpr) -> Certificate:
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
    left, right = normalize(lhs), normalize(rhs)
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


# Most sums hold canonical pieces: their rules are looked up, not found.
_PIECE_RULES: dict = {}
_PIECE_RULES.update((p, _rules_of(p, evaluate(p))) for pieces in CANONICAL.values() for p in pieces)


def _registration_check():
    """Every rule preserves (chi, tau, b1) and the spin flag, verified
    here by firing it once on its sample summand.  No firing may lower
    its own stock: a batch fires every copy on the stock the first had."""
    for rule in RULES:
        assert rule.consumes(rule.sample, evaluate(rule.sample)), rule.name
        total = _Sum()
        total.index(rule.mode)
        total.add(rule.sample, 1)
        total.add(rule.needs, rule.stock)
        before = total.record(), total.spin()
        delta = _firing(rule, rule.sample)[0]
        for summand, change in delta.items():
            total.add(summand, change)
        assert (total.record(), total.spin()) == before, rule.name
        assert delta.get(rule.needs, 0) >= 0, rule.name


_registration_check()
