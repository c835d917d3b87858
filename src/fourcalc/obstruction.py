"""Einstein-metric obstructions and homeomorphism keys, all emitting
self-verifying certificates.

The engine decides three obstructions:

* Hitchin-Thorpe: chi >= 0 and 2 chi +- 3 tau >= 0 are necessary for an
  Einstein metric;
* the curvature obstruction: if X has nontrivial Seiberg-Witten
  invariant and (2 chi + 3 tau)(X) > 0, then X # k CP2b # l (S1xS3)
  carries no Einstein metric once k + 4l >= (2 chi + 3 tau)(X)/3;
* the Bauer-Furuta refinement for connected sums of up to four pieces
  with nonzero mod-2 invariant.

Absence of an obstruction is never reported as existence of a metric:
failed hypotheses yield the verdict ``no_verdict`` with the failing
condition named.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from fourcalc.certificates import Certificate, Step
from fourcalc.errors import NoSplit, UnknownFlag, UnsupportedGroup
from fourcalc.evaluate import evaluate
from fourcalc.expr import ManifoldExpr, Primitive, connected_sum_of, sum_parts
from fourcalc.flags import YES, GroupLabel, Parity, Provenance, W2Type
from fourcalc.invariants import InvariantRecord

CITE_HT = "Hitchin-Thorpe inequality"
CITE_LEBRUN = "Seiberg-Witten scalar-curvature estimates on blown-up manifolds"
CITE_BAUER_FURUTA = "Bauer-Furuta stable-cohomotopy obstruction for connected sums"
CITE_FREEDMAN = "Freedman: simply connected homeomorphism classification"
CITE_HAMBLETON_KRECK = "homeomorphism classification for cyclic fundamental groups"
CITE_HOMOTOPY = "b2+ and b2- are homotopy invariants"


def _fmt(n) -> str:
    return str(n) if n >= 0 else f"({n})"


def _two_chi_three_tau(rec: InvariantRecord) -> str:
    return f"2*{_fmt(rec.chi)} + 3*{_fmt(rec.tau)}"


def hitchin_thorpe(rec: InvariantRecord, inputs: Optional[dict] = None) -> Certificate:
    """Check chi >= 0 and both Hitchin-Thorpe inequalities, exactly."""
    plus, minus = 2 * rec.chi + 3 * rec.tau, 2 * rec.chi - 3 * rec.tau
    checks = (  # rule, left side as written, its value
        ("euler-nonnegative", _fmt(rec.chi), rec.chi),
        ("ht-plus", f"{_two_chi_three_tau(rec)} == {_fmt(plus)}", plus),
        ("ht-minus", f"2*{_fmt(rec.chi)} - 3*{_fmt(rec.tau)} == {_fmt(minus)}", minus),
    )
    steps = tuple(Step(rule, CITE_HT, f"{text} {'>=' if v >= 0 else '<'} 0") for rule, text, v in checks)
    return Certificate(
        verdict="hitchin_thorpe_ok" if min(rec.chi, plus, minus) >= 0 else "hitchin_thorpe_violated",
        steps=steps,
        inputs={"chi": rec.chi, "tau": rec.tau, **(inputs or {})},
    )


def _no_verdict(
    steps: list[Step], hypothesis: str, citation: str, inputs: dict, arithmetic: Optional[str] = None
) -> Certificate:
    """The certificate of a failed hypothesis: the steps so far, then the
    failing condition named."""
    steps.append(Step(f"hypothesis-failed:{hypothesis}", citation, arithmetic))
    return Certificate("no_verdict", tuple(steps), inputs)


def lebrun_einstein(x_expr: ManifoldExpr, k: int, l: int) -> Certificate:
    """Curvature obstruction for X # k CP2b # l (S1xS3).

    Hypotheses: nontrivial SW invariant on X and (2 chi + 3 tau)(X) > 0.
    Obstructed when k + 4l >= (2 chi + 3 tau)(X) / 3, compared exactly.
    """
    ev = evaluate(x_expr)
    rec = ev.record
    inputs = {
        "X": str(x_expr),
        "chi": rec.chi,
        "tau": rec.tau,
        "k": k,
        "l": l,
    }
    steps = []
    if ev.flags.sw_nontrivial is not YES:
        return _no_verdict(steps, "sw-nontrivial", CITE_LEBRUN, inputs)
    # Flags declared without a provenance record count as declared.
    why = next(
        (p for p in reversed(ev.flags.provenance) if p.field == "sw_nontrivial"),
        Provenance("sw_nontrivial", "declared", "registry block"),
    )
    steps.append(Step(f"sw-nontrivial:{why.rule}", why.citation, None))
    total = 2 * rec.chi + 3 * rec.tau
    if total <= 0:
        return _no_verdict(
            steps, "positivity", CITE_LEBRUN, inputs, f"{_two_chi_three_tau(rec)} == {_fmt(total)} <= 0"
        )
    steps.append(
        Step("positivity", CITE_LEBRUN, f"{_two_chi_three_tau(rec)} == {_fmt(total)} > 0")
    )
    fires = Fraction(k + 4 * l) >= Fraction(total, 3)
    op = ">=" if fires else "<"
    steps.append(
        Step(
            "blowup-excess" if fires else "blowup-excess-insufficient",
            CITE_LEBRUN,
            f"{k} + 4*{l} {op} 1/3 * ({_two_chi_three_tau(rec)})",
        )
    )
    return Certificate("einstein_obstructed" if fires else "no_verdict", tuple(steps), inputs)


@dataclass(frozen=True)
class Splitting:
    """A split of a connected sum into X # k CP2b # l S1xS3, with its certificate."""

    x_expr: ManifoldExpr
    k: int
    l: int
    certificate: Certificate


def decompose_for_obstruction(expr: ManifoldExpr) -> Splitting:
    """The best splitting of a connected sum into (X, k CP2b, l S1xS3)
    for which the curvature obstruction fires: X is the sum of every
    other summand, k counts all CP2b and l all S1xS3.

    One split suffices.  CP2b and S1xS3 have b2+ = 0 and vanishing
    Seiberg-Witten invariant, so moving some of them into X cannot give
    X a nontrivial invariant it lacked.  Each CP2b moved lowers
    (2 chi + 3 tau)(X) by 1 and each S1xS3 by 4, so the left side
    k + 4l of the obstruction drops by three times as much as the bound
    (2 chi + 3 tau)(X)/3, and positivity only gets harder.  Hence if the
    split with X = core does not fire, no split does, and when it fires
    it has the largest k + 4l.
    """
    parts = sum_parts(expr)
    bar, tube = Primitive("CP2b"), Primitive("S1xS3")
    bars = sum(m for p, m in parts if p == bar)
    tubes = sum(m for p, m in parts if p == tube)
    core = [(p, m) for p, m in parts if p != bar and p != tube]
    if not core:
        raise NoSplit("no summand can carry a Seiberg-Witten invariant")
    x_expr = connected_sum_of(*core)
    cert = lebrun_einstein(x_expr, bars, tubes)
    if cert.verdict != "einstein_obstructed":
        raise NoSplit("no splitting satisfies the obstruction hypotheses")
    return Splitting(x_expr, bars, tubes, cert)


def spin_einstein(
    pieces: list[ManifoldExpr], m: int, n_expr: ManifoldExpr, assumption: str = ""
) -> Certificate:
    """Bauer-Furuta obstruction for #_{j<=m} pieces[j] # N.

    ``pieces`` lists four candidate summands (the congruence is over all
    four even when only m of them are summed); each needs nonzero mod-2
    SW invariant, b1 = 0 and b2+ = 3 mod 4, with the four b2+ summing to
    4 mod 8.  N must have b2+ = 0.  Obstructed when
    4m - (2 chi + 3 tau)(N) >= (sum of the first m c1^2)/3.
    """
    inputs = {
        "pieces": [str(p) for p in pieces],
        "m": m,
        "N": str(n_expr),
    }
    steps = []
    if assumption:
        inputs["assumption"] = assumption
        steps.append(Step("fourth-piece-assumption", assumption, None))
    if len(pieces) != 4 or m not in (2, 3, 4):
        return _no_verdict(steps, "shape", CITE_BAUER_FURUTA, inputs)

    b2ps = []
    for j, piece in enumerate(pieces):
        ev = evaluate(piece)
        rec, flags = ev.record, ev.flags
        piece_no = f"(piece {j + 1})"
        if flags.sw_mod2_nontrivial is not YES:
            return _no_verdict(steps, f"mod2-sw{piece_no}", CITE_BAUER_FURUTA, inputs)
        if rec.b1 != 0:
            return _no_verdict(steps, f"b1{piece_no}", CITE_BAUER_FURUTA, inputs)
        b2p = rec.b2plus
        if b2p is None or b2p.denominator != 1:
            return _no_verdict(steps, f"b2plus-known{piece_no}", CITE_BAUER_FURUTA, inputs)
        b2p = int(b2p)
        b2ps.append(b2p)
        if b2p % 4 != 3:
            return _no_verdict(
                steps, f"b2plus-congruence{piece_no}", CITE_BAUER_FURUTA, inputs, f"mod({b2p}, 4) != 3"
            )
        steps.append(Step(f"b2plus-congruence{piece_no}", CITE_BAUER_FURUTA, f"mod({b2p}, 4) == 3"))
    total_b2p = sum(b2ps)
    sum_text = " + ".join(str(v) for v in b2ps)
    if total_b2p % 8 != 4:
        return _no_verdict(steps, "sum-congruence", CITE_BAUER_FURUTA, inputs, f"mod({sum_text}, 8) != 4")
    steps.append(Step("sum-congruence", CITE_BAUER_FURUTA, f"mod({sum_text}, 8) == 4"))

    n_rec = evaluate(n_expr).record
    n_b2p = n_rec.b2plus
    if n_b2p is None or n_b2p != 0:
        return _no_verdict(steps, "N-b2plus", CITE_BAUER_FURUTA, inputs)
    steps.append(Step("N-b2plus-zero", CITE_BAUER_FURUTA, f"{_fmt(int(n_b2p))} == 0"))

    c1sqs = [evaluate(p).record.c1sq for p in pieces[:m]]
    lhs = 4 * m - (2 * n_rec.chi + 3 * n_rec.tau)
    rhs = Fraction(sum(c1sqs), 3)
    fires = Fraction(lhs) >= rhs
    c1_text = " + ".join(_fmt(v) for v in c1sqs)
    op = ">=" if fires else "<"
    steps.append(
        Step(
            "bauer-furuta-bound" if fires else "bauer-furuta-bound-insufficient",
            CITE_BAUER_FURUTA,
            f"4*{m} - ({_two_chi_three_tau(n_rec)}) {op} 1/3 * ({c1_text})",
        )
    )
    return Certificate(
        "einstein_obstructed" if fires else "no_verdict", tuple(steps), inputs
    )


@dataclass(frozen=True)
class HomeoKey:
    """Hambleton-Kreck data: for cyclic fundamental groups and indefinite
    forms, (pi1, b2+, b2-, parity, w2-type) classifies up to homeomorphism.

    A key from :func:`homeo_key` is complete.  A partial key, as
    :func:`homeo_equal` first reads it, may hold None for b2+/b2- and
    UNKNOWN for the parity or the w2-type.
    """

    pi1: GroupLabel
    b2plus: Optional[int]
    b2minus: Optional[int]
    parity: Parity
    w2type: W2Type

    def as_dict(self) -> dict:
        named = {"pi1": str(self.pi1), "parity": self.parity.value, "w2type": self.w2type.value}
        return {**vars(self), **named}


_CLASSIFIED_GROUPS = ("trivial", "cyclic")
_UNKNOWN_FIELDS = (None, Parity.UNKNOWN, W2Type.UNKNOWN)


def _partial_key(expr: ManifoldExpr) -> HomeoKey:
    ev = evaluate(expr)
    flags, rec = ev.flags, ev.record
    b2p, b2m = rec.b2plus, rec.b2minus
    if b2p is None or b2p.denominator != 1 or b2m.denominator != 1:
        b2p = b2m = None
    else:
        b2p, b2m = int(b2p), int(b2m)
    return HomeoKey(flags.pi1, b2p, b2m, flags.parity, flags.w2type)


def _classified(key: HomeoKey) -> bool:
    return key.pi1.kind in _CLASSIFIED_GROUPS


def homeo_key(expr: ManifoldExpr) -> HomeoKey:
    key = _partial_key(expr)
    if not _classified(key):
        raise UnsupportedGroup(f"pi1 = {key.pi1} is not trivial or finite cyclic")
    if key.parity is Parity.UNKNOWN:
        raise UnknownFlag(f"parity unknown for {expr}")
    if key.w2type is W2Type.UNKNOWN:
        raise UnknownFlag(f"w2-type unknown for {expr}")
    if key.b2plus is None:
        raise UnknownFlag(f"b2+/b2- not integral for {expr}")
    return key


def _known_mismatch(ka: HomeoKey, kb: HomeoKey) -> bool:
    """Whether a field both keys know differs.  b2+ and b2- count for any
    pi1; pi1, parity and w2-type only within the classified groups."""
    pairs = [(ka.b2plus, kb.b2plus), (ka.b2minus, kb.b2minus)]
    if _classified(ka) and _classified(kb):
        pairs += [(ka.pi1, kb.pi1), (ka.parity, kb.parity), (ka.w2type, kb.w2type)]
    return any(
        x != y and x not in _UNKNOWN_FIELDS and y not in _UNKNOWN_FIELDS for x, y in pairs
    )


def _betti_step(name: str, x: Optional[int], y: Optional[int], citation: str) -> Step:
    if x is None or y is None:
        shown = ["unknown" if v is None else v for v in (x, y)]
        return Step(f"{name}: {shown[0]} vs {shown[1]}", citation, None)
    return Step(f"{name}-compare", citation, f"{x} {'==' if x == y else '!='} {y}")


def homeo_equal(a: ManifoldExpr, b: ManifoldExpr) -> Certificate:
    """Compare homeomorphism keys.

    A field that both sides know and that differs decides
    ``not_homeomorphic``, whatever the other fields are: b2+ and b2-, being
    homotopy invariants, for any pi1; pi1, parity and w2-type when both
    groups are classified.  Otherwise both keys must be complete (else
    :class:`UnknownFlag` or :class:`UnsupportedGroup`, as from
    :func:`homeo_key`); differing keys are conclusive for any forms, and
    equal keys conclude homeomorphism only on indefinite forms (or
    identical expressions).
    """
    ka, kb = _partial_key(a), _partial_key(b)
    if not _known_mismatch(ka, kb):
        ka, kb = homeo_key(a), homeo_key(b)
        if ka == kb and a != b and (ka.b2plus < 1 or ka.b2minus < 1):
            raise UnknownFlag(
                "equal keys on a definite form: the classification does not apply"
            )
    if not (_classified(ka) and _classified(kb)):
        citation = CITE_HOMOTOPY
    else:
        citation = CITE_FREEDMAN if ka.pi1.is_trivial else CITE_HAMBLETON_KRECK
    steps = [
        _betti_step("b2plus", ka.b2plus, kb.b2plus, citation),
        _betti_step("b2minus", ka.b2minus, kb.b2minus, citation),
        Step(f"parity: {ka.parity.value} vs {kb.parity.value}", citation, None),
        Step(f"w2type: {ka.w2type.value} vs {kb.w2type.value}", citation, None),
        Step(f"pi1: {ka.pi1} vs {kb.pi1}", citation, None),
    ]
    equal = ka == kb
    return Certificate(
        "homeomorphic" if equal else "not_homeomorphic",
        tuple(steps),
        inputs={"left": str(a), "right": str(b), "left_key": ka.as_dict(), "right_key": kb.as_dict()},
    )
