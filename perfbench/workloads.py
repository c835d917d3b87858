"""Seeded command lists for the three workloads and the checks of their outputs.

A workload is one *round*: a fixed list of ``fourcalc`` command lines.
The seed chooses every parameter, but each round has the same make-up
(the same slots, each a command kind with a target size), so rounds of
different seeds cost about the same and the latency percentiles land on
the same slots.  Known faulty inputs do not depend on the seed.

Every command carries what the benchmark expects of it, computed by
``model`` rather than by fourcalc.  ``classify`` turns one finished
command into ``"ok"``, ``"failed"`` (a named fault showed exactly as
described) or raises :class:`Mismatch` (a wrong output: the run is
incorrect).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import model as M
from model import P, S

WORKLOADS = ("regions", "exprs", "reproduce")

TARGETS = ("prop1.3", "prop1.4", "prop3.12", "thm1.1", "thm1.5", "thm1.6", "thm1.7", "thm1.8")

# Faults kept in the workloads: each fails every time, on fixed inputs.
FAULT_HOMEO_PARTIAL = "homeo-partial-key"
FAULT_DEEP_PARENS = "deep-parens-recursion"
FAULT_EVEN_KE_RECORDS = "prop3.12-even-records"


class Mismatch(Exception):
    """An output that contradicts the benchmark's own computation."""


@dataclass
class Op:
    kind: str
    argv: tuple
    expect: dict = field(default_factory=dict)
    heavy: bool = False
    fault: Optional[str] = None


@dataclass
class Outcome:
    rc: Optional[int]
    out: str
    err: str
    exc: Optional[str] = None  # exception type escaping cli.main, if any


def make_round(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The command list of one round.  ``scale`` < 1 shrinks the sizes
    (the self-tests use it); the benchmark always runs at 1."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "regions":
        return _regions(rng, scale)
    if workload == "exprs":
        return _exprs(rng, scale)
    if workload == "reproduce":
        return _reproduce(rng)
    raise ValueError(f"unknown workload {workload!r}")


# --- regions ------------------------------------------------------------

_EPS_CHOICES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(1, 4))
_C_CHOICES = (Fraction(10), Fraction(8), Fraction(12), Fraction(6), Fraction(15, 2))
# (eps', c) of the eight bk slots, in slot order.  They are fixed rather
# than seeded because the time per point moves with them by +-15 %; the
# seed picks the aspect of the bounds.
_BK_PARAMS = tuple((Fraction(e), Fraction(c)) for e, c in (
    ("3/4", "10"), ("1", "20"), ("1/2", "5"), ("3/2", "30"),
    ("1/3", "25/2"), ("3/4", "20"), ("1", "10"), ("1/2", "30"),
))

# The 25 slots of a round: ("fa", d, points, json) or ("bk", None, points, False).
# Sorted by cost they form four groups: nine small commands, seven alike
# in the middle (d = 2, 240 points), five larger ones and four alike at
# the top (bk, 200k points).  The median then falls inside the middle
# group and the 90th percentile inside the top one, so each is taken over
# many samples spread through the run rather than over one command.
REGION_SLOTS = (
    ("fa", 3, 100, False), ("fa", 4, 110, True), ("fa", 5, 120, False), ("fa", 7, 110, True),
    ("fa", 3, 140, False), ("fa", 4, 150, True), ("fa", 5, 140, False),
    ("bk", None, 20_000, False), ("bk", None, 27_000, False),
    *(("fa", 2, 240, False),) * 7,
    ("fa", 3, 450, True), ("fa", 4, 600, False), ("fa", 2, 1000, True),
    ("bk", None, 60_000, False), ("bk", None, 110_000, False),
    *(("bk", None, 200_000, False),) * 4,
)


def _fit_free_actions(d, eps, c, target, aspect):
    """Bounds (N, M) whose region holds about ``target`` points."""
    best = None
    m = d
    while True:
        m += d
        if M.free_action_count(d, eps, c, 10**9, m) < target:
            continue
        lo, hi = d, 10 * m * 6
        while lo < hi:  # least N (multiple of d) reaching the target
            mid = (lo + hi) // 2
            if M.free_action_count(d, eps, c, mid, m) >= target:
                hi = mid
            else:
                lo = mid + 1
        n = -(-lo // d) * d
        count = M.free_action_count(d, eps, c, n, m)
        key = (abs(count - target) / target > 0.02, abs(n / m - aspect))
        if best is None or key < best[0]:
            best = (key, n, m)
        if n < m * aspect * 0.5:
            break
    return best[1], best[2]


def _fit_bk(eps_prime, c, target, aspect):
    """Bounds (X, Y) with Y about aspect * X holding about ``target`` points."""
    for x_max in range(10, 5000):
        y_max = round(aspect * x_max)
        count = M.bk_count(eps_prime, c, x_max, y_max)
        if count >= target:
            # adjust Y alone to land within a fraction of a percent
            lo, hi = 1, y_max
            while lo < hi:
                mid = (lo + hi) // 2
                if M.bk_count(eps_prime, c, x_max, mid) >= target:
                    hi = mid
                else:
                    lo = mid + 1
            return x_max, lo
    raise ValueError(f"no bk bounds reach {target} points")


def _regions(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    bk_params = iter(_BK_PARAMS)
    for kind, d, target, as_json in REGION_SLOTS:
        target = max(3, round(target * scale))
        if kind == "fa":
            eps, c = rng.choice(_EPS_CHOICES), rng.choice(_C_CHOICES)
            n_max, m_max = _fit_free_actions(d, eps, c, target, rng.uniform(0.9, 1.3))
            argv = ["enumerate", "free-actions", "--d", str(d), "--eps", str(eps),
                    "--c", str(c), "--bounds", f"{n_max},{m_max}"]
            ops.append(Op("free-actions", tuple(_fmt(argv, as_json)), {
                "d": d, "eps": eps, "c": c, "bounds": (n_max, m_max), "json": as_json,
            }))
        else:
            eps_prime, c = next(bk_params)
            x_max, y_max = _fit_bk(eps_prime, c, target, rng.uniform(1.5, 2.5))
            argv = ("enumerate", "bk", "--eps-prime", str(eps_prime), "--c", str(c),
                    "--bounds", f"{x_max},{y_max}")
            ops.append(Op("bk", argv, {"eps_prime": eps_prime, "c": c, "bounds": (x_max, y_max)}))
    rng.shuffle(ops)
    return ops


# --- exprs --------------------------------------------------------------

def _bk_block(rng):
    x = rng.randint(1, 40)
    return P("BK", x, rng.randint(1, 9 * x), rng.randint(0, 9))


def _small_manifold(rng, kind: int):
    """One of the light expression kinds, cycling through ``kind``."""
    k = kind % 8
    if k == 0:
        return rng.choice([P("E", rng.randint(1, 12)), P("Xk", rng.randint(1, 8)),
                           P("Y", rng.randint(1, 9)), _bk_block(rng)])
    if k == 1:
        return S((P("CP2"), rng.randint(1, 9)), (P("CP2b"), rng.randint(1, 30)),
                 (rng.choice([P("K3"), P("S2xS2"), P("E", rng.randint(1, 5))]), rng.randint(1, 3)))
    if k == 2:
        d = rng.randint(2, 5)
        return ("CV", "CP2", d, (d * rng.randint(1, 9),))
    if k == 3:
        d = rng.randint(2, 4)
        return ("CV", "CP1xCP1", d, (d * rng.randint(1, 6), d * rng.randint(1, 6)))
    if k == 4:
        return ("BC", rng.randint(2, 4), rng.randint(2, 4), *[rng.randint(1, 4) for _ in range(4)])
    if k == 5:
        d = rng.choice((3, 5, 7))
        i = rng.choice((1, 3, 5))
        return ("Q", ("BC", d, 2, d, d, d * i, d * i), d, "standard")
    if k == 6:
        d, a, b = rng.choice(_QUADRIC_QUOTIENTS)
        return ("Q", ("CV", "CP1xCP1", d, (d * a, d * b)), d, "standard")
    return rng.choice([
        ("L", P("E", rng.randint(1, 6)), rng.randint(2, 9)),
        P("FgProd", rng.randint(0, 5), rng.randint(0, 5)),
        S((P("S1xS3"), rng.randint(1, 4)), (_bk_block(rng), 1)),
    ])


# (d, a, b) for which Z/d acts freely on the d-fold cover of the quadric
# branched along (da, db): a+1, b+1, a+b+1 prime to d and chi_h integral.
_QUADRIC_QUOTIENTS = (
    (2, 2, 2), (2, 2, 4), (2, 4, 6), (3, 1, 3), (3, 3, 3), (3, 3, 6),
    (3, 4, 6), (4, 2, 2), (4, 2, 6), (4, 4, 6), (5, 1, 1), (5, 2, 3),
    (5, 3, 5), (5, 5, 6),
)


def _ht_input(rng, kind):
    if kind % 5 == 4:  # Hitchin-Thorpe violated: many blow-ups
        return S((P("CP2"), rng.randint(1, 3)), (P("CP2b"), rng.randint(12, 60)))
    return _small_manifold(rng, kind)


def _sw_core(rng, pick):
    """A summand with a known nontrivial Seiberg-Witten invariant, as
    (node, positive): ``positive`` says whether 2chi+3tau > 0."""
    if pick == 0:
        return _bk_block(rng), True
    if pick == 1:
        block = _bk_block(rng)
        return S((block, 1), (P("Sd", rng.randint(2, 7)), 1)), True
    if pick == 2:
        return P("Xk", rng.randint(1, 6)), True
    if pick == 3:
        return P("X442"), True
    if pick == 4:  # general type, b2+ > 1
        d = rng.randint(2, 3)
        return ("CV", "CP2", d, (d * rng.randint(5, 8),)), True
    return rng.choice([P("K3"), P("E", rng.randint(2, 6))]), False


def _blowup(rng, bars, tubes, pick):
    core, positive = _sw_core(rng, pick % 6)
    parts = list(core[1]) if core[0] == "S" else [(core, 1)]
    if bars:
        parts.append((P("CP2b"), bars))
    if tubes:
        parts.append((P("S1xS3"), tubes))
    chi, tau, _ = M.invariants(core)
    excess = M.c1sq(chi, tau)
    if positive and 3 * (bars + 4 * tubes) >= excess > 0:
        best = {"k": bars, "l": tubes, "x_chi": chi, "x_tau": tau}
    else:
        best = None
    return S(*parts), best


def _homeo_pair(rng, kind):
    """Two expressions with known b2+/b2- and a known verdict."""
    shift = kind % 2  # odd kinds perturb one side: not homeomorphic
    if (kind // 2) % 2 == 0:  # odd forms: X # CP2 against a CP2 # b CP2b
        x = rng.choice([_small_manifold(rng, 2), _small_manifold(rng, 4), _bk_block(rng)])
        left = S((x, 1), (P("CP2"), 1))
        chi, tau, b1 = M.invariants(left)
        plus, minus = M.betti_pm(chi, tau, b1)
        right = S((P("CP2"), int(plus)), (P("CP2b"), int(minus) + shift))
    else:  # even forms: elliptic surfaces and Gompf sums against K3s and quadrics
        left = rng.choice([P("E", 2 * rng.randint(2, 9)), P("Xk", rng.randint(1, 6))])
        chi, tau, _ = M.invariants(left)
        p, q = M.spin_form(chi, tau)
        right = S((P("K3"), p), (P("S2xS2"), q + shift))
    return left, right


def _normalize_input(rng, kind, summands=0):
    """A sum with a canonical normal form.  Non-spin sums carry CP2 and
    ACD pieces; spin sums carry elliptic pieces and one quadric."""
    if kind % 2 == 0:
        if summands:
            seen, pieces = set(), []
            while len(pieces) < summands:
                block = _bk_block(rng)
                if block not in seen:
                    seen.add(block)
                    pieces.append((block, 1))
            return S((P("CP2"), 1), *pieces), "nonspin"
        pieces = [(rng.choice([_small_manifold(rng, 2), _small_manifold(rng, 3), _bk_block(rng)]), 1)]
        pieces += [(P("CP2"), rng.randint(1, 3)), (P("CP2b"), rng.randint(1, 9))]
        if rng.random() < 0.5:
            pieces.append((P("S2xS2"), rng.randint(1, 3)))
        return S(*pieces), "nonspin"
    if summands:
        halves = rng.sample(range(1, 4 * summands), summands)
        return S((P("S2xS2"), 1), *[(P("E", 2 * h), 1) for h in halves]), "spin"
    pieces = [(P("S2xS2"), rng.randint(1, 3)), (P("E", 2 * rng.randint(1, 6)), rng.randint(1, 3))]
    extra = rng.choice([P("K3"), P("Y", rng.randint(1, 9)), P("X442")])
    pieces.append((extra, 1))
    return S(*pieces), "spin"


# One period of a long written-out sum.  Only the parameters of E, BK and
# Xk are seeded, so that sums of one size cost the same for every seed.
_LONG_SUM_PERIOD = ("CP2", "CP2b", "K3", "S2xS2", "S1xS3", "CP2b", "CP2", "K3", "E", "BK", "Xk", "CP2b")


def _long_sum(rng, chars):
    parts, length = [], 0
    while length < chars:
        for name in _LONG_SUM_PERIOD:
            if name == "E":
                piece = P("E", rng.randint(10, 20))
            elif name == "BK":
                piece = P("BK", rng.randint(10, 40), rng.randint(10, 99), rng.randint(0, 9))
            elif name == "Xk":
                piece = P("Xk", rng.randint(1, 9))
            else:
                piece = P(name)
            parts.append((piece, 1))
            length += len(M.render(piece)) + 3
    rng.shuffle(parts)
    return S(*parts)


def _fiber_chain(rng, depth):
    node = P("E", rng.randint(1, 6))
    for _ in range(depth):
        node = ("F", node, P("E", rng.randint(1, 6)), 1)
    return node


def _nested(rng, depth):
    """A sum written with ``depth`` nested parentheses, built without
    recursion so that the benchmark itself never nears the recursion limit.
    Returns (text, (chi, tau, b1))."""
    core = rng.choice([P("CP2"), P("K3"), _bk_block(rng)])
    text = M.render(core)
    chi, tau, b1 = M.invariants(core)
    for _ in range(depth):
        piece = rng.choice([P("CP2b"), P("CP2"), P("S2xS2")])
        text = f"({M.render(piece)} # {text})"
        p_chi, p_tau, _ = M.invariants(piece)
        chi, tau = chi + p_chi - 2, tau + p_tau
    return text, (chi, tau, b1)


def _expr_op(kind, argv, node, heavy=False, **expect):
    chi, tau, b1 = M.invariants(node)
    return Op(kind, tuple(argv), {"chi": chi, "tau": tau, "b1": b1, **expect}, heavy=heavy)


def _nested_op(kind, verb, nested, as_json):
    text, (chi, tau, b1) = nested
    return Op(kind, tuple(_fmt(verb + [text], as_json)),
              {"chi": chi, "tau": tau, "b1": b1, "json": as_json})


def _fmt(argv, as_json):
    return list(argv) + (["--json"] if as_json else [])


# Heavy slots: (kind, size).  13 of 65 working commands, the slowest fifth.
HEAVY_SLOTS = (
    ("long-sum", 14_000), ("long-sum", 20_000), ("long-sum", 26_000), ("long-sum", 32_000),
    ("blowup", (22, 30)), ("blowup", (28, 28)), ("blowup", (34, 32)), ("blowup", (40, 40)),
    ("chain", 110), ("chain", 140),
    ("normalize-many", 110), ("normalize-many", 140), ("normalize-many", 125),
)
# (CP2b, S1xS3) counts of the light einstein checks.
LIGHT_BLOWUPS = ((2, 1), (4, 2), (3, 3), (6, 1), (1, 4), (5, 2), (2, 3), (4, 4))
# Light slots: (kind, count).  52 commands.
LIGHT_SLOTS = (("eval", 14), ("ht", 10), ("einstein", 8), ("homeo", 8), ("normalize", 10), ("nested", 2))

DEEP_PARENS = 600


def _exprs(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    for kind, count in LIGHT_SLOTS:
        for i in range(count):
            as_json = i % 2 == 1
            if kind == "eval":
                node = _small_manifold(rng, i)
                ops.append(_expr_op("eval", _fmt(["eval", M.render(node)], as_json), node, json=as_json))
            elif kind == "ht":
                node = _ht_input(rng, i)
                ops.append(_expr_op("ht", _fmt(["check", "ht", M.render(node)], as_json), node, json=as_json))
            elif kind == "einstein":
                node, best = _blowup(rng, *LIGHT_BLOWUPS[i], pick=i)
                ops.append(_expr_op("einstein", _fmt(["check", "einstein", M.render(node)], as_json),
                                    node, json=as_json, best=best))
            elif kind == "homeo":
                left, right = _homeo_pair(rng, i)
                ops.append(_homeo_op(left, right, as_json))
            elif kind == "normalize":
                node, mode = _normalize_input(rng, i)
                ops.append(_expr_op("normalize", _fmt(["normalize", M.render(node)], as_json),
                                    node, json=as_json, mode=mode))
            else:
                nested = _nested(rng, max(2, round((150 + 150 * i) * scale)))
                if i == 0:
                    ops.append(_nested_op("eval", ["eval"], nested, as_json))
                else:
                    ops.append(_nested_op("ht", ["check", "ht"], nested, as_json))
    for i, (kind, size) in enumerate(HEAVY_SLOTS):
        as_json = i % 2 == 1
        if kind == "long-sum":
            node = _long_sum(rng, max(50, round(size * scale)))
            verb = ["eval"] if i % 4 != 3 else ["check", "ht"]
            ops.append(_expr_op("eval" if i % 4 != 3 else "ht", _fmt(verb + [M.render(node)], as_json),
                                node, heavy=True, json=as_json))
        elif kind == "blowup":
            bars, tubes = (max(1, round(v * scale)) for v in size)
            node, best = _blowup(rng, bars, tubes, pick=(5, 1, 4, 0)[i % 4])
            ops.append(_expr_op("einstein", _fmt(["check", "einstein", M.render(node)], as_json),
                                node, heavy=True, json=as_json, best=best))
        elif kind == "chain":
            node = _fiber_chain(rng, max(2, round(size * scale)))
            ops.append(_expr_op("eval", _fmt(["eval", M.render(node)], as_json), node,
                                heavy=True, json=as_json))
        else:
            node, mode = _normalize_input(rng, i, summands=max(3, round(size * scale)))
            ops.append(_expr_op("normalize", _fmt(["normalize", M.render(node)], as_json),
                                node, heavy=True, json=as_json, mode=mode))
    # Known faults, fixed inputs: a decided homeomorphism question that
    # raises instead, and a parenthesised sum deeper than the recursion
    # limit allows.
    homeo = _homeo_op(S((P("CP2"), 1), (P("Sd", 2), 1)), S((P("S2xS2"), 1), (P("Sd", 2), 1)), False,
                      verdict="not_homeomorphic")
    homeo.fault = FAULT_HOMEO_PARTIAL
    ops.append(homeo)
    deep_op = _nested_op("eval", ["eval"], _nested(random.Random("deep-parens"), DEEP_PARENS), False)
    deep_op.expect["may_refuse"] = True
    deep_op.fault = FAULT_DEEP_PARENS
    ops.append(deep_op)
    rng.shuffle(ops)
    return ops


def _homeo_op(left, right, as_json, verdict=None):
    lchi, ltau, lb1 = M.invariants(left)
    rchi, rtau, rb1 = M.invariants(right)
    lkey = M.betti_pm(lchi, ltau, lb1)
    rkey = M.betti_pm(rchi, rtau, rb1)
    if verdict is None:
        # Both sides of every generated pair are simply connected with the
        # same parity, so b2+ and b2- decide.
        verdict = "homeomorphic" if lkey == rkey else "not_homeomorphic"
    return Op("homeo", tuple(_fmt(["check", "homeo", M.render(left), M.render(right)], as_json)),
              {"json": as_json, "left": lkey, "right": rkey, "verdict": verdict})


# --- reproduce ----------------------------------------------------------

def _reproduce(rng: random.Random) -> list[Op]:
    ops = []
    for target in TARGETS:
        for as_json in (False, True):
            op = Op("reproduce", tuple(_fmt(["reproduce", target], as_json)),
                    {"target": target, "json": as_json})
            if target == "prop3.12":
                op.fault = FAULT_EVEN_KE_RECORDS
            ops.append(op)
    rng.shuffle(ops)
    return ops


# --- checks -------------------------------------------------------------

def classify(op: Op, got: Outcome, golden_dir: Path) -> str:
    """"ok", "failed" (the op's named fault, as described) or Mismatch."""
    try:
        if got.exc is not None:
            raise Mismatch(f"{got.exc} escaped cli.main")
        CHECKERS[op.kind](op, got, golden_dir)
        return "ok"
    except Mismatch:
        if op.fault is not None and FAULT_SIGNATURES[op.fault](op, got, golden_dir):
            return "failed"
        raise


def _need(cond, message):
    if not cond:
        raise Mismatch(message)


def _load_json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from exc


def _check_steps(steps):
    for step in steps:
        arithmetic = step.get("arithmetic") if isinstance(step, dict) else step
        if arithmetic:
            try:
                holds = M.check_arithmetic(arithmetic)
            except M.BadArithmetic as exc:
                raise Mismatch(str(exc)) from exc
            _need(holds, f"certificate step is false: {arithmetic}")


def _text_fields(out):
    fields = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith(" "):
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    return fields


def _check_eval(op, got, _):
    e = op.expect
    if e.get("may_refuse") and got.rc == 2 and got.err.startswith("syntax error"):
        return  # a positioned refusal of an over-deep input is a documented outcome
    _need(got.rc == 0, f"exit {got.rc}: {got.err.strip()[:200]}")
    plus, minus = (M.betti_pm(e["chi"], e["tau"], e["b1"]) if e["b1"] is not None else (None, None))
    if e["json"]:
        data = _load_json(got.out)
        _need((data["chi"], data["tau"], data["b1"]) == (e["chi"], e["tau"], e["b1"]),
              f"(chi, tau, b1) = {(data['chi'], data['tau'], data['b1'])}, expected "
              f"{(e['chi'], e['tau'], e['b1'])}")
        if plus is not None:
            _need((data["b2plus"], data["b2minus"]) == (str(plus), str(minus)), "b2+/b2- wrong")
    else:
        fields = _text_fields(got.out)
        b1_text = str(e["b1"]) if e["b1"] is not None else "unknown"
        _need((fields.get("chi"), fields.get("tau"), fields.get("b1")) == (str(e["chi"]), str(e["tau"]), b1_text),
              f"text output disagrees on chi/tau/b1: {fields}")
        if plus is not None:
            _need(fields.get("b2+/b2-") == f"{plus}/{minus}", "b2+/b2- wrong")


def _check_ht(op, got, _):
    e = op.expect
    ok = M.ht_holds(e["chi"], e["tau"])
    verdict = "hitchin_thorpe_ok" if ok else "hitchin_thorpe_violated"
    _need(got.rc == (0 if ok else 1), f"exit {got.rc}, expected {0 if ok else 1}: {got.err.strip()[:200]}")
    if e["json"]:
        cert = _load_json(got.out)
        _need(cert["verdict"] == verdict, f"verdict {cert['verdict']}, expected {verdict}")
        _need((cert["inputs"]["chi"], cert["inputs"]["tau"]) == (e["chi"], e["tau"]), "certificate inputs wrong")
        _check_steps(cert["steps"])
    else:
        lines = got.out.splitlines()
        _need(lines[0] == f"verdict: {verdict}", f"{lines[0]!r}, expected verdict {verdict}")
        _check_steps([line.split(": ", 1)[1] for line in lines[1:]])


def _check_einstein(op, got, _):
    e = op.expect
    best = e["best"]
    _need(got.rc == 0, f"exit {got.rc}: {got.err.strip()[:200]}")
    if e["json"]:
        cert = _load_json(got.out)
        verdict = cert["verdict"]
    else:
        lines = got.out.splitlines()
        verdict = lines[0].split()[1]
    if best is None:
        _need(verdict == "no_verdict", f"verdict {verdict}, but no splitting can fire")
        return
    _need(verdict == "einstein_obstructed", f"verdict {verdict}, but ({best['k']}, {best['l']}) fires")
    if e["json"]:
        inputs = cert["inputs"]
        k, l, x_chi, x_tau = inputs["k"], inputs["l"], inputs["chi"], inputs["tau"]
        _check_steps(cert["steps"])
    else:
        match = re.match(r"split: X = .*, k = (\d+), l = (\d+)$", lines[1])
        _need(match is not None, f"no split line: {lines[1]!r}")
        k, l = int(match.group(1)), int(match.group(2))
        x_chi, x_tau = best["x_chi"], best["x_tau"]
        _check_steps([line.split(": ", 1)[1] for line in lines[2:] if ": " in line])
    # The split re-sums to the input, fires, and is the best one.
    _need(x_chi + 3 * k - 2 * (k + l) == e["chi"] and x_tau - k == e["tau"],
          "X # k CP2b # l S1xS3 does not re-sum to the input")
    _need(Fraction(k + 4 * l) >= Fraction(M.c1sq(x_chi, x_tau), 3), "k + 4l below (2chi+3tau)(X)/3")
    _need((k, l, x_chi, x_tau) == (best["k"], best["l"], best["x_chi"], best["x_tau"]),
          f"split (k, l) = ({k}, {l}) is not the best ({best['k']}, {best['l']})")


def _check_homeo(op, got, _):
    e = op.expect
    want_rc = 0 if e["verdict"] == "homeomorphic" else 1
    _need(got.rc == want_rc, f"exit {got.rc}, expected {want_rc}: {got.err.strip()[:200]}")
    if e["json"]:
        cert = _load_json(got.out)
        _need(cert["verdict"] == e["verdict"], f"verdict {cert['verdict']}, expected {e['verdict']}")
        for side in ("left", "right"):
            key = cert["inputs"][f"{side}_key"]
            _need((Fraction(key["b2plus"]), Fraction(key["b2minus"])) == e[side], f"{side} key b2+/b2- wrong")
        _check_steps(cert["steps"])
    else:
        first = got.out.splitlines()[0]
        _need(first == f"verdict: {e['verdict']}", f"{first!r}, expected {e['verdict']}")


_TERM = re.compile(r"^(?:(\d+)\*)?(\(?[A-Za-z0-9]+\)?)$")


def _parse_normal_form(text):
    counts = {}
    for piece in text.split(" # "):
        match = _TERM.match(piece.strip())
        _need(match is not None, f"unexpected normal-form term {piece!r}")
        counts[match.group(2).strip("()")] = int(match.group(1) or 1)
    return counts


def _check_normalize(op, got, _):
    e = op.expect
    _need(got.rc == 0, f"exit {got.rc}: {got.err.strip()[:200]}")
    if e["json"]:
        data = _load_json(got.out)
        _need(data["canonical"] is True, "normal form is not canonical")
        _need(data["mode"] == e["mode"], f"mode {data['mode']}, expected {e['mode']}")
        form = data["normal_form"]
    else:
        first = got.out.splitlines()[0]
        _need(first.startswith("normal form: ") and not first.endswith("(partial)"), f"{first!r}")
        form = first[len("normal form: "):]
    counts = _parse_normal_form(form)
    if e["mode"] == "nonspin":
        plus, minus = M.betti_pm(e["chi"], e["tau"], e["b1"])
        want = {"CP2": int(plus), "CP2b": int(minus)}
    else:
        p, q = M.spin_form(e["chi"], e["tau"])
        want = {"K3": p, "S2xS2": q}
    want = {name: count for name, count in want.items() if count}
    _need(counts == want, f"normal form {form}, expected {want}")


def _check_free_actions(op, got, _):
    e = op.expect
    _need(got.rc == 0, f"exit {got.rc}: {got.err.strip()[:200]}")
    d = e["d"]
    if e["json"]:
        data = _load_json(got.out)
        rows = [(p["n"], p["m"], p["k"], p["verdict"]) for p in data["points"]]
    else:
        lines = got.out.splitlines()
        _need(lines[0] == "n,m,k,verdict", f"bad header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            n, m, k, verdict = line.split(",")
            rows.append((int(n), int(m), int(k), verdict))
    want = M.free_action_points(d, e["eps"], e["c"], *e["bounds"])
    _need([(n, m) for n, m, _, _ in rows] == want,
          f"{len(rows)} region points, expected {len(want)} (or a different set)")
    for n, m, k, verdict in rows:
        _need(verdict == "einstein_obstructed", f"({n},{m}) verdict {verdict}")
        _need(k == M.free_action_k(n, d), f"({n},{m}) k = {k}, expected {M.free_action_k(n, d)}")
        _need(3 * k >= (3 * n) // (2 * d) + 1, f"({n},{m}) k below c1^2(B)/3")


def _check_bk(op, got, _):
    e = op.expect
    _need(got.rc == 0, f"exit {got.rc}: {got.err.strip()[:200]}")
    lines = got.out.splitlines()
    _need(lines[0] == "x,y", f"bad header {lines[0]!r}")
    tops = M.bk_columns(e["eps_prime"], e["c"], *e["bounds"])
    expected = [f"{x},{y}" for x, top in enumerate(tops, start=1) for y in range(1, top + 1)]
    _need(lines[1:] == expected, f"{len(lines) - 1} bk points, expected {len(expected)} (or a different set)")


def _records(value, path=""):
    """Every dict in a report value that carries (chi or c2) and tau."""
    if isinstance(value, dict):
        if "tau" in value and ("chi" in value or "c2" in value):
            yield path, value
        for key, sub in value.items():
            yield from _records(sub, f"{path}.{key}")
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _records(sub, f"{path}[{i}]")


_MARKER = re.compile(r"non-?realizable|not realizable|formal", re.IGNORECASE)


def _flagged(record) -> bool:
    for key, value in record.items():
        if "realizable" in key.lower() and value in (False, "no"):
            return True
        if key.lower() in ("non_realizable", "nonrealizable", "formal") and value is True:
            return True
        if isinstance(value, str) and _MARKER.search(value):
            return True
    return False


def _check_realizable_values(values):
    for path, record in _records(values):
        chi = record.get("chi", record.get("c2"))
        if (chi + record["tau"]) % 2 and not _flagged(record):
            raise Mismatch(f"record {path} has chi + tau = {chi + record['tau']} odd and no marker")


_LINE_RECORD = re.compile(r"c2=(-?\d+), tau=(-?\d+)")


def _check_realizable_lines(lines):
    for line in lines:
        match = _LINE_RECORD.search(line)
        if match and (int(match.group(1)) + int(match.group(2))) % 2 and not _MARKER.search(line):
            raise Mismatch(f"line reports chi + tau odd with no marker: {line!r}")


def _check_thm15(values):
    eps, c = Fraction(values["epsilon"]), Fraction(values["c_of_eps"])
    for d_text, rows in values["points"].items():
        d = int(d_text)
        for row in rows:
            n, m, k = row["n"], row["m"], row["k"]
            _need(n % d == 0 and m % d == 0 and 0 < n < (6 - eps) * m - Fraction(2 * d, 3) * (c + 1),
                  f"thm1.5 point ({n},{m}) outside the region for d={d}")
            _need(k == M.free_action_k(n, d) and 3 * k >= (3 * n) // (2 * d) + 1, f"thm1.5 ({n},{m}) k = {k}")
            _need(row["verdict"] == "einstein_obstructed", f"thm1.5 ({n},{m}) verdict")
            _need(row["cover"] == f"{2 * m - 1} CP2 # {10 * m - n - 1} CP2b", f"thm1.5 ({n},{m}) cover")
        _need([(r["n"], r["m"]) for r in rows] == sorted((r["n"], r["m"]) for r in rows), "thm1.5 order")


def _golden(golden_dir: Path, target: str) -> dict:
    return json.loads((golden_dir / (target.replace(".", "_") + ".json")).read_text(encoding="utf-8"))


def _check_reproduce(op, got, golden_dir, realizable=True):
    e = op.expect
    _need(got.rc == 0, f"exit {got.rc}: {got.err.strip()[:200]}")
    pinned = _golden(golden_dir, e["target"])
    if e["json"]:
        report = _load_json(got.out)
        _need(report == pinned, "report differs from the golden file")
        for cert in report["certificates"]:
            _check_steps(cert["steps"])
        if realizable:
            _check_realizable_values(report["values"])
        if e["target"] == "thm1.5":
            _check_thm15(report["values"])
    else:
        lines = got.out.splitlines()
        _need(lines == pinned["lines"] + ["golden: ok"], "text report differs from the golden lines")
        if realizable:
            _check_realizable_lines(lines)


CHECKERS = {
    "eval": _check_eval,
    "ht": _check_ht,
    "einstein": _check_einstein,
    "homeo": _check_homeo,
    "normalize": _check_normalize,
    "free-actions": _check_free_actions,
    "bk": _check_bk,
    "reproduce": _check_reproduce,
}


def _homeo_partial_key(op, got, golden_dir):
    return got.exc is None and got.rc == 2 and "w2-type unknown" in got.err


def _deep_parens(op, got, golden_dir):
    return got.exc == "RecursionError"


def _even_ke_records(op, got, golden_dir):
    """Everything else about the report holds; only records with chi + tau
    odd and no marker are wrong."""
    try:
        _check_reproduce(op, got, golden_dir, realizable=False)
    except Mismatch:
        return False
    return True


FAULT_SIGNATURES = {
    FAULT_HOMEO_PARTIAL: _homeo_partial_key,
    FAULT_DEEP_PARENS: _deep_parens,
    FAULT_EVEN_KE_RECORDS: _even_ke_records,
}
