"""Rewrite engine: canonical forms, traces, confluence, diffeo claims."""

import dataclasses
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourcalc import rewrite
from fourcalc.config import WALL_N0
from fourcalc.errors import FourcalcError, MismatchedInvariants, MixedRewriteModes
from fourcalc.evaluate import eval_invariants, evaluate
from fourcalc.expr import (
    CyclicCover,
    DivisorClass,
    LogTransform,
    Primitive,
    Quotient,
    connected_sum_of,
    sum_parts,
)
from fourcalc.flags import NO, UNKNOWN, YES
from fourcalc.invariants import connected_sum_record
from fourcalc.rewrite import normalize, verify_diffeo_claim

from .work import line_events

CP2 = Primitive("CP2")
CP2B = Primitive("CP2b")
S2XS2 = Primitive("S2xS2")
K3 = Primitive("K3")
E2, E3 = Primitive("E", (2,)), Primitive("E", (3,))
OCTIC = CyclicCover("CP2", 2, DivisorClass("CP2", (8,)))


class TestNormalize:
    def test_quadric_blowup(self):
        result = normalize(connected_sum_of((S2XS2, 1), (CP2B, 1)))
        assert result.canonical
        assert result.expr == connected_sum_of((CP2, 1), (CP2B, 2))
        assert [t.rule for t in result.trace] == ["quadric-blowup"]

    def test_canonical_fixed_point(self):
        expr = connected_sum_of((CP2, 3), (CP2B, 5))
        result = normalize(expr)
        assert result.expr == expr and result.trace == ()

    def test_involution_cover(self):
        cover = connected_sum_of((OCTIC, 2), (CP2B, 2), (S2XS2, 1))
        result = normalize(cover)
        assert result.canonical
        assert result.expr == connected_sum_of((CP2, 15), (CP2B, 77))

    def test_decompose_consumes_one_plane(self):
        expr = connected_sum_of((OCTIC, 1), (CP2, 1))
        result = normalize(expr)
        assert result.canonical
        # b2+ = 7, b2- = 37: one CP2 in, 8 CP2 out.
        assert result.expr == connected_sum_of((CP2, 8), (CP2B, 37))
        assert [t.rule for t in result.trace] == ["decompose"]

    def test_stuck_partial_form(self):
        result = normalize(connected_sum_of((OCTIC, 1), (S2XS2, 1)))
        assert not result.canonical
        assert result.mode == "nonspin"

    def test_spin_mode(self):
        expr = connected_sum_of(
            (Primitive("X442"), 1), (Primitive("E", (4,)), 1), (S2XS2, 2)
        )
        result = normalize(expr)
        assert result.canonical and result.mode == "spin"
        assert result.expr == connected_sum_of((K3, 6), (S2XS2, 10))

    def test_spin_partial_without_stock(self):
        result = normalize(Primitive("E", (4,)))
        assert not result.canonical

    def test_mixed_modes_rejected(self):
        # An odd log transform of E(2) keeps to spin mode despite the ACD
        # flag it inherits.
        for spin_only in (Primitive("X442"), LogTransform(E2, 3)):
            with pytest.raises(MixedRewriteModes):
                normalize(connected_sum_of((spin_only, 1), (CP2, 1)))

    def test_identity_summands_dropped(self):
        result = normalize(connected_sum_of((CP2, 2), (Primitive("S4"), 3)))
        assert result.expr == connected_sum_of((CP2, 2))

    def test_blocked_on_nontrivial_group(self):
        result = normalize(connected_sum_of((CP2, 1), (Primitive("Sd", (2,)), 1)))
        assert not result.canonical and result.mode == "blocked"

    def test_every_step_preserves_invariants(self):
        cover = connected_sum_of((OCTIC, 3), (CP2B, 3), (S2XS2, 2))
        before = eval_invariants(cover)
        result = normalize(cover)
        after = eval_invariants(result.expr)
        assert (before.chi, before.tau) == (after.chi, after.tau)
        assert result.expr == connected_sum_of((CP2, 23), (CP2B, 116))

    def test_confluence_under_random_orders(self):
        # Any order of one firing per step reaches the engine's form.
        rng = random.Random(11)
        pool = [
            connected_sum_of((OCTIC, 2), (CP2B, 2), (S2XS2, 1)),
            connected_sum_of((OCTIC, 1), (CP2, 2), (CP2B, 4), (S2XS2, 2)),
            connected_sum_of(
                (Primitive("X442"), 2), (Primitive("Y", (2,)), 1),
                (Primitive("E", (2,)), 2), (S2XS2, 3),
            ),
            connected_sum_of((Primitive("E", (3,)), 1), (CP2, 1), (CP2B, 1)),
        ]
        for expr in pool:
            engine = normalize(expr)
            for _ in range(6):
                _assert_same_form(reference_normalize(expr, rng=rng), engine)

    def test_even_log_transform_of_e2_is_not_decomposed(self):
        # E(2)_p is spin only for odd p: logt(E(2),2) # S2xS2 must not
        # reach the spin form K3 # S2xS2.
        result = normalize(connected_sum_of((LogTransform(E2, 2), 1), (S2XS2, 1)))
        assert not result.canonical and result.trace == ()
        assert result.expr == connected_sum_of((S2XS2, 1), (LogTransform(E2, 2), 1))

    def test_log_transform_without_spin_rule_is_partial(self):
        result = normalize(LogTransform(E3, 3))
        assert not result.canonical and result.mode == "nonspin"
        assert result.expr == LogTransform(E3, 3)

    def test_log_transform_decomposes_through_inherited_acd(self):
        result = normalize(connected_sum_of((LogTransform(E3, 3), 1), (CP2, 1)))
        assert result.canonical and result.mode == "nonspin"
        assert result.expr == connected_sum_of((CP2, 6), (CP2B, 29))
        assert [t.rule for t in result.trace] == ["decompose"]

    @pytest.mark.parametrize("block, rules", [
        (LogTransform(E2, 3), ["log-elliptic-decompose"]),
        (LogTransform(Primitive("E", (4,)), 3), []),
        (LogTransform(K3, 3), []),
        (LogTransform(Primitive("Y", (1,)), 3), []),
        (LogTransform(LogTransform(E2, 3), 5), []),
    ], ids=["E(2)_3", "E(4)_3", "K3_3", "Y(1)_3", "E(2)_3_5"])
    def test_only_odd_transforms_of_e2_keep_a_spin_split(self, block, rules):
        # E(2)_p at odd p splits like K3.  Any other transform keeps no
        # split, so logt(E(4),3) keeps its non-spin route beside CP2.
        result = normalize(connected_sum_of((block, 1), (S2XS2, 1)))
        assert [t.rule for t in result.trace] == rules
        assert result.canonical == bool(rules)
        if block.inner == Primitive("E", (4,)):
            result = normalize(connected_sum_of((block, 1), (CP2, 1)))
            assert result.expr == connected_sum_of((CP2, 8), (CP2B, 39))

    @pytest.mark.parametrize("block", [
        Primitive("X442"), Primitive("E", (4,)), Primitive("Y", (1,)), LogTransform(E2, 3),
    ], ids=str)
    @pytest.mark.parametrize("other", [S2XS2, CP2], ids=str)
    def test_a_trivial_quotient_rewrites_like_its_block(self, block, other):
        # quotient(X,1) evaluates as X, so it carries X's spin split too.
        want = _outcome(lambda: normalize(connected_sum_of((block, 1), (other, 1))))
        got = _outcome(lambda: normalize(connected_sum_of((Quotient(block, 1), 1), (other, 1))))
        _assert_same_form(got, want)
        if not isinstance(want, str):
            assert [t.rule for t in got.trace] == [t.rule for t in want.trace]


def test_readme_lists_the_rule_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Rewrite rules", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    assert names == [rule.name for rule in rewrite.RULES]


class TestDiffeoClaims:
    def test_triple_cover_example(self):
        lhs = connected_sum_of((OCTIC, 3), (CP2B, 3), (S2XS2, 2))
        rhs = connected_sum_of((CP2, 23), (CP2B, 116))
        cert = verify_diffeo_claim(lhs, rhs)
        assert cert.verdict == "diffeomorphic_under_rewrite_axioms"

    def test_reflexive(self):
        cert = verify_diffeo_claim(K3, K3)
        assert cert.verdict == "diffeomorphic_under_rewrite_axioms"

    def test_invariant_mismatch_rejected(self):
        with pytest.raises(MismatchedInvariants):
            verify_diffeo_claim(CP2, CP2B)

    def test_even_log_transform_has_no_verdict(self):
        cert = verify_diffeo_claim(
            connected_sum_of((LogTransform(E2, 2), 1), (S2XS2, 1)),
            connected_sum_of((K3, 1), (S2XS2, 1)),
        )
        assert cert.verdict == "no_verdict"

    def test_same_invariants_different_form(self):
        # The exotic block has the plane-sum invariants but normalization
        # cannot decompose it without a CP2: no verdict, not a crash.
        cert = verify_diffeo_claim(
            connected_sum_of((OCTIC, 1), (S2XS2, 1)),
            connected_sum_of((CP2, 8), (CP2B, 38)),
        )
        assert cert.verdict == "no_verdict"


# --- the one-firing-per-step loop normalize replaced, kept as the oracle ---

def _reference_odd_log_e2(part):
    # Y(j), or E(2) log-transformed with odd multiplicity: E(2)_p is spin
    # only for odd p.
    if isinstance(part, Primitive) and part.name == "Y":
        return True
    if isinstance(part, LogTransform):
        return part.inner == Primitive("E", (2,)) and part.multiplicity % 2 == 1
    return False


def _reference_elliptic_halves(part):
    """n for E(2n); None otherwise."""
    if isinstance(part, Primitive) and part.name == "E" and part.params[0] % 2 == 0:
        return part.params[0] // 2
    return None


def _reference_rules(counts, mode):
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
            if part == Primitive("X442") and stock >= WALL_N0:
                rules.append(("wall-stabilize", part))
            elif _reference_odd_log_e2(part) and stock >= 1:
                rules.append(("log-elliptic-decompose", part))
            elif _reference_elliptic_halves(part) is not None and stock >= 1:
                rules.append(("elliptic-decompose", part))
    return rules


def _reference_apply(counts, rule, part):
    def take(p, m=1):
        counts[p] -= m
        if counts[p] == 0:
            del counts[p]

    def put(p, m=1):
        counts[p] = counts.get(p, 0) + m

    TraceStep = rewrite.TraceStep
    if rule == "quadric-blowup":
        take(S2XS2)
        take(CP2B)
        put(CP2)
        put(CP2B, 2)
        return TraceStep(rule, rewrite.CITE_QUADRIC_BLOWUP, "(S2xS2) # CP2b -> CP2 # 2*CP2b")
    if rule == "decompose":
        rec = evaluate(part).record
        b2p, b2m = int(rec.b2plus), int(rec.b2minus)
        acd_prov = [p for p in evaluate(part).flags.provenance if p.field == "acd"]
        origin = acd_prov[-1].citation if acd_prov else rewrite.CITE_ACD
        take(part)
        take(CP2)
        put(CP2, b2p + 1)
        if b2m:
            put(CP2B, b2m)
        return TraceStep(
            rule, rewrite.CITE_ACD, f"{part} # CP2 -> {b2p + 1}*CP2 # {b2m}*CP2b [{origin}]"
        )
    if rule == "wall-stabilize":
        take(part)
        put(K3, 4)
        put(S2XS2, 7)
        return TraceStep(
            rule,
            rewrite.CITE_WALL,
            f"{part} # {WALL_N0}*(S2xS2) -> 4*K3 # {7 + WALL_N0}*(S2xS2)",
        )
    if rule == "log-elliptic-decompose":
        take(part)
        put(K3)
        return TraceStep(rule, rewrite.CITE_SPIN_DECOMP, f"{part} # (S2xS2) -> K3 # (S2xS2)")
    n = _reference_elliptic_halves(part)
    take(part)
    put(K3, n)
    if n - 1:
        put(S2XS2, n - 1)
    return TraceStep(rule, rewrite.CITE_SPIN_DECOMP, f"{part} # (S2xS2) -> {n}*K3 # {n}*(S2xS2)")


def _reference_mode(counts):
    def spin_eligible(part):
        return (
            part in (K3, S2XS2, Primitive("X442"))
            or _reference_odd_log_e2(part)
            or _reference_elliptic_halves(part) is not None
        )

    has_nonspin = any(evaluate(p).flags.spin is NO for p in counts)
    has_nonspin_acd = any(
        not spin_eligible(p) and evaluate(p).flags.acd is YES for p in counts
    )
    has_spin_only = any(p == Primitive("X442") or _reference_odd_log_e2(p) for p in counts)
    if has_spin_only and (has_nonspin or has_nonspin_acd):
        raise MixedRewriteModes("expression mixes spin-mode and non-spin-mode summands")
    return "nonspin" if has_nonspin or has_nonspin_acd else "spin"


def _reference_record(counts):
    return connected_sum_record((evaluate(p).record, m) for p, m in counts.items())


def _reference_spin(counts):
    spins = {evaluate(p).flags.spin for p in counts}
    return NO if NO in spins else YES if spins == {YES} else UNKNOWN


def reference_normalize(expr, rng=None):
    """normalize as it was: one rule firing per step, conservation
    asserted after every firing.  With ``rng``, each step fires a rule
    drawn from every rule that applies."""
    counts, trace = {}, []
    for part, mult in sum_parts(expr):
        if part in (Primitive("S4"), Primitive("Sd", (1,))):
            trace.append(
                rewrite.TraceStep("drop-identity", rewrite.CITE_IDENTITY, f"dropped {mult}*{part}")
            )
            continue
        counts[part] = counts.get(part, 0) + mult
    if not counts:
        return rewrite.NormalizeResult(Primitive("S4"), tuple(trace), True, "spin")
    if any(not evaluate(p).flags.pi1.is_trivial for p in counts):
        return rewrite.NormalizeResult(expr, tuple(trace), False, "blocked")
    mode = _reference_mode(counts)
    check = _reference_record(counts)
    spin0 = _reference_spin(counts)
    while True:
        rules = _reference_rules(counts, mode)
        if not rules:
            break
        choice = rng.choice(rules) if rng is not None else rules[0]
        trace.append(_reference_apply(counts, *choice))
        assert _reference_record(counts) == check
        assert _reference_spin(counts) is spin0 or spin0 is UNKNOWN
    canonical_parts = (CP2, CP2B) if mode == "nonspin" else (K3, S2XS2)
    canonical = all(p in canonical_parts for p in counts)
    ordered = [(p, counts[p]) for p in canonical_parts if p in counts]
    ordered += sorted(
        ((p, m) for p, m in counts.items() if p not in canonical_parts),
        key=lambda item: str(item[0]),
    )
    result = connected_sum_of(*ordered) if ordered else Primitive("S4")
    return rewrite.NormalizeResult(result, tuple(trace), canonical, mode)


S4 = Primitive("S4")
NONSPIN_POOL = [
    CP2, CP2B, S2XS2, K3, S4, OCTIC,
    Primitive("E", (2,)), Primitive("E", (4,)), Primitive("BK", (3, 5, 0)),
]
SPIN_POOL = [
    S2XS2, K3, S4, Primitive("X442"), Primitive("Y", (1,)), Primitive("Y", (3,)),
    Primitive("E", (2,)), Primitive("E", (4,)), Primitive("E", (6,)),
    LogTransform(Primitive("E", (2,)), 3), LogTransform(Primitive("E", (2,)), 5),
    LogTransform(Primitive("E", (2,)), 2), LogTransform(Primitive("E", (3,)), 3),
]
MULTISETS = st.one_of(
    st.lists(st.tuples(st.sampled_from(NONSPIN_POOL), st.integers(1, 6)), min_size=1, max_size=6),
    st.lists(st.tuples(st.sampled_from(SPIN_POOL), st.integers(1, 6)), min_size=1, max_size=6),
    st.lists(
        st.tuples(st.sampled_from(NONSPIN_POOL + SPIN_POOL), st.integers(1, 4)),
        min_size=1,
        max_size=4,
    ),
)


def _outcome(run):
    try:
        return run()
    except FourcalcError as exc:
        return type(exc).__name__


def _assert_same_form(got, want):
    """The same form, or the same error; traces differ between orders."""
    if isinstance(want, str):
        assert got == want
        return
    assert got.expr == want.expr
    assert got.canonical == want.canonical
    assert got.mode == want.mode


def _assert_same_result(got, want):
    _assert_same_form(got, want)
    if not isinstance(want, str):
        assert got.trace == want.trace


@settings(max_examples=150, deadline=None)
@given(MULTISETS)
def test_batched_normalize_matches_one_firing_per_step(pieces):
    expr = connected_sum_of(*pieces)
    _assert_same_result(_outcome(lambda: normalize(expr)), _outcome(lambda: reference_normalize(expr)))


@settings(max_examples=100, deadline=None)
@given(MULTISETS, st.integers(0, 2**32))
def test_random_reference_orders_reach_the_engine_form(pieces, seed):
    # Confluence: one firing per step, in any order, ends where the
    # engine's fixed order does.
    expr = connected_sum_of(*pieces)
    _assert_same_form(
        _outcome(lambda: reference_normalize(expr, rng=random.Random(seed))),
        _outcome(lambda: normalize(expr)),
    )


def test_one_firing_computed_per_batch(monkeypatch):
    calls = []
    firing = rewrite._firing

    def counted(*args):
        calls.append(args[0].name)
        return firing(*args)

    monkeypatch.setattr(rewrite, "_firing", counted)
    result = normalize(connected_sum_of((S2XS2, 5), (CP2B, 1)))
    assert calls == ["quadric-blowup"]
    assert [t.rule for t in result.trace] == ["quadric-blowup"] * 5
    assert result.expr == connected_sum_of((CP2, 5), (CP2B, 6))


def _fault_on_first_firing(monkeypatch, rule, extra):
    """Make the first firing of ``rule`` also apply ``extra``; the batch
    it starts repeats the fault in every copy."""
    firing, faulted = rewrite._firing, []

    def faulty(fired, part):
        delta, step = firing(fired, part)
        if fired.name == rule and not faulted:
            faulted.append(fired.name)
            delta = dict(delta)
            for summand, change in extra.items():
                delta[summand] = delta.get(summand, 0) + change
        return delta, step

    monkeypatch.setattr(rewrite, "_firing", faulty)


def test_batch_end_check_catches_chi_fault(monkeypatch):
    _fault_on_first_firing(monkeypatch, "quadric-blowup", {CP2: 1})
    with pytest.raises(AssertionError, match="chi or tau"):
        normalize(connected_sum_of((S2XS2, 3), (CP2B, 1)))


def test_batch_end_check_catches_spin_fault(monkeypatch):
    # Trade a quadric for CP2 # CP2b: the same (chi, tau), but not spin.
    e4 = Primitive("E", (4,))
    _fault_on_first_firing(monkeypatch, "elliptic-decompose", {S2XS2: -1, CP2: 1, CP2B: 1})
    with pytest.raises(AssertionError, match="spin"):
        normalize(connected_sum_of((e4, 3), (S2XS2, 1)))


@pytest.mark.parametrize("rule", rewrite.RULES, ids=lambda rule: rule.name)
def test_a_rule_giving_one_plane_too_many_trips_conservation(monkeypatch, rule):
    # The running totals must still see every firing: a table row whose
    # ``gives`` adds one CP2b beside its right-hand side fails the check.
    def gives(part):
        gives = dict(rule.gives(part))
        gives[CP2B] = gives.get(CP2B, 0) + 1
        return gives

    faulty = dataclasses.replace(rule, gives=gives)
    monkeypatch.setattr(rewrite, "RULES", tuple(faulty if r is rule else r for r in rewrite.RULES))
    monkeypatch.setattr(rewrite, "_PIECE_RULES", {})
    expr = connected_sum_of((rule.sample, 1), (rule.needs, rule.stock))
    with pytest.raises(AssertionError, match="chi or tau"):
        normalize(expr)


def _blocks(n):
    return connected_sum_of((CP2, 1), *((Primitive("BK", (3, 5, j)), 1) for j in range(n)))


def test_normalize_costs_linear_work():
    # Re-summing the whole multiset and rescanning every summand's rules
    # after each batch made this quadratic, with a ratio of about 3.7.
    work = [line_events(rewrite, lambda: normalize(_blocks(n))) for n in (200, 100)]
    ratio = work[0] / work[1]
    assert ratio < 2.3, ratio


WIDE_NONSPIN_POOL = NONSPIN_POOL + [Primitive("BK", (3, 5, j)) for j in range(1, 30)]
WIDE_SPIN_POOL = (
    SPIN_POOL
    + [Primitive("Y", (j,)) for j in range(4, 16)]
    + [Primitive("E", (2 * h,)) for h in range(4, 16)]
    + [LogTransform(Primitive("E", (2,)), p) for p in (7, 9, 11, 13)]
)


def _distinct_sums(pool):
    return st.lists(
        st.tuples(st.sampled_from(pool), st.integers(1, 4)),
        min_size=1, max_size=30, unique_by=lambda piece: piece[0],
    )


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_distinct_sums(WIDE_NONSPIN_POOL), _distinct_sums(WIDE_SPIN_POOL)),
    st.integers(0, 2**32),
)
def test_normalize_matches_one_firing_per_step_on_wide_sums(pieces, seed):
    expr = connected_sum_of(*pieces)
    engine = _outcome(lambda: normalize(expr))
    _assert_same_result(engine, _outcome(lambda: reference_normalize(expr)))
    _assert_same_form(_outcome(lambda: reference_normalize(expr, rng=random.Random(seed))), engine)


def _rescan_first_ready(counts, rules_of, mode):
    """The first ready pair (None if there is none) and the stocks lacked
    before it, as found by scanning every summand's rules, as normalize
    did before it kept an index."""
    lacked = set()
    for need in rewrite.STOCKS[mode]:
        have = counts.get(need, 0)
        for part, rules in rules_of.items():
            for rule in rules:
                if rule.needs is need and rule.mode == mode:
                    if have >= rule.stock:
                        return (rule, part), lacked
                    lacked.add(need)
    return None, lacked


@st.composite
def _changes(draw):
    """Changes to a sum drawn from a few summands, so that summands often
    leave it and come back."""
    parts = draw(st.lists(st.sampled_from(NONSPIN_POOL + SPIN_POOL), min_size=1, max_size=5))
    parts += [CP2, CP2B, S2XS2]
    return draw(st.lists(st.tuples(st.sampled_from(parts), st.integers(-4, 4)), max_size=40))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["nonspin", "spin"]), st.integers(1, 4), _changes())
@example("spin", 3, [(Primitive("X442"), 1), (Primitive("E", (4,)), 1), (S2XS2, 1)])
def test_ready_index_matches_a_rescan(mode, wall_stock, changes):
    # Summands leave the sum and come back at its end; after every change
    # the index must give the rescan's first pair, the stocks lacked
    # before it, and the record and spin flag of the sum summed afresh.
    # A wall-stabilize row needing more S2xS2 than the other spin rules
    # makes a rule lack a stock that is not short of the least amount.
    table = tuple(
        dataclasses.replace(rule, stock=wall_stock) if rule.name == "wall-stabilize" else rule
        for rule in rewrite.RULES
    )
    with mock.patch.object(rewrite, "RULES", table):
        total = rewrite._Sum()
        total.index(mode)
        counts, rules_of = {}, {}
        for part, change in changes:
            change = max(change, -counts.get(part, 0))
            if not change:
                continue
            total.add(part, change)
            if part not in counts:
                counts[part], rules_of[part] = 0, rewrite._rules_of(part, evaluate(part))
            counts[part] += change
            if not counts[part]:
                del counts[part], rules_of[part]
            assert total.first_ready() == _rescan_first_ready(counts, rules_of, mode)
            assert {p: entry[0] for p, entry in total.parts.items()} == counts
            if counts:
                assert total.record() == _reference_record(counts)
                assert total.spin() is _reference_spin(counts)
