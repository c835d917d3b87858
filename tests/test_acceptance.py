"""Acceptance gate: every criterion at its stated tolerance (exact
arithmetic throughout), one pass/fail line printed per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

from fourcalc import covers, registry
from fourcalc.certificates import verify_certificate
from fourcalc.errors import InconsistentFlags
from fourcalc.evaluate import eval_invariants, evaluate
from fourcalc.expr import (
    CyclicCover,
    DivisorClass,
    Primitive,
    connected_sum_of,
)
from fourcalc.flags import StructureFlags, YES
from fourcalc.geography import (
    ke_corrected_chi_h,
    ke_printed_chi_h,
    ke_quotient_family,
    printed_even_invariants,
)
from fourcalc.invariants import InvariantRecord
from fourcalc.obstruction import spin_einstein
from fourcalc.registry import Evaluation
from fourcalc.reproduce import run_target
from fourcalc.rewrite import normalize
from tests.test_composition_oracle import two_step_composition
from tests.test_rewrite import reference_normalize

CP2 = Primitive("CP2")
CP2B = Primitive("CP2b")
S2XS2 = Primitive("S2xS2")
K3 = Primitive("K3")
OCTIC = CyclicCover("CP2", 2, DivisorClass("CP2", (8,)))


def criterion(number: int, description: str, budget_seconds: float):
    """Decorator: run the criterion, time it, print a pass/fail line."""

    def wrap(fn):
        def runner():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {number}: FAIL ({elapsed:.2f}s) {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {description}")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget"
            )

        runner.__name__ = fn.__name__
        return runner

    return wrap


@criterion(1, "free involution on 15 CP2 # 77 CP2b", 1.0)
def test_criterion_1_involution_example():
    report = run_target("prop1.3")
    base = report.values["octic_double_plane"]
    assert base == {"c2": 46, "c1sq": 2, "tau": -30, "b2plus": 7, "b2minus": 37}
    assert report.values["normal_form"] == "15 CP2 # 77 CP2b"
    lebrun = report.certificates[0]
    assert lebrun.verdict == "einstein_obstructed"
    assert lebrun.inputs["k"] == 1
    assert any(
        (s.arithmetic or "").startswith("1 + 4*0 >= 1/3") for s in lebrun.steps
    )
    assert report.self_verify() == []


@criterion(2, "free triple action on 23 CP2 # 116 CP2b", 1.0)
def test_criterion_2_triple_action_example():
    report = run_target("prop1.4")
    assert report.values["normal_form"] == "23 CP2 # 116 CP2b"
    assert report.self_verify() == []


@criterion(3, "quotient family closed forms, both parities", 1.0)
def test_criterion_3_quotient_family_formulas():
    for d in (3, 5, 7):
        for i in (1, 3, 5):
            bp = ke_quotient_family(d, i)
            rec = bp.quotient_record
            assert rec.c1sq == 4 * (d * (d - 1) + d * i - 2) ** 2
            # The evaluated record satisfies chi_h = (c1^2 + c2)/12 exactly
            # and matches the corrected closed form; the printed closed
            # form is off by exactly d(d-1) (see the decisions ledger).
            assert rec.chi_h == Fraction(rec.c1sq + rec.c2, 12)
            assert rec.chi_h == ke_corrected_chi_h(d, i)
            assert ke_printed_chi_h(d, i) == rec.chi_h + d * (d - 1)
    for d in (2, 4, 6):
        for i in (1, 3, 5):
            bp = ke_quotient_family(d, i)
            c1sq, c2, tau = printed_even_invariants(d, i)
            assert bp.quotient_record.c1sq == c1sq
            assert bp.quotient_record.c2 == c2
            assert bp.quotient_record.tau == tau
            odd_part = d // (d & -d)
            dd = odd_part if odd_part != 1 else 3
            assert tau % 4 == (-6 * (d - 1) * dd * i) % 4
            assert tau % 8 != 0


@criterion(4, "composition oracle on all small bi-cyclic parameters", 5.0)
def test_criterion_4_composition_oracle():
    cases = 0
    for d, p, a, b, m, n in product(
        range(1, 5), range(1, 5), range(1, 4), range(1, 4), range(1, 4), range(1, 4)
    ):
        closed = covers.bicyclic_invariants(d, p, a, b, m, n)
        composed = two_step_composition(d, p, a, b, m, n)
        assert closed == composed, (d, p, a, b, m, n)
        cases += 1
    assert cases == 1296


@criterion(5, "free-action geography: 50 points per degree", 5.0)
def test_criterion_5_free_action_geography():
    report = run_target("thm1.5")
    for d in (2, 3):
        rows = report.values["points"][str(d)]
        assert len(rows) == 50
        for row in rows:
            n, m, k = row["n"], row["m"], row["k"]
            f = (3 * n) // (2 * d)
            assert k == f + 1 - n // d
            assert Fraction(k) > Fraction(f + 1, 3)  # k > c1^2(block)/3
            assert row["verdict"] == "einstein_obstructed"
            assert row["cover"] == f"{2 * m - 1} CP2 # {10 * m - n - 1} CP2b"
    assert report.self_verify() == []


@criterion(6, "spin families: covers, Bauer-Furuta, Hitchin-Thorpe", 1.0)
def test_criterion_6_spin_families():
    report = run_target("thm1.8")
    rows = report.values["families"]
    by_key = {(r["family"], r["d"], r["n"]): r for r in rows}
    for d in (2, 3):
        for n in (1, 2):
            first = by_key[(1, d, n)]
            second = by_key[(2, d, n)]
            assert first["cover"] == f"{d * (n + 5)} K3 # {d * (n + 7) - 1} S2xS2"
            assert (
                second["cover"]
                == f"{d * (2 * n + 5)} K3 # {d * (2 * n + 6) - 1} S2xS2"
            )
            assert first["verdict"] == second["verdict"] == "einstein_obstructed"
    # The fourth congruence piece: K3 completes the mod-8 sum for odd n;
    # for even n the K3 choice provably fails the congruence and the
    # engine substitutes E(4) (see the decisions ledger).
    assert by_key[(1, 2, 1)]["fourth_piece"] == "K3"
    assert by_key[(1, 2, 2)]["fourth_piece"] == "E(4)"
    literal_k3 = spin_einstein(
        [Primitive("X442"), Primitive("Y", (1,)), Primitive("E", (4,)), K3],
        3,
        Primitive("Sd", (2,)),
    )
    assert literal_k3.verdict == "no_verdict"
    assert any(s.rule == "hypothesis-failed:sum-congruence" for s in literal_k3.steps)
    ht_verdicts = [
        c.verdict for c in report.certificates if c.verdict.startswith("hitchin")
    ]
    assert ht_verdicts and all(v == "hitchin_thorpe_ok" for v in ht_verdicts)
    assert report.self_verify() == []


@criterion(7, "group families: Gompf sums and congruences", 1.0)
def test_criterion_7_group_families():
    report16 = run_target("thm1.6")
    for row in report16.values["families"]:
        k = row["k"]
        assert row["c1sq_block"] == 8 * k
        low, high = row["p_range"]
        assert Fraction(low) == Fraction(8 * k + 16, 3) and int(high) == 8 * k + 16
    report17 = run_target("thm1.7")
    table = report17.values["gompf_sums"]
    assert [row["chi"] for row in table] == [52 * k + 48 for k in range(1, 11)]
    assert [row["tau"] for row in table] == [-32 * (k + 1) for k in range(1, 11)]
    small = report17.values["small_spin_block"]
    assert small == {"c2": 152, "tau": -96, "b2plus": 27, "b2plus_mod_4": 3}
    for row in report17.values["group_block_congruences"]:
        assert row["b2plus"] % 4 == 3
    assert report16.self_verify() == report17.self_verify() == []


@criterion(8, "property suites and certificate self-verification", 30.0)
def test_criterion_8_property_suites():
    rng = random.Random(20260811)

    # Connected-sum fold-order invariance on 200 random part lists.
    pool = [CP2, CP2B, S2XS2, K3, OCTIC, Primitive("E", (3,)), Primitive("S1xS3")]
    for _ in range(200):
        parts = [(rng.choice(pool), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))]
        rec = eval_invariants(connected_sum_of(*parts))
        flat = [p for p, m in parts for _ in range(m)]
        rng.shuffle(flat)
        chi, tau = evaluate(flat[0]).record.chi, evaluate(flat[0]).record.tau
        for part in flat[1:]:
            sub = evaluate(part).record
            chi, tau = chi + sub.chi - 2, tau + sub.tau
        assert (rec.chi, rec.tau) == (chi, tau)

    # Rewrite confluence: 100 random expressions, 5 random orders each of
    # one firing per step, against the engine's fixed order.
    nonspin_pool = [OCTIC, Primitive("E", (3,)), Primitive("BK", (5, 2, 0)),
                    CyclicCover("CP1xCP1", 2, DivisorClass("CP1xCP1", (2, 2))),
                    CP2, CP2B, S2XS2]
    spin_pool = [Primitive("X442"), Primitive("Y", (1,)), Primitive("E", (2,)),
                 Primitive("E", (4,)), K3, S2XS2]
    for index in range(100):
        pick = nonspin_pool if index % 2 == 0 else spin_pool
        parts = [(rng.choice(pick), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        expr = connected_sum_of(*parts)
        engine = normalize(expr)
        for _ in range(5):
            shuffled = reference_normalize(expr, rng=rng)
            assert shuffled.expr == engine.expr
            assert shuffled.canonical == engine.canonical

    # Certificate self-verification for every certificate emitted by the
    # reproduction targets behind criteria 1-7.
    total = 0
    for target in ("prop1.3", "prop1.4", "prop3.12", "thm1.1", "thm1.5",
                   "thm1.6", "thm1.7", "thm1.8"):
        report = run_target(target)
        for cert in report.certificates:
            assert verify_certificate(cert) == []
            total += 1
    assert total > 200

    # Rohlin inconsistency detection on 20 adversarial declarations, each
    # a fixed entry of the primitive table, checked when instantiated.
    rejected = 0
    for index in range(20):
        tau = rng.randint(-40, 40) * 16 + rng.randint(1, 15)
        chi = abs(tau) + 2 + rng.randint(0, 9)
        if (chi + tau) % 2:
            chi += 1
        flags = StructureFlags().cite(spin=YES, rule="declared", citation="adversarial")
        bad = Evaluation(InvariantRecord(chi, tau, 0), flags)
        with mock.patch.dict(registry.PRIMITIVES, {f"Bad{index}": bad}):
            with pytest.raises(InconsistentFlags, match=f"^Bad{index}: .*Rohlin"):
                registry.instantiate(f"Bad{index}")
        rejected += 1
    assert rejected == 20
