"""Obstruction engine: Hitchin-Thorpe, curvature and Bauer-Furuta
obstructions, the SW flags they read, homeomorphism keys, certificates."""

import dataclasses
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fourcalc import obstruction, registry
from fourcalc.certificates import verify_certificate
from fourcalc.errors import NoSplit, UnknownFlag, UnsupportedGroup
from fourcalc.evaluate import evaluate
from fourcalc.expr import (
    BicyclicCover,
    CyclicCover,
    DivisorClass,
    FiberSum,
    LogTransform,
    Primitive,
    Quotient,
    connected_sum_of,
    sum_parts,
)
from fourcalc.flags import NO, UNKNOWN, YES, GroupLabel, Parity, StructureFlags, W2Type
from fourcalc.invariants import InvariantRecord
from fourcalc.obstruction import (
    CITE_HOMOTOPY,
    Splitting,
    decompose_for_obstruction,
    hitchin_thorpe,
    homeo_equal,
    homeo_key,
    lebrun_einstein,
    spin_einstein,
)
from fourcalc.registry import Evaluation

CP2 = Primitive("CP2")
CP2B = Primitive("CP2b")
S1XS3 = Primitive("S1xS3")
K3 = Primitive("K3")
OCTIC = CyclicCover("CP2", 2, DivisorClass("CP2", (8,)))
SPHERE2 = Primitive("Sd", (2,))


def certify(cert):
    assert verify_certificate(cert) == []
    return cert


class TestHitchinThorpe:
    def test_k3_boundary(self):
        cert = certify(hitchin_thorpe(evaluate(K3).record))
        assert cert.verdict == "hitchin_thorpe_ok"
        assert any("2*24 + 3*(-16) == 0" in (s.arithmetic or "") for s in cert.steps)

    def test_obstruction_sum(self):
        rec = evaluate(
            connected_sum_of((OCTIC, 1), (CP2B, 1), (SPHERE2, 1))
        ).record
        assert (2 * rec.chi + 3 * rec.tau, 2 * rec.chi - 3 * rec.tau) == (1, 187)
        cert = certify(hitchin_thorpe(rec))
        assert cert.verdict == "hitchin_thorpe_ok"

    def test_negative_euler_violated(self):
        rec = evaluate(connected_sum_of((Primitive("S1xS3"), 2))).record
        assert rec.chi == -2
        cert = certify(hitchin_thorpe(rec))
        assert cert.verdict == "hitchin_thorpe_violated"


def reference_sw_status(expr):
    """(status, rule, citation) of the SW invariant: the rules as the
    obstruction engine applied them before the evaluator did, kept as the
    oracle for the evaluator's SW flag."""
    ev = evaluate(expr)
    parts = sum_parts(expr)
    if len(parts) > 1 or parts[0][1] > 1:
        positive = 0
        all_known = True
        for part, mult in parts:
            b2p = evaluate(part).record.b2plus
            if b2p is None:
                all_known = False
            elif b2p > 0:
                positive += mult
        if all_known and positive >= 2:
            return NO, "sum-vanishing", "SW vanishes on sums of two pieces with positive b2+"
        if all_known:
            yes_parts = []
            others_zero = True
            for part, mult in parts:
                sub = reference_sw_status(part)
                b2p = evaluate(part).record.b2plus
                if sub[0] is YES:
                    yes_parts.extend([part] * mult)
                elif b2p > 0:
                    others_zero = False
            if len(yes_parts) == 1 and others_zero:
                return (
                    YES,
                    "sum-with-null-pieces",
                    "sums with b2+ = 0 pieces keep a nontrivial SW-type invariant",
                )
        return UNKNOWN, "no-rule", ""

    flags = ev.flags
    witten = "Kaehler surfaces of general type have nontrivial SW"
    if flags.sw_nontrivial is not UNKNOWN:
        rule, citation = "declared", "registry block"
        for prov in flags.provenance:
            if prov.field == "sw_nontrivial":
                rule, citation = prov.rule, prov.citation
        if rule == "taubes-symplectic" and flags.minimal_general_type is YES:
            rule, citation = "general-type", witten
        return flags.sw_nontrivial, rule, citation
    b2p = ev.record.b2plus
    if b2p is not None and b2p > 1:
        if flags.minimal_general_type is YES:
            return YES, "general-type", witten
        if flags.symplectic is YES:
            return YES, "symplectic", "Taubes: symplectic manifolds with b2+ > 1 have SW = 1"
    return UNKNOWN, "no-rule", ""


def sw_flag(expr):
    """The SW flag of an expression with the rule and citation that set it last."""
    flags = evaluate(expr).flags
    why = [(p.rule, p.citation) for p in flags.provenance if p.field == "sw_nontrivial"]
    return (flags.sw_nontrivial, *why[-1]) if why else (flags.sw_nontrivial, None, None)


class TestSwStatus:
    def test_kaehler_cover_yes(self):
        assert sw_flag(OCTIC)[:2] == (YES, "general-type")

    def test_sum_of_positive_pieces_vanishes(self):
        assert sw_flag(connected_sum_of((CP2, 2)))[:2] == (NO, "sum-vanishing")

    def test_sum_with_null_pieces_keeps_invariant(self):
        expr = connected_sum_of((OCTIC, 1), (SPHERE2, 1), (CP2B, 3))
        assert sw_flag(expr)[:2] == (YES, "sum-with-null-pieces")

    def test_rules_never_conflict(self):
        # On any sum from this pool, the vanishing rule and the
        # null-pieces rule never both apply.
        pool = [CP2, CP2B, K3, OCTIC, SPHERE2, Primitive("E", (2,))]
        for size in (2, 3):
            for combo in itertools.combinations_with_replacement(pool, size):
                expr = connected_sum_of(*[(p, 1) for p in combo])
                positives = sum(
                    1 for p in combo if evaluate(p).record.b2plus > 0
                )
                status, rule, _ = sw_flag(expr)
                if status is NO:
                    assert positives >= 2
                if rule == "sum-with-null-pieces":
                    assert positives <= 1

    def test_unknown_without_rule(self):
        assert sw_flag(Primitive("S4"))[:2] == (NO, "declared")
        assert sw_flag(connected_sum_of((SPHERE2, 1), (Primitive("Sd", (3,)), 1)))[0] is UNKNOWN

    def test_sum_needs_every_b1(self):
        # A fiber sum no pi1 rule resolves has unknown b1: no sum rule applies.
        torus_product = Primitive("FgProd", (1, 1))
        unresolved = FiberSum(torus_product, torus_product, 1)
        assert evaluate(unresolved).record.b1 is None
        assert sw_flag(connected_sum_of((K3, 2), (unresolved, 1)))[0] is UNKNOWN


GROUP_BLOCK = Primitive("XG", (24, -16, "G"))
# Every built-in primitive, one or more members of each family.
PRIMITIVES = [
    CP2, CP2B, Primitive("S2xS2"), K3, S1XS3, Primitive("S4"), Primitive("X442"),
    Primitive("E", (1,)), Primitive("E", (2,)), Primitive("E", (3,)), Primitive("E", (4,)),
    Primitive("Sd", (1,)), SPHERE2, Primitive("Sd", (3,)), Primitive("Xk", (1,)),
    GROUP_BLOCK, Primitive("XG", (48, -32, "H", 2)), Primitive("Y", (2,)),
    Primitive("FgProd", (0, 0)), Primitive("FgProd", (1, 2)), Primitive("BK", (3, 5, 0)),
]
SW_POOL = PRIMITIVES + [
    OCTIC,
    Quotient(BicyclicCover(3, 2, 3, 3, 3, 3), 3, "standard"),
    LogTransform(Primitive("E", (2,)), 2),
    LogTransform(Primitive("E", (3,)), 3),
    FiberSum(GROUP_BLOCK, Primitive("E", (4,)), 1),
    FiberSum(Primitive("FgProd", (1, 1)), Primitive("FgProd", (1, 1)), 1),
    # No rule resolves pi1, b1 or SW of the fiber sum under the transform.
    LogTransform(FiberSum(Primitive("FgProd", (1, 1)), Primitive("E", (2,)), 1), 3),
]
NULL_PIECES = [CP2B, S1XS3, Primitive("S4"), SPHERE2, Primitive("Sd", (3,))]
PIECES = st.tuples(st.sampled_from(SW_POOL), st.integers(1, 3))
SUMS = st.one_of(
    st.lists(PIECES, min_size=1, max_size=4),
    # One piece beside b2+ = 0 pieces, where the null-pieces rule can fire.
    st.tuples(
        st.sampled_from(SW_POOL),
        st.lists(st.tuples(st.sampled_from(NULL_PIECES), st.integers(1, 3)), max_size=3),
    ).map(lambda drawn: [(drawn[0], 1), *drawn[1]]),
).map(lambda pieces: connected_sum_of(*pieces))


@settings(max_examples=200, deadline=None)
@given(SUMS)
def test_evaluator_sw_matches_reference(expr):
    want, got = reference_sw_status(expr), sw_flag(expr)
    assert got[0] is want[0]
    if want[0] is not UNKNOWN:
        assert got == want


def _is_unknown(value):
    return value in (UNKNOWN, Parity.UNKNOWN, W2Type.UNKNOWN, GroupLabel.unknown())


def assert_cited_iff_known(expr):
    """Every known flag has a provenance record, and every record names a
    flag that is known."""
    flags = evaluate(expr).flags
    cited = {p.field for p in flags.provenance}
    for f in dataclasses.fields(StructureFlags):
        if f.name != "provenance" and not _is_unknown(getattr(flags, f.name)):
            assert f.name in cited, f"{expr}: {f.name} has no provenance"
    for name in cited:
        assert not _is_unknown(getattr(flags, name)), f"{expr}: a record names unknown {name}"


def test_primitive_flags_have_provenance():
    assert {p.name for p in PRIMITIVES} == set(registry.PRIMITIVES)
    for primitive in PRIMITIVES:
        assert_cited_iff_known(primitive)


def test_pool_flags_have_provenance():
    # Among them logt(E(2),2), which decides spin anew and forgets acd.
    for expr in SW_POOL:
        assert_cited_iff_known(expr)


@settings(max_examples=200, deadline=None)
@given(SUMS)
def test_sum_flags_have_provenance(expr):
    # lebrun_einstein names the rule of the last sw_nontrivial record.
    assert_cited_iff_known(expr)


class TestLebrun:
    def test_involution_example(self):
        x_part = connected_sum_of((OCTIC, 1), (SPHERE2, 1))
        cert = certify(lebrun_einstein(x_part, 1, 0))
        assert cert.verdict == "einstein_obstructed"
        assert any("1 + 4*0 >=" in (s.arithmetic or "") for s in cert.steps)

    def test_uncited_declared_sw(self):
        # The primitive table takes flags without provenance records.
        block = Evaluation(InvariantRecord(10, 2, 0), StructureFlags(sw_nontrivial=YES))
        with mock.patch.dict(registry.PRIMITIVES, {"UncitedSwBlock": block}):
            cert = certify(lebrun_einstein(Primitive("UncitedSwBlock"), 20, 0))
        assert cert.verdict == "einstein_obstructed"
        assert cert.steps[0].rule == "sw-nontrivial:declared"
        assert cert.steps[0].citation == "registry block"

    def test_zero_excess_no_verdict(self):
        cert = certify(lebrun_einstein(OCTIC, 0, 0))
        assert cert.verdict == "no_verdict"

    def test_hypothesis_failures_named(self):
        cert = certify(lebrun_einstein(K3, 5, 0))  # 2chi+3tau = 0
        assert cert.verdict == "no_verdict"
        assert any(s.rule == "hypothesis-failed:positivity" for s in cert.steps)
        cert = certify(lebrun_einstein(CP2, 5, 0))  # SW vanishes
        assert any(s.rule == "hypothesis-failed:sw-nontrivial" for s in cert.steps)

    def test_monotone_in_k_and_l(self):
        x_part = connected_sum_of((OCTIC, 1), (SPHERE2, 1))
        for k in range(4):
            for l in range(3):
                if lebrun_einstein(x_part, k, l).verdict == "einstein_obstructed":
                    assert lebrun_einstein(x_part, k + 1, l).verdict == "einstein_obstructed"
                    assert lebrun_einstein(x_part, k, l + 1).verdict == "einstein_obstructed"


def reference_decompose(expr):
    """The enumeration decompose_for_obstruction replaced: every one of
    the (bars+1)(tubes+1) splittings evaluated, the firing ones sorted
    best (max k + 4l) first."""
    parts = sum_parts(expr)
    bars = sum(m for p, m in parts if p == CP2B)
    tubes = sum(m for p, m in parts if p == S1XS3)
    core = [(p, m) for p, m in parts if p not in (CP2B, S1XS3)]
    if not core:
        raise NoSplit("no summand can carry a Seiberg-Witten invariant")
    candidates = []
    for k in range(bars, -1, -1):
        for l in range(tubes, -1, -1):
            pieces = list(core)
            if bars - k:
                pieces.append((CP2B, bars - k))
            if tubes - l:
                pieces.append((S1XS3, tubes - l))
            x_expr = connected_sum_of(*pieces)
            cert = lebrun_einstein(x_expr, k, l)
            if cert.verdict == "einstein_obstructed":
                candidates.append(Splitting(x_expr, k, l, cert))
    if not candidates:
        raise NoSplit("no splitting satisfies the obstruction hypotheses")
    candidates.sort(key=lambda s: s.k + 4 * s.l, reverse=True)
    return candidates


def _reference_best(expr):
    return reference_decompose(expr)[0]


def _outcome(fn, expr):
    try:
        split = fn(expr)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return split.x_expr, split.k, split.l, split.certificate.as_dict()


# Core pieces: with a nontrivial SW invariant and small positive
# 2 chi + 3 tau (so that a few blow-ups already fire), with 2 chi + 3 tau = 0, with
# b2+ > 0 and no SW invariant, with b2+ = 0, and one whose evaluation
# raises.
SW_PIECES = [
    OCTIC,
    CyclicCover("CP2", 3, DivisorClass("CP2", (6,))),
    CyclicCover("CP2", 2, DivisorClass("CP2", (10,))),
    CyclicCover("CP1xCP1", 2, DivisorClass("CP1xCP1", (6, 6))),
    Primitive("X442"),
    Primitive("BK", (33, 87, 7)),
]
FLAT_PIECES = [K3, Primitive("E", (2,)), Primitive("E", (4,)), Primitive("Y", (1,))]
PLAIN_PIECES = [CP2, Primitive("S2xS2")]
NULL_PIECES = [SPHERE2, Primitive("Sd", (3,)), Primitive("S4")]
CORE_POOL = SW_PIECES + FLAT_PIECES + PLAIN_PIECES + [Quotient(K3, 5)]


@st.composite
def blown_up_sums(draw):
    core = []
    if draw(st.integers(0, 9)):
        main = draw(st.sampled_from(SW_PIECES * 2 + CORE_POOL))
        core.append((main, draw(st.sampled_from([1, 1, 1, 2]))))
        extras = st.sampled_from(NULL_PIECES * 3 + CORE_POOL)
        core += [(p, 1) for p in draw(st.lists(extras, max_size=2))]
    bars = draw(st.integers(0, 8))
    tubes = draw(st.integers(0, 4))
    pieces = [(p, m) for p, m in core + [(CP2B, bars), (S1XS3, tubes)] if m]
    pieces = draw(st.permutations(pieces)) or [(CP2B, 1)]
    return connected_sum_of(*pieces)


class TestDecompose:
    def test_involution_split(self):
        expr = connected_sum_of((OCTIC, 1), (SPHERE2, 1), (CP2B, 1))
        best = decompose_for_obstruction(expr)
        assert (best.k, best.l) == (1, 0)
        assert best.x_expr == connected_sum_of((OCTIC, 1), (SPHERE2, 1))

    def test_k3_alone_has_no_split(self):
        with pytest.raises(NoSplit):
            decompose_for_obstruction(K3)

    def test_thm_family_pattern(self):
        block = Primitive("BK", (41, 328, 1))
        expr = connected_sum_of((block, 1), (Primitive("Sd", (3,)), 1), (CP2B, 132))
        best = decompose_for_obstruction(expr)
        assert best.k == 132 and best.l == 0
        assert best.x_expr == connected_sum_of((block, 1), (Primitive("Sd", (3,)), 1))

    def test_exhaustive_oracle_small_sums(self):
        # Several splittings fire; the one split is the best of them.
        expr = connected_sum_of((OCTIC, 1), (SPHERE2, 1), (CP2B, 3), (S1XS3, 1))
        assert len(reference_decompose(expr)) > 1
        assert _outcome(decompose_for_obstruction, expr) == _outcome(_reference_best, expr)
        best = decompose_for_obstruction(expr)
        assert (best.k, best.l) == (3, 1)

    @settings(max_examples=200, deadline=None)
    @given(blown_up_sums())
    def test_one_split_matches_enumeration(self, expr):
        assert _outcome(decompose_for_obstruction, expr) == _outcome(_reference_best, expr)

    def test_one_split_each_outcome(self):
        # One sum for each outcome: a firing split, NoSplit for either
        # reason, and an error raised by evaluation.
        cases = {
            connected_sum_of((OCTIC, 1), (CP2B, 30), (S1XS3, 2)): Splitting,
            connected_sum_of((K3, 1), (CP2B, 4)): "no splitting satisfies",
            connected_sum_of((CP2B, 2), (S1XS3, 2)): "no summand can carry",
            connected_sum_of((Quotient(K3, 5), 1), (CP2B, 1)): "no free cyclic action",
        }
        for expr, want in cases.items():
            got = _outcome(decompose_for_obstruction, expr)
            assert got == _outcome(_reference_best, expr)
            if want is Splitting:
                assert got[3]["verdict"] == "einstein_obstructed"
            else:
                assert want in got[1]

    def test_calls_lebrun_once(self, monkeypatch):
        calls = []
        original = obstruction.lebrun_einstein

        def counted(x_expr, k, l):
            calls.append((x_expr, k, l))
            return original(x_expr, k, l)

        monkeypatch.setattr(obstruction, "lebrun_einstein", counted)
        expr = connected_sum_of((Primitive("BK", (33, 87, 7)), 1), (CP2B, 40), (S1XS3, 40))
        split = decompose_for_obstruction(expr)
        assert calls == [(Primitive("BK", (33, 87, 7)), 40, 40)]
        assert (split.k, split.l) == (40, 40)


class TestSpinEinstein:
    def test_reference_pieces(self):
        pieces = [Primitive("X442"), Primitive("Y", (1,)), Primitive("E", (2,)), K3]
        cert = certify(spin_einstein(pieces, 3, SPHERE2))
        assert cert.verdict == "einstein_obstructed"
        assert any("mod(19 + 3 + 3 + 3, 8) == 4" in (s.arithmetic or "") for s in cert.steps)

    def test_congruence_failure_is_named(self):
        block = Evaluation(
            InvariantRecord(4, 0, 0),
            StructureFlags().cite(
                sw_mod2_nontrivial=YES, rule="declared", citation="test fixture"
            ),
        )
        pieces = [Primitive("X442"), Primitive("Y", (1,)), Primitive("FlatPiece"), K3]
        with mock.patch.dict(registry.PRIMITIVES, {"FlatPiece": block}):
            cert = certify(spin_einstein(pieces, 3, SPHERE2))
        assert cert.verdict == "no_verdict"
        assert any("b2plus-congruence" in s.rule for s in cert.steps if "failed" in s.rule)

    def test_sum_congruence_failure(self):
        pieces = [Primitive("X442"), Primitive("Y", (1,)), Primitive("E", (4,)), K3]
        cert = certify(spin_einstein(pieces, 3, SPHERE2))
        assert cert.verdict == "no_verdict"
        assert any(s.rule == "hypothesis-failed:sum-congruence" for s in cert.steps)

    def test_n_with_positive_b2plus_rejected(self):
        pieces = [Primitive("X442"), Primitive("Y", (1,)), Primitive("E", (2,)), K3]
        cert = certify(spin_einstein(pieces, 3, CP2))
        assert cert.verdict == "no_verdict"

    @pytest.mark.parametrize(
        "first, n_expr, steps",
        [
            (None, SPHERE2, [("hypothesis-failed:shape", None)]),
            (CP2, SPHERE2, [("hypothesis-failed:mod2-sw(piece 1)", None)]),
            (Primitive("FgProd", (1, 1)), SPHERE2, [("hypothesis-failed:b1(piece 1)", None)]),
            (
                Primitive("E", (3,)),
                SPHERE2,
                [("hypothesis-failed:b2plus-congruence(piece 1)", "mod(5, 4) != 3")],
            ),
            (
                K3,
                CP2,
                [
                    *((f"b2plus-congruence(piece {j})", "mod(3, 4) == 3") for j in range(1, 5)),
                    ("sum-congruence", "mod(3 + 3 + 3 + 3, 8) == 4"),
                    ("hypothesis-failed:N-b2plus", None),
                ],
            ),
        ],
        ids=["shape", "mod2-sw", "b1", "b2plus-congruence", "N-b2plus"],
    )
    def test_each_failed_hypothesis_ends_the_certificate(self, first, n_expr, steps):
        # [K3]*3 has the wrong shape; otherwise ``first`` leads three K3s.
        pieces = [K3] * 3 if first is None else [first, K3, K3, K3]
        cert = certify(spin_einstein(pieces, 3, n_expr))
        assert cert.verdict == "no_verdict"
        assert [(s.rule, s.arithmetic) for s in cert.steps] == steps

    def test_bound_fires_at_equality(self):
        # Three X442 and K3: b2+ 19 + 19 + 19 + 3 = 60 = 4 mod 8.  With
        # N = 8 CP2b (2 chi + 3 tau = -4) and m = 3 the two sides meet:
        # 4*3 + 4 == (16 + 16 + 16)/3.
        x442 = Primitive("X442")
        cert = certify(spin_einstein([x442, x442, x442, K3], 3, connected_sum_of((CP2B, 8))))
        assert cert.verdict == "einstein_obstructed"
        assert cert.steps[-1].rule == "bauer-furuta-bound"
        assert cert.steps[-1].arithmetic == "4*3 - (2*10 + 3*(-8)) >= 1/3 * (16 + 16 + 16)"


class TestHomeo:
    def test_planes_differ(self):
        cert = certify(homeo_equal(CP2, CP2B))
        assert cert.verdict == "not_homeomorphic"

    def test_log_transforms_homeomorphic(self):
        cert = certify(homeo_equal(Primitive("Y", (1,)), Primitive("Y", (4,))))
        assert cert.verdict == "homeomorphic"
        # ... while the smooth-structure labels differ.
        assert evaluate(Primitive("Y", (1,))).labels != evaluate(Primitive("Y", (4,))).labels

    def test_key_requires_known_flags(self):
        with pytest.raises(UnsupportedGroup):
            homeo_key(Primitive("S1xS3"))
        with pytest.raises(UnknownFlag):
            homeo_key(SPHERE2)  # w2-type unknown for d >= 2

    def test_known_mismatch_decides_despite_unknown_w2(self):
        # The parities (odd vs even) and b2- (0 vs 1) already differ; only
        # the right side's w2-type is unknown.
        left = connected_sum_of((CP2, 1), (SPHERE2, 1))
        right = connected_sum_of((Primitive("S2xS2"), 1), (SPHERE2, 1))
        with pytest.raises(UnknownFlag, match="w2-type unknown"):
            homeo_key(right)
        for a, b in ((left, right), (right, left)):
            cert = certify(homeo_equal(a, b))
            assert cert.verdict == "not_homeomorphic"
            rules = [s.rule for s in cert.steps]
            assert "parity: odd vs even" in rules or "parity: even vs odd" in rules
            assert any(r.startswith("w2type:") and "unknown" in r for r in rules)

    def test_equal_known_fields_keep_unknown_flag(self):
        right = connected_sum_of((Primitive("S2xS2"), 1), (SPHERE2, 1))
        with pytest.raises(UnknownFlag, match="w2-type unknown"):
            homeo_equal(right, right)

    def test_known_group_mismatch_decides(self):
        # Both w2-types unknown; the fundamental groups differ.
        left = connected_sum_of((Primitive("S2xS2"), 1), (SPHERE2, 1))
        right = connected_sum_of((Primitive("S2xS2"), 1), (Primitive("Sd", (3,)), 1))
        cert = certify(homeo_equal(left, right))
        assert cert.verdict == "not_homeomorphic"
        assert "pi1: Z/2 vs Z/3" in [s.rule for s in cert.steps]

    def test_unknown_betti_numbers_shown_as_unknown(self):
        block = Evaluation(
            InvariantRecord(3, 1, None),
            StructureFlags().cite(
                parity=Parity.ODD,
                pi1=GroupLabel.trivial(),
                rule="declared",
                citation="test fixture",
            ),
        )
        piece = Primitive("HalfKnownPiece")
        with mock.patch.dict(registry.PRIMITIVES, {"HalfKnownPiece": block}):
            cert = certify(homeo_equal(piece, Primitive("S2xS2")))
            assert cert.verdict == "not_homeomorphic"
            assert [s.rule for s in cert.steps][:2] == [
                "b2plus: unknown vs 1", "b2minus: unknown vs 1"
            ]
            assert cert.inputs["left_key"]["b2plus"] is None
            # Against CP2 every known field agrees: the unknown ones block.
            with pytest.raises(UnknownFlag):
                homeo_equal(piece, CP2)

    def test_betti_mismatch_decides_whatever_the_group(self):
        # pi1 = Z is outside the classification, but b2+ and b2- are
        # homotopy invariants: 0/0 against 1/0 decides.
        for a, b in ((Primitive("S1xS3"), CP2), (CP2, Primitive("S1xS3"))):
            cert = homeo_equal(a, b)
            assert cert.verdict == "not_homeomorphic"
            assert {step.citation for step in cert.steps} == {CITE_HOMOTOPY}
            assert verify_certificate(cert) == []

    def test_unclassified_group_still_raises(self):
        # pi1 = Z is outside the classification, and b2+/b2- agree.
        with pytest.raises(UnsupportedGroup):
            homeo_equal(Primitive("S1xS3"), Primitive("S4"))
        with pytest.raises(UnsupportedGroup):
            homeo_equal(Primitive("S4"), Primitive("S1xS3"))

    def test_equivalence_relation(self):
        pool = [
            Primitive("Y", (1,)),
            Primitive("Y", (2,)),
            Primitive("E", (2,)),
            connected_sum_of((CP2, 3), (CP2B, 5)),
            connected_sum_of((CP2, 3), (CP2B, 5)),
            connected_sum_of((K3, 1), (Primitive("S2xS2"), 1)),
        ]
        for a in pool:
            assert homeo_equal(a, a).verdict == "homeomorphic"
        for a, b in itertools.combinations(pool, 2):
            ab = homeo_equal(a, b).verdict
            assert ab == homeo_equal(b, a).verdict
        for a, b, c in itertools.permutations(pool, 3):
            if (
                homeo_equal(a, b).verdict == "homeomorphic"
                and homeo_equal(b, c).verdict == "homeomorphic"
            ):
                assert homeo_equal(a, c).verdict == "homeomorphic"

    def test_certificates_tamper_detection(self):
        from fourcalc.certificates import Certificate, Step

        cert = homeo_equal(CP2, CP2B)
        tampered = Certificate(
            verdict=cert.verdict,
            steps=tuple(
                Step(s.rule, s.citation, "1 == 2" if s.arithmetic else None)
                for s in cert.steps
            ),
            inputs=cert.inputs,
        )
        assert verify_certificate(tampered) != []


# --- no homeomorphism across different fundamental groups --------------

HOMEO_BASES = [Primitive("E", (n,)) for n in (1, 2)] + [Primitive("Y", (j,)) for j in (1, 2, 3)]
GROUP_PIECES = [Primitive("Sd", (d,)) for d in (2, 3, 5)] + [
    Quotient(BicyclicCover(d, 2, d, d, d * i, d * i), d) for d in (3, 5) for i in (1, 3)
]
FIBERS = st.sampled_from([2, 3, 4, 5])


def tower(base, fibers):
    for m in fibers:
        base = LogTransform(base, m)
    return base


# The summand that carries pi1: a log-transform tower (Y(j) is already
# E(2) with one fiber of multiplicity 2j+1), Sd(d) or a free quotient.
CORES = st.one_of(
    st.builds(tower, st.sampled_from(HOMEO_BASES), st.lists(FIBERS, max_size=2)),
    st.sampled_from(GROUP_PIECES),
)
# Simply connected summands beside it.
SIMPLY_CONNECTED = st.one_of(
    st.sampled_from([CP2, CP2B, Primitive("S2xS2"), K3, *HOMEO_BASES]),
    st.builds(tower, st.sampled_from(HOMEO_BASES[:2]), st.lists(FIBERS, min_size=1, max_size=1)),
)
OTHER_SUMMANDS = st.lists(st.tuples(SIMPLY_CONNECTED, st.integers(1, 3)), max_size=2)


@st.composite
def twin_core(draw, core):
    """A tower's fibers in another order over another base; Sd(d) and
    quotients stay.  Y(j) is E(2) with one more fiber, so the records
    of the two sides can agree while their groups differ."""
    fibers = []
    while isinstance(core, LogTransform):
        fibers.append(core.multiplicity)
        core = core.inner
    if core not in HOMEO_BASES:
        return core
    return tower(draw(st.sampled_from(HOMEO_BASES)), draw(st.permutations(fibers)))


@st.composite
def homeo_pairs(draw):
    core, others = draw(CORES), draw(OTHER_SUMMANDS)
    left = connected_sum_of((core, 1), *others)
    if draw(st.booleans()):
        core = draw(twin_core(core))
        others = others if draw(st.booleans()) else draw(OTHER_SUMMANDS)
    else:
        core, others = draw(CORES), draw(OTHER_SUMMANDS)
    return left, connected_sum_of((core, 1), *others)


@settings(max_examples=300, deadline=None)
@given(homeo_pairs())
def test_no_homeomorphism_between_different_fundamental_groups(pair):
    left, right = pair
    groups = evaluate(left).flags.pi1, evaluate(right).flags.pi1
    try:
        cert = certify(homeo_equal(left, right))
    except (UnknownFlag, UnsupportedGroup):
        return
    assert cert.verdict in ("homeomorphic", "not_homeomorphic")
    if cert.verdict == "homeomorphic":
        assert groups[0] == groups[1]
