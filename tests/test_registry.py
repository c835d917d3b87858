"""The primitive table: built-in blocks, declarations and their checks.

A test declares a block as a scoped patch of the table, which the
autouse fixture in ``conftest.py`` makes sure is undone."""

import re
from unittest import mock

import pytest

from fourcalc import registry
from fourcalc.cli import main
from fourcalc.config import WALL_N0
from fourcalc.errors import InconsistentFlags, InvalidExpr
from fourcalc.evaluate import eval_invariants, evaluate, infer_flags
from fourcalc.expr import Primitive, connected_sum_of
from fourcalc.flags import NO, YES, GroupLabel, Parity, StructureFlags, W2Type
from fourcalc.invariants import InvariantRecord
from fourcalc.registry import PRIMITIVES, Evaluation, instantiate
from fourcalc.rewrite import normalize
from fourcalc.surgery import universal_cover

K3, S2XS2 = Primitive("K3"), Primitive("S2xS2")


def _rejected(name, record, flags):
    """The message with which ``instantiate`` rejects the fixed entry ``name``."""
    with mock.patch.dict(PRIMITIVES, {name: Evaluation(record, flags)}):
        with pytest.raises(InconsistentFlags) as err:
            instantiate(name)
    return str(err.value)


def test_every_fixed_entry_is_accepted():
    fixed = [name for name, entry in PRIMITIVES.items() if isinstance(entry, Evaluation)]
    assert len(fixed) == 7
    for name in fixed:
        assert instantiate(name) is PRIMITIVES[name]


def _read(read, name, params):
    try:
        return read(name, params)
    except (InvalidExpr, InconsistentFlags) as exc:
        return type(exc), str(exc)


def test_declared_record_is_the_instantiated_record():
    # BK states its record apart; the other entries are read through
    # instantiate.  Bad parameters and impossible records fail alike.
    assert isinstance(PRIMITIVES["BK"], registry.Family)
    for name, params in (
        ("BK", (10, 20, 1)), ("BK", (1, 1, 0)), ("BK", (1, 100, 0)), ("BK", (1, 2)),
        ("BK", (1, 2, "j")), ("BK", (0, 1, 0)), ("BK", (1, 1, -1)), ("BK", (True, 1, 0)),
        ("CP2", ()), ("CP2", (1,)), ("Sd", (3,)), ("Sd", (0,)), ("E", (4,)), ("NoSuch", ()),
    ):
        expected = _read(lambda *key: instantiate(*key).record, name, params)
        assert _read(registry.declared_record, name, params) == expected
    assert _read(registry.declared_record, "BK", (1, 100, 0)) == (
        InconsistentFlags, "BK(1,100,0): b2 < |tau|"
    )


def test_standard_generators():
    assert eval_invariants(Primitive("CP2")) == InvariantRecord(3, 1, 0)
    assert eval_invariants(Primitive("CP2b")) == InvariantRecord(3, -1, 0)
    assert eval_invariants(Primitive("S2xS2")) == InvariantRecord(4, 0, 0)
    assert eval_invariants(Primitive("K3")) == InvariantRecord(24, -16, 0)
    assert eval_invariants(Primitive("S1xS3")) == InvariantRecord(0, 0, 1)


def test_elliptic_family():
    rec = eval_invariants(Primitive("E", (2,)))
    assert (rec.chi, rec.tau) == (24, -16)
    for n in range(1, 8):
        rec = eval_invariants(Primitive("E", (n,)))
        assert (rec.chi, rec.tau, rec.c1sq) == (12 * n, -8 * n, 0)
        flags = infer_flags(Primitive("E", (n,)))
        assert flags.spin is (YES if n % 2 == 0 else NO)


def test_homology_sphere():
    info = evaluate(Primitive("Sd", (2,)))
    assert (info.record.chi, info.record.tau) == (2, 0)
    assert info.record.b2 == 0
    assert info.flags.pi1 == GroupLabel.cyclic(2)
    assert evaluate(Primitive("Sd", (1,))).flags.pi1.is_trivial


def test_hypersurface_442():
    rec = eval_invariants(Primitive("X442"))
    assert (rec.c1sq, rec.c2, rec.b2plus) == (16, 104, 19)
    flags = infer_flags(Primitive("X442"))
    assert flags.spin is YES and flags.w2type is W2Type.II


def test_gompf_sum_values():
    rec = eval_invariants(Primitive("Xk", (1,)))
    assert (rec.chi, rec.tau) == (100, -64)
    rec = eval_invariants(Primitive("Xk", (2,)))
    assert (rec.c2, rec.tau, rec.b2plus) == (152, -96, 27)


def test_log_elliptic_block():
    ev = evaluate(Primitive("Y", (3,)))
    assert (ev.record.chi, ev.record.tau) == (24, -16)
    assert (ev.record.b2plus, ev.record.b2minus) == (3, 19)
    assert ev.flags.spin is YES
    assert ev.flags.sw_mod2_nontrivial is YES
    assert any("basic class" in label for label in ev.labels)


def test_group_block_checks_chern_number():
    ev = evaluate(Primitive("XG", (24, -16, "G")))
    assert ev.record.c1sq == 0
    assert str(ev.flags.pi1) == "G"
    with pytest.raises(InconsistentFlags):
        evaluate(Primitive("XG", (24, -15, "G")))


def test_surface_product():
    ev = evaluate(Primitive("FgProd", (2, 2)))
    assert (ev.record.chi, ev.record.tau, ev.record.b1) == (4, 0, 8)
    assert ev.flags.spin is YES


def test_geography_block_record():
    ev = evaluate(Primitive("BK", (5, 2, 0)))
    assert ev.record.chi_h == 5 and ev.record.c1sq == 2
    assert ev.flags.acd is YES and ev.flags.sw_nontrivial is YES


def test_register_round_trip():
    rec = InvariantRecord(10, 2, 0)
    flags = StructureFlags(pi1=GroupLabel.trivial()).cite(
        spin=NO, rule="declared", citation="test block"
    )
    info = Evaluation(rec, flags)
    with mock.patch.dict(PRIMITIVES, {"TestBlock": info}):
        assert instantiate("TestBlock") is info
        with pytest.raises(InvalidExpr, match="TestBlock takes no parameters"):
            instantiate("TestBlock", (1,))
    with pytest.raises(InvalidExpr, match="unknown primitive 'TestBlock'"):
        instantiate("TestBlock")


def test_register_then_eval_round_trip():
    # Through the table and the evaluator: the record comes back unchanged.
    name = "RoundTripBlock"
    rec = InvariantRecord(14, -2, 0)
    flags = StructureFlags(pi1=GroupLabel.trivial()).cite(
        spin=NO, rule="declared", citation="test block"
    )
    with mock.patch.dict(PRIMITIVES, {name: Evaluation(rec, flags)}):
        assert eval_invariants(Primitive(name)) == rec


def test_register_rohlin_violation_rejected():
    bad = StructureFlags().cite(spin=YES, rule="declared", citation="bogus")
    # Rohlin's theorem holds whatever b1 is.
    for record in (InvariantRecord(46, -30, 0), InvariantRecord(46, -30, 1)):
        assert _rejected("Bad", record, bad) == (
            "Bad: declared spin with tau=-30 not divisible by 16 (Rohlin)"
        )


def test_unrealizable_records_rejected():
    # chi + tau odd makes b2+ and b2- half-integral.
    message = _rejected("Odd", InvariantRecord(213, -106, 0), StructureFlags())
    assert message == "Odd: chi + tau must be even"
    # b2 < |tau| makes b2+ or b2- negative.
    with pytest.raises(InconsistentFlags, match="b2 < \\|tau\\|"):
        instantiate("BK", (1, 100, 0))


def test_instantiation_names_a_block_only_to_reject_it(monkeypatch):
    built = []

    class CountingPrimitive(Primitive):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(registry, "Primitive", CountingPrimitive)
    for name, params in (("E", (3,)), ("XG", (24, -16, "G", 2)), ("BK", (10, 20, 1)), ("Y", (2,))):
        instantiate(name, params)
    assert built == []
    with pytest.raises(InconsistentFlags) as err:
        instantiate("BK", (1, 100, 0))
    assert str(err.value) == "BK(1,100,0): b2 < |tau|"
    assert built == [("BK", (1, 100, 0))]


def test_register_w2type_spin_coherence():
    bad = StructureFlags(w2type=W2Type.II).cite(
        spin=NO, rule="declared", citation="bogus"
    )
    assert _rejected("Bad2", InvariantRecord(4, 0, 0), bad) == "Bad2: w2-type II means spin"
    ok = StructureFlags().cite(spin=YES, rule="declared", citation="fine")
    # The evaluator fills in what declared spin entails.
    block = Evaluation(InvariantRecord(4, 0, 0), ok)
    with mock.patch.dict(PRIMITIVES, {"SpinCoherentBlock": block}):
        assert instantiate("SpinCoherentBlock") is block
        flags = infer_flags(Primitive("SpinCoherentBlock"))
    assert flags.parity is Parity.EVEN and flags.w2type is W2Type.II
    assert [(p.field, p.rule) for p in flags.provenance][-2:] == [
        ("parity", "spin-entails"),
        ("w2type", "spin-entails"),
    ]


def test_unknown_primitive_and_bad_params():
    with pytest.raises(InvalidExpr):
        instantiate("NoSuch")
    with pytest.raises(InvalidExpr):
        instantiate("E", (0,))
    with pytest.raises(InvalidExpr, match="^K3 takes no parameters$"):
        instantiate("K3", (1,))


# The three cases declare different blocks under one name: the table
# fixture clears the evaluations of a patched block with its patch.
@pytest.mark.parametrize("record, facts, rule, stock", [
    (InvariantRecord(104, -64, 0), {}, "wall-stabilize", WALL_N0),
    (InvariantRecord(72, -48, 0), {"fibers": registry.Fibers(0, 0, 0)}, "elliptic-decompose", 1),
    (InvariantRecord(24, -16, 0), {"fibers": registry.Fibers(1, 0, 5)}, "log-elliptic-decompose", 1),
], ids=["no-fibers", "no-multiple-fiber", "multiple-fiber"])
def test_a_new_spin_block_is_one_table_entry(record, facts, rule, stock):
    # Blocks like X442, E(6) and Y(2): the spin rows read the declared
    # split and fibers, not the name.
    name = "NewSpinBlock"
    k3s = -record.tau // 16
    quadrics = (record.chi - 22 * k3s - 2) // 2
    flags = StructureFlags().cite(
        pi1=GroupLabel.trivial(), spin=YES, rule="declared", citation="test block"
    )
    block = Evaluation(record, flags, spin_split=(k3s, quadrics), **facts)
    with mock.patch.dict(PRIMITIVES, {name: block}):
        result = normalize(connected_sum_of((Primitive(name), 1), (S2XS2, stock)))
    assert result.canonical and result.mode == "spin"
    assert result.expr == connected_sum_of((K3, k3s), (S2XS2, quadrics + stock))
    assert [step.rule for step in result.trace] == [rule]


def test_a_new_homology_sphere_is_one_table_entry():
    # A Z/3 sphere whose declared cover is non-spin: universal_cover reads
    # the summands it adds, and d from its pi1.
    flags = StructureFlags().cite(pi1=GroupLabel.cyclic(3), rule="declared", citation="test sphere")
    sphere = Evaluation(
        InvariantRecord(2, 0, 0), flags, cover_adds=((Primitive("CP2"), 2), (Primitive("CP2b"), 2))
    )
    with mock.patch.dict(PRIMITIVES, {"NewSphere": sphere}):
        cover = universal_cover(connected_sum_of((Primitive("NewSphere"), 1), (K3, 1)))
    assert cover == connected_sum_of((K3, 3), (Primitive("CP2"), 2), (Primitive("CP2b"), 2))


def test_a_spin_split_must_match_the_record(capsys):
    # k K3 # q S2xS2 has chi 22k + 2q + 2 and tau -16k.
    for name, params in [*(("E", (n,)) for n in range(2, 21, 2)), ("X442", ()),
                         *(("Y", (j,)) for j in range(1, 6))]:
        info = instantiate(name, params)
        assert info.spin_split is not None and registry._rejection(info) is None
    # A K3-like block that declares the split of K3 # S2xS2.
    flags = StructureFlags().cite(
        pi1=GroupLabel.trivial(), spin=YES, rule="declared", citation="test block"
    )
    bad = Evaluation(InvariantRecord(24, -16, 0), flags, spin_split=(1, 1))
    message = "BadSplit: spin split (1, 1) needs (chi, tau) = (26, -16)"
    # Declared as a fixed entry or as a family, it is checked at every
    # instantiation, so the parser refuses it before rewrite sees it.
    for entry in (bad, lambda params: bad):
        with mock.patch.dict(PRIMITIVES, {"BadSplit": entry}):
            with pytest.raises(InconsistentFlags, match=re.escape(message)):
                instantiate("BadSplit")
            code = main(["normalize", "BadSplit # S2xS2"])
        assert (code, capsys.readouterr()) == (
            2, ("", f"error: {message} (line 1, column 1)\n")
        )
