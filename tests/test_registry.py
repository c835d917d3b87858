"""Primitive registry: built-in blocks, registration and validation."""

import pytest

from fourcalc.errors import DuplicateName, InconsistentFlags, InvalidExpr
from fourcalc.evaluate import eval_invariants, evaluate, infer_flags
from fourcalc.expr import Primitive
from fourcalc.flags import NO, YES, GroupLabel, Parity, StructureFlags, W2Type
from fourcalc.invariants import InvariantRecord
from fourcalc.registry import REGISTRY, Registry


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
    reg = Registry()
    rec = InvariantRecord(10, 2, 0)
    flags = StructureFlags(pi1=GroupLabel.trivial()).cite(
        spin=NO, rule="declared", citation="test block"
    )
    reg.register_primitive("TestBlock", rec, flags)
    assert reg.instantiate("TestBlock").record == rec


def test_register_then_eval_round_trip():
    # Through the shared registry and the evaluator: the record comes
    # back unchanged (module-scoped unique name keeps reruns happy).
    name = "RoundTripBlock"
    rec = InvariantRecord(14, -2, 0)
    if name not in REGISTRY:
        REGISTRY.register_primitive(
            name,
            rec,
            StructureFlags(pi1=GroupLabel.trivial()).cite(
                spin=NO, rule="declared", citation="test block"
            ),
        )
    assert eval_invariants(Primitive(name)) == rec


def test_register_duplicate_rejected():
    reg = Registry()
    rec = InvariantRecord(4, 0, 0)
    reg.register_primitive("Dup", rec, StructureFlags())
    with pytest.raises(DuplicateName):
        reg.register_primitive("Dup", rec, StructureFlags())
    with pytest.raises(DuplicateName):
        reg.register_primitive("K3", rec, StructureFlags())


def test_register_rohlin_violation_rejected():
    reg = Registry()
    bad = StructureFlags().cite(spin=YES, rule="declared", citation="bogus")
    # Rohlin's theorem holds whatever b1 is.
    for record in (InvariantRecord(46, -30, 0), InvariantRecord(46, -30, 1)):
        with pytest.raises(InconsistentFlags, match="Rohlin"):
            reg.register_primitive("Bad", record, bad)


def test_unrealizable_records_rejected():
    # chi + tau odd makes b2+ and b2- half-integral.
    with pytest.raises(InconsistentFlags, match="chi \\+ tau must be even"):
        Registry().register_primitive("Odd", InvariantRecord(213, -106, 0), StructureFlags())
    # b2 < |tau| makes b2+ or b2- negative.
    with pytest.raises(InconsistentFlags, match="b2 < \\|tau\\|"):
        REGISTRY.instantiate("BK", (1, 100, 0))


def test_instantiation_names_a_block_only_to_reject_it(monkeypatch):
    import fourcalc.registry as registry

    built = []

    class CountingPrimitive(Primitive):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(registry, "Primitive", CountingPrimitive)
    for name, params in (("E", (3,)), ("XG", (24, -16, "G", 2)), ("BK", (10, 20, 1)), ("Y", (2,))):
        REGISTRY.instantiate(name, params)
    assert built == []
    with pytest.raises(InconsistentFlags) as err:
        REGISTRY.instantiate("BK", (1, 100, 0))
    assert str(err.value) == "BK(1,100,0): b2 < |tau|"
    assert built == [("BK", (1, 100, 0))]


def test_register_w2type_spin_coherence():
    reg = Registry()
    bad = StructureFlags(w2type=W2Type.II).cite(
        spin=NO, rule="declared", citation="bogus"
    )
    with pytest.raises(InconsistentFlags):
        reg.register_primitive("Bad2", InvariantRecord(4, 0, 0), bad)
    ok = StructureFlags().cite(spin=YES, rule="declared", citation="fine")
    reg.register_primitive("Fine", InvariantRecord(4, 0, 0), ok)
    # The evaluator fills in what declared spin entails.
    if "SpinCoherentBlock" not in REGISTRY:
        REGISTRY.register_primitive("SpinCoherentBlock", InvariantRecord(4, 0, 0), ok)
    flags = infer_flags(Primitive("SpinCoherentBlock"))
    assert flags.parity is Parity.EVEN and flags.w2type is W2Type.II
    assert [(p.field, p.rule) for p in flags.provenance][-2:] == [
        ("parity", "spin-entails"),
        ("w2type", "spin-entails"),
    ]


def test_unknown_primitive_and_bad_params():
    with pytest.raises(InvalidExpr):
        REGISTRY.instantiate("NoSuch")
    with pytest.raises(InvalidExpr):
        REGISTRY.instantiate("E", (0,))
    with pytest.raises(InvalidExpr):
        REGISTRY.instantiate("K3", (1,))
