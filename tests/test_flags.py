"""StructureFlags.cite against the dataclasses.replace construction it
replaced, and the shared provenance records it takes."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourcalc import flags as flags_module
from fourcalc.flags import (
    NO,
    UNKNOWN,
    YES,
    GroupLabel,
    Parity,
    Provenance,
    StructureFlags,
    TriState,
    W2Type,
)


def reference_cite(flags, **updates):
    rule = updates.pop("rule", "declared")
    citation = updates.pop("citation", "")
    prov = list(flags.provenance)
    for fld in updates:
        prov.append(Provenance(fld, rule, citation))
    return dataclasses.replace(flags, provenance=tuple(prov), **updates)


TRI = st.sampled_from([YES, NO, UNKNOWN])
VALUES = {
    "spin": TRI,
    "parity": st.sampled_from(list(Parity)),
    "w2type": st.sampled_from(list(W2Type)),
    "pi1": st.sampled_from(
        [GroupLabel.trivial(), GroupLabel.cyclic(3), GroupLabel.presented("Z")]
    ),
    "sw_nontrivial": TRI,
    "sw_mod2_nontrivial": TRI,
    "symplectic": TRI,
    "minimal_general_type": TRI,
    "acd": TRI,
}


@st.composite
def update_batches(draw):
    """A sequence of cite() keyword sets, some without rule or citation."""
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        names = draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=4, unique=True))
        updates = {name: draw(VALUES[name]) for name in names}
        if draw(st.booleans()):
            updates["rule"] = draw(st.sampled_from(["declared", "sum-spin", "kaehler"]))
        if draw(st.booleans()):
            updates["citation"] = draw(st.sampled_from(["", "Rohlin", "Freedman"]))
        batches.append(updates)
    return batches


@given(update_batches())
def test_cite_matches_replace(batches):
    new = ref = StructureFlags(pi1=GroupLabel.trivial())
    for updates in batches:
        before, before_fields = new, dataclasses.astuple(new)
        new = new.cite(**dict(updates))
        ref = reference_cite(ref, **dict(updates))
        assert dataclasses.astuple(before) == before_fields  # original unchanged
        for fld in dataclasses.fields(StructureFlags):
            assert getattr(new, fld.name) == getattr(ref, fld.name), fld.name
        assert new.provenance == ref.provenance
        assert new == ref and hash(new) == hash(ref)
        assert type(new) is StructureFlags


def test_cite_unknown_field_raises_type_error():
    with pytest.raises(TypeError):
        StructureFlags().cite(bogus=YES, rule="declared", citation="")
    with pytest.raises(TypeError):
        StructureFlags().cite(provenance=())


def test_cite_result_is_frozen():
    flags = StructureFlags().cite(spin=YES, rule="declared", citation="")
    with pytest.raises(dataclasses.FrozenInstanceError):
        flags.spin = NO
    with pytest.raises(dataclasses.FrozenInstanceError):
        flags.extra = 1


def test_cite_shares_provenance_records():
    first = StructureFlags().cite(spin=YES, acd=NO, rule="declared", citation="Rohlin")
    second = StructureFlags(pi1=GroupLabel.trivial()).cite(
        acd=YES, spin=NO, rule="declared", citation="Rohlin"
    )
    by_field = {p.field: p for p in second.provenance}
    assert first.provenance[0] is by_field["spin"]
    assert first.provenance[1] is by_field["acd"]


def test_shared_records_equal_fresh_ones():
    flags = StructureFlags().cite(spin=YES, rule="sum-spin", citation="Freedman")
    flags = flags.cite(parity=Parity.EVEN, w2type=W2Type.II, rule="spin-entails")
    assert flags.provenance == (
        Provenance("spin", "sum-spin", "Freedman"),
        Provenance("parity", "spin-entails", ""),
        Provenance("w2type", "spin-entails", ""),
    )
    assert all(type(p) is Provenance for p in flags.provenance)
    assert flags.as_dict()["provenance"] == [
        {"field": "spin", "rule": "sum-spin", "citation": "Freedman"},
        {"field": "parity", "rule": "spin-entails", "citation": ""},
        {"field": "w2type", "rule": "spin-entails", "citation": ""},
    ]


def test_unknown_flag_raises_with_shared_records():
    flags = StructureFlags().cite(spin=YES, rule="declared", citation="Rohlin")
    with pytest.raises(TypeError):
        flags.cite(spin=NO, bogus=YES, rule="declared", citation="Rohlin")


def test_provenance_table_is_bounded():
    bound = flags_module._PROVENANCE_TABLE_SIZE
    flags = StructureFlags()
    for i in range(3 * bound):
        cited = flags.cite(acd=YES, rule="declared", citation=f"citation {i}")
        assert cited.provenance == (Provenance("acd", "declared", f"citation {i}"),)
    info = flags_module._provenance.cache_info()
    assert info.maxsize == bound and info.currsize <= bound


def test_tristate_hashes_by_identity_and_unpickles_to_its_member():
    # The members are singletons, so the hash of object, which runs in C,
    # serves; Enum.__hash__ hashed the name in Python.
    assert TriState.__hash__ is object.__hash__
    for member in TriState:
        assert pickle.loads(pickle.dumps(member)) is member
        assert {member: 1}[TriState(member.value)] == 1


def test_as_dict_names_every_field_once():
    flags = StructureFlags(pi1=GroupLabel.cyclic(3)).cite(spin=NO, parity=Parity.ODD)
    data = flags.as_dict()
    assert set(data) == {f.name for f in dataclasses.fields(StructureFlags)}
    assert (data["spin"], data["parity"], data["pi1"], data["acd"]) == ("no", "odd", "Z/3", "unknown")
