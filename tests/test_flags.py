"""StructureFlags.cite against the dataclasses.replace construction it replaced."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourcalc.flags import (
    NO,
    UNKNOWN,
    YES,
    GroupLabel,
    Parity,
    Provenance,
    StructureFlags,
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
