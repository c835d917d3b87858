"""Tri-state structure flags with provenance.

Flags record facts that are theorems imported from the literature
(spin-ness, parity of the intersection form, the w2-trichotomy of a
manifold and its universal cover, Seiberg-Witten nontriviality, ...).
The engine never invents a flag: every non-unknown entry carries a rule
name and a citation, and unresolved cases stay ``UNKNOWN``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Optional


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    # The members are singletons: hash them by identity, in C, rather than
    # through Enum.__hash__, which hashes the name in Python.
    __hash__ = object.__hash__

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("TriState is not a boolean; compare explicitly")


YES, NO, UNKNOWN = TriState.YES, TriState.NO, TriState.UNKNOWN


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    UNKNOWN = "unknown"


class W2Type(enum.Enum):
    """w2-trichotomy: I = universal cover non-spin, II = spin,
    III = universal cover spin but the manifold itself non-spin."""

    I = "I"
    II = "II"
    III = "III"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class GroupLabel:
    """Symbolic fundamental group: trivial, cyclic(d), presented(name) or unknown."""

    kind: str  # "trivial" | "cyclic" | "presented" | "unknown"
    d: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("trivial", "cyclic", "presented", "unknown"):
            raise ValueError(f"bad group kind {self.kind!r}")
        if self.kind == "cyclic":
            if self.d is None or self.d < 1:
                raise ValueError("cyclic group needs d >= 1")
            if self.d == 1:
                object.__setattr__(self, "kind", "trivial")
                object.__setattr__(self, "d", None)

    @staticmethod
    def trivial() -> "GroupLabel":
        return GroupLabel("trivial")

    @staticmethod
    def cyclic(d: int) -> "GroupLabel":
        return GroupLabel("cyclic", d=d)

    @staticmethod
    def presented(name: str) -> "GroupLabel":
        return GroupLabel("presented", name=name)

    @staticmethod
    def unknown() -> "GroupLabel":
        return GroupLabel("unknown")

    @property
    def is_trivial(self) -> bool:
        return self.kind == "trivial"

    @property
    def odd_order(self) -> Optional[bool]:
        """True/False when the order parity is known, None otherwise."""
        if self.kind == "trivial":
            return True
        if self.kind == "cyclic":
            return self.d % 2 == 1
        return None

    def __str__(self):
        if self.kind == "trivial":
            return "1"
        if self.kind == "cyclic":
            return f"Z/{self.d}"
        if self.kind == "presented":
            return self.name or "presented"
        return "unknown"


@dataclass(frozen=True)
class Provenance:
    """Why a flag entry is set: which field, by which rule, citing what."""

    field: str
    rule: str
    citation: str

    def as_dict(self) -> dict:
        return {"field": self.field, "rule": self.rule, "citation": self.citation}


# cite() takes its records from this bounded table: the (field, rule,
# citation) triples come from the citation literals in the source, so a
# few dozen distinct records serve every evaluation instead of a fresh
# one per flag set.  The records are immutable values, so sharing them
# changes no result.
_PROVENANCE_TABLE_SIZE = 1024
_provenance = lru_cache(maxsize=_PROVENANCE_TABLE_SIZE)(Provenance)


@dataclass(frozen=True)
class StructureFlags:
    """The structure flags of a manifold, each with the provenance that set it."""

    spin: TriState = UNKNOWN
    parity: Parity = Parity.UNKNOWN
    w2type: W2Type = W2Type.UNKNOWN
    pi1: GroupLabel = field(default_factory=GroupLabel.unknown)
    sw_nontrivial: TriState = UNKNOWN
    sw_mod2_nontrivial: TriState = UNKNOWN
    symplectic: TriState = UNKNOWN
    minimal_general_type: TriState = UNKNOWN
    acd: TriState = UNKNOWN
    provenance: tuple[Provenance, ...] = ()

    def cite(self, **updates) -> "StructureFlags":
        """Return a copy with fields updated, appending provenance.

        Non-provenance keyword arguments are flag values; pass
        ``rule=...`` and ``citation=...`` to record why.
        """
        rule = updates.pop("rule", "declared")
        citation = updates.pop("citation", "")
        state = self.__dict__.copy()
        provenance = self.provenance
        for name, value in updates.items():
            if name not in _FLAG_FIELDS:
                raise TypeError(f"cite() got an unexpected flag {name!r}")
            state[name] = value
            provenance += (_provenance(name, rule, citation),)
        state["provenance"] = provenance
        # The class is frozen: install the copied state in one step rather
        # than through __init__, one frozen setattr per field.
        flags = object.__new__(type(self))
        object.__setattr__(flags, "__dict__", state)
        return flags

    def as_dict(self) -> dict:
        data = {name: v.value for name, v in vars(self).items() if isinstance(v, enum.Enum)}
        return {**data, "pi1": str(self.pi1), "provenance": [p.as_dict() for p in self.provenance]}


# The fields cite() may set: every field except the provenance it keeps.
_FLAG_FIELDS = frozenset(f.name for f in fields(StructureFlags)) - {"provenance"}
