"""The table of named primitive 4-manifolds.

``PRIMITIVES`` declares each primitive once, in the form evaluation
returns: a fixed :class:`Evaluation`, or for a family the builder that
makes one from the parameters.  An entry carries exact invariants,
declared flags with citations, capability tags (the symplectic
submanifolds offered to fiber sums and log transforms), labels, and the
facts other layers read in place of names: the evaluator's fiber-sum
and log-transform rules read ``fibers``, ``sc_fiber_complement`` and
``group_block``, the spin rows of ``rewrite.RULES`` read ``spin_split``
and ``fibers``, and ``surgery.universal_cover`` reads ``cover_adds``.
Primitives are blocks from the literature; no other module recomputes
their geometry, nor tests their names.

Entries declare only what no flag rule derives: the evaluator fills in
what the declarations entail (spin => even form and w2-type II, Taubes'
Seiberg-Witten flags, ...).  Declared flags and spin splits are
validated and stored as given; ``instantiate`` checks every entry it
returns, fixed or built.  A :class:`Family` entry also states its record
apart, so that ``declared_record`` reads it, with the record's checks,
without building the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

from fourcalc.errors import InconsistentFlags, InvalidExpr
from fourcalc.expr import Primitive
from fourcalc.flags import (
    NO,
    YES,
    GroupLabel,
    Parity,
    StructureFlags,
    TriState,
    W2Type,
)
from fourcalc.invariants import InvariantRecord, rohlin_compatible

GENUS1 = "genus1"
GENUS2 = "genus2"
ELLIPTIC_FIBER = "elliptic_fiber"


def genus_cap(g: int) -> str:
    return f"genus{g}"


class Fibers(NamedTuple):
    """The multiple fibers of an elliptic surface, also under log transforms."""

    count: int
    evens: int  # how many have even multiplicity
    gcd: int  # of the multiplicities; 0 when there are none


@dataclass(frozen=True)
class Evaluation:
    """What is known of a manifold.  Evaluation returns one for every node,
    and the table declares each primitive as one."""

    record: InvariantRecord
    flags: StructureFlags
    capabilities: dict = field(default_factory=dict)
    labels: tuple[str, ...] = ()
    complex_surface: bool = False
    # Facts that rules read, set from the direct children and declared by
    # the table at the leaves.  The multiple fibers of an elliptic surface
    # under log transforms; None for other blocks.
    fibers: Optional[Fibers] = None
    # Whether a distinguished fiber has simply connected complement, so
    # that a fiber sum along it kills the fiber's image in pi1.
    sc_fiber_complement: bool = False
    # Whether the node is built on the prescribed-group block XG, whose
    # distinguished torus has trivial image in pi1.
    group_block: bool = False
    # The (K3s, quadrics) a spin block becomes beside its stock of quadrics.
    spin_split: Optional[tuple[int, int]] = None
    # Declared only: what the universal cover of a rational homology
    # sphere adds beside d copies of the other summands.
    cover_adds: tuple[tuple[Primitive, int], ...] = ()


def _record_rejection(record: InvariantRecord) -> Optional[str]:
    """Why a declared record is impossible, or None if it is not."""
    if (record.chi + record.tau) % 2 != 0:
        return "chi + tau must be even"
    if record.b1 is not None and record.b2 < abs(record.tau):
        return "b2 < |tau|"
    return None


def _rejection(info: Evaluation) -> Optional[str]:
    """Why a declaration is internally impossible, or None if it is not.
    Callers prefix the primitive's name, so that it is formatted only
    when a declaration is rejected."""
    problem = _record_rejection(info.record)
    if problem:
        return problem
    record, flags = info.record, info.flags
    if flags.spin is YES:
        if not rohlin_compatible(record.tau):
            return f"declared spin with tau={record.tau} not divisible by 16 (Rohlin)"
        if flags.parity is Parity.ODD:
            return "spin forces even intersection form"
        if flags.w2type in (W2Type.I, W2Type.III):
            return "spin means w2-type II"
    if flags.w2type is W2Type.II and flags.spin is NO:
        return "w2-type II means spin"
    if info.spin_split is not None:
        # k K3 # q S2xS2 has chi 22k + 2q + 2 and tau -16k.
        k3s, quadrics = info.spin_split
        needed = (22 * k3s + 2 * quadrics + 2, -16 * k3s)
        if (record.chi, record.tau) != needed:
            return f"spin split {info.spin_split} needs (chi, tau) = {needed}"
    return None


@dataclass(frozen=True)
class Family:
    """A family entry that states its record apart from its evaluation.

    ``record(params)`` checks the parameters and gives the record;
    ``build(params)``, the entry's call, gives the whole evaluation and
    takes its record from ``record``.  ``declared_record`` runs only the
    record's checks, so a family states its record apart only when its
    declared flags pass the rest of ``_rejection`` whatever the record:
    no spin, no w2-type and no spin split."""

    record: Callable[[tuple], InvariantRecord]
    build: Callable[[tuple], Evaluation]

    def __call__(self, params: tuple) -> Evaluation:
        return self.build(params)


def _refuse(name: str, params: tuple, problem: str) -> InconsistentFlags:
    return InconsistentFlags(f"{Primitive(name, params)}: {problem}")


def instantiate(name: str, params: tuple = ()) -> Evaluation:
    """The primitive ``name(params)`` as the table declares it, checked."""
    entry = PRIMITIVES.get(name)
    if entry is None:
        raise InvalidExpr(f"unknown primitive {name!r}")
    if isinstance(entry, Evaluation):
        if params:
            raise InvalidExpr(f"{name} takes no parameters")
        info = entry
    else:
        info = entry(params)
    problem = _rejection(info)
    if problem:
        raise _refuse(name, params, problem)
    return info


def declared_record(name: str, params: tuple = ()) -> InvariantRecord:
    """The record of ``name(params)``, checked as ``instantiate`` checks
    it.  A :class:`Family` gives it without building the evaluation;
    any other entry is read through ``instantiate``."""
    entry = PRIMITIVES.get(name)
    if type(entry) is not Family:
        return instantiate(name, params).record
    record = entry.record(params)
    problem = _record_rejection(record)
    if problem:
        raise _refuse(name, params, problem)
    return record


def _declared(citation: str, **values) -> StructureFlags:
    return StructureFlags().cite(rule="declared", citation=citation, **values)


def _simply_connected(spin: TriState, **extra) -> StructureFlags:
    return _declared("simply connected block", pi1=GroupLabel.trivial(), spin=spin, **extra)


def _one_int(name: str, params: tuple) -> int:
    if len(params) != 1 or not isinstance(params[0], int):
        raise InvalidExpr(f"{name} takes one integer parameter, got {Primitive(name, params)}")
    if params[0] < 1:
        raise InvalidExpr(f"{name} parameter must be >= 1")
    return params[0]


def _build_elliptic(params: tuple) -> Evaluation:
    """E(n): simply connected elliptic surface without multiple fibers."""
    n = _one_int("E", params)
    # b2+ = 2n - 1: the evaluator applies Taubes' rule from n = 2 on.
    sw = {} if n >= 2 else {"sw_nontrivial": NO, "sw_mod2_nontrivial": NO}
    flags = _simply_connected(
        YES if n % 2 == 0 else NO,
        symplectic=YES,
        minimal_general_type=NO,
        acd=YES,
        **sw,
    )
    caps = {GENUS1: 2, ELLIPTIC_FIBER: 1}
    if n == 4:
        # Special symplectic structure: a torus and a genus-2 surface,
        # disjoint, both of square zero, with simply connected complement.
        caps[GENUS2] = 1
    return Evaluation(
        record=InvariantRecord(12 * n, -8 * n, 0),
        flags=flags,
        capabilities=caps,
        complex_surface=True,
        fibers=Fibers(0, 0, 0),
        sc_fiber_complement=True,
        # Spin E(2k) stabilizes to k K3 # (k - 1)(S2xS2).
        spin_split=(n // 2, n // 2 - 1) if n % 2 == 0 else None,
    )


# Sd(d) depends on d alone, and the free-action region reads it at every
# point: one build per d.  Exceptions are not cached.
@lru_cache(maxsize=64)
def _build_homology_sphere(params: tuple) -> Evaluation:
    """Sd(d): rational homology sphere, pi1 = Z/d, cover (d-1)(S2xS2)."""
    d = _one_int("Sd", params)
    flags = _declared(
        "rational homology sphere with cyclic fundamental group",
        pi1=GroupLabel.cyclic(d),
        **({"spin": YES} if d == 1 else {}),
        parity=Parity.EVEN,  # b2 = 0: the trivial form is even
        sw_nontrivial=NO,
    )
    return Evaluation(
        record=InvariantRecord(2, 0, 0),
        flags=flags,
        labels=(f"universal cover {d - 1}(S2xS2)",),
        cover_adds=((Primitive("S2xS2"), d - 1),),
    )


def _build_gompf_sum(params: tuple) -> Evaluation:
    """Xk(k): spin symplectic sum of a surface product with 2k+2 copies of E(2)."""
    k = _one_int("Xk", params)
    flags = _simply_connected(YES, symplectic=YES)
    return Evaluation(
        record=InvariantRecord(52 * k + 48, -32 * (k + 1), 0),
        flags=flags,
        # Generic {pt} x F2 fibers survive the torus sums and parallel
        # copies are disjoint; two are assumed available (the linking
        # chain glues this block to a neighbor on each side).
        capabilities={GENUS2: 2},
        sc_fiber_complement=True,
    )


def _build_group_block(params: tuple) -> Evaluation:
    """XG(chi, tau, name[, b1 >= 0]): spin symplectic block with prescribed pi1.

    The numerical invariants depend on the chosen presentation, so they
    are caller-supplied; c1^2 = 0 is enforced as a consistency check.
    """
    if len(params) not in (3, 4):
        raise InvalidExpr("XG takes (chi, tau, group-name[, b1])")
    chi, tau, group = params[0], params[1], params[2]
    b1 = params[3] if len(params) == 4 else 0
    if not isinstance(chi, int) or not isinstance(tau, int) or not isinstance(b1, int):
        raise InvalidExpr("XG invariants must be integers")
    if b1 < 0:
        raise InvalidExpr("XG b1 must be >= 0")
    if not isinstance(group, str):
        raise InvalidExpr("XG group label must be a name")
    if 2 * chi + 3 * tau != 0:
        raise InconsistentFlags(
            f"XG: declared (chi, tau) = ({chi}, {tau}) has c1^2 = "
            f"{2 * chi + 3 * tau}, but the construction has c1^2 = 0"
        )
    record = InvariantRecord(chi, tau, b1)
    flags = _declared(
        "spin symplectic manifold with prescribed fundamental group",
        pi1=GroupLabel.presented(group),
        spin=YES,
        symplectic=YES,
    )
    return Evaluation(
        record=record,
        flags=flags,
        capabilities={GENUS1: 1},
        group_block=True,
    )


def _build_log_elliptic(params: tuple) -> Evaluation:
    """Y(j): E(2) log-transformed with odd order 2j+1; basic class 2j*f."""
    j = _one_int("Y", params)
    flags = _simply_connected(
        YES,
        symplectic=YES,
        minimal_general_type=NO,
    )
    return Evaluation(
        record=InvariantRecord(24, -16, 0),
        flags=flags,
        capabilities={GENUS1: 1, ELLIPTIC_FIBER: 1},
        complex_surface=True,
        labels=(f"basic class 2*{j}*f",),
        fibers=Fibers(1, 0, 2 * j + 1),
        sc_fiber_complement=True,
        spin_split=(1, 0),
    )


def _build_surface_product(params: tuple) -> Evaluation:
    """FgProd(g1, g2): product of closed Riemann surfaces."""
    if len(params) != 2 or not all(isinstance(p, int) for p in params):
        raise InvalidExpr("FgProd takes (g1, g2)")
    g1, g2 = params
    if g1 < 0 or g2 < 0:
        raise InvalidExpr("genera must be nonnegative")
    chi = (2 - 2 * g1) * (2 - 2 * g2)
    record = InvariantRecord(chi, 0, 2 * (g1 + g2))
    caps: dict = {}
    if g1 >= 1 and g2 >= 1:
        # Disjoint homologically essential Lagrangian tori, made symplectic
        # after a perturbation of the product form.
        caps[GENUS1] = caps.get(GENUS1, 0) + 2 * g1
    for g in (g1, g2):
        # Factor surfaces; parallel fibers are disjoint, two per factor.
        caps[genus_cap(g)] = caps.get(genus_cap(g), 0) + 2
    pi1 = GroupLabel.trivial() if g1 == g2 == 0 else GroupLabel.presented(
        f"pi1(F{g1}xF{g2})"
    )
    flags = _declared(
        "product of Riemann surfaces",
        pi1=pi1,
        spin=YES,
        symplectic=YES,
    )
    return Evaluation(
        record=record,
        flags=flags,
        capabilities=caps,
        complex_surface=True,
    )


# What BK declares is the same for every (chi_h, c1sq, j): only the
# record depends on the parameters.  The flags the evaluator derives from
# it do depend on the record; geography.quotient_arithmetic lists the
# point-dependent predicates that the free-action certificate reads.
BK_FLAGS = _declared(
    "symplectic geography: minimal, almost completely decomposable",
    pi1=GroupLabel.trivial(),
    symplectic=YES,
    sw_nontrivial=YES,
    acd=YES,
)


def _geography_block_record(params: tuple) -> InvariantRecord:
    """BK(x, y, j)'s record: chi_h = x and c1^2 = y, simply connected."""
    if len(params) != 3:
        raise InvalidExpr("BK takes (chi_h, c1sq, structure-index)")
    x, y, j = params
    if not (isinstance(x, int) and isinstance(y, int) and isinstance(j, int)):
        raise InvalidExpr("BK takes (chi_h, c1sq, structure-index)")
    if x < 1 or y < 1 or j < 0:
        raise InvalidExpr("BK needs chi_h >= 1, c1sq >= 1, index >= 0")
    return InvariantRecord(12 * x - y, y - 8 * x, 0)


def _build_geography_block(params: tuple) -> Evaluation:
    """BK(x, y, j): simply connected minimal symplectic ACD block with
    chi_h = x, c1^2 = y; j is an opaque smooth-structure index."""
    return Evaluation(
        record=_geography_block_record(params),
        flags=BK_FLAGS,
        labels=(f"structure index {params[2]}",),
    )


PRIMITIVES: dict[str, Union[Evaluation, Callable[[tuple], Evaluation]]] = {
    "CP2": Evaluation(
        InvariantRecord(3, 1, 0),
        _simply_connected(NO, symplectic=YES, sw_nontrivial=NO, acd=YES),
        complex_surface=True,
    ),
    "CP2b": Evaluation(
        InvariantRecord(3, -1, 0),
        _simply_connected(NO, symplectic=NO, sw_nontrivial=NO, acd=YES),
    ),
    "S2xS2": Evaluation(
        InvariantRecord(4, 0, 0),
        _simply_connected(YES, symplectic=YES, sw_nontrivial=NO, acd=YES),
        complex_surface=True,
    ),
    "K3": Evaluation(  # E(2)
        InvariantRecord(24, -16, 0),
        _simply_connected(
            YES,
            symplectic=YES,
            minimal_general_type=NO,
            acd=YES,
        ),
        capabilities={GENUS1: 1, ELLIPTIC_FIBER: 1},
        complex_surface=True,
        fibers=Fibers(0, 0, 0),
        sc_fiber_complement=True,
    ),
    "S1xS3": Evaluation(
        InvariantRecord(0, 0, 1),
        _declared(
            "product of circle and 3-sphere",
            pi1=GroupLabel.presented("Z"),
            spin=YES,
            symplectic=NO,
            sw_nontrivial=NO,
        ),
        complex_surface=True,  # Hopf surface
    ),
    "S4": Evaluation(
        InvariantRecord(2, 0, 0),
        _simply_connected(YES, symplectic=NO, sw_nontrivial=NO),
    ),
    "X442": Evaluation(
        InvariantRecord(104, -64, 0),
        _simply_connected(
            YES,
            symplectic=YES,
            minimal_general_type=YES,
        ),
        capabilities={GENUS1: 1, GENUS2: 1},
        complex_surface=True,
        labels=("hypersurface of tridegree (4,4,2) in (CP1)^3",),
        sc_fiber_complement=True,
        spin_split=(4, 7),  # Wall: homeomorphic to 4 K3 # 7(S2xS2)
    ),
    "E": _build_elliptic,
    "Sd": _build_homology_sphere,
    "Xk": _build_gompf_sum,
    "XG": _build_group_block,
    "Y": _build_log_elliptic,
    "FgProd": _build_surface_product,
    "BK": Family(_geography_block_record, _build_geography_block),
}
