"""Registry of named primitive 4-manifolds.

Each entry carries exact invariants, declared structure flags with
citations, capability tags (which symplectic submanifolds the manifold
offers to fiber sums and logarithmic transforms) and bookkeeping labels.
Primitives are blocks imported from the literature; the evaluator never
recomputes their geometry.

The registry is populated once at import time and is append-only:
``Registry.register_primitive`` adds new names but never overwrites
existing ones.  Entries declare only what no flag rule derives: the
evaluator fills in what the declarations entail (spin => even form and
w2-type II, Taubes' Seiberg-Witten flags, ...).  Declared flags are
validated and stored as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from fourcalc.errors import DuplicateName, InconsistentFlags, InvalidExpr
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


@dataclass(frozen=True)
class PrimitiveInfo:
    """A fully instantiated primitive: invariants, flags, capabilities."""

    record: InvariantRecord
    flags: StructureFlags
    capabilities: dict = field(default_factory=dict)
    complex_surface: bool = False
    labels: tuple[str, ...] = ()


def _rejection(record: InvariantRecord, flags: StructureFlags) -> Optional[str]:
    """Why a declaration is internally impossible, or None if it is not.
    Callers prefix the primitive's name, so that it is formatted only
    when a declaration is rejected."""
    if (record.chi + record.tau) % 2 != 0:
        return "chi + tau must be even"
    if record.b1 is not None and record.b2 is not None and record.b2 < abs(record.tau):
        return "b2 < |tau|"
    if flags.spin is YES:
        if not rohlin_compatible(record.tau):
            return f"declared spin with tau={record.tau} not divisible by 16 (Rohlin)"
        if flags.parity is Parity.ODD:
            return "spin forces even intersection form"
        if flags.w2type in (W2Type.I, W2Type.III):
            return "spin means w2-type II"
    if flags.w2type is W2Type.II and flags.spin is NO:
        return "w2-type II means spin"
    return None


class Registry:
    def __init__(self):
        self._fixed: dict[str, PrimitiveInfo] = {}
        self._families: dict[str, Callable[[tuple], PrimitiveInfo]] = {}
        _install_builtins(self)

    def __contains__(self, name: str) -> bool:
        return name in self._fixed or name in self._families

    def register_primitive(
        self,
        name: str,
        record: InvariantRecord,
        flags: StructureFlags,
        capabilities: Optional[dict] = None,
        complex_surface: bool = False,
        labels: tuple[str, ...] = (),
    ) -> PrimitiveInfo:
        """Add a fixed primitive; raises on duplicate names or bad flags."""
        if name in self:
            raise DuplicateName(f"primitive {name!r} already registered")
        problem = _rejection(record, flags)
        if problem:
            raise InconsistentFlags(f"{name}: {problem}")
        info = PrimitiveInfo(
            record=record,
            flags=flags,
            capabilities=dict(capabilities or {}),
            complex_surface=complex_surface,
            labels=labels,
        )
        self._fixed[name] = info
        return info

    def register_family(self, name: str, build: Callable[[tuple], PrimitiveInfo]):
        if name in self:
            raise DuplicateName(f"primitive {name!r} already registered")
        self._families[name] = build

    def instantiate(self, name: str, params: tuple = ()) -> PrimitiveInfo:
        if name in self._fixed:
            if params:
                raise InvalidExpr(f"{name} takes no parameters")
            return self._fixed[name]
        if name in self._families:
            info = self._families[name](params)
            problem = _rejection(info.record, info.flags)
            if problem:
                raise InconsistentFlags(f"{Primitive(name, params)}: {problem}")
            return info
        raise InvalidExpr(f"unknown primitive {name!r}")


def _declared(citation: str, **values) -> StructureFlags:
    return StructureFlags().cite(rule="declared", citation=citation, **values)


def _simply_connected(spin: TriState, **extra) -> StructureFlags:
    return _declared("simply connected block", pi1=GroupLabel.trivial(), spin=spin, **extra)


def _install_builtins(reg: Registry) -> None:
    reg.register_primitive(
        "CP2",
        InvariantRecord(3, 1, 0),
        _simply_connected(NO, symplectic=YES, sw_nontrivial=NO, acd=YES),
        complex_surface=True,
    )
    reg.register_primitive(
        "CP2b",
        InvariantRecord(3, -1, 0),
        _simply_connected(NO, symplectic=NO, sw_nontrivial=NO, acd=YES),
    )
    reg.register_primitive(
        "S2xS2",
        InvariantRecord(4, 0, 0),
        _simply_connected(YES, symplectic=YES, sw_nontrivial=NO, acd=YES),
        complex_surface=True,
    )
    reg.register_primitive(
        "K3",
        InvariantRecord(24, -16, 0),
        _simply_connected(
            YES,
            symplectic=YES,
            minimal_general_type=NO,
            acd=YES,
        ),
        capabilities={GENUS1: 1, ELLIPTIC_FIBER: 1},
        complex_surface=True,
    )
    reg.register_primitive(
        "S1xS3",
        InvariantRecord(0, 0, 1),
        _declared(
            "product of circle and 3-sphere",
            pi1=GroupLabel.presented("Z"),
            spin=YES,
            symplectic=NO,
            sw_nontrivial=NO,
        ),
        complex_surface=True,  # Hopf surface
    )
    reg.register_primitive(
        "S4",
        InvariantRecord(2, 0, 0),
        _simply_connected(YES, symplectic=NO, sw_nontrivial=NO),
    )
    reg.register_primitive(
        "X442",
        InvariantRecord(104, -64, 0),
        _simply_connected(
            YES,
            symplectic=YES,
            minimal_general_type=YES,
        ),
        capabilities={GENUS1: 1, GENUS2: 1},
        complex_surface=True,
        labels=("hypersurface of tridegree (4,4,2) in (CP1)^3",),
    )

    reg.register_family("E", _build_elliptic)
    reg.register_family("Sd", _build_homology_sphere)
    reg.register_family("Xk", _build_gompf_sum)
    reg.register_family("XG", _build_group_block)
    reg.register_family("Y", _build_log_elliptic)
    reg.register_family("FgProd", _build_surface_product)
    reg.register_family("BK", _build_geography_block)


def _one_int(name: str, params: tuple) -> int:
    if len(params) != 1 or not isinstance(params[0], int):
        raise InvalidExpr(f"{name} takes one integer parameter, got {Primitive(name, params)}")
    if params[0] < 1:
        raise InvalidExpr(f"{name} parameter must be >= 1")
    return params[0]


def _build_elliptic(params: tuple) -> PrimitiveInfo:
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
    return PrimitiveInfo(
        record=InvariantRecord(12 * n, -8 * n, 0),
        flags=flags,
        capabilities=caps,
        complex_surface=True,
    )


# Sd(d) depends on d alone, and the free-action region reads it at every
# point: one build per d.  Exceptions are not cached.
@lru_cache(maxsize=64)
def _build_homology_sphere(params: tuple) -> PrimitiveInfo:
    """Sd(d): rational homology sphere, pi1 = Z/d, cover (d-1)(S2xS2)."""
    d = _one_int("Sd", params)
    flags = _declared(
        "rational homology sphere with cyclic fundamental group",
        pi1=GroupLabel.cyclic(d),
        **({"spin": YES} if d == 1 else {}),
        parity=Parity.EVEN,  # b2 = 0: the trivial form is even
        sw_nontrivial=NO,
    )
    return PrimitiveInfo(
        record=InvariantRecord(2, 0, 0),
        flags=flags,
        labels=(f"universal cover {d - 1}(S2xS2)",),
    )


def _build_gompf_sum(params: tuple) -> PrimitiveInfo:
    """Xk(k): spin symplectic sum of a surface product with 2k+2 copies of E(2)."""
    k = _one_int("Xk", params)
    flags = _simply_connected(YES, symplectic=YES)
    return PrimitiveInfo(
        record=InvariantRecord(52 * k + 48, -32 * (k + 1), 0),
        flags=flags,
        # Generic {pt} x F2 fibers survive the torus sums and parallel
        # copies are disjoint; two are assumed available (the linking
        # chain glues this block to a neighbor on each side).
        capabilities={GENUS2: 2},
    )


def _build_group_block(params: tuple) -> PrimitiveInfo:
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
    return PrimitiveInfo(
        record=record,
        flags=flags,
        capabilities={GENUS1: 1},
    )


def _build_log_elliptic(params: tuple) -> PrimitiveInfo:
    """Y(j): E(2) log-transformed with odd order; basic class 2j*f."""
    j = _one_int("Y", params)
    flags = _simply_connected(
        YES,
        symplectic=YES,
        minimal_general_type=NO,
    )
    return PrimitiveInfo(
        record=InvariantRecord(24, -16, 0),
        flags=flags,
        capabilities={GENUS1: 1, ELLIPTIC_FIBER: 1},
        complex_surface=True,
        labels=(f"basic class 2*{j}*f",),
    )


def _build_surface_product(params: tuple) -> PrimitiveInfo:
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
    return PrimitiveInfo(
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


def _build_geography_block(params: tuple) -> PrimitiveInfo:
    """BK(x, y, j): simply connected minimal symplectic ACD block with
    chi_h = x, c1^2 = y; j is an opaque smooth-structure index."""
    if len(params) != 3 or not all(isinstance(p, int) for p in params):
        raise InvalidExpr("BK takes (chi_h, c1sq, structure-index)")
    x, y, j = params
    if x < 1 or y < 1 or j < 0:
        raise InvalidExpr("BK needs chi_h >= 1, c1sq >= 1, index >= 0")
    return PrimitiveInfo(
        record=InvariantRecord(12 * x - y, y - 8 * x, 0),
        flags=BK_FLAGS,
        labels=(f"structure index {j}",),
    )


REGISTRY = Registry()
