"""Registry of named primitive 4-manifolds.

Each entry carries exact invariants, declared structure flags with
citations, capability tags (which symplectic submanifolds the manifold
offers to fiber sums and logarithmic transforms) and bookkeeping labels.
Primitives are blocks imported from the literature; the evaluator never
recomputes their geometry.

The registry is populated once at import time and is append-only:
``Registry.register_primitive`` adds new names but never overwrites
existing ones.  Declared flags are validated and stored as given; the
fields they entail (spin => even form, w2-type II) are filled in by the
evaluator, which applies every generic flag rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from fourcalc.errors import DuplicateName, InconsistentFlags, InvalidExpr
from fourcalc.flags import (
    NO,
    UNKNOWN,
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

    name: str
    params: tuple
    record: InvariantRecord
    flags: StructureFlags
    capabilities: dict = field(default_factory=dict)
    complex_surface: bool = False
    labels: tuple[str, ...] = ()


def _validate(name: str, record: InvariantRecord, flags: StructureFlags) -> None:
    """Reject internally impossible declarations before they enter the registry."""
    if (record.chi + record.tau) % 2 != 0:
        raise InconsistentFlags(f"{name}: chi + tau must be even")
    if record.b1 is not None and record.b2 is not None and record.b2 < abs(record.tau):
        raise InconsistentFlags(f"{name}: b2 < |tau|")
    if flags.spin is YES:
        if not rohlin_compatible(record.chi, record.tau, record.b1):
            raise InconsistentFlags(
                f"{name}: declared spin with b1=0 and tau={record.tau} "
                "not divisible by 16 (Rohlin)"
            )
        if flags.parity is Parity.ODD:
            raise InconsistentFlags(f"{name}: spin forces even intersection form")
        if flags.w2type in (W2Type.I, W2Type.III):
            raise InconsistentFlags(f"{name}: spin means w2-type II")
    if flags.w2type is W2Type.II and flags.spin is NO:
        raise InconsistentFlags(f"{name}: w2-type II means spin")


class Registry:
    def __init__(self):
        self._fixed: dict[str, PrimitiveInfo] = {}
        self._families: dict[str, Callable[[tuple], PrimitiveInfo]] = {}
        _install_builtins(self)

    def names(self) -> list[str]:
        return sorted(set(self._fixed) | set(self._families))

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
        _validate(name, record, flags)
        info = PrimitiveInfo(
            name=name,
            params=(),
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
            _validate(f"{name}{params}", info.record, info.flags)
            return info
        raise InvalidExpr(f"unknown primitive {name!r}")


def _simply_connected(spin: TriState, **extra) -> StructureFlags:
    parity = Parity.EVEN if spin is YES else Parity.ODD if spin is NO else Parity.UNKNOWN
    w2 = W2Type.II if spin is YES else W2Type.I if spin is NO else W2Type.UNKNOWN
    return StructureFlags(pi1=GroupLabel.trivial()).cite(
        rule="declared",
        citation="simply connected block: w2-type from spin",
        spin=spin,
        parity=parity,
        w2type=w2,
        **extra,
    )


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
            sw_nontrivial=YES,
            sw_mod2_nontrivial=YES,
            minimal_general_type=NO,
            acd=YES,
        ),
        capabilities={GENUS1: 1, ELLIPTIC_FIBER: 1},
        complex_surface=True,
    )
    reg.register_primitive(
        "S1xS3",
        InvariantRecord(0, 0, 1),
        StructureFlags(pi1=GroupLabel.presented("Z")).cite(
            rule="declared",
            citation="product of circle and 3-sphere",
            spin=YES,
            parity=Parity.EVEN,
            w2type=W2Type.II,
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
            sw_nontrivial=YES,
            sw_mod2_nontrivial=YES,
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


def _one_int(name: str, params: tuple, minimum: int = 1) -> int:
    if len(params) != 1 or not isinstance(params[0], int):
        raise InvalidExpr(f"{name} takes one integer parameter, got {params}")
    if params[0] < minimum:
        raise InvalidExpr(f"{name} parameter must be >= {minimum}")
    return params[0]


def _build_elliptic(params: tuple) -> PrimitiveInfo:
    """E(n): simply connected elliptic surface without multiple fibers."""
    n = _one_int("E", params)
    spin = YES if n % 2 == 0 else NO
    sw = YES if n >= 2 else NO
    flags = _simply_connected(
        spin,
        symplectic=YES,
        sw_nontrivial=sw,
        sw_mod2_nontrivial=sw,
        minimal_general_type=NO,
        acd=YES,
    )
    caps = {GENUS1: 2, ELLIPTIC_FIBER: 1}
    if n == 4:
        # Special symplectic structure: a torus and a genus-2 surface,
        # disjoint, both of square zero, with simply connected complement.
        caps[GENUS2] = 1
    return PrimitiveInfo(
        name="E",
        params=(n,),
        record=InvariantRecord(12 * n, -8 * n, 0),
        flags=flags,
        capabilities=caps,
        complex_surface=True,
    )


def _build_homology_sphere(params: tuple) -> PrimitiveInfo:
    """Sd(d): rational homology sphere, pi1 = Z/d, cover (d-1)(S2xS2)."""
    d = _one_int("Sd", params)
    spin = YES if d == 1 else UNKNOWN
    flags = StructureFlags(pi1=GroupLabel.cyclic(d)).cite(
        rule="declared",
        citation="rational homology sphere with cyclic fundamental group",
        spin=spin,
        parity=Parity.EVEN,  # b2 = 0: the trivial form is even
        sw_nontrivial=NO,
    )
    return PrimitiveInfo(
        name="Sd",
        params=(d,),
        record=InvariantRecord(2, 0, 0),
        flags=flags,
        labels=(f"universal cover {d - 1}(S2xS2)",),
    )


def _build_gompf_sum(params: tuple) -> PrimitiveInfo:
    """Xk(k): spin symplectic sum of a surface product with 2k+2 copies of E(2)."""
    k = _one_int("Xk", params)
    flags = _simply_connected(YES, symplectic=YES, sw_nontrivial=YES)
    return PrimitiveInfo(
        name="Xk",
        params=(k,),
        record=InvariantRecord(52 * k + 48, -32 * (k + 1), 0),
        flags=flags,
        # Generic {pt} x F2 fibers survive the torus sums and parallel
        # copies are disjoint; two are assumed available (the linking
        # chain glues this block to a neighbor on each side).
        capabilities={GENUS2: 2},
    )


def _build_group_block(params: tuple) -> PrimitiveInfo:
    """XG(chi, tau, name[, b1]): spin symplectic block with prescribed pi1.

    The numerical invariants depend on the chosen presentation, so they
    are caller-supplied; c1^2 = 0 is enforced as a consistency check.
    """
    if len(params) not in (3, 4):
        raise InvalidExpr("XG takes (chi, tau, group-name[, b1])")
    chi, tau, group = params[0], params[1], params[2]
    b1 = params[3] if len(params) == 4 else 0
    if not isinstance(chi, int) or not isinstance(tau, int) or not isinstance(b1, int):
        raise InvalidExpr("XG invariants must be integers")
    if not isinstance(group, str):
        raise InvalidExpr("XG group label must be a name")
    if 2 * chi + 3 * tau != 0:
        raise InconsistentFlags(
            f"XG: declared (chi, tau) = ({chi}, {tau}) has c1^2 = "
            f"{2 * chi + 3 * tau}, but the construction has c1^2 = 0"
        )
    record = InvariantRecord(chi, tau, b1)
    sw = UNKNOWN
    if record.b2plus is not None and record.b2plus > 1:
        sw = YES  # symplectic with b2+ > 1
    flags = StructureFlags(pi1=GroupLabel.presented(group)).cite(
        rule="declared",
        citation="spin symplectic manifold with prescribed fundamental group",
        spin=YES,
        parity=Parity.EVEN,
        w2type=W2Type.II,
        symplectic=YES,
        sw_nontrivial=sw,
    )
    return PrimitiveInfo(
        name="XG",
        params=tuple(params),
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
        sw_nontrivial=YES,
        sw_mod2_nontrivial=YES,
        minimal_general_type=NO,
    )
    return PrimitiveInfo(
        name="Y",
        params=(j,),
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
    flags = StructureFlags(pi1=pi1).cite(
        rule="declared",
        citation="product of Riemann surfaces",
        spin=YES,
        parity=Parity.EVEN,
        w2type=W2Type.II,
        symplectic=YES,
    )
    return PrimitiveInfo(
        name="FgProd",
        params=(g1, g2),
        record=record,
        flags=flags,
        capabilities=caps,
        complex_surface=True,
    )


def _build_geography_block(params: tuple) -> PrimitiveInfo:
    """BK(x, y, j): simply connected minimal symplectic ACD block with
    chi_h = x, c1^2 = y; j is an opaque smooth-structure index."""
    if len(params) != 3 or not all(isinstance(p, int) for p in params):
        raise InvalidExpr("BK takes (chi_h, c1sq, structure-index)")
    x, y, j = params
    if x < 1 or y < 1 or j < 0:
        raise InvalidExpr("BK needs chi_h >= 1, c1sq >= 1, index >= 0")
    record = InvariantRecord(12 * x - y, y - 8 * x, 0)
    flags = StructureFlags(pi1=GroupLabel.trivial()).cite(
        rule="declared",
        citation="symplectic geography: minimal, almost completely decomposable",
        symplectic=YES,
        sw_nontrivial=YES,
        acd=YES,
    )
    return PrimitiveInfo(
        name="BK",
        params=(x, y, j),
        record=record,
        flags=flags,
        labels=(f"structure index {j}",),
    )


REGISTRY = Registry()
