"""Named reproduction scenarios with golden-file pinning.

Each target rebuilds one family of examples from scratch, checks every
number exactly, and returns a deterministic report (summary lines, a
value dictionary and all emitted certificates).  Reports are compared
against golden JSON files shipped with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import islice

from fourcalc.certificates import Certificate, verify_certificate
from fourcalc.config import C_EPS, EPS
from fourcalc.errors import BadP
from fourcalc.evaluate import evaluate
from fourcalc.expr import (
    CyclicCover,
    DivisorClass,
    FiberSum,
    ManifoldExpr,
    Primitive,
    connected_sum_of,
    sum_parts,
)
from fourcalc.geography import (
    GeographyQuery,
    _ke_odd_c1sq,
    blowup_range,
    build_quotient_blueprint,
    exotic_partner_family,
    fourth_congruence_piece,
    ke_corrected_chi_h,
    ke_family_start,
    ke_printed_chi_h,
    ke_quotient_family,
    region_lattice_points,
    spin_sum_families,
    group_family,
)
from fourcalc.obstruction import (
    decompose_for_obstruction,
    hitchin_thorpe,
    homeo_equal,
    spin_einstein,
)
from fourcalc.rewrite import normalize, verify_diffeo_claim
from fourcalc.surgery import gompf_sum_blueprint, universal_cover

@dataclass
class Report:
    target: str
    lines: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    certificates: list[Certificate] = field(default_factory=list)

    def say(self, text: str):
        self.lines.append(text)

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "lines": self.lines,
            "values": self.values,
            "certificates": [c.as_dict() for c in self.certificates],
        }

    def self_verify(self) -> list[str]:
        """Failures of every certificate; one pass, so each distinct step
        text is checked once."""
        checked: dict = {}
        failures = []
        for cert in self.certificates:
            failures.extend(verify_certificate(cert, checked))
        return failures


def display_form(expr: ManifoldExpr) -> str:
    parts = sum_parts(expr)
    pieces = []
    for part, mult in parts:
        text = str(part)
        pieces.append(text if mult == 1 else f"{mult} {text}")
    return " # ".join(pieces)


def _json_safe(value: Fraction):
    return str(value) if value.denominator != 1 else int(value)


def _free_action_example(d: int) -> Report:
    target = "prop1.3" if d == 2 else "prop1.4"
    report = Report(target)
    # Double cover of the plane branched over a smooth octic curve.
    octic = CyclicCover("CP2", 2, DivisorClass("CP2", (8,)))
    rec = evaluate(octic).record
    report.values["octic_double_plane"] = {
        "c2": rec.c2,
        "c1sq": rec.c1sq,
        "tau": rec.tau,
        "b2plus": _json_safe(rec.b2plus),
        "b2minus": _json_safe(rec.b2minus),
    }
    report.say(
        f"double plane branched over a degree-8 curve: c2={rec.c2}, "
        f"c1sq={rec.c1sq}, tau={rec.tau}, b2+={rec.b2plus}, b2-={rec.b2minus}"
    )

    quotient = connected_sum_of(
        (octic, 1), (Primitive("CP2b"), 1), (Primitive("Sd", (d,)), 1)
    )
    splitting = decompose_for_obstruction(quotient)
    report.certificates.append(splitting.certificate)
    report.values["split"] = {"k": splitting.k, "l": splitting.l}
    report.say(
        f"no invariant Einstein metric: blow-up excess k={splitting.k} beats "
        f"(2chi+3tau)/3 of the Seiberg-Witten part"
    )
    decisive = [s for s in splitting.certificate.steps if s.arithmetic][-1]
    report.say(
        f"certificate: {splitting.certificate.verdict} ({decisive.arithmetic})"
    )

    cover = universal_cover(quotient)
    nf = normalize(cover)
    assert nf.canonical
    report.values["cover"] = display_form(cover)
    report.values["normal_form"] = display_form(nf.expr)
    report.values["rules_used"] = [step.rule for step in nf.trace]
    report.say(f"universal cover: {display_form(cover)}")
    report.say(f"normal form: {display_form(nf.expr)}")
    ht = hitchin_thorpe(evaluate(nf.expr).record, inputs={"expr": display_form(nf.expr)})
    report.certificates.append(ht)
    return report


def reproduce_prop13() -> Report:
    report = _free_action_example(2)
    assert report.values["normal_form"] == "15 CP2 # 77 CP2b"
    return report


def reproduce_prop14() -> Report:
    report = _free_action_example(3)
    assert report.values["normal_form"] == "23 CP2 # 116 CP2b"
    return report


def reproduce_prop312() -> Report:
    report = Report("prop3.12")
    odd_rows = []
    for d in (3, 5, 7):
        for i in (1, 3, 5):
            bp = ke_quotient_family(d, i)
            rec = bp.quotient_record
            printed = ke_printed_chi_h(d, i)
            row = {
                "d": d,
                "i": i,
                "c1sq": rec.c1sq,
                "c1sq_formula": _ke_odd_c1sq(d, i),
                "chi_h": _json_safe(rec.chi_h),
                "chi_h_formula": _json_safe(ke_corrected_chi_h(d, i)),
                "printed_chi_h": _json_safe(printed),
                "printed_minus_evaluated": _json_safe(printed - rec.chi_h),
                "ratio_below_5": bool(Fraction(rec.c1sq) < 5 * rec.chi_h),
            }
            odd_rows.append(row)
            report.say(
                f"d={d} i={i}: c1sq={rec.c1sq}, chi_h={rec.chi_h} "
                f"(printed closed form is off by d(d-1)={d * (d - 1)})"
            )
            report.certificates.extend(bp.certificates)
    report.values["odd"] = odd_rows

    even_rows = []
    for d in (2, 4, 6):
        for i in (1, 3):
            labels = ke_quotient_family(d, i).labels
            c1sq, c2, tau = labels["c1sq"], labels["c2"], labels["tau"]
            row = {
                "d": d,
                "i": i,
                "c1sq": c1sq,
                "c2": c2,
                "tau": tau,
                "tau_mod_4": tau % 4,
                "odd_form": tau % 8 != 0,
            }
            even_rows.append(row)
            report.say(
                f"d={d} i={i} (even family): c1sq={c1sq}, c2={c2}, tau={tau}, "
                f"tau = {tau % 4} mod 4 so the form is odd"
            )
    report.values["even"] = even_rows
    report.values["family_start"] = {
        str(d): ke_family_start(d) for d in (2, 3, 5, 7)
    }
    return report


def reproduce_thm11() -> Report:
    report = Report("thm1.1")
    d = 3
    start = ke_family_start(d)
    report.values["d"] = d
    report.values["family_start"] = start
    z = ke_quotient_family(d, start)
    zrec = z.quotient_record
    report.say(
        f"Kaehler-Einstein quotient (d={d}, i={start}): chi={zrec.chi}, "
        f"tau={zrec.tau}, c1sq={zrec.c1sq}, chi_h={zrec.chi_h}"
    )
    report.values["quotient"] = {
        "chi": zrec.chi,
        "tau": zrec.tau,
        "c1sq": zrec.c1sq,
        "chi_h": _json_safe(zrec.chi_h),
        "einstein": z.labels["einstein"],
    }
    report.certificates.extend(z.certificates)

    partners = []
    partner_bps = []
    for j in (1, 2):
        bp = exotic_partner_family(d, start, j)
        partner_bps.append(bp)
        report.certificates.extend(bp.certificates)
        chi_h = bp.labels["chi_h"]
        k = bp.labels["k"]
        partners.append({"j": j, "k": k, "chi_h": chi_h})
        report.say(
            f"exotic partner j={j}: homeomorphic, k={k} >= 3 chi_h = {3 * chi_h}, "
            "no Einstein metric"
        )
    report.values["partners"] = partners

    cover_nf = partner_bps[0].cover_normal_form
    crec = partner_bps[0].cover_record
    n_plus, m_minus = int(crec.b2plus), int(crec.b2minus)
    report.values["partner_cover_normal_form"] = display_form(cover_nf.expr)
    report.say(
        f"partner cover is {display_form(cover_nf.expr)} with (n, m) = "
        f"(b2+, b2-) of the Kaehler-Einstein cover = ({n_plus}, {m_minus})"
    )

    z_cover_nf = normalize(z.cover)
    assert not z_cover_nf.canonical  # nontrivial SW: not a sum of planes
    claim4 = verify_diffeo_claim(
        connected_sum_of((z.cover, 1), (Primitive("CP2"), 1)),
        connected_sum_of((partner_bps[0].cover, 1), (Primitive("CP2"), 1)),
    )
    assert claim4.verdict == "diffeomorphic_under_rewrite_axioms"
    report.certificates.append(claim4)
    report.say("covers become diffeomorphic after one CP2 stabilization")
    report.values["stabilized_equal"] = True
    return report


# Admissible points thm1.5 lists for each d.
THM15_SAMPLE = 50


def reproduce_thm15() -> Report:
    report = Report("thm1.5")
    per_d = {}
    for d in (2, 3):
        # The region is listed n-major, so these boxes end just past the
        # first THM15_SAMPLE points: they hold 53 points each.
        bounds = (10, 24) if d == 2 else (15, 36)
        query = GeographyQuery(d=d, epsilon=EPS, c_of_eps=C_EPS, bounds=bounds)
        points = list(islice(region_lattice_points(query), THM15_SAMPLE))
        assert len(points) == THM15_SAMPLE, f"bounds too small for {THM15_SAMPLE} points"
        rows = []
        for n, m in points:
            # Each point's own blueprint runs its quotient_arithmetic.
            bp = build_quotient_blueprint(
                n, m, d, eps_prime=query.eps_prime, c_of_eps=query.c_of_eps
            )
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "k": bp.labels["k"],
                    "verdict": bp.certificates[-1].verdict,
                    "cover": display_form(bp.cover_normal_form.expr),
                }
            )
            report.certificates.extend(bp.certificates)
        per_d[str(d)] = rows
        report.say(
            f"d={d}: {len(rows)} admissible points; first "
            f"({rows[0]['n']},{rows[0]['m']}) -> k={rows[0]['k']}, "
            f"cover {rows[0]['cover']}"
        )
    report.values["points"] = per_d
    report.values["epsilon"] = _json_safe(EPS)
    report.values["c_of_eps"] = _json_safe(C_EPS)
    return report


def reproduce_thm16() -> Report:
    report = Report("thm1.6")
    rows = []
    for k in (1, 2, 3):
        low, high = blowup_range(k)
        p = high - 1
        entries = []
        for j in (1, 2):
            bp = group_family(24, -16, "G", k, p, j)
            report.certificates.extend(bp.certificates)
            entries.append(
                {
                    "j": j,
                    "chi": bp.quotient_record.chi,
                    "tau": bp.quotient_record.tau,
                    "c1sq": bp.quotient_record.c1sq,
                }
            )
        assert entries[0]["chi"] == entries[1]["chi"]
        assert entries[0]["tau"] == entries[1]["tau"]
        boundary_rejected = False
        if low.denominator == 1:
            try:
                group_family(24, -16, "G", k, int(low), 1)
            except BadP:
                boundary_rejected = True
        rows.append(
            {
                "k": k,
                "c1sq_block": bp.labels["c1sq_block"],
                "p_range": [str(low), str(high)],
                "p": int(p),
                "structures": entries,
                "boundary_rejected": boundary_rejected if low.denominator == 1 else None,
            }
        )
        report.say(
            f"k={k}: blow-up bounds {high} > p > {low}; p={p} obstructs "
            f"for every log multiplicity"
        )
    report.values["families"] = rows
    return report


def reproduce_thm17() -> Report:
    report = Report("thm1.7")
    table = []
    for k in range(1, 11):
        rec = evaluate(Primitive("Xk", (k,))).record
        assert (rec.chi, rec.tau) == (52 * k + 48, -32 * (k + 1))
        table.append({"k": k, "chi": rec.chi, "tau": rec.tau})
    report.values["gompf_sums"] = table
    report.say("Gompf sums: chi = 52k + 48, tau = -32(k+1) for k = 1..10")

    blueprint = gompf_sum_blueprint(1)
    brec = evaluate(blueprint).record
    assert (brec.chi, brec.tau) == (100, -64)
    report.values["blueprint_k1"] = {"chi": brec.chi, "tau": brec.tau}
    report.say("fiber-sum blueprint at k=1 agrees: chi=100, tau=-64")

    x2 = evaluate(Primitive("Xk", (2,))).record
    assert (x2.c2, x2.tau, int(x2.b2plus)) == (152, -96, 27)
    report.values["small_spin_block"] = {
        "c2": x2.c2,
        "tau": x2.tau,
        "b2plus": int(x2.b2plus),
        "b2plus_mod_4": int(x2.b2plus) % 4,
    }
    report.say("small spin block: c2=152, tau=-96, b2+=27 = 3 mod 4")

    congruences = []
    for kg, n in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2)):
        ng = _group_elliptic_block(kg, n)
        rec = evaluate(ng).record
        b2p = int(rec.b2plus)
        assert b2p % 4 == 3 and rec.c1sq == 0
        congruences.append({"chi_G": 24 * kg, "n": n, "b2plus": b2p})
    report.values["group_block_congruences"] = congruences
    report.say("group blocks: b2+ = 4(k+n) - 1 = 3 mod 4 on all samples")

    spin_certs = []
    for kg, j in ((1, 1), (1, 2), (2, 1)):
        ng = _group_elliptic_block(kg, kg)
        pieces = [Primitive("Xk", (2,)), ng, Primitive("Y", (j,))]
        fourth = fourth_congruence_piece(pieces)
        cert = spin_einstein(
            pieces + [fourth],
            3,
            Primitive("S4"),
            assumption=f"fourth congruence piece {fourth} supplied by the engine",
        )
        assert cert.verdict == "einstein_obstructed"
        ht = hitchin_thorpe(
            evaluate(connected_sum_of(*[(p, 1) for p in pieces])).record
        )
        assert ht.verdict == "hitchin_thorpe_ok"
        report.certificates.extend([cert, ht])
        spin_certs.append({"chi_G": 24 * kg, "j": j, "verdict": cert.verdict})
    report.values["bauer_furuta"] = spin_certs
    report.say("no Einstein metrics on the spin sums; Hitchin-Thorpe holds")

    homeo = homeo_equal(Primitive("Y", (1,)), Primitive("Y", (2,)))
    assert homeo.verdict == "homeomorphic"
    report.certificates.append(homeo)
    y1 = evaluate(Primitive("Y", (1,)))
    report.values["log_transforms"] = {
        "b2plus": int(y1.record.b2plus),
        "b2minus": int(y1.record.b2minus),
        "homeomorphic": True,
        "labels_distinct": sorted(evaluate(Primitive("Y", (1,))).labels)
        != sorted(evaluate(Primitive("Y", (2,))).labels),
    }
    report.say("odd log transforms of E(2): b2+=3, b2-=19, all homeomorphic, "
               "distinguished by basic classes")
    return report


def _group_elliptic_block(kg: int, n: int) -> ManifoldExpr:
    return FiberSum(
        Primitive("XG", (24 * kg, -16 * kg, "G")), Primitive("E", (2 * n,)), 1
    )


def reproduce_thm18() -> Report:
    report = Report("thm1.8")
    rows = []
    for d in (2, 3):
        for n in (1, 2):
            first, second = spin_sum_families(d, n, 1)
            for fam_index, bp in ((1, first), (2, second)):
                report.certificates.extend(bp.certificates)
                spin_cert = bp.certificates[-1]
                rows.append(
                    {
                        "family": fam_index,
                        "d": d,
                        "n": n,
                        "cover": display_form(bp.cover_normal_form.expr),
                        "k3": bp.labels["cover_k3"],
                        "s2xs2": bp.labels["cover_s2xs2"],
                        "verdict": spin_cert.verdict,
                        "fourth_piece": bp.labels["fourth_piece"],
                    }
                )
            report.say(
                f"d={d}, n={n}: covers {display_form(first.cover_normal_form.expr)} "
                f"and {display_form(second.cover_normal_form.expr)}; no invariant "
                "Einstein metrics; Hitchin-Thorpe holds"
            )
    report.values["families"] = rows
    x442 = Primitive("X442")
    model = connected_sum_of((Primitive("K3"), 4), (Primitive("S2xS2"), 7))
    homeo = homeo_equal(x442, model)
    assert homeo.verdict == "homeomorphic"
    report.certificates.append(homeo)
    report.values["x442_homeomorphic_to"] = display_form(model)
    report.say("the (4,4,2) hypersurface is homeomorphic to 4 K3 # 7 S2xS2")
    return report


_BUILDERS = {
    "prop1.3": reproduce_prop13,
    "prop1.4": reproduce_prop14,
    "prop3.12": reproduce_prop312,
    "thm1.1": reproduce_thm11,
    "thm1.5": reproduce_thm15,
    "thm1.6": reproduce_thm16,
    "thm1.7": reproduce_thm17,
    "thm1.8": reproduce_thm18,
}
TARGETS = tuple(_BUILDERS)


def run_target(target: str) -> Report:
    if target not in _BUILDERS:
        raise KeyError(f"unknown reproduction target {target!r}")
    report = _BUILDERS[target]()
    failures = report.self_verify()
    if failures:
        raise AssertionError(f"certificate self-verification failed: {failures}")
    return report


def golden_path(target: str):
    name = target.replace(".", "_") + ".json"
    return resources.files("fourcalc").joinpath("golden", name)


def compare_with_golden(target: str, data: dict) -> list[str]:
    """Differences between a report's ``as_dict()`` and its golden file
    (empty = match).  ``data`` holds only JSON values, so it compares
    with the parsed golden file as it is."""
    path = golden_path(target)
    try:
        golden = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return [f"no golden file for {target}"]
    except ValueError as exc:  # an empty or truncated file, or not JSON
        return [f"golden/{path.name} is not JSON: {exc}"]
    if data == golden:
        return []
    keys = ("lines", "values", "certificates")
    return [f"{k} differ" for k in keys if data.get(k) != golden.get(k)] or ["reports differ"]
