"""Region enumerators and the named family generators."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from fourcalc.certificates import verify_certificate
from fourcalc.cli import main
from fourcalc.errors import BadP, BadParity, InfeasiblePoint, InvalidExpr
from fourcalc import config, geography, registry
from fourcalc.evaluate import evaluate
from fourcalc.expr import FiberSum, Primitive
from fourcalc.flags import Parity, W2Type
from fourcalc.invariants import InvariantRecord
from fourcalc.geography import (
    CITE_GEOGRAPHY,
    GeographyQuery,
    bk_columns,
    bk_contains,
    bk_region,
    blowup_range,
    build_quotient_blueprint,
    exotic_partner_family,
    fourth_congruence_piece,
    free_action_region,
    group_family,
    ke_corrected_chi_h,
    ke_family_start,
    ke_printed_chi_h,
    ke_quotient_family,
    printed_even_invariants,
    quotient_arithmetic,
    spin_sum_families,
)


# The configured eps' of the free-action region, which its callers pass.
EPS_PRIME = config.eps_prime_of(config.EPS)


class TestBkRegion:
    def test_membership_examples(self):
        points = set(bk_region(Fraction(1), Fraction(100), (13, 20)))
        assert (13, 4) in points
        assert (13, 18) not in points

    def test_strict_positivity(self):
        assert all(y >= 1 for _, y in bk_region(Fraction(1), Fraction(1), (5, 5)))

    def test_half_eps_slope(self):
        # eps' = 1/2 gives the working slope 8.5.
        assert bk_contains(Fraction(1, 2), Fraction(10), 4, 24)
        assert not bk_contains(Fraction(1, 2), Fraction(10), 4, 25)

    def test_empty_from_slope_nine(self):
        for eps_prime in (Fraction(9), Fraction(19, 2), Fraction(40)):
            assert bk_region(eps_prime, Fraction(1, 3), (60, 60)) == []


def reference_bk_region(eps_prime, c, bounds):
    """The per-point enumeration bk_region replaced: one exact Fraction
    comparison for every candidate point."""
    x_max, y_max = bounds
    points = []
    for x in range(1, x_max + 1):
        limit = (9 - eps_prime) * x - c
        top = min(Fraction(y_max), limit)
        for y in range(1, int(top) + 1):
            if Fraction(y) <= limit:
                points.append((x, y))
    return points


POSITIVE = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)
BOUNDS = st.tuples(st.integers(0, 60), st.integers(0, 60))


@st.composite
def integral_column(draw):
    """(eps', c, x0, y0) with (9 - eps') x0 - c exactly the integer y0."""
    eps_prime = draw(st.fractions(min_value=Fraction(1, 12), max_value=9, max_denominator=12))
    x0 = draw(st.integers(1, 60))
    y0 = draw(st.integers(-5, 60))
    c = (9 - eps_prime) * x0 - y0
    assume(c > 0)
    return eps_prime, c, x0, y0


@given(POSITIVE, POSITIVE, BOUNDS)
def test_bk_region_matches_reference(eps_prime, c, bounds):
    assert bk_region(eps_prime, c, bounds) == reference_bk_region(eps_prime, c, bounds)
    assert all(top >= 1 for _, top in bk_columns(eps_prime, c, bounds))


def reference_bk_contains(eps_prime, c, x, y):
    """Membership as one Fraction comparison, y <= (9 - eps') x - c."""
    return 0 < y and Fraction(y) <= (9 - eps_prime) * x - c


# Slopes 9 - eps' down to -11: eps' >= 9 leaves no point.
EPS_PRIME_ANY = st.fractions(min_value=Fraction(1, 12), max_value=20, max_denominator=12)


@given(EPS_PRIME_ANY, POSITIVE, st.integers(-5, 60), st.integers(-5, 500))
def test_bk_contains_matches_reference(eps_prime, c, x, y):
    assert bk_contains(eps_prime, c, x, y) == reference_bk_contains(eps_prime, c, x, y)


@given(integral_column(), st.integers(-2, 2))
def test_bk_contains_on_the_line(params, offset):
    eps_prime, c, x0, y0 = params
    y = y0 + offset
    assert bk_contains(eps_prime, c, x0, y) == reference_bk_contains(eps_prime, c, x0, y)
    assert bk_contains(eps_prime, c, x0, y) == (0 < y <= y0)


@given(integral_column(), BOUNDS)
def test_bk_region_integral_column_top(params, bounds):
    eps_prime, c, x0, y0 = params
    points = bk_region(eps_prime, c, bounds)
    assert points == reference_bk_region(eps_prime, c, bounds)
    if 1 <= y0 <= bounds[1] and x0 <= bounds[0]:
        assert (x0, y0) in points and (x0, y0 + 1) not in points


def _fourcalc_stdout(argv, timeout=None):
    """stdout of ``fourcalc argv``, which must exit 0: in a process that
    is stopped after ``timeout`` seconds when one is given, else in this
    one."""
    if timeout is None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        return out.getvalue()
    script = "import sys\nfrom fourcalc.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert (result.returncode, result.stderr) == (0, ""), argv
    return result.stdout


def _enumerate_bk_stdout(*argv):
    return _fourcalc_stdout(["enumerate", "bk", *argv])


def _bk_json_reference(eps_prime, c, points):
    data = {
        "eps_prime": str(eps_prime),
        "c": str(c),
        "points": [{"x": x, "y": y, "annotation": CITE_GEOGRAPHY} for x, y in points],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# No shrink phase: shrinking the 60x60 listings of a failing example
# takes minutes, and the unshrunk example already names the mismatch.
@settings(
    max_examples=40, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(POSITIVE, POSITIVE, BOUNDS)
def test_enumerate_bk_output_matches_reference(eps_prime, c, bounds):
    points = reference_bk_region(eps_prime, c, bounds)
    argv = ("--eps-prime", str(eps_prime), "--c", str(c), "--bounds", "%d,%d" % bounds)
    csv = "x,y\n" + "".join(f"{x},{y}\n" for x, y in points)
    assert _enumerate_bk_stdout(*argv) == csv
    assert _enumerate_bk_stdout(*argv, "--json") == _bk_json_reference(eps_prime, c, points)


def test_enumerate_bk_json_empty_and_single_point():
    empty = _enumerate_bk_stdout("--eps-prime", "1/2", "--c", "3", "--bounds", "0,0", "--json")
    assert '"points": []' in empty
    assert empty == _bk_json_reference(Fraction(1, 2), Fraction(3), [])
    # (9 - 1) * 1 - 7 = 1: the region is the single point (1, 1).
    single = _enumerate_bk_stdout("--eps-prime", "1", "--c", "7", "--bounds", "1,5", "--json")
    assert single == _bk_json_reference(Fraction(1), Fraction(7), [(1, 1)])


@pytest.mark.parametrize("command, small", [
    (("enumerate", "free-actions", "--d", "2", "--bounds", "{},4"), "40"),
    (("enumerate", "free-actions", "--d", "2", "--bounds", "{},4", "--json"), "40"),
    (("enumerate", "bk", "--bounds", "{},0"), "1"),
    (("enumerate", "bk", "--bounds", "{},0", "--json"), "1"),
    (("enumerate", "bk", "--eps-prime", "9", "--bounds", "{},5"), "1"),
])
def test_enumerators_stop_at_the_last_column(command, small):
    # Past its last non-empty column a region has no point, so a bound of
    # 10^12 gives the bytes of a small bound, at once: a walk over every
    # column up to that bound would not end within the timeout.
    expected = _fourcalc_stdout([word.format(small) for word in command])
    huge = _fourcalc_stdout([word.format(10**12) for word in command], timeout=30)
    assert huge == expected


def reference_free_action_region(query):
    """The per-point oracle free_action_region replaced: every (n, m) of
    the grid tested against the region, the query's properties rebuilt
    for every point, and every point's verdict read off its own
    blueprint."""
    d = query.d
    n_max, m_max = query.bounds
    points = []
    for n in range(d, n_max + 1, d):
        for m in range(d, m_max + 1, d):
            if Fraction(n) >= (6 - query.epsilon) * m - query.n_of_eps:
                continue
            chained = Fraction(3 * n, 2 * d) + 1 < (9 - query.eps_prime) * Fraction(
                m, d
            ) - query.c_of_eps
            assert chained, f"region point ({n},{m}) fails the chained inequality"
            bp = geography.build_quotient_blueprint(
                n, m, d, eps_prime=query.eps_prime, c_of_eps=query.c_of_eps
            )
            points.append(
                geography.FreeActionPoint(
                    n, m, bp.certificates[-1].inputs["k"], bp.certificates[-1].verdict
                )
            )
    points.sort(key=lambda p: (p.n, p.m))
    return points


def _closed_form_k(n, d):
    return (3 * n) // (2 * d) + 1 - n // d


def _stub_blueprint(n, m, d, eps_prime, c_of_eps):
    """Stands in for the blueprint: the m-range oracle is about which
    points are visited, in which order, with which constants.  The
    verdict names the constants, which every point of a query shares."""
    lebrun = SimpleNamespace(
        verdict=f"d={d} eps'={eps_prime} c={c_of_eps}", inputs={"k": _closed_form_k(n, d)}
    )
    return SimpleNamespace(certificates=[lebrun])


def _outcome(enumerate_region, query):
    """(n, m, k, verdict) of every point, or the assertion raised."""
    try:
        points = enumerate_region(query)
    except AssertionError as exc:
        # The first line: pytest appends its own rewriting of the assert.
        return "AssertionError", str(exc).splitlines()[0]
    return [(p.n, p.m, p.k, p.verdict) for p in points]


def _region_outcome(enumerate_region, query, n_scale):
    """``_outcome`` with the blueprint stubbed.  ``n_scale`` shrinks
    N(eps), so that the chained assert can fail."""
    n_of_eps = property(lambda q: n_scale * Fraction(2 * q.d, 3) * (q.c_of_eps + 1))
    with mock.patch.object(geography, "build_quotient_blueprint", _stub_blueprint), \
            mock.patch.object(GeographyQuery, "n_of_eps", n_of_eps):
        return _outcome(enumerate_region, query)


EPS = st.fractions(min_value=Fraction(1, 12), max_value=7, max_denominator=12)
C_EPS = st.fractions(min_value=Fraction(1, 12), max_value=15, max_denominator=12)
N_SCALE = st.sampled_from([1, 1, 1, Fraction(1, 2), 0])


@settings(max_examples=300)
@given(st.integers(2, 7), EPS, C_EPS, BOUNDS, N_SCALE)
def test_free_action_m_range_matches_reference(d, eps, c, bounds, n_scale):
    query = GeographyQuery(d, eps, c, bounds)
    got = _region_outcome(free_action_region, query, n_scale)
    assert got == _region_outcome(reference_free_action_region, query, n_scale)


@st.composite
def integral_threshold(draw):
    """(d, eps, c, n, t) with (n + N(eps)) / (6 - eps) exactly t, a
    multiple of d: the column's first candidate m = t is not admitted."""
    d = draw(st.integers(2, 7))
    eps = draw(st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12))
    assume(eps < 6)
    n = d * draw(st.integers(1, 60 // d))
    t = d * draw(st.integers(1, 60 // d))
    c = Fraction(3, 2 * d) * (t * (6 - eps) - n) - 1
    assume(c > 0)
    return d, eps, c, n, t


@settings(max_examples=100)
@given(integral_threshold(), st.integers(0, 60))
def test_free_action_m_range_integral_threshold(params, n_max_extra):
    d, eps, c, n, t = params
    query = GeographyQuery(d, eps, c, (n + n_max_extra, 60))
    assert (n + query.n_of_eps) / (6 - eps) == t
    got = _region_outcome(free_action_region, query, 1)
    assert got == _region_outcome(reference_free_action_region, query, 1)
    column = [m for pn, m, _, _ in got if pn == n]
    assert t not in column
    assert column == list(range(t + d, 61, d))


# Small eps and c admit the class boundary m = d, where the block has
# chi_h = 1 and b2+ = 1.
SMALL = st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=12)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 7),
    st.one_of(st.tuples(EPS, C_EPS), st.tuples(SMALL, SMALL)),
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
)
def test_free_action_region_matches_per_point_blueprints(d, eps_c, bounds):
    query = GeographyQuery(d, *eps_c, bounds)
    got = _outcome(free_action_region, query)
    assert got == _outcome(reference_free_action_region, query)
    if isinstance(got, list):
        assert [k for _, _, k, _ in got] == [_closed_form_k(n, d) for n, _, _, _ in got]


def test_free_action_region_reaches_chi_h_one():
    query = GeographyQuery(2, Fraction(1, 12), Fraction(1, 12), (40, 8))
    points = _outcome(free_action_region, query)
    assert {m for _, m, _, _ in points} == {2, 4, 6, 8}
    assert points == _outcome(reference_free_action_region, query)


def test_free_action_region_matches_reference_blueprints():
    for query in (
        GeographyQuery(2, Fraction(1, 2), Fraction(10), (24, 30)),
        GeographyQuery(3, Fraction(3, 2), Fraction(5, 3), (30, 30)),
        GeographyQuery(5, Fraction(5), Fraction(1, 4), (40, 40)),
    ):
        got = _outcome(free_action_region, query)
        assert got and got == _outcome(reference_free_action_region, query)


def test_one_oracle_blueprint_per_class():
    # Two queries of one d, with another d between them: no class is
    # shared across calls or across d.
    queries = [
        GeographyQuery(2, Fraction(1, 2), Fraction(10), (24, 30)),
        GeographyQuery(3, Fraction(1, 2), Fraction(10), (36, 36)),
        GeographyQuery(2, Fraction(1, 2), Fraction(10), (24, 30)),
        GeographyQuery(5, Fraction(5), Fraction(1, 4), (40, 40)),
    ]
    calls = []
    real = geography.build_quotient_blueprint

    def recording(n, m, d, **kwargs):
        bp = real(n, m, d, **kwargs)
        calls.append((n, m, d, bp))
        return bp

    for query in queries:
        del calls[:]
        with mock.patch.object(geography, "build_quotient_blueprint", recording):
            points = free_action_region(query)
        d = query.d
        first = {}
        for p in points:
            first.setdefault(p.n % (2 * d), (p.n, p.m))
        assert len(first) == 2
        assert [(n, m) for n, m, _, _ in calls] == list(first.values())
        for n, m, call_d, bp in calls:
            assert call_d == d and bp.certificates[-1].inputs["k"] == _closed_form_k(n, d)
            assert [c.verdict for c in bp.certificates] == [
                "hitchin_thorpe_ok", "einstein_obstructed",
            ]
            for cert in bp.certificates:
                assert verify_certificate(cert) == []


def test_broken_block_record_raises_at_its_point():
    # The last point is no class's first: only its own arithmetic sees it.
    query = GeographyQuery(2, Fraction(1, 2), Fraction(10), (24, 30))
    last = free_action_region(query)[-1]
    broken_params = (last.m // 2, (3 * last.n) // 4 + 1, 0)
    build = registry.PRIMITIVES["BK"]

    def broken(params):
        info = build(params)
        if params != broken_params:
            return info
        rec = info.record
        return dataclasses.replace(info, record=InvariantRecord(rec.chi + 4, rec.tau, rec.b1))

    with mock.patch.dict(registry.PRIMITIVES, {"BK": broken}):
        with pytest.raises(AssertionError):
            free_action_region(query)
    assert free_action_region(query)[-1] == last


def test_point_leaving_its_class_raises():
    # d = 1: pi1 is trivial, the cover pattern and the CP2 stock of the
    # rewrite are gone.  The arithmetic holds there; the class predicate
    # d - 1 >= 1 does not, and the blueprint fails as well.
    assert quotient_arithmetic(2, 4, 2, Fraction(1, 2), Fraction(1, 2)).k == 1
    with pytest.raises(AssertionError, match="class predicates"):
        quotient_arithmetic(2, 4, 1, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(AssertionError):
        build_quotient_blueprint(2, 4, 1, EPS_PRIME, Fraction(1, 2))


def _evaluate_cache_after(*argv):
    evaluate.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", "free-actions", *argv]) == 0
    return evaluate.cache_info().currsize


def test_evaluate_cache_does_not_grow_with_the_region():
    large = _evaluate_cache_after("--d", "2", "--bounds", "76,62")
    small = _evaluate_cache_after("--d", "2", "--bounds", "38,30")
    assert large == small < 32


def test_homology_sphere_built_once_per_d():
    build = registry._build_homology_sphere
    build.cache_clear()
    reads = 0
    for d, bounds in ((2, (24, 30)), (3, (36, 36))):
        points = free_action_region(GeographyQuery(d, Fraction(1, 2), Fraction(10), bounds))
        assert len(points) > 1
        reads += len(points)  # one Sd(d) read per point
    info = build.cache_info()
    assert info.misses == 2 and info.hits >= reads - 2
    fresh = build.__wrapped__((3,))
    for _ in range(2):
        cached = registry.instantiate("Sd", (3,))
        assert (cached.record, cached.flags) == (fresh.record, fresh.flags)
    for call in range(1, 3):  # a failed build is not cached: it runs and raises again
        with pytest.raises(InvalidExpr):
            registry.instantiate("Sd", (0,))
        assert build.cache_info().misses == 2 + call


class TestFreeActionRegion:
    def test_divisibility_filter(self):
        query = GeographyQuery(2, Fraction(1, 2), Fraction(10), (8, 8))
        points = free_action_region(query)
        assert points and all(p.n % 2 == 0 and p.m % 2 == 0 for p in points)

    def test_monotone_in_bounds(self):
        small = GeographyQuery(2, Fraction(1, 2), Fraction(10), (8, 8))
        large = GeographyQuery(2, Fraction(1, 2), Fraction(10), (12, 12))
        small_pts = {(p.n, p.m) for p in free_action_region(small)}
        large_pts = {(p.n, p.m) for p in free_action_region(large)}
        assert small_pts <= large_pts

    def test_anti_monotone_in_c(self):
        lo = GeographyQuery(2, Fraction(1, 2), Fraction(5), (10, 10))
        hi = GeographyQuery(2, Fraction(1, 2), Fraction(20), (10, 10))
        assert {(p.n, p.m) for p in free_action_region(hi)} <= {
            (p.n, p.m) for p in free_action_region(lo)
        }

    def test_certificates_verify(self):
        query = GeographyQuery(3, Fraction(1, 2), Fraction(10), (12, 12))
        points = free_action_region(query)
        assert points
        for point in points:
            bp = build_quotient_blueprint(point.n, point.m, 3, query.eps_prime, query.c_of_eps)
            assert point.verdict == bp.certificates[-1].verdict
            for cert in bp.certificates:
                assert verify_certificate(cert) == []


class TestQuotientBlueprint:
    def test_reference_point(self):
        bp = build_quotient_blueprint(2, 10, 2, EPS_PRIME, config.C_EPS)
        assert bp.certificates[-1].inputs["k"] == 1
        assert bp.quotient_record.c1sq == 1  # n/d
        assert bp.quotient_record.chi_h == 5  # m/d
        crec = evaluate(bp.cover).record
        assert crec.c1sq == 2 and crec.chi_h == 10
        assert str(bp.cover_normal_form.expr) == "19*CP2 # 97*CP2b"

    def test_smallest_point_arithmetic(self):
        # n = m = d: k = floor(3/2) + 1 - 1 = 1 (needs a small c to be
        # inside the geography region).
        for d in (2, 3, 5):
            bp = build_quotient_blueprint(d, d, d, EPS_PRIME, Fraction(1, 2))
            assert bp.certificates[-1].inputs["k"] == (3 * d) // (2 * d) + 1 - 1 == 1

    def test_cover_identities_symbolically(self):
        for n, m, d in ((2, 10, 2), (4, 8, 2), (3, 9, 3), (6, 12, 3), (9, 21, 3)):
            bp = build_quotient_blueprint(n, m, d, EPS_PRIME, config.C_EPS)
            crec = evaluate(bp.cover).record
            assert crec.c1sq == n and crec.chi_h == m
            parts = dict(bp.cover_normal_form.expr.parts)
            assert parts[Primitive("CP2")] == 2 * m - 1
            assert parts[Primitive("CP2b")] == 10 * m - n - 1

    def test_excess_dominates_block(self):
        for n, m, d in ((2, 10, 2), (6, 12, 3), (12, 24, 4)):
            bp = build_quotient_blueprint(n, m, d, EPS_PRIME, config.C_EPS)
            f = (3 * n) // (2 * d)
            assert Fraction(bp.certificates[-1].inputs["k"]) > Fraction(f + 1, 3)

    def test_rejections(self):
        with pytest.raises(InfeasiblePoint):
            build_quotient_blueprint(3, 10, 2, EPS_PRIME, config.C_EPS)  # d does not divide n
        with pytest.raises(InfeasiblePoint):
            build_quotient_blueprint(-2, 10, 2, EPS_PRIME, config.C_EPS)
        with pytest.raises(InfeasiblePoint):
            build_quotient_blueprint(2, 2, 2, EPS_PRIME, config.C_EPS)  # outside the region (c too big)


class TestKeQuotientFamily:
    def test_reference_invariants(self):
        bp = ke_quotient_family(3, 1)
        assert bp.quotient_record.c1sq == 196
        assert bp.quotient_record.chi_h == 41
        assert Fraction(196, 41) < 5

    def test_printed_closed_form_delta(self):
        for d in (3, 5, 7):
            for i in (1, 3, 5):
                bp = ke_quotient_family(d, i)
                assert bp.quotient_record.chi_h == ke_corrected_chi_h(d, i)
                assert ke_printed_chi_h(d, i) - bp.quotient_record.chi_h == d * (d - 1)

    def test_flags(self):
        flags = evaluate(ke_quotient_family(3, 1).quotient).flags
        assert flags.parity is Parity.ODD
        assert flags.w2type is W2Type.I
        assert str(flags.pi1) == "Z/3"

    def test_even_family_congruence(self):
        for d in (2, 4, 6):
            for i in (1, 3, 5):
                bp = ke_quotient_family(d, i)
                tau = bp.quotient_record.tau
                assert tau % 8 != 0
                c1, c2, tau2 = printed_even_invariants(d, i)
                assert tau == tau2 and bp.quotient_record.c1sq == c1

    def test_bad_parity(self):
        with pytest.raises(BadParity):
            ke_quotient_family(3, 2)

    def test_family_start_and_ratio(self):
        starts = {d: ke_family_start(d) for d in (2, 3, 5, 7)}
        assert starts == {2: 33, 3: 1, 5: 11, 7: 19}
        for d, start in starts.items():
            for i in range(start, start + 8, 2):
                bp = ke_quotient_family(d, i)
                if d % 2 == 1:
                    rec = bp.quotient_record
                    assert Fraction(rec.c1sq) <= 5 * rec.chi_h
                else:
                    c1, c2, _ = printed_even_invariants(d, i)
                    assert Fraction(12 * c1, c1 + c2) <= 5

    def test_ratio_limits(self):
        # c1^2/chi_h approaches 4 for odd d and 24/5 for the even family.
        i = 20001
        odd_ratio = Fraction(4 * (3 * 2 + 3 * i - 2) ** 2) / ke_corrected_chi_h(3, i)
        assert abs(odd_ratio - 4) < Fraction(1, 100)
        c1, c2, _ = printed_even_invariants(2, i)
        even_ratio = Fraction(12 * c1, c1 + c2)
        assert abs(even_ratio - Fraction(24, 5)) < Fraction(1, 100)


def reference_ke_family_start(d):
    """The scan ke_family_start replaced: down from the odd index 2001,
    the last index before the first member with c1^2 > 5 chi_h."""
    top = 2001
    start = None
    for i in range(top, 0, -2):
        if d % 2 == 1:
            c1sq = 4 * (d * (d - 1) + d * i - 2) ** 2
            ok = Fraction(c1sq) <= 5 * ke_corrected_chi_h(d, i)
        else:
            c1sq, c2, _ = printed_even_invariants(d, i)
            ok = Fraction(12 * c1sq, c1sq + c2) <= 5
        if not ok:
            return start if start is not None else top + 2
        start = i
    return start


def test_ke_family_start_matches_scan():
    for d in range(2, 16):
        assert ke_family_start(d) == reference_ke_family_start(d), d


class TestExoticPartners:
    def test_partner_bounds_and_homeo(self):
        bp = exotic_partner_family(3, 1, 1)
        chi_h = bp.quotient_record.chi_h
        assert bp.certificates[-1].inputs["k"] >= 3 * chi_h
        verdicts = [c.verdict for c in bp.certificates]
        assert "homeomorphic" in verdicts and "einstein_obstructed" in verdicts
        assert evaluate(bp.cover).record.chi == 3 * bp.quotient_record.chi

    def test_below_start_rejected(self):
        with pytest.raises(InfeasiblePoint):
            exotic_partner_family(5, 1, 1)  # start index for d=5 is 11

    def test_even_d_rejected(self):
        with pytest.raises(InfeasiblePoint):
            exotic_partner_family(2, 33, 1)


def _k3_s2xs2(bp):
    """The K3 and S2xS2 counts of a spin family member's cover normal form."""
    counts = dict(bp.cover_normal_form.expr.parts)
    assert set(counts) == {Primitive("K3"), Primitive("S2xS2")}
    return counts[Primitive("K3")], counts[Primitive("S2xS2")]


class TestSpinFamilies:
    def test_cover_counts(self):
        for d in (2, 3):
            for n in (1, 2):
                first, second = spin_sum_families(d, n, 1)
                assert _k3_s2xs2(first) == (d * (n + 5), d * (n + 7) - 1)
                assert _k3_s2xs2(second) == (d * (2 * n + 5), d * (2 * n + 6) - 1)

    def test_chi_multiplicativity(self):
        first, _ = spin_sum_families(2, 1, 1)
        assert evaluate(first.cover).record.chi == 296 == 2 * first.quotient_record.chi
        assert first.quotient_record.chi == 148

    def test_j_independence(self):
        a, _ = spin_sum_families(2, 1, 1)
        b, _ = spin_sum_families(2, 1, 5)
        assert a.cover_normal_form.expr == b.cover_normal_form.expr

    @pytest.mark.parametrize("pieces, fourth", [
        # thm1.8's first family at n = 1 and 2: b2+ sums 25 and 29.
        ((Primitive("X442"), Primitive("Y", (1,)), Primitive("E", (2,))), "K3"),
        ((Primitive("X442"), Primitive("Y", (1,)), Primitive("E", (4,))), "E(4)"),
        # thm1.7's spin sums at chi_G = 24 and 48: b2+ sums 37 and 45.
        ((Primitive("Xk", (2,)), FiberSum(Primitive("XG", (24, -16, "G")), Primitive("E", (2,)), 1),
          Primitive("Y", (1,))), "E(4)"),
        ((Primitive("Xk", (2,)), FiberSum(Primitive("XG", (48, -32, "G")), Primitive("E", (4,)), 1),
          Primitive("Y", (1,))), "E(4)"),
    ])
    def test_fourth_congruence_piece(self, pieces, fourth):
        piece = fourth_congruence_piece(pieces)
        assert str(piece) == fourth
        b2plus = sum(int(evaluate(p).record.b2plus) for p in (*pieces, piece))
        assert b2plus % 8 == 4

    def test_wall_constant_guard(self):
        with pytest.raises(InfeasiblePoint):
            spin_sum_families(1, 1, 1)  # d <= WALL_N0


class TestGroupFamily:
    def test_blowup_bounds(self):
        c1sq = evaluate(Primitive("Xk", (1,))).record.c1sq
        assert c1sq == 8
        with pytest.raises(BadP):
            group_family(24, -16, "G", 1, 8, 1)  # boundary (strict)
        with pytest.raises(BadP):
            group_family(24, -16, "G", 1, 24, 1)
        bp = group_family(24, -16, "G", 1, 9, 1)
        assert bp.quotient_record.c1sq == 8 + 16 - 9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blowup_range_is_where_bad_p_stops(self, k):
        low, high = blowup_range(k)
        assert high == evaluate(Primitive("Xk", (k,))).record.c1sq + 16
        assert low == Fraction(high, 3)
        least, most = low.numerator // low.denominator + 1, high - 1
        for p in (least - 1, most + 1):
            with pytest.raises(BadP):
                group_family(24, -16, "G", k, p, 1)
        for p in (least, most):
            assert group_family(24, -16, "G", k, p, 1).certificates[-1].inputs["k"] == p

    def test_group_label_and_verdicts(self):
        bp = group_family(24, -16, "Dihedral7", 2, 20, 3)
        assert "XG(24,-16,Dihedral7)" in str(bp.quotient)
        assert str(evaluate(bp.quotient).flags.pi1) == "Dihedral7"
        assert [c.verdict for c in bp.certificates] == [
            "hitchin_thorpe_ok",
            "einstein_obstructed",
        ]

    def test_structures_share_invariants(self):
        a = group_family(24, -16, "G", 1, 10, 1)
        b = group_family(24, -16, "G", 1, 10, 9)
        assert a.quotient_record == b.quotient_record
