"""The facts an Evaluation carries for the fiber-sum and log-transform
rules: each node sets them from its direct children, so they agree with
the syntax-tree walkers that used to recompute them, and a tower or a
chain costs work linear in its depth.  The fundamental group and the
Seiberg-Witten flags of log-transform towers read those facts."""

from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fourcalc.evaluate as evaluate_module
from fourcalc.errors import AdmissibilityFail, FourcalcError, MissingCapability
from fourcalc.evaluate import _ELLIPTIC, _SC_COMPLEMENT, evaluate
from fourcalc.expr import FiberSum, LogTransform, Primitive, Quotient, connected_sum_of
from fourcalc.flags import NO, UNKNOWN, YES, GroupLabel
from fourcalc.parser import parse_dsl

from .work import line_events

# Reference: the walkers the evaluator used before the facts moved into
# Evaluation, kept verbatim.


def _named(sub, names):
    while isinstance(sub, LogTransform):
        sub = sub.inner
    return isinstance(sub, Primitive) and sub.name in names


def _multiple_fibers(sub):
    count = evens = 0
    while isinstance(sub, LogTransform):
        if sub.multiplicity > 1:
            count += 1
            evens += sub.multiplicity % 2 == 0
        sub = sub.inner
    if not _named(sub, _ELLIPTIC):
        return None
    return count + (sub.name == "Y"), evens


def _carries_group_block(sub):
    if isinstance(sub, Primitive):
        return sub.name == "XG"
    if isinstance(sub, FiberSum):
        return _carries_group_block(sub.left) or _carries_group_block(sub.right)
    if isinstance(sub, LogTransform):
        return _carries_group_block(sub.inner)
    return False


def _fiber_gcd(sub):
    """The gcd of the multiplicities of the multiple fibers; Y(j) is E(2)_{2j+1}."""
    value = 0
    while isinstance(sub, LogTransform):
        value = gcd(value, sub.multiplicity) if sub.multiplicity > 1 else value
        sub = sub.inner
    return gcd(value, 2 * sub.params[0] + 1) if sub.name == "Y" else value


LEAVES = [
    Primitive("E", (1,)),
    Primitive("E", (2,)),
    Primitive("E", (4,)),
    Primitive("K3"),
    Primitive("Y", (1,)),
    Primitive("Y", (2,)),
    Primitive("XG", (24, -16, "G")),
    Primitive("X442"),
    Primitive("FgProd", (1, 1)),
]

LEAF = st.integers(0, len(LEAVES) - 1)
# A partner of a fiber sum along a torus: a leaf under up to two log
# transforms.
PARTNER = st.tuples(LEAF, st.lists(st.integers(1, 5), max_size=2))
STEP = st.one_of(
    st.tuples(st.just("logt"), st.integers(1, 6)),
    st.tuples(st.just("fibersum"), st.booleans(), PARTNER),
    st.tuples(st.just("quotient1")),
)


def _tower(base, multiplicities):
    for m in multiplicities:
        base = LogTransform(base, m)
    return base


def _apply(step, tree, wrap):
    """One level on top of ``tree``; ``quotient(X,1)`` levels only when ``wrap``."""
    if step[0] == "logt":
        return LogTransform(tree, step[1])
    if step[0] == "quotient1":
        return Quotient(tree, 1) if wrap else tree
    _, on_left, (leaf, mults) = step
    partner = _tower(LEAVES[leaf], mults)
    if wrap:
        partner = Quotient(partner, 1)
    return FiberSum(tree, partner, 1) if on_left else FiberSum(partner, tree, 1)


@settings(max_examples=400, deadline=None)
@given(LEAF, st.lists(STEP, max_size=8))
# The XG block under a log transform, summed with a transformed K3.
@example(6, [("fibersum", True, (1, [])), ("logt", 3), ("fibersum", False, (3, [2]))])
def test_carried_facts_agree_with_the_tree_walkers(leaf, steps):
    # The tree with quotient(X,1) levels is evaluated, and the walkers read
    # the same tree without them: quotient(X,1) evaluates as X.
    wrapped = plain = LEAVES[leaf]
    for step in [None] + steps:
        if step is not None:
            wrapped, plain = _apply(step, wrapped, True), _apply(step, plain, False)
        try:
            ev = evaluate(wrapped)
        except FourcalcError:
            return  # e.g. a missing capability: nothing above it evaluates
        for names in (_ELLIPTIC, _SC_COMPLEMENT):
            assert (ev.tower_base in names) == _named(plain, names)
        assert (ev.fibers and ev.fibers[:2]) == _multiple_fibers(plain)
        if ev.fibers is not None:
            assert ev.fibers.gcd == _fiber_gcd(plain)
        assert ev.group_block == _carries_group_block(plain)


def _line_events(expr) -> int:
    """Line events the evaluation of ``expr`` runs in evaluate.py, cache cleared."""
    evaluate.cache_clear()
    hash(expr)  # the first hash of a deep tree is not evaluation work
    return line_events(evaluate_module, lambda: evaluate(expr))


def _log_tower(depth):
    tree = Primitive("E", (2,))
    for _ in range(depth):
        tree = LogTransform(tree, 3)
    return tree


def _fiber_chain(depth):
    tree = Primitive("XG", (24, -16, "G"))
    for _ in range(depth):
        tree = FiberSum(tree, Primitive("E", (4,)), 1)
    return tree


def test_towers_and_chains_cost_linear_work():
    # Rules that walked the tree below each level made both quadratic,
    # with ratios of about 3.6 and 3.3 between depths 200 and 100.
    for build in (_log_tower, _fiber_chain):
        ratio = _line_events(build(200)) / _line_events(build(100))
        assert ratio < 2.3, (build.__name__, ratio)


def test_cache_keeps_the_lru_cache_interface():
    # perfbench/run.py reads hits and misses, and tests read currsize.
    tree = parse_dsl("fibersum(E(2),E(2),g=1) # logt(E(2),3) # 2*CP2")
    evaluate(tree)
    evaluate.cache_clear()
    assert evaluate.cache_info().currsize == 0
    evaluate(tree)
    # One miss per distinct node: the sum, the fiber sum, E(2), the log
    # transform and CP2.
    assert evaluate.cache_info()[:2] == (0, 5) and evaluate.cache_info().currsize == 5
    evaluate(tree)
    assert evaluate.cache_info()[:2] == (1, 5)


def test_the_leftmost_failing_subtree_raises():
    # Whichever side fails nearer the root, the left subtree is evaluated
    # first, as the recursive evaluator did.
    no_action = LogTransform(Quotient(Primitive("K3"), 2), 3)  # AdmissibilityFail
    no_fiber = LogTransform(Primitive("CP2"), 2)  # MissingCapability
    for left, right, error in ((no_action, no_fiber, AdmissibilityFail),
                               (no_fiber, no_action, MissingCapability)):
        for tree in (connected_sum_of((left, 1), (right, 1)), FiberSum(left, right, 1)):
            evaluate.cache_clear()
            with pytest.raises(FourcalcError) as err:
                evaluate(tree)
            assert type(err.value) is error, tree


def test_a_tower_cites_its_sw_value_once():
    # Each level cited the SW value it keeps again, so a tower of depth n
    # held n + 1 SW records, and every cached level its own copy of them.
    for base in (Primitive("E", (2,)), Primitive("K3"), Primitive("Y", (1,))):
        provenance = [evaluate(_tower(base, [3] * depth)).flags.provenance for depth in (3, 50)]
        sw = [sum(p.field == "sw_nontrivial" for p in records) for records in provenance]
        assert sw == [2, 2], base
        assert len(provenance[1]) == len(provenance[0]), base


def _elliptic(n, *multiplicities):
    return _tower(Primitive("E", (n,)), multiplicities)


# Named surfaces with their fundamental groups from the literature: the
# orbifold group of the base sphere, <x_1..x_k | x_i^p_i, x_1...x_k>.
PI1_ORACLE = [
    ("Enriques surface E(1)_{2,2}", _elliptic(1, 2, 2), GroupLabel.cyclic(2)),
    ("Dolgachev surface E(1)_{2,3}", _elliptic(1, 2, 3), GroupLabel.trivial()),
    ("E(2)_{3,3}", _elliptic(2, 3, 3), GroupLabel.cyclic(3)),
    ("Y(1) = E(2)_3, transformed again", _tower(Primitive("Y", (1,)), [3]),
     GroupLabel.cyclic(3)),
    ("Y(2) = E(2)_5 with a fiber of multiplicity 10", _tower(Primitive("Y", (2,)), [10]),
     GroupLabel.cyclic(5)),
    ("E(2)_p", _elliptic(2, 7), GroupLabel.trivial()),
    ("multiplicity one is no multiple fiber", _elliptic(3, 1, 4, 1, 6), GroupLabel.cyclic(2)),
] + [
    (f"E({n})_{{{p},{q}}}", _elliptic(n, p, q), GroupLabel.cyclic(gcd(p, q)))
    for n in (1, 2, 3, 4) for p, q in ((2, 4), (4, 6), (3, 5), (6, 9), (5, 5))
]


@pytest.mark.parametrize("expr,group", [(e, g) for _, e, g in PI1_ORACLE],
                         ids=[name for name, _, _ in PI1_ORACLE])
def test_pi1_of_elliptic_surfaces_with_multiple_fibers(expr, group):
    flags = evaluate(expr).flags
    assert flags.pi1 == group
    assert any(p.field == "pi1" for p in flags.provenance)


def test_three_or_more_multiple_fibers_give_a_presented_group():
    for expr in (_elliptic(2, 2, 3, 5), _tower(Primitive("Y", (1,)), [2, 3, 3])):
        flags = evaluate(expr).flags
        assert flags.pi1 == GroupLabel.presented("orbifold group of the base sphere")
        assert flags.pi1.odd_order is None
        # One record where the group changes, none at the levels above.
        assert [p.rule for p in flags.provenance if p.field == "pi1"][-1] == "multiple-fiber-pi1"
    deep = evaluate(_elliptic(2, *[3] * 10)).flags.provenance
    assert sum(p.rule == "multiple-fiber-pi1" for p in deep) == 2  # Z/3, then the orbifold group


def test_enriques_surface_keeps_no_false_parity_or_w2_type():
    # The Enriques surface has an even form and w2-type III.
    flags = evaluate(_elliptic(1, 2, 2)).flags
    assert flags.spin is NO  # Rohlin: tau = -8
    assert (flags.parity.value, flags.w2type.value) == ("unknown", "unknown")


@pytest.mark.parametrize("expr,sw", [
    (_elliptic(1, 2, 3), UNKNOWN),  # Dolgachev: b2+ = 1, two multiple fibers
    (_elliptic(1, 3, 3, 5), UNKNOWN),
    (_elliptic(1, 5), NO),  # E(1)_p is E(1)
    (_elliptic(1, 2), NO),
    (_elliptic(2, 2, 3), YES),  # b2+ = 3
    (_elliptic(3, 2, 2, 5), YES),
])
def test_sw_of_log_transforms_at_b2_plus_one(expr, sw):
    flags = evaluate(expr).flags
    assert (flags.sw_nontrivial, flags.sw_mod2_nontrivial) == (sw, sw)
    if sw is UNKNOWN:
        fields = {p.field for p in flags.provenance}
        assert not fields & {"sw_nontrivial", "sw_mod2_nontrivial"}


@pytest.mark.parametrize("text, base, chi_tau", [
    ("cover(CP2,d=1,branch=3)", "CP2", (3, 1)),
    ("cover(CP1xCP1,d=1,branch=(2,4))", "S2xS2", (4, 0)),
])
def test_degree_one_cover_is_its_base(text, base, chi_tau):
    record = evaluate(parse_dsl(text)).record
    assert (record.chi, record.tau) == chi_tau
    assert record == evaluate(Primitive(base)).record
