"""Term trees: constructor checks; interning: one live node per class
and field values, so that ``==`` is ``is`` and no hash walks the tree;
and printing, which walks the print templates without recursion."""

import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fourcalc import expr as expr_module
from fourcalc.errors import InvalidExpr, NegativeDegree
from fourcalc.evaluate import evaluate
from fourcalc.expr import (
    BicyclicCover,
    ConnectedSum,
    CyclicCover,
    DivisorClass,
    FiberSum,
    LogTransform,
    Primitive,
    Quotient,
    connected_sum_of,
)
from fourcalc.parser import parse_dsl

from .reference_printer import reference_str
from .work import line_events

LEAVES = [
    Primitive("CP2"),
    Primitive("K3"),
    Primitive("E", (2,)),
    Primitive("XG", (24, -16, "G")),
    CyclicCover("CP2", 2, DivisorClass("CP2", (8,))),
    BicyclicCover(3, 2, 3, 3, 3, 3),
]


CP2_OCTIC = DivisorClass("CP2", (8,))
BICYCLIC = (3, 2, 3, 3, 3, 3)

# Each node constructor is the one home of its parameter checks: the
# cover formulas trust the nodes they are given.
REJECTED = [
    *(
        (f"bicyclic parameter {i} at 0", NegativeDegree,
         lambda i=i: BicyclicCover(*BICYCLIC[:i], 0, *BICYCLIC[i + 1:]))
        for i in range(6)
    ),
    ("cover degree 0", NegativeDegree, lambda: CyclicCover("CP2", 0, CP2_OCTIC)),
    ("branch on another base", InvalidExpr,
     lambda: CyclicCover("CP2", 2, DivisorClass("CP1xCP1", (2, 2)))),
    ("divisor base", InvalidExpr, lambda: DivisorClass("CP3", (1, 1))),
    ("divisor arity", InvalidExpr, lambda: DivisorClass("CP2", (1, 2))),
    ("negative divisor degree", NegativeDegree, lambda: DivisorClass("CP2", (-1,))),
    ("quotient degree 0", NegativeDegree, lambda: Quotient(BicyclicCover(*BICYCLIC), 0)),
    ("unknown action", InvalidExpr,
     lambda: Quotient(BicyclicCover(*BICYCLIC), 3, "twisted")),
    ("fiber-sum genus -1", NegativeDegree,
     lambda: FiberSum(Primitive("K3"), Primitive("K3"), -1)),
    ("log multiplicity 0", NegativeDegree, lambda: LogTransform(Primitive("K3"), 0)),
    ("empty sum", InvalidExpr, lambda: ConnectedSum(())),
    ("zero multiplicity", InvalidExpr, lambda: ConnectedSum(((Primitive("K3"), 0),))),
    ("nested sum", InvalidExpr,
     lambda: ConnectedSum(((ConnectedSum(((Primitive("K3"), 2),)), 1),))),
    # Every child of a composite kind is a node: text would print as part
    # of the template, and evaluation would fail on it.
    ("quotient of text", InvalidExpr, lambda: Quotient("K3", 2)),
    ("sum of a number", InvalidExpr, lambda: ConnectedSum(((3, 1),))),
    ("fiber sum of text on the left", InvalidExpr,
     lambda: FiberSum("x", Primitive("K3"), 1)),
    ("fiber sum of text on the right", InvalidExpr,
     lambda: FiberSum(Primitive("K3"), "x", 1)),
    ("log transform of None", InvalidExpr, lambda: LogTransform(None, 3)),
    # Every numeric parameter is an int and not a bool: a float would make
    # the invariants inexact, and text or a bool would print as a number.
    ("fractional multiplicity", InvalidExpr,
     lambda: ConnectedSum(((Primitive("K3"), 1.5), (Primitive("CP2"), 1)))),
    ("text multiplicity", InvalidExpr, lambda: ConnectedSum(((Primitive("K3"), "2"),))),
    ("bool quotient degree", InvalidExpr, lambda: Quotient(Primitive("K3"), True)),
    ("float fiber-sum genus", InvalidExpr,
     lambda: FiberSum(Primitive("K3"), Primitive("K3"), 1.0)),
    ("float log multiplicity", InvalidExpr, lambda: LogTransform(Primitive("E", (2,)), 2.0)),
    ("bool cover degree", InvalidExpr, lambda: CyclicCover("CP2", True, CP2_OCTIC)),
    *(
        (f"bicyclic parameter {i} a float", InvalidExpr,
         lambda i=i: BicyclicCover(*BICYCLIC[:i], 3.0, *BICYCLIC[i + 1:]))
        for i in range(6)
    ),
    ("float divisor degree", InvalidExpr, lambda: DivisorClass("CP2", (8.0,))),
]


@pytest.mark.parametrize("build, error", [(b, e) for _, e, b in REJECTED],
                         ids=[name for name, _, _ in REJECTED])
def test_constructors_reject_out_of_range_parameters(build, error):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error


def _build(recipe):
    """A tree from a nested tuple recipe, built afresh on every call."""
    head = recipe[0]
    if head == "leaf":
        return dataclasses.replace(LEAVES[recipe[1]])
    if head == "quotient":
        return Quotient(_build(recipe[1]), recipe[2], recipe[3])
    if head == "sum":
        return connected_sum_of(*[(_build(part), mult) for part, mult in recipe[1]])
    if head == "fibersum":
        return FiberSum(_build(recipe[1]), _build(recipe[2]), recipe[3])
    return LogTransform(_build(recipe[1]), recipe[2])


RECIPES = st.recursive(
    st.tuples(st.just("leaf"), st.integers(0, len(LEAVES) - 1)),
    lambda inner: st.one_of(
        st.tuples(st.just("quotient"), inner, st.integers(1, 5),
                  st.sampled_from(["standard", "weighted"])),
        st.tuples(st.just("sum"), st.lists(st.tuples(inner, st.integers(1, 3)),
                                           min_size=1, max_size=3)),
        st.tuples(st.just("fibersum"), inner, inner, st.integers(0, 3)),
        st.tuples(st.just("logt"), inner, st.integers(2, 5)),
    ),
    max_leaves=12,
)


@given(RECIPES)
def test_equal_trees_built_apart_hash_alike(recipe):
    first, second = _build(recipe), _build(recipe)
    assert first is second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1


E2 = Primitive("E", (2,))


def _deep(step, depth):
    node = E2
    for _ in range(depth):
        node = step(node)
    return node


# Each deep tree with its text as a function of its depth, and the chi
# and tau of its evaluation.
DEEP = [
    (lambda node: LogTransform(node, 3),
     lambda n: "logt(" * n + "E(2)" + ",3)" * n, lambda n: (24, -16)),
    (lambda node: FiberSum(node, E2, 1),
     lambda n: "fibersum(" * n + "E(2)" + ",E(2),g=1)" * n, lambda n: (24 * (n + 1), -16 * (n + 1))),
]


@pytest.mark.parametrize("step, text, record", DEEP, ids=["log-transform tower", "fiber-sum chain"])
def test_deep_trees_built_apart_are_one_node(step, text, record):
    # Neither hash, ==, str nor evaluate walks the tree by recursion, so
    # depth needs no raised recursion limit.  Evaluating the tower takes
    # about a second: each level copies its labels.
    first, second = _deep(step, 10_000), _deep(step, 10_000)
    assert first is second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert str(first) == text(10_000)
    rec = evaluate(first).record
    assert (rec.chi, rec.tau) == record(10_000)


def test_deepcopy_of_a_deep_tree_is_the_tree():
    # Nodes are immutable and interned, so a deep copy is the node itself,
    # at any depth.
    tower = _deep(DEEP[0][0], 2_000)
    assert copy.deepcopy(tower) is tower


@pytest.mark.parametrize("step", [step for step, _, _ in DEEP],
                         ids=["log-transform tower", "fiber-sum chain"])
def test_pickle_and_repr_of_a_deep_tree_do_not_recurse(step):
    # A tree pickles as the post-order list of its composite nodes, and
    # repr walks it with an explicit stack, so both work at the default
    # recursion limit.
    tree = _deep(step, 10_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        assert pickle.loads(pickle.dumps(tree)) is tree
        text = repr(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert text.count(f"{type(tree).__name__}(") == 10_000


def test_repr_reads_like_the_dataclass_repr():
    tree = connected_sum_of(
        (LogTransform(Primitive("E", (2,)), 3), 2),
        (Quotient(BicyclicCover(3, 2, 3, 3, 3, 3), 3, "weighted"), 1),
        (FiberSum(Primitive("K3"), Primitive("K3"), 1), 1),
    )
    assert repr(tree) == (
        "ConnectedSum(parts=((LogTransform(inner=Primitive(name='E', params=(2,)), "
        "multiplicity=3), 2), (Quotient(inner=BicyclicCover(d=3, p=2, a=3, b=3, m=3, n=3), "
        "d=3, action='weighted'), 1), (FiberSum(left=Primitive(name='K3', params=()), "
        "right=Primitive(name='K3', params=()), genus=1), 1)))"
    )
    assert repr(ConnectedSum(((Primitive("K3"), 2),))) == (
        "ConnectedSum(parts=((Primitive(name='K3', params=()), 2),))"
    )


def test_printing_costs_linear_work():
    # A walk that printed a subtree again at each level above it would
    # make both quadratic, with a ratio of about 4 between depths 200 and 100.
    for step, _, _ in DEEP:
        shallow, deep = _deep(step, 100), _deep(step, 200)
        ratio = line_events(expr_module, lambda: str(deep)) / line_events(
            expr_module, lambda: str(shallow)
        )
        assert ratio < 2.3, ratio


@given(RECIPES)
def test_copies_keep_equality_and_hash(recipe):
    tree = _build(recipe)
    value = hash(tree)
    for other in (
        copy.copy(tree),
        copy.deepcopy(tree),
        pickle.loads(pickle.dumps(tree)),
        dataclasses.replace(tree),
    ):
        assert other == tree and hash(other) == value


@given(RECIPES)
def test_copies_are_the_interned_node(recipe):
    tree = _build(recipe)
    # The interning key and the pickle state hold the fields alone.
    assert list(vars(tree)) == [f.name for f in dataclasses.fields(tree)]
    assert copy.copy(tree) is tree
    assert copy.deepcopy(tree) is tree
    assert pickle.loads(pickle.dumps(tree)) is tree
    assert dataclasses.replace(tree) is tree


def _check_printing(tree):
    """The printer gives the recursive printer's text, which parses back
    to the tree itself."""
    text = str(tree)
    assert text == reference_str(tree)
    assert parse_dsl(text) is tree


@given(RECIPES)
def test_printed_tree_parses_to_the_same_node(recipe):
    _check_printing(_build(recipe))


# Leaves of every kind, each valid for the registry and the parser.
PRIMITIVES = st.sampled_from([
    Primitive("CP2"), Primitive("CP2b"), Primitive("S2xS2"), Primitive("K3"), Primitive("S1xS3"),
    Primitive("S4"), Primitive("X442"), Primitive("XG", (24, -16, "G")), Primitive("FgProd", (2, 1)),
    Primitive("BK", (10, 8, 0)),
]) | st.builds(
    Primitive, st.sampled_from(["E", "Sd", "Xk", "Y"]), st.tuples(st.integers(2, 6)),
)
COVERS = st.builds(
    lambda d, k: CyclicCover("CP2", d, DivisorClass("CP2", (d * k,))),
    st.integers(1, 4), st.integers(1, 4),
) | st.builds(
    lambda d, p, q: CyclicCover("CP1xCP1", d, DivisorClass("CP1xCP1", (d * p, d * q))),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
) | st.builds(BicyclicCover, *[st.integers(1, 4)] * 6)


def _composites(inner):
    return (
        st.builds(Quotient, inner, st.integers(1, 5), st.sampled_from(["standard", "weighted"]))
        | st.builds(lambda parts: connected_sum_of(*parts),
                    st.lists(st.tuples(inner, st.integers(1, 3)), min_size=1, max_size=4))
        | st.builds(FiberSum, inner, inner, st.integers(0, 3))
        | st.builds(LogTransform, inner, st.integers(2, 5))
    )


WRAPS = [
    lambda node: LogTransform(node, 3),
    lambda node: Quotient(node, 2),
    lambda node: FiberSum(node, E2, 1),
    lambda node: connected_sum_of((node, 2), (Primitive("CP2b"), 1)),
]


def _wrapped(tree, wraps, depth):
    for level in range(depth):
        tree = wraps[level % len(wraps)](tree)
    return tree


# Trees over all seven node kinds, some wrapped in up to 280 levels of
# one-child constructors and sums.
TREES = st.builds(
    _wrapped,
    st.recursive(PRIMITIVES | COVERS, _composites, max_leaves=12),
    st.lists(st.sampled_from(WRAPS), min_size=1, max_size=4),
    st.integers(0, 280),
)


@given(TREES)
def test_printer_agrees_with_the_recursive_printer(tree):
    _check_printing(tree)


def test_rejected_nodes_leave_nothing_in_the_table():
    live = list(expr_module._LIVE.values())
    for _, error, build in REJECTED:
        with pytest.raises(error):
            build()
    gc.collect()
    assert sorted(map(id, expr_module._LIVE.values())) == sorted(map(id, live))


def test_table_drops_a_tree_with_its_last_reference():
    live = len(expr_module._LIVE)
    tree = FiberSum(LogTransform(Primitive("Sd", (987_654,)), 7), Primitive("E", (987_655,)), 3)
    assert len(expr_module._LIVE) == live + 4
    del tree
    gc.collect()
    assert len(expr_module._LIVE) == live


def test_unpickled_tree_hashes_right_in_another_process(tmp_path):
    # String hashes differ between processes: a hash carried in the
    # pickle would disagree with the receiving process's own trees.
    tree = connected_sum_of(
        (FiberSum(Primitive("E", (2,)), Primitive("E", (3,)), 1), 1),
        (Quotient(BicyclicCover(3, 2, 3, 3, 3, 3), 3), 2),
    )
    hash(tree)
    path = tmp_path / "tree.pickle"
    path.write_bytes(pickle.dumps(tree))
    script = (
        "import pickle, sys\n"
        "from fourcalc.parser import parse_dsl\n"
        "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "fresh = parse_dsl(sys.argv[2])\n"
        "assert loaded == fresh and hash(loaded) == hash(fresh), 'hash differs'\n"
        "assert {fresh: 1}[loaded] == 1\n"
    )
    src = str(Path(expr_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tree)],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
