"""Term trees: constructor checks, and interning: one live node per class
and field values, so that ``==`` is ``is`` and no hash walks the tree."""

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


@pytest.mark.parametrize("step", [
    lambda node: LogTransform(node, 3),
    lambda node: FiberSum(node, Primitive("E", (2,)), 1),
], ids=["log-transform tower", "fiber-sum chain"])
def test_deep_trees_built_apart_are_one_node(step):
    # Neither hash nor == walks the tree, so depth needs no raised
    # recursion limit.
    def build():
        node = Primitive("E", (2,))
        for _ in range(10_000):
            node = step(node)
        return node

    first, second = build(), build()
    assert first is second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1


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
    assert copy.copy(tree) is tree
    assert copy.deepcopy(tree) is tree
    assert pickle.loads(pickle.dumps(tree)) is tree
    assert dataclasses.replace(tree) is tree


@given(RECIPES)
def test_printed_tree_parses_to_the_same_node(recipe):
    tree = _build(recipe)
    assert parse_dsl(str(tree)) is tree


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
