"""Term trees: equality and hashing of the recursive nodes, whose hash is
computed once and kept out of copied and pickled state."""

import copy
import dataclasses
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


def _generated_hash(node) -> int:
    """What the generated dataclass __hash__ returns: the field tuple's hash."""
    return hash(tuple(getattr(node, f.name) for f in dataclasses.fields(node)))


def test_first_hash_of_a_deep_tree_recurses_as_before():
    # One frame per level: a chain half the recursion limit deep hashes
    # from the top on its first call.
    node = Primitive("E", (2,))
    for _ in range(sys.getrecursionlimit() // 2 - 50):
        node = FiberSum(node, Primitive("E", (2,)), 1)
    assert hash(node) == _generated_hash(node)


@given(RECIPES)
def test_equal_trees_built_apart_hash_alike(recipe):
    first, second = _build(recipe), _build(recipe)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert hash(first) == _generated_hash(first)
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


def test_kept_hash_is_not_copied_or_pickled():
    tree = FiberSum(Quotient(Primitive("K3"), 2), LogTransform(Primitive("E", (2,)), 3), 1)
    summed = connected_sum_of((tree, 2), (Primitive("CP2"), 1))
    hash(summed)
    assert "_hash" in vars(summed) and "_hash" in vars(tree)
    for other in (copy.copy(summed), copy.deepcopy(summed), pickle.loads(pickle.dumps(summed))):
        assert "_hash" not in vars(other)
    assert "_hash" not in vars(pickle.loads(pickle.dumps(tree)))
    assert "_hash" not in vars(dataclasses.replace(tree))


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


@pytest.fixture
def field_hash_calls(monkeypatch):
    """The field tuples of the recursive nodes, in the order their hash
    is computed.  Every hash method of the expr module finds the builtin
    through the module's globals; a primitive's tuple starts with its
    name and is left out."""
    calls = []

    def counted(value):
        if not isinstance(value[0], str):
            calls.append(value)
        return hash(value)

    monkeypatch.setattr(expr_module, "hash", counted, raising=False)
    return calls


def test_deep_chain_hashes_each_node_once(field_hash_calls):
    depth = 2000
    chain = [Primitive("E", (2,))]
    for i in range(depth):
        chain.append(FiberSum(chain[-1], Primitive("E", (2 + i % 3,)), 1))
    for node in chain:  # level by level, as the evaluation cache does
        hash(node)
    assert field_hash_calls == [(node.left, node.right, node.genus) for node in chain[1:]]
    for node in chain:
        hash(node)
    assert len(field_hash_calls) == depth


def test_every_recursive_node_hashes_once(field_hash_calls):
    inner = Quotient(Primitive("K3"), 2)
    nodes = [
        inner,
        LogTransform(inner, 3),
        FiberSum(inner, Primitive("E", (2,)), 1),
        ConnectedSum(((inner, 2), (Primitive("CP2"), 1))),
    ]
    for _ in range(3):
        for node in nodes:
            hash(node)
    assert field_hash_calls == [
        (inner.inner, inner.d, inner.action),
        (inner, 3),
        (inner, Primitive("E", (2,)), 1),
        (nodes[3].parts,),
    ]
