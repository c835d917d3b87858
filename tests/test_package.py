"""The package namespace: re-exports leave the submodules reachable."""

import sys

import fourcalc
from fourcalc.expr import Primitive


def test_evaluate_names_the_module():
    import fourcalc.evaluate as module

    assert fourcalc.evaluate is sys.modules["fourcalc.evaluate"]
    assert module is sys.modules["fourcalc.evaluate"]
    module.evaluate.cache_clear()
    assert module.evaluate.cache_info().currsize == 0
    # The two functions the package does re-export stay.
    k3 = Primitive("K3")
    assert fourcalc.eval_invariants(k3) == fourcalc.InvariantRecord(24, -16, 0)
    assert fourcalc.infer_flags(k3).spin is fourcalc.TriState.YES
