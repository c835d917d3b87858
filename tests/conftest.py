"""Shared test fixtures."""

import pytest

from fourcalc.evaluate import evaluate
from fourcalc.registry import PRIMITIVES


@pytest.fixture(autouse=True)
def primitive_table_unchanged():
    """Fail a test that leaves the primitive table changed, and restore the
    table, so that no declaration leaks into a later test.  A test
    declares a block with a scoped ``mock.patch.dict`` on the table; the
    evaluations cached while it was declared are cleared after the test."""
    before = dict(PRIMITIVES)
    yield
    evaluate.cache_clear()
    changed = sorted(
        name for name in PRIMITIVES.keys() | before.keys()
        if PRIMITIVES.get(name) is not before.get(name)
    )
    if changed:
        PRIMITIVES.clear()
        PRIMITIVES.update(before)
        pytest.fail(f"the test left the primitive table changed: {', '.join(changed)}")
