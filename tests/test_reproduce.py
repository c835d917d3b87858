"""Reproduction reports: shape, golden comparison, display forms."""

from fourcalc.expr import Primitive, connected_sum_of
from fourcalc.reproduce import (
    TARGETS,
    compare_with_golden,
    display_form,
    run_target,
)


def test_display_form():
    expr = connected_sum_of((Primitive("CP2"), 15), (Primitive("CP2b"), 77))
    assert display_form(expr) == "15 CP2 # 77 CP2b"
    assert display_form(Primitive("K3")) == "K3"


def test_all_targets_match_goldens():
    for target in TARGETS:
        report = run_target(target)
        assert compare_with_golden(target, report.as_dict()) == [], target


def test_golden_mismatch_detected():
    report = run_target("prop1.3")
    report.values["normal_form"] = "16 CP2 # 77 CP2b"
    diffs = compare_with_golden("prop1.3", report.as_dict())
    assert diffs and any("values" in d for d in diffs)


def test_reports_are_json_safe():
    # compare_with_golden compares as_dict() with the parsed golden file
    # directly, so the payload must be exactly its own JSON round trip:
    # no tuples, no Fractions, no non-string keys.
    import json

    for target in TARGETS:
        payload = run_target(target).as_dict()
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload, target
        assert payload["target"] == target
