"""Reproduction reports: shape, golden comparison, display forms."""

import pytest

from fourcalc import reproduce
from fourcalc.cli import main
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


@pytest.mark.parametrize("text, error", [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ('{"lines": [', "Expecting value: line 1 column 12 (char 11)"),
    ("golden", "Expecting value: line 1 column 1 (char 0)"),
])
def test_golden_that_is_not_json_is_a_mismatch(monkeypatch, tmp_path, capsys, text, error):
    # The README's regeneration command truncates the golden before the
    # report is compared with it: a golden mismatch, not a crash.
    golden = tmp_path / "prop1_3.json"
    golden.write_text(text, encoding="utf-8")
    monkeypatch.setattr(reproduce, "golden_path", lambda target: golden)
    diff = f"golden/prop1_3.json is not JSON: {error}"
    assert compare_with_golden("prop1.3", run_target("prop1.3").as_dict()) == [diff]
    assert main(["reproduce", "prop1.3", "--json"]) == 3
    assert capsys.readouterr().err == f"golden mismatch: {diff}\n"


def test_reports_are_json_safe():
    # compare_with_golden compares as_dict() with the parsed golden file
    # directly, so the payload must be exactly its own JSON round trip:
    # no tuples, no Fractions, no non-string keys.
    import json

    for target in TARGETS:
        payload = run_target(target).as_dict()
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload, target
        assert payload["target"] == target
