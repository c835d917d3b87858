"""Command line interface: output shape, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from fourcalc import cli, geography, reproduce
from fourcalc.certificates import Certificate, Step
from fourcalc.cli import main
from fourcalc.reproduce import TARGETS, Report

from .reference_cli import (
    PATHS, TAILS, mismatches, parity_cases, parse_outcome, reference_build_parser,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_json_values(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "Xk(2)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["chi"] == 152 and data["tau"] == -96
        assert data["b2plus"] == "27"

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "K3")
        assert code == 0
        assert "chi      = 24" in out and "spin     = yes" in out

    def test_formal_chi_h_marker(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "K3 # K3")
        assert "(formal)" in out
        _, out, _ = run_cli(capsys, "eval", "K3")
        assert "(formal)" not in out

    def test_sw_of_sums(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "K3 # K3")
        assert "SW       = no (mod 2: unknown)" in out
        _, out, _ = run_cli(capsys, "eval", "--json", "K3 # CP2b")
        flags = json.loads(out)["flags"]
        assert flags["sw_nontrivial"] == "yes"
        rules = [p["rule"] for p in flags["provenance"] if p["field"] == "sw_nontrivial"]
        assert rules == ["sum-with-null-pieces"]

    def test_even_log_transform_of_elliptic_surface_is_not_spin(self, capsys):
        for text in ("logt(E(2),2)", "logt(logt(E(2),3),2)", "logt(logt(E(2),2),3)", "logt(Y(1),4)"):
            _, out, _ = run_cli(capsys, "eval", text)
            for line in ("spin     = no", "parity   = odd", "w2-type  = I"):
                assert line in out
        # Two even multiple fibers, or three fibers, in either order: pi1
        # can have 2-torsion that its label does not show, so no spin flag
        # is claimed (E(2)_{2,3,3} has pi1 of order 12 and spin cover E(24)).
        for text in (
            "logt(logt(E(2),2),2)",
            "logt(logt(logt(E(2),3),5),2)",
            "logt(logt(logt(E(2),2),3),3)",
            "logt(logt(logt(Y(1),2),3),3)",
        ):
            _, out, _ = run_cli(capsys, "eval", text)
            for line in ("spin     = unknown", "parity   = unknown", "w2-type  = unknown"):
                assert line in out

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "Nope(3)")
        assert code == 2 and "syntax error" in err

    def test_syntax_error_on_third_line(self, capsys):
        code, out, err = run_cli(capsys, "eval", "K3 #\n  CP2b #\n\t2*E(2) # )")
        assert code == 2 and out == ""
        assert err == "syntax error: expected a manifold, found ')' (line 3, column 11)\n"

    def test_unexpected_character_position(self, capsys):
        # The position is the bad character's, not the whitespace's before it.
        for text, position in (("K3 #    @", "line 1, column 9"), ("K3 #\n@", "line 2, column 1")):
            code, out, err = run_cli(capsys, "eval", text)
            assert code == 2 and out == ""
            assert err == f"syntax error: unexpected character '@' ({position})\n"

    def test_multiplicity_below_one_position_and_value(self, capsys):
        code, out, err = run_cli(capsys, "eval", "0*CP2")
        assert (code, out) == (2, "")
        assert err == "syntax error: multiplicity must be >= 1, found 0 (line 1, column 1)\n"

    def test_primitive_parameter_errors_name_the_block(self, capsys):
        for text in ("E(2,3)", "E(G)"):
            code, out, err = run_cli(capsys, "eval", text)
            assert (code, out) == (2, "")
            assert err == (
                f"syntax error: E takes one integer parameter, got {text} (line 1, column 1)\n"
            )

    def test_block_outside_its_realizable_range_is_positioned(self, capsys):
        code, out, err = run_cli(capsys, "eval", "CP2 # BK(10,203,1)")
        assert (code, out) == (2, "")
        assert err == "error: BK(10,203,1): b2 < |tau| (line 1, column 7)\n"

    def test_integer_literal_past_the_digit_limit_is_positioned(self, capsys):
        nines = "9" * 5000
        limit = sys.get_int_max_str_digits()
        for text, column in ((f"{nines}*CP2", 1), (f"E({nines})", 3)):
            code, out, err = run_cli(capsys, "eval", text)
            assert (code, out) == (2, "")
            assert err == (
                f"syntax error: integer literal of 5000 digits exceeds the limit of {limit} "
                f"(line 1, column {column})\n"
            )

    def test_sums_in_deeply_nested_parentheses(self, capsys):
        for depth in (600, 5000):
            text = "K3"
            for i in range(depth):
                text = f"({'CP2' if i % 3 == 0 else 'CP2b'} # {text})"
            code, out, _ = run_cli(capsys, "eval", text, "--json")
            assert code == 0
            cp2 = (depth + 2) // 3
            data = json.loads(out)
            assert (data["chi"], data["tau"]) == (24 + depth, -16 + cp2 - (depth - cp2))

    def test_cover_with_zero_branch_exit_2(self, capsys):
        for d in (1, 2):
            code, out, err = run_cli(capsys, "eval", f"cover(CP2, d={d}, branch=0)")
            assert (code, out) == (2, "")
            assert err == "error: cover not constructible: flexibility\n"

    def test_quotient_by_another_degree_than_the_cover_exit_2(self, capsys):
        for text, err in (
            ("quotient(bicyclic(3,2;3,3,3,3),5)",
             "error: the free action lives along the first cover: need d = 3\n"),
            ("quotient(cover(CP1xCP1,d=2,branch=(4,6)),3)", "error: need d = 2\n"),
        ):
            assert run_cli(capsys, "eval", text) == (2, "", err)

    def test_logt_multiplicity_below_one_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "logt(E(2),-3)")
        assert code == 2 and out == ""
        assert "syntax error" in err and "multiplicity" in err

    def test_group_block_negative_b1_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "XG(24,-16,G,-1)")
        assert (code, out) == (2, "")
        assert err == "syntax error: XG b1 must be >= 0 (line 1, column 1)\n"

    def test_rohlin_holds_at_positive_b1(self, capsys):
        code, out, err = run_cli(capsys, "eval", "XG(12,-8,G,1)")
        assert (code, out) == (2, "")
        assert err == (
            "error: XG(12,-8,G,1): declared spin with tau=-8 not divisible by 16 "
            "(Rohlin) (line 1, column 1)\n"
        )
        _, out, _ = run_cli(capsys, "eval", "fibersum(FgProd(1,1),E(1),g=1)")
        assert "b1       = unknown\n" in out and "spin     = no\n" in out
        assert "b2+/b2-  = unknown/unknown\n" in out


    def test_fiber_sum_reads_quotient_by_one_as_its_inner(self, capsys):
        for partner in ("K3", "quotient(K3,1)", "logt(quotient(K3,1),1)"):
            _, out, _ = run_cli(capsys, "eval", f"fibersum(XG(24,-16,G),{partner},g=1)")
            assert "pi1      = G\n" in out and "b1       = 0\n" in out
        _, out, _ = run_cli(capsys, "eval", "fibersum(quotient(XG(24,-16,G),1),E(2),g=1)")
        assert "pi1      = G\n" in out

    def test_a_crash_exits_3_on_one_line(self, monkeypatch, capsys):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_eval", crash)
        code, out, err = run_cli(capsys, "eval", "K3")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: RecursionError(") and err.count("\n") == 1

    def test_constructors_nest_to_any_depth(self, capsys):
        # In a separate process, from an argument as a shell passes it.  A
        # log-transform tower holds labels quadratic in its depth, so it
        # stays at 2,000 levels.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        for head, inner, tail, depth in (
            ("quotient(", "K3", ",1)", 10_000),
            ("logt(", "E(2)", ",3)", 2_000),
        ):
            text = head * depth + inner + tail * depth
            result = subprocess.run(
                [sys.executable, "-m", "fourcalc.cli", "eval", text, "--json"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (result.returncode, result.stderr) == (0, ""), head
            assert json.loads(result.stdout)["chi"] == 24
        # A 10,000-deep fiber-sum chain is 190 KB of text, longer than one
        # argument may be on Linux (128 KiB), so it is read in process.
        depth = 10_000
        text = "fibersum(" * depth + "E(2)" + ",E(2),g=1)" * depth
        code, out, _ = run_cli(capsys, "eval", text, "--json")
        assert code == 0
        assert json.loads(out)["chi"] == 24 * (depth + 1)


class TestChecks:
    def test_ht_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check", "ht", "K3")
        assert code == 0 and "hitchin_thorpe_ok" in out
        assert "2*24 + 3*(-16) == 0" in out

    def test_ht_violated_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "check", "ht", "2*S1xS3")
        assert code == 1 and "violated" in out

    def test_einstein_obstructed(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "einstein", "cover(CP2,d=2,branch=8) # CP2b # Sd(2)"
        )
        assert code == 0 and "einstein_obstructed" in out

    def test_einstein_no_split(self, capsys):
        code, out, _ = run_cli(capsys, "check", "einstein", "3*CP2b")
        assert code == 0 and "no_verdict" in out

    def test_homeo_exit_codes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "homeo", "Y(1)", "Y(2)")
        assert code == 0 and "homeomorphic" in out
        code, _, _ = run_cli(capsys, "check", "homeo", "CP2", "CP2b")
        assert code == 1

    def test_homeo_of_log_transform_towers_reads_their_pi1(self, capsys):
        for left, right, group in (
            ("logt(logt(E(1),2),2)", "CP2 # 9*CP2b", "Z/2"),
            ("logt(logt(E(2),3),3)", "K3", "Z/3"),
            ("logt(Y(1),3)", "K3", "Z/3"),
        ):
            code, out, err = run_cli(capsys, "check", "homeo", left, right)
            assert (code, err) == (1, "")
            lines = out.splitlines()
            assert lines[0] == "verdict: not_homeomorphic"
            assert f"  pi1: {group} vs 1" in lines

    def test_homeo_known_mismatch_with_unknown_w2_exit_1(self, capsys):
        # Parity and b2- differ; the right side's w2-type is unknown.
        code, out, err = run_cli(capsys, "check", "homeo", "CP2 # Sd(2)", "S2xS2 # Sd(2)")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "verdict: not_homeomorphic"
        assert "  b2minus-compare: 0 != 1" in lines and "  w2type: I vs unknown" in lines

    def test_homeo_equal_known_fields_unknown_w2_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "check", "homeo", "S2xS2 # Sd(2)", "S2xS2 # Sd(2)")
        assert (code, out) == (2, "")
        assert err == "error: w2-type unknown for S2xS2 # Sd(2)\n"


class TestRulesAtTheirBoundaries:
    """Each rule at the boundary it states, where a strict comparison, or
    a weaker one, would give another answer."""

    def test_lebrun_obstructs_at_equality(self, capsys):
        # X = BK(1,3,0) # Sd(2) has 2 chi + 3 tau = 3: k = 1 meets k + 4l >= 3/3.
        code, out, err = run_cli(capsys, "check", "einstein", "BK(1,3,0) # Sd(2) # CP2b")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "verdict: einstein_obstructed"
        assert "  blowup-excess: 1 + 4*0 >= 1/3 * (2*9 + 3*(-5))" in lines

    def test_b2_two_below_abs_tau_is_refused(self, capsys):
        # chi + tau even leaves no smaller gap: XG(0,0,G) has b2 = -2.
        assert run_cli(capsys, "eval", "XG(0,0,G)") == (
            2, "", "error: XG(0,0,G): b2 < |tau| (line 1, column 1)\n"
        )

    def test_parity_alone_decides_not_homeomorphic(self, capsys):
        # b2+, b2- and pi1 agree; the left side's w2-type is unknown.
        code, out, err = run_cli(capsys, "check", "homeo", "Sd(2) # S2xS2", "Sd(2) # CP2 # CP2b")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "verdict: not_homeomorphic"
        assert "  parity: even vs odd" in lines and "  w2type: unknown vs I" in lines

    def test_equal_keys_with_one_zero_betti_number_are_definite(self, capsys):
        for left, right in (("9*CP2b", "CP2b # 8*CP2b # S4"), ("9*CP2", "CP2 # 8*CP2 # S4")):
            assert run_cli(capsys, "check", "homeo", left, right) == (
                2, "", "error: equal keys on a definite form: the classification does not apply\n"
            )

    def test_quotient_of_a_cover_with_unknown_spin_keeps_it_unknown(self, capsys):
        code, out, err = run_cli(capsys, "eval", "quotient(bicyclic(2,2;2,2,2,2),2)")
        assert (code, err) == (0, "")
        assert "spin     = unknown\n" in out and "w2-type  = unknown\n" in out


class TestNormalizeAndEnumerate:
    def test_normalize(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "S2xS2 # CP2b")
        assert code == 0 and "CP2 # 2*CP2b" in out

    def test_normalize_log_transforms(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "logt(E(2),2) # S2xS2")
        assert (code, out) == (0, "normal form: S2xS2 # (logt(E(2),2))  (partial)\n")
        code, out, _ = run_cli(capsys, "normalize", "--json", "logt(E(2),2) # S2xS2")
        data = json.loads(out)
        assert (code, data["mode"], data["canonical"]) == (0, "nonspin", False)
        code, _, err = run_cli(capsys, "normalize", "X442 # logt(E(2),2)")
        assert code == 2 and "mixes spin-mode and non-spin-mode" in err
        code, out, _ = run_cli(capsys, "normalize", "logt(E(3),3)")
        assert (code, out) == (0, "normal form: logt(E(3),3)  (partial)\n")
        code, _, err = run_cli(capsys, "normalize", "logt(E(2),3) # CP2")
        assert code == 2 and "mixes spin-mode and non-spin-mode" in err

    def test_enumerate_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "free-actions", "--d", "2", "--bounds", "8,8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,k,verdict"
        assert lines[1] == "2,4,1,einstein_obstructed"

    def test_enumerate_free_actions_empty_from_eps_six(self, capsys):
        # eps >= 6 empties the region at any bounds; a huge c empties small ones.
        for option, value, bounds in (
            ("--eps", "6", "40,40"), ("--eps", "13/2", "40,40"), ("--c", "100", "8,8"),
        ):
            code, out, err = run_cli(
                capsys, "enumerate", "free-actions", "--d", "2", option, value,
                "--bounds", bounds,
            )
            assert (code, out, err) == (0, "n,m,k,verdict\n", "")

    def test_enumerate_bk(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "bk", "--eps-prime", "1", "--c", "100",
            "--bounds", "13,20",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x,y"
        assert "13,4" in rows and "13,18" not in rows

    def test_bk_csv_columns_write_the_points_given(self, monkeypatch, capsys):
        # Columns (x, top) that skip x = 2, have top 1 at x = 3, and are
        # clipped at Y = 7 at x = 4: column x holds the lines x,1 .. x,top.
        columns = [(1, 3), (3, 1), (4, 7)]
        monkeypatch.setattr(geography, "bk_columns", lambda *args: columns)
        code, out, _ = run_cli(capsys, "enumerate", "bk", "--bounds", "4,7")
        assert code == 0
        assert out == "x,y\n1,1\n1,2\n1,3\n3,1\n" + "".join(f"4,{y}\n" for y in range(1, 8))
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "enumerate", "bk", "--bounds", "0,0")
        assert (code, out) == (0, "x,y\n")

    def test_enumerate_bad_fraction_exit_2(self, capsys):
        for argv in (
            ("enumerate", "bk", "--bounds", "10,10", "--c", "x"),
            ("enumerate", "bk", "--bounds", "10,10", "--eps-prime", "1/0"),
            ("enumerate", "free-actions", "--d", "2", "--bounds", "10,10", "--eps", "1/0"),
            ("enumerate", "free-actions", "--d", "2", "--bounds", "10,10", "--c", "y"),
            # An empty value is malformed, not the default.
            ("enumerate", "free-actions", "--d", "2", "--eps=", "--bounds", "10,10"),
            ("enumerate", "bk", "--bounds", "10,10", "--eps-prime="),
            ("enumerate", "bk", "--bounds", "10,10", "--c="),
            ("enumerate", "free-actions", "--d", "2", "--bounds", "10,10", "--c", ""),
        ):
            code, out, err = run_cli(capsys, *argv)  # nothing may propagate
            assert code == 2 and out == ""
            assert err.startswith("bad --") and len(err.splitlines()) == 1
        assert err == "bad --c '': expected a fraction\n"


class TestReproduce:
    def test_reproduce_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "prop1.3")
        assert code == 0
        assert "normal form: 15 CP2 # 77 CP2b" in out
        assert "golden: ok" in out

    def test_reproduce_prints_the_golden_bytes(self, capsys):
        for target in reproduce.TARGETS:
            golden = reproduce.golden_path(target).read_text(encoding="utf-8")
            code, out, _ = run_cli(capsys, "reproduce", target, "--json")
            assert (code, out) == (0, golden), target
            code, out, _ = run_cli(capsys, "reproduce", target)
            lines = json.loads(golden)["lines"] + ["golden: ok"]
            assert (code, out) == (0, "".join(line + "\n" for line in lines)), target

    def test_reproduce_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce", "prop1.4", "--json")
        _, second, _ = run_cli(capsys, "reproduce", "prop1.4", "--json")
        assert first == second
        data = json.loads(first)
        assert data["values"]["normal_form"] == "23 CP2 # 116 CP2b"

    def test_failed_self_verification_exit_3(self, monkeypatch, capsys):
        def broken():
            report = Report("prop1.3")
            report.say("a report whose certificate does not check")
            report.certificates.append(
                Certificate("hitchin_thorpe_ok", (Step("ht-plus", "test", "1 >= 2"),))
            )
            return report

        monkeypatch.setitem(reproduce._BUILDERS, "prop1.3", broken)
        for argv in (("reproduce", "prop1.3"), ("reproduce", "prop1.3", "--json")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith("internal inconsistency: certificate self-verification failed")

    def test_unknown_target_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "thm9.9")
        assert code == 2 and "invalid choice" in err


def test_constants_are_not_options(capsys):
    # The existence constants are fixed; --set and --config are
    # usage errors wherever they appear.
    for argv in (
        ("--set", "eps=1/0", "eval", "K3"),
        ("eval", "K3", "--set", "eps=1/0"),
        ("normalize", "X442", "--set", "wall_n0=-1"),
        ("--config", "fourcalc.cfg", "reproduce", "thm1.5"),
        ("reproduce", "thm1.5", "--set", "c_eps=200"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: fourcalc")


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_readme_cli_commands_exit_0(capsys):
    lines = _readme_cli_lines()
    assert lines
    for line in lines:
        # The free-actions line ends in a shell comment.
        program, *argv = shlex.split(line, comments=True)
        assert program == "fourcalc"
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), line
        assert out, line


def test_closed_stdout_exits_2_without_traceback():
    # The reader leaves after one line of a long listing, as `| head -1`
    # does, or is gone before a short output is flushed at exit.  Stdout
    # is block-buffered, as it is for any pipe unless PYTHONUNBUFFERED is set.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for argv, lines_read in ((["enumerate", "bk", "--bounds", "300,300"], 1), (["eval", "K3"], 0)):
        read_end, write_end = os.pipe()
        if not lines_read:
            os.close(read_end)
        proc = subprocess.Popen(
            [sys.executable, "-m", "fourcalc.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_end)
        if lines_read:
            with os.fdopen(read_end, "rb") as reader:
                assert reader.readline() == b"x,y\n"
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == "error: output closed by its reader\n"


# --- the parser: lazily built commands against the eager reference ----

_WORDS = sorted({word for path in PATHS for word in path} | set(TARGETS) | {"thm9"})
_TOKENS = st.sampled_from(
    [word for tail in TAILS for word in tail]
    + _WORDS
    + ["K3", "CP2 # CP2b", "1/2", "0", "", "--d=x", "--bounds=4,5", "--c=1/3", "--eps-prime=x"]
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(PATHS)), st.lists(_TOKENS, max_size=6), st.booleans())
def test_parser_matches_the_eager_reference(path, tokens, accepted_first):
    # A path to any parser of the tree, then tokens that parser may or may
    # not accept, after or before a line it accepts.
    accepted = PATHS[path] or []
    argv = [*path, *accepted, *tokens] if accepted_first else [*path, *tokens, *accepted]
    assert parse_outcome(cli._build_parser, argv) == parse_outcome(reference_build_parser, argv)


def test_parser_matches_the_eager_reference_on_the_parity_cases():
    cases = parity_cases()
    assert mismatches(cases) == []
    # The cases reach every parser's help and both exit codes of parsing.
    outcomes = [parse_outcome(reference_build_parser, argv) for argv in cases]
    assert {code for code, _, _, _ in outcomes} == {0, 2}
    assert len({out for _, out, _, _ in outcomes if out}) == len(PATHS)


def _parser_work(monkeypatch, capsys, *argv):
    """The parsers ``main(argv)`` builds, by prog, and the arguments it
    declares beyond each parser's -h, as (prog, names)."""
    built, declared = [], []
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def counting_add_argument(self, *names, **kwargs):
        if names != ("-h", "--help"):
            declared.append((self.prog, names))
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    code = main(list(argv))
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 0
    return built, declared


def test_a_command_builds_only_its_branch(monkeypatch, capsys):
    # Each path, with a line it accepts or with -h, builds exactly the
    # parsers of the path's prefixes: the root, its command and its kind.
    for path, accepted in PATHS.items():
        built, _ = _parser_work(monkeypatch, capsys, *path, *(accepted or ["-h"]))
        assert built == [" ".join(("fourcalc", *path[:i])) for i in range(len(path) + 1)], path
    _, declared = _parser_work(monkeypatch, capsys, "eval", "K3")
    assert declared == [("fourcalc eval", ("expr",)), ("fourcalc eval", ("--json",))]
    built, declared = _parser_work(monkeypatch, capsys, "check", "ht", "K3")
    assert declared == [("fourcalc check ht", ("expr",)), ("fourcalc check ht", ("--json",))]
    # Every call builds its own parsers: nothing is kept between calls.
    assert _parser_work(monkeypatch, capsys, "check", "ht", "K3") == (built, declared)


_ROOT = Path(__file__).resolve().parent.parent


def _fresh(*args):
    """``python *args`` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import fourcalc.cli\n"
        "print(len(built))\n"
    )
    result = _fresh("-c", script)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")


# --- loading: the evaluator core at import, every other layer on first use ----

_DEFERRED = ("parser", "certificates", "obstruction", "rewrite", "surgery", "geography", "reproduce")


def test_importing_the_cli_runs_only_the_core_but_registers_every_layer():
    # perfbench's tracer looks each of its layers up in sys.modules, so
    # each must be there, run or not.  -X importtime lists every module an
    # import statement runs; a deferred layer runs later, if at all.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(_ROOT / 'perfbench')!r})\n"
        "from tracer import LAYERS\n"
        "import fourcalc.cli\n"
        "print([layer for layer in LAYERS if f'fourcalc.{layer}' not in sys.modules])\n"
    )
    result = _fresh("-X", "importtime", "-c", script)
    assert (result.returncode, result.stdout) == (0, "[]\n")
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if "|" in line}
    assert {"fourcalc", "fourcalc.evaluate", "fourcalc.cli"} <= imported
    assert imported.isdisjoint(f"fourcalc.{layer}" for layer in _DEFERRED)


_RECORD_EXECUTED = (
    "import contextlib, importlib.machinery, io, json, sys\n"
    "ran = []\n"
    "exec_module = importlib.machinery.SourceFileLoader.exec_module\n"
    "def recording(self, module):\n"
    "    ran.append(self.name)\n"
    "    exec_module(self, module)\n"
    "importlib.machinery.SourceFileLoader.exec_module = recording\n"
    "from fourcalc.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, ran]))\n"
)


def _layers_run(*argv):
    """The exit code of ``main(argv)`` in a fresh interpreter, and the
    deferred layers whose code ran there, eagerly or lazily."""
    result = _fresh("-c", _RECORD_EXECUTED, *argv)
    assert result.returncode == 0, result.stderr
    code, ran = json.loads(result.stdout)
    return code, {name[len("fourcalc."):] for name in ran} & set(_DEFERRED)


def test_a_command_runs_only_the_layers_it_reads():
    code, ran = _layers_run("eval", "K3")
    assert code == 0
    assert "parser" in ran
    assert ran.isdisjoint({"geography", "reproduce", "rewrite", "obstruction"})
    code, ran = _layers_run("enumerate", "bk", "--bounds", "5,5")
    assert code == 0
    assert "geography" in ran
    assert ran.isdisjoint({"parser", "reproduce"})


# --- totality: every argv ends in an exit code that keeps its meaning ----

_FRAGMENTS = [
    "K3", "CP2", "CP2b", "S2xS2", "S1xS3", "S4", "E(2)", "E(0)", "Sd(2)", "X442", "Xk(2)",
    "Y(1)", "FgProd(1,2)", "BK(10,16,1)", "XG(24,-16,G)", "XG(12,-8,G,1)", "XG(24,-16,G,-1)",
    "cover(CP2, d=3, branch=6)", "cover(CP2, d=2, branch=0)", "cover(CP1xCP1, d=2, branch=(2,4))",
    "bicyclic(3,2;3,3,3,3)", "quotient(bicyclic(3,2;3,3,3,3), 3)", "quotient(K3, 2, weighted)",
    "fibersum(E(1),E(1),g=1)", "logt(E(2),3)", "logt(E(2),-3)", "Nope(3)", "K3(1)", "0*CP2",
    "", "(", ")", "#", "*", ",", "2*", "K3 #", "((K3)", "1" * 30,
]
_EXPR = st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=3).map(
    lambda parts: " # ".join(parts)
) | st.builds("{}*({})".format, st.integers(-2, 4), st.sampled_from(_FRAGMENTS))
_FRACTION = st.sampled_from(["1/2", "1/3", "3", "10", "0", "-1/2", "9", "x", "1/0", "", "2.5"])
_BOUNDS = st.builds("{},{}".format, st.integers(-3, 60), st.integers(-3, 60)) | st.sampled_from(
    ["", "4", "1,2,3", "a,b", "4,", ",4"]
)


@st.composite
def _argv(draw):
    path = draw(st.sampled_from(sorted(PATHS) + [(), ("check",), ("enumerate",), ("nope",)]))
    argv = list(path)
    if path in (("eval",), ("normalize",), ("check", "ht"), ("check", "einstein")):
        argv.append(draw(_EXPR))
    elif path == ("check", "homeo"):
        argv += [draw(_EXPR), draw(_EXPR)]
    elif path == ("enumerate", "bk"):
        argv += ["--bounds", draw(_BOUNDS)]
        for option in ("--eps-prime", "--c"):
            if draw(st.booleans()):
                argv += [option, draw(_FRACTION)]
    elif path == ("enumerate", "free-actions"):
        argv += ["--d", draw(st.sampled_from(["2", "3", "4", "1", "0", "-2", "x"])),
                 "--bounds", draw(_BOUNDS)]
        for option in ("--eps", "--c"):
            if draw(st.booleans()):
                argv += [option, draw(_FRACTION)]
    elif path == ("reproduce",):
        argv.append(draw(st.sampled_from(sorted(TARGETS) + ["thm9", ""])))
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 0:  # a stray token or option, or help
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--x", "K3", "--json=1"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_every_command_line_exits_0_1_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    # Only a reproduce target may report an internal inconsistency.
    assert code != 3 or "reproduce" in argv, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
