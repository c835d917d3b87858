"""Command line interface: output shape, determinism, exit codes."""

import json

from fourcalc import cli, reproduce
from fourcalc.certificates import Certificate, Step
from fourcalc.cli import main
from fourcalc.reproduce import Report


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

    def test_logt_multiplicity_below_one_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "logt(E(2),-3)")
        assert code == 2 and out == ""
        assert "syntax error" in err and "multiplicity" in err


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


class TestNormalizeAndEnumerate:
    def test_normalize(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "S2xS2 # CP2b")
        assert code == 0 and "CP2 # 2*CP2b" in out

    def test_enumerate_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "free-actions", "--d", "2", "--bounds", "8,8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,k,verdict"
        assert lines[1] == "2,4,1,einstein_obstructed"

    def test_enumerate_free_actions_empty_from_eps_six(self, capsys):
        for eps in ("6", "13/2"):
            code, out, err = run_cli(
                capsys, "enumerate", "free-actions", "--d", "2", "--eps", eps,
                "--bounds", "40,40",
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
        # Columns that do not start at y = 1, skip a y, or come back to an
        # earlier x: each line is the point as bk_region listed it.
        points = [(1, 2), (1, 5), (3, 1), (3, 2), (1, 7)]
        monkeypatch.setattr(cli, "bk_region", lambda *args: points)
        code, out, _ = run_cli(capsys, "enumerate", "bk", "--bounds", "3,7")
        assert code == 0
        assert out == "x,y\n1,2\n1,5\n3,1\n3,2\n1,7\n"

    def test_enumerate_bad_fraction_exit_2(self, capsys):
        for argv in (
            ("enumerate", "bk", "--bounds", "10,10", "--c", "x"),
            ("enumerate", "bk", "--bounds", "10,10", "--eps-prime", "1/0"),
            ("enumerate", "free-actions", "--d", "2", "--bounds", "10,10", "--eps", "1/0"),
            ("enumerate", "free-actions", "--d", "2", "--bounds", "10,10", "--c", "y"),
        ):
            code, out, err = run_cli(capsys, *argv)  # nothing may propagate
            assert code == 2 and out == ""
            assert err.startswith("bad --") and len(err.splitlines()) == 1

    def test_config_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "free-actions", "--d", "2", "--bounds", "8,8",
            "--set", "c_eps=100",
        )
        assert code == 0
        assert out.strip() == "n,m,k,verdict"  # region empty for huge c

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "fourcalc.cfg"
        cfg.write_text("# test config\nc_eps = 100\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg),
            "enumerate", "free-actions", "--d", "2", "--bounds", "8,8",
        )
        assert code == 0 and out.strip() == "n,m,k,verdict"


class TestReproduce:
    def test_reproduce_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "prop1.3")
        assert code == 0
        assert "normal form: 15 CP2 # 77 CP2b" in out
        assert "golden: ok" in out

    def test_reproduce_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce", "prop1.4", "--json")
        _, second, _ = run_cli(capsys, "reproduce", "prop1.4", "--json")
        assert first == second
        data = json.loads(first)
        assert data["values"]["normal_form"] == "23 CP2 # 116 CP2b"

    def test_failed_self_verification_exit_3(self, monkeypatch, capsys):
        def broken(config):
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
