"""The CLI's argument parser as it was when ``_build_parser`` declared
every command's arguments up front, kept as the oracle of the parity
tests in ``test_cli.py``: the parser whose commands declare their
arguments when argparse reaches them must exit with the same code, print
the same help, usage lines and errors, and give the same namespace.

With only the standard library, from the root of a checkout::

    PYTHONPATH=src python -m tests.reference_cli

runs the fixed parity cases and exits 1 if any of them differs, for
interpreters that have no pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from fourcalc import cli
from fourcalc.reproduce import TARGETS


def reference_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourcalc",
        description="exact invariant calculus and Einstein-metric "
        "obstructions for 4-manifold expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="invariants and flags of an expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run an obstruction or comparison check")
    check_sub = p_check.add_subparsers(dest="check_kind", required=True)
    p_ht = check_sub.add_parser("ht", help="Hitchin-Thorpe inequalities")
    p_ht.add_argument("expr")
    p_ht.add_argument("--json", action="store_true")
    p_ein = check_sub.add_parser("einstein", help="Einstein-metric obstruction")
    p_ein.add_argument("expr")
    p_ein.add_argument("--json", action="store_true")
    p_homeo = check_sub.add_parser("homeo", help="homeomorphism of two expressions")
    p_homeo.add_argument("expr")
    p_homeo.add_argument("other")
    p_homeo.add_argument("--json", action="store_true")

    p_norm = sub.add_parser("normalize", help="canonical connected-sum form")
    p_norm.add_argument("expr")
    p_norm.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="lattice-region enumeration")
    enum_sub = p_enum.add_subparsers(dest="region", required=True)
    p_bk = enum_sub.add_parser("bk", help="realizable (chi_h, c1sq) points")
    p_bk.add_argument("--eps-prime", default=None, help="slope margin eps'")
    p_bk.add_argument("--c", default=None, help="geography constant c(eps')")
    p_bk.add_argument("--bounds", required=True, metavar="XMAX,YMAX")
    p_bk.add_argument("--json", action="store_true")
    p_free = enum_sub.add_parser("free-actions", help="admissible (n, m) points")
    p_free.add_argument("--d", type=int, required=True)
    p_free.add_argument("--eps", default=None)
    p_free.add_argument("--c", default=None)
    p_free.add_argument("--bounds", required=True, metavar="NMAX,MMAX")
    p_free.add_argument("--json", action="store_true")

    p_rep = sub.add_parser("reproduce", help="rebuild a named example set")
    p_rep.add_argument("target", choices=sorted(TARGETS))
    p_rep.add_argument("--json", action="store_true")

    return parser


def parse_outcome(build, argv):
    """(exit code, stdout, stderr, the namespace's vars or None) of one
    ``parse_args(argv)`` on a parser fresh from ``build()``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = build().parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None
    return 0, out.getvalue(), err.getvalue(), vars(namespace)


# Every parser of the tree by the tokens that reach it, with a command
# line it accepts after those tokens.
PATHS = {
    (): None,
    ("eval",): ["K3"],
    ("check",): None,
    ("check", "ht"): ["K3"],
    ("check", "einstein"): ["CP2 # 2*CP2b"],
    ("check", "homeo"): ["K3", "E(2)"],
    ("normalize",): ["K3 # CP2"],
    ("enumerate",): None,
    ("enumerate", "bk"): ["--bounds", "10,20"],
    ("enumerate", "free-actions"): ["--d", "2", "--bounds", "10,20"],
    ("reproduce",): [sorted(TARGETS)[0]],
}

# Tokens that follow a path: help, separators, negative numbers, unknown,
# abbreviated and malformed options, and options with good and bad values.
TAILS = [
    [], ["-h"], ["--help"], ["--"], ["-5"], ["--", "-5"], ["bogus"], ["--bogus"],
    ["-x"], ["--json"], ["--js"], ["--json=1"], ["--update-golden"],
    ["--d", "x"], ["--d=3"], ["--d"], ["--eps", "1/2"], ["--e", "1/2"],
    ["--eps-prime", "1/3"], ["--c", "2"], ["--c"], ["--bounds", "5,6"],
    ["--bounds=5"], ["--bound", "5,6"], ["K3", "K3", "K3"], ["-h", "bogus"],
]


def parity_cases():
    """The fixed command lines: each path alone, with its accepted line,
    and with every tail before and after that line."""
    cases = [["--help", "eval"], ["eval", "--json", "-h"], ["reproduce", "thm9"]]
    cases += [["reproduce", target, "--json"] for target in sorted(TARGETS)]
    for path, accepted in PATHS.items():
        cases.append(list(path))
        if accepted is not None:
            cases.append([*path, *accepted])
        for tail in TAILS:
            cases.append([*path, *tail])
            if accepted is not None:
                cases.append([*path, *accepted, *tail])
                cases.append([*path, *tail, *accepted])
    return cases


def mismatches(cases):
    """The command lines on which the CLI's parser and the reference differ."""
    return [
        argv for argv in cases
        if parse_outcome(cli._build_parser, argv) != parse_outcome(reference_build_parser, argv)
    ]


if __name__ == "__main__":
    cases = parity_cases()
    bad = mismatches(cases)
    for argv in bad:
        print(f"mismatch: {argv!r}")
    version = sys.version.split()[0]
    print(f"{len(cases) - len(bad)} of {len(cases)} parity cases match on Python {version}")
    sys.exit(1 if bad else 0)
