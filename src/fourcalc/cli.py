"""Command line interface: the package's only I/O surface.

Subcommands: ``eval``, ``check ht|einstein|homeo``, ``normalize``,
``enumerate bk|free-actions`` and ``reproduce <target>``.  Identical
invocations produce byte-identical output (sorted keys, fixed ordering).

Exit codes: 0 success; 1 a negative verdict (Hitchin-Thorpe violated or
not homeomorphic); 2 usage or input errors; 3 internal inconsistency
(golden mismatch or failed certificate self-verification).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import groupby, islice
from operator import itemgetter

from fourcalc.config import Config, eps_prime_of, load_config
from fourcalc.errors import DslSyntaxError, FourcalcError, NoSplit
from fourcalc.evaluate import evaluate
from fourcalc.geography import CITE_GEOGRAPHY, GeographyQuery, bk_region, free_action_region
from fourcalc.obstruction import decompose_for_obstruction, hitchin_thorpe, homeo_equal
from fourcalc.parser import parse_dsl
from fourcalc.reproduce import TARGETS, compare_with_golden, golden_path, run_target
from fourcalc.rewrite import normalize


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="key=value configuration file"
    )
    common.add_argument(
        "--set",
        action="append",
        default=argparse.SUPPRESS,
        metavar="KEY=VALUE",
        help="override a configuration key (eps, c_eps, n1, wall_n0)",
    )
    parser = argparse.ArgumentParser(
        prog="fourcalc",
        parents=[common],
        description="exact invariant calculus and Einstein-metric "
        "obstructions for 4-manifold expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common], help="invariants and flags of an expression"
    )
    p_eval.add_argument("expr")
    p_eval.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run an obstruction or comparison check")
    check_sub = p_check.add_subparsers(dest="check_kind", required=True)
    p_ht = check_sub.add_parser(
        "ht", parents=[common], help="Hitchin-Thorpe inequalities"
    )
    p_ht.add_argument("expr")
    p_ht.add_argument("--json", action="store_true")
    p_ein = check_sub.add_parser(
        "einstein", parents=[common], help="Einstein-metric obstruction"
    )
    p_ein.add_argument("expr")
    p_ein.add_argument("--json", action="store_true")
    p_homeo = check_sub.add_parser(
        "homeo", parents=[common], help="homeomorphism of two expressions"
    )
    p_homeo.add_argument("expr")
    p_homeo.add_argument("other")
    p_homeo.add_argument("--json", action="store_true")

    p_norm = sub.add_parser(
        "normalize", parents=[common], help="canonical connected-sum form"
    )
    p_norm.add_argument("expr")
    p_norm.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="lattice-region enumeration")
    enum_sub = p_enum.add_subparsers(dest="region", required=True)
    p_bk = enum_sub.add_parser(
        "bk", parents=[common], help="realizable (chi_h, c1sq) points"
    )
    p_bk.add_argument("--eps-prime", default=None, help="slope margin eps'")
    p_bk.add_argument("--c", default=None, help="geography constant c(eps')")
    p_bk.add_argument("--bounds", required=True, metavar="XMAX,YMAX")
    p_bk.add_argument("--json", action="store_true")
    p_free = enum_sub.add_parser(
        "free-actions", parents=[common], help="admissible (n, m) points"
    )
    p_free.add_argument("--d", type=int, required=True)
    p_free.add_argument("--eps", default=None)
    p_free.add_argument("--c", default=None)
    p_free.add_argument("--bounds", required=True, metavar="NMAX,MMAX")
    p_free.add_argument("--json", action="store_true")

    p_rep = sub.add_parser(
        "reproduce", parents=[common], help="rebuild a named example set"
    )
    p_rep.add_argument("target", choices=sorted(TARGETS))
    p_rep.add_argument("--json", action="store_true")
    p_rep.add_argument(
        "--update-golden", action="store_true", help=argparse.SUPPRESS
    )

    return parser


def _parse_expr_or_exit(text: str):
    try:
        return parse_dsl(text)
    except DslSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(data: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _frac(value) -> str:
    return str(value)


def cmd_eval(args, config: Config) -> int:
    expr = _parse_expr_or_exit(args.expr)
    ev = evaluate(expr)
    rec = ev.record
    data = {
        "expr": str(expr),
        "chi": rec.chi,
        "tau": rec.tau,
        "b1": rec.b1,
        "c1sq": rec.c1sq,
        "c2": rec.c2,
        "chi_h": _frac(rec.chi_h),
        "chi_h_formal": not ev.complex_surface,
        "b2": rec.b2,
        "b2plus": _frac(rec.b2plus) if rec.b2plus is not None else None,
        "b2minus": _frac(rec.b2minus) if rec.b2minus is not None else None,
        "flags": ev.flags.as_dict(),
        "labels": list(ev.labels),
    }
    formal = " (formal)" if data["chi_h_formal"] else ""
    lines = [
        f"chi      = {rec.chi}",
        f"tau      = {rec.tau}",
        f"b1       = {rec.b1 if rec.b1 is not None else 'unknown'}",
        f"c1^2     = {rec.c1sq}",
        f"c2       = {rec.c2}",
        f"chi_h    = {rec.chi_h}{formal}",
        f"b2       = {rec.b2 if rec.b2 is not None else 'unknown'}",
        f"b2+/b2-  = {data['b2plus']}/{data['b2minus']}",
        f"spin     = {ev.flags.spin.value}",
        f"parity   = {ev.flags.parity.value}",
        f"w2-type  = {ev.flags.w2type.value}",
        f"pi1      = {ev.flags.pi1}",
        f"SW       = {ev.flags.sw_nontrivial.value}"
        f" (mod 2: {ev.flags.sw_mod2_nontrivial.value})",
        f"symplectic = {ev.flags.symplectic.value}",
        f"ACD      = {ev.flags.acd.value}",
    ]
    if ev.labels:
        lines.append("labels   = " + "; ".join(ev.labels))
    _emit(data, args.json, lines)
    return 0


def cmd_check_ht(args, config: Config) -> int:
    expr = _parse_expr_or_exit(args.expr)
    cert = hitchin_thorpe(evaluate(expr).record, inputs={"expr": str(expr)})
    lines = [f"verdict: {cert.verdict}"]
    lines += [f"  {s.rule}: {s.arithmetic}" for s in cert.steps if s.arithmetic]
    _emit(cert.as_dict(), args.json, lines)
    return 1 if cert.verdict == "hitchin_thorpe_violated" else 0


def cmd_check_einstein(args, config: Config) -> int:
    expr = _parse_expr_or_exit(args.expr)
    try:
        splitting = decompose_for_obstruction(expr)
    except NoSplit as exc:
        data = {"verdict": "no_verdict", "reason": str(exc)}
        _emit(data, args.json, [f"verdict: no_verdict ({exc})"])
        return 0
    cert = splitting.certificate
    lines = [
        f"verdict: {cert.verdict}",
        f"split: X = {splitting.x_expr}, k = {splitting.k}, l = {splitting.l}",
    ]
    lines += [f"  {s.rule}" + (f": {s.arithmetic}" if s.arithmetic else "")
              for s in cert.steps]
    _emit(cert.as_dict(), args.json, lines)
    return 0


def cmd_check_homeo(args, config: Config) -> int:
    left = _parse_expr_or_exit(args.expr)
    right = _parse_expr_or_exit(args.other)
    cert = homeo_equal(left, right)
    lines = [f"verdict: {cert.verdict}"]
    lines += [f"  {s.rule}" + (f": {s.arithmetic}" if s.arithmetic else "")
              for s in cert.steps]
    _emit(cert.as_dict(), args.json, lines)
    return 1 if cert.verdict == "not_homeomorphic" else 0


def cmd_normalize(args, config: Config) -> int:
    expr = _parse_expr_or_exit(args.expr)
    result = normalize(expr, wall_n0=config.wall_n0)
    data = {
        "input": str(expr),
        "canonical": result.canonical,
        "mode": result.mode,
        "normal_form": str(result.expr),
        "trace": [
            {"rule": t.rule, "citation": t.citation, "detail": t.detail}
            for t in result.trace
        ],
    }
    lines = [f"normal form: {result.expr}" + ("" if result.canonical else "  (partial)")]
    lines += [f"  {t.rule}: {t.detail}" for t in result.trace]
    _emit(data, args.json, lines)
    return 0


def _parse_bounds(text: str) -> tuple[int, int]:
    try:
        first, second = text.split(",")
        return int(first), int(second)
    except ValueError:
        print(f"bad bounds {text!r}: expected two integers", file=sys.stderr)
        raise SystemExit(2)


def _parse_fraction(text: str | None, option: str, default: Fraction) -> Fraction:
    if not text:
        return default
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        print(f"bad {option} {text!r}: expected a fraction", file=sys.stderr)
        raise SystemExit(2)


# Pieces per write() of a listing: few calls, and no second full copy of a
# listing made of lines.
_WRITE_CHUNK = 4096


def _write_lines(lines) -> None:
    """Write newline-terminated pieces (lines, or bk columns) to stdout in chunks."""
    lines, write = iter(lines), sys.stdout.write
    while chunk := "".join(islice(lines, _WRITE_CHUNK)):
        write(chunk)


def _bk_csv_columns(points):
    """The CSV lines of a bk listing, one string per run of points with equal x."""
    for x, column in groupby(points, itemgetter(0)):
        head = f"{x},"
        yield head + ("\n" + head).join([str(y) for _, y in column]) + "\n"


def cmd_enumerate(args, config: Config) -> int:
    if args.region == "bk":
        eps_prime = _parse_fraction(args.eps_prime, "--eps-prime", eps_prime_of(config.eps))
        c = _parse_fraction(args.c, "--c", config.c_eps)
        points = bk_region(eps_prime, c, _parse_bounds(args.bounds))
        if args.json:
            print(
                json.dumps(
                    {
                        "eps_prime": str(eps_prime),
                        "c": str(c),
                        "points": [
                            {"x": x, "y": y, "annotation": CITE_GEOGRAPHY}
                            for x, y in points
                        ],
                    },
                    sort_keys=True,
                    indent=2,
                )
            )
        else:
            print("x,y")
            _write_lines(_bk_csv_columns(points))
        return 0
    eps = _parse_fraction(args.eps, "--eps", config.eps)
    c = _parse_fraction(args.c, "--c", config.c_eps)
    query = GeographyQuery(
        d=args.d, epsilon=eps, c_of_eps=c, bounds=_parse_bounds(args.bounds)
    )
    points = free_action_region(query)
    if args.json:
        print(
            json.dumps(
                {
                    "d": args.d,
                    "eps": str(eps),
                    "c": str(c),
                    "points": [
                        {
                            "n": p.n,
                            "m": p.m,
                            "k": p.k,
                            "verdict": p.blueprint.certificates[-1].verdict,
                        }
                        for p in points
                    ],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print("n,m,k,verdict")
        _write_lines(
            f"{p.n},{p.m},{p.k},{p.blueprint.certificates[-1].verdict}\n" for p in points
        )
    return 0


def cmd_reproduce(args, config: Config) -> int:
    # run_target raises AssertionError (exit 3) when a certificate fails
    # self-verification.
    report = run_target(args.target, config)
    if args.update_golden:
        path = golden_path(args.target)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(str(path), "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"golden file updated: {path}")
        return 0
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        for line in report.lines:
            print(line)
    diffs = compare_with_golden(report)
    if diffs:
        for diff in diffs:
            print(f"golden mismatch: {diff}", file=sys.stderr)
        return 3
    if not args.json:
        print("golden: ok")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        overrides = dict(item.split("=", 1) for item in getattr(args, "set", []) or [])
    except ValueError:
        print("bad --set override; expected KEY=VALUE", file=sys.stderr)
        return 2
    try:
        config = load_config(getattr(args, "config", None), overrides)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    handlers = {
        "eval": cmd_eval,
        "normalize": cmd_normalize,
        "enumerate": cmd_enumerate,
        "reproduce": cmd_reproduce,
    }
    try:
        if args.command == "check":
            kinds = {
                "ht": cmd_check_ht,
                "einstein": cmd_check_einstein,
                "homeo": cmd_check_homeo,
            }
            return kinds[args.check_kind](args, config)
        return handlers[args.command](args, config)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except FourcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
