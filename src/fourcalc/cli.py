"""Command line interface: the package's only I/O surface.

Subcommands: ``eval``, ``check ht|einstein|homeo``, ``normalize``,
``enumerate bk|free-actions`` and ``reproduce <target>``.  Identical
invocations produce byte-identical output (sorted keys, fixed ordering).
Importing this module runs only the evaluator core; a command loads each
layer above it (parser, obstruction, rewrite, geography, reproduce) on
first use.

Exit codes: 0 success; 1 a negative verdict (Hitchin-Thorpe violated or
not homeomorphic); 2 usage or input errors, or stdout closed by its
reader before the output was written; 3 internal inconsistency (golden
mismatch or failed certificate self-verification) or any other failure
of the program, reported on one line of stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from fractions import Fraction
from itertools import islice

from fourcalc.config import C_EPS, EPS, eps_prime_of
from fourcalc.errors import DslSyntaxError, FourcalcError, NoSplit
from fourcalc.evaluate import evaluate


def _deferred(name: str):
    """The module ``name``, put in ``sys.modules`` and on its package now,
    as an import would, but run only when one of its attributes is first
    read (``importlib.util.LazyLoader``)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


# The layers above the evaluator core run on a command's first use of
# them, so a command pays only for the layers it reads.  certificates and
# surgery, which the handlers reach only through those layers, are put in
# sys.modules too: tools that wrap every layer (perfbench's tracer) look
# each one up there.
geography = _deferred("fourcalc.geography")
obstruction = _deferred("fourcalc.obstruction")
parser = _deferred("fourcalc.parser")
reproduce = _deferred("fourcalc.reproduce")
rewrite = _deferred("fourcalc.rewrite")
_deferred("fourcalc.certificates")
_deferred("fourcalc.surgery")


class _Command(argparse.ArgumentParser):
    """The parser of one command or kind, built when argparse reaches it.

    ``add_parser`` only hands this class its keyword arguments (``prog``,
    ``help``, ...), which are kept.  argparse hands the chosen subparser
    the rest of the command line through its ``parse_known_args``, so
    the parser is built there, once, before any token is read: it runs
    ``ArgumentParser.__init__`` with those arguments and then
    ``declare(self)``.  The root's usage lines, help texts and
    invalid-choice errors come from the choice pseudo-actions that
    ``add_parser`` still creates, so they are those of the eager tree;
    but a command builds only the parsers on its path.
    """

    def __init__(self, *, declare, **kwargs):
        self._pending = declare, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            declare, kwargs = self._pending
            self._pending = None
            super().__init__(**kwargs)
            declare(self)
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    """The command tree, built for one call of ``main``: each command and
    kind is registered here, and built in ``_Command`` when reached."""

    def expressions(*names):
        def declare(p):
            for name in names:
                p.add_argument(name)
            p.add_argument("--json", action="store_true")
        return declare

    one_expr = expressions("expr")

    def check(p):
        kinds = p.add_subparsers(dest="check_kind", required=True, parser_class=_Command)
        kinds.add_parser("ht", help="Hitchin-Thorpe inequalities", declare=one_expr)
        kinds.add_parser("einstein", help="Einstein-metric obstruction", declare=one_expr)
        kinds.add_parser(
            "homeo", help="homeomorphism of two expressions", declare=expressions("expr", "other")
        )

    def bk(p):
        p.add_argument("--eps-prime", default=None, help="slope margin eps'")
        p.add_argument("--c", default=None, help="geography constant c(eps')")
        p.add_argument("--bounds", required=True, metavar="XMAX,YMAX")
        p.add_argument("--json", action="store_true")

    def free_actions(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--eps", default=None)
        p.add_argument("--c", default=None)
        p.add_argument("--bounds", required=True, metavar="NMAX,MMAX")
        p.add_argument("--json", action="store_true")

    def regions(p):
        kinds = p.add_subparsers(dest="region", required=True, parser_class=_Command)
        kinds.add_parser("bk", help="realizable (chi_h, c1sq) points", declare=bk)
        kinds.add_parser("free-actions", help="admissible (n, m) points", declare=free_actions)

    def target(p):
        p.add_argument("target", choices=sorted(reproduce.TARGETS))
        p.add_argument("--json", action="store_true")

    root = argparse.ArgumentParser(
        prog="fourcalc",
        description="exact invariant calculus and Einstein-metric "
        "obstructions for 4-manifold expressions",
    )
    sub = root.add_subparsers(dest="command", required=True, parser_class=_Command)
    sub.add_parser("eval", help="invariants and flags of an expression", declare=one_expr)
    sub.add_parser("check", help="run an obstruction or comparison check", declare=check)
    sub.add_parser("normalize", help="canonical connected-sum form", declare=one_expr)
    sub.add_parser("enumerate", help="lattice-region enumeration", declare=regions)
    sub.add_parser("reproduce", help="rebuild a named example set", declare=target)
    return root


def _parse_expr_or_exit(text: str):
    try:
        return parser.parse_dsl(text)
    except DslSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(data: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_eval(args) -> int:
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
        "chi_h": str(rec.chi_h),
        "chi_h_formal": not ev.complex_surface,
        "b2": rec.b2,
        "b2plus": str(rec.b2plus) if rec.b2plus is not None else None,
        "b2minus": str(rec.b2minus) if rec.b2minus is not None else None,
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
        f"b2+/b2-  = {data['b2plus'] or 'unknown'}/{data['b2minus'] or 'unknown'}",
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


def cmd_check_ht(args) -> int:
    expr = _parse_expr_or_exit(args.expr)
    cert = obstruction.hitchin_thorpe(evaluate(expr).record, inputs={"expr": str(expr)})
    lines = [f"verdict: {cert.verdict}"]
    lines += [f"  {s.rule}: {s.arithmetic}" for s in cert.steps if s.arithmetic]
    _emit(cert.as_dict(), args.json, lines)
    return 1 if cert.verdict == "hitchin_thorpe_violated" else 0


def cmd_check_einstein(args) -> int:
    expr = _parse_expr_or_exit(args.expr)
    try:
        splitting = obstruction.decompose_for_obstruction(expr)
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


def cmd_check_homeo(args) -> int:
    left = _parse_expr_or_exit(args.expr)
    right = _parse_expr_or_exit(args.other)
    cert = obstruction.homeo_equal(left, right)
    lines = [f"verdict: {cert.verdict}"]
    lines += [f"  {s.rule}" + (f": {s.arithmetic}" if s.arithmetic else "")
              for s in cert.steps]
    _emit(cert.as_dict(), args.json, lines)
    return 1 if cert.verdict == "not_homeomorphic" else 0


def cmd_normalize(args) -> int:
    expr = _parse_expr_or_exit(args.expr)
    result = rewrite.normalize(expr)
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
    if text is None:  # an empty value is malformed, not absent
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


def cmd_enumerate(args) -> int:
    if args.region == "bk":
        eps_prime = _parse_fraction(args.eps_prime, "--eps-prime", eps_prime_of(EPS))
        c = _parse_fraction(args.c, "--c", C_EPS)
        bounds = _parse_bounds(args.bounds)
        if args.json:
            points = [
                {"x": x, "y": y, "annotation": geography.CITE_GEOGRAPHY}
                for x, y in geography.bk_region(eps_prime, c, bounds)
            ]
            _emit({"eps_prime": str(eps_prime), "c": str(c), "points": points}, True, [])
        else:
            columns = geography.bk_columns(eps_prime, c, bounds)
            ys = [str(y) for y in range(1, max((top for _, top in columns), default=0) + 1)]
            print("x,y")
            _write_lines(f"{x}," + f"\n{x},".join(ys[:top]) + "\n" for x, top in columns)
        return 0
    eps = _parse_fraction(args.eps, "--eps", EPS)
    c = _parse_fraction(args.c, "--c", C_EPS)
    query = geography.GeographyQuery(
        d=args.d, epsilon=eps, c_of_eps=c, bounds=_parse_bounds(args.bounds)
    )
    points = geography.free_action_region(query)
    if args.json:
        rows = [{"n": p.n, "m": p.m, "k": p.k, "verdict": p.verdict} for p in points]
        _emit({"d": args.d, "eps": str(eps), "c": str(c), "points": rows}, True, [])
    else:
        print("n,m,k,verdict")
        _write_lines(
            f"{p.n},{p.m},{p.k},{p.verdict}\n" for p in points
        )
    return 0


def cmd_reproduce(args) -> int:
    # run_target raises AssertionError (exit 3) when a certificate fails
    # self-verification.
    report = reproduce.run_target(args.target)
    data = report.as_dict()
    _emit(data, args.json, report.lines)
    diffs = reproduce.compare_with_golden(args.target, data)
    if diffs:
        for diff in diffs:
            print(f"golden mismatch: {diff}", file=sys.stderr)
        return 3
    if not args.json:
        print("golden: ok")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    handlers = {
        "eval": cmd_eval,
        "ht": cmd_check_ht,
        "einstein": cmd_check_einstein,
        "homeo": cmd_check_homeo,
        "normalize": cmd_normalize,
        "enumerate": cmd_enumerate,
        "reproduce": cmd_reproduce,
    }
    try:
        code = handlers[args.check_kind if args.command == "check" else args.command](args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the final flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed by its reader", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except FourcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
