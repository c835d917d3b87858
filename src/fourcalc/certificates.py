"""Verdict certificates and their independent checker.

A certificate is a verdict plus an ordered chain of rule applications.
Each step carries a rule name, a citation and (when the rule is
arithmetic) one exact comparison written in a tiny expression language:
integer literals, ``+ - * / ( )``, ``floor(x)`` and ``mod(a, b)``,
joined by ``== != <= >= < >`` (chains allowed).  The checker re-parses
and re-evaluates every step exactly, entirely independently of the code
that produced the certificate; every step must state a true fact,
including in negative verdicts.  It computes in integers until a
division, and over exact rationals from there on.  Within one
verification pass (``Report.self_verify``, or one
``verify_certificate`` call) each distinct step text is checked once,
and its outcome holds for every step that states it.

``Certificate.as_dict`` gives the JSON shape the CLI prints:
``{"verdict": ..., "steps": [{"rule", "citation", "arithmetic"}], "inputs": ...}``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor
from typing import Optional

VERDICTS = (
    "einstein_obstructed",
    "hitchin_thorpe_ok",
    "hitchin_thorpe_violated",
    "homeomorphic",
    "not_homeomorphic",
    "diffeomorphic_under_rewrite_axioms",
    "no_verdict",
)


@dataclass(frozen=True)
class Step:
    rule: str
    citation: str
    arithmetic: Optional[str] = None  # None for purely qualitative steps

    def as_dict(self) -> dict:
        return {"rule": self.rule, "citation": self.citation, "arithmetic": self.arithmetic}


@dataclass(frozen=True)
class Certificate:
    verdict: str
    steps: tuple[Step, ...]
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "steps": [s.as_dict() for s in self.steps],
            "inputs": self.inputs,
        }


class CertificateError(Exception):
    pass


_CMPOPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}


def _eval_node(node: ast.AST) -> int | Fraction:
    """Exact value of one term: an ``int`` until a division makes it a
    ``Fraction``."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return node.value
        raise CertificateError(f"non-integer literal {node.value!r}")
    if isinstance(node, ast.BinOp):
        op = type(node.op)
        if op is ast.Add:
            return _eval_node(node.left) + _eval_node(node.right)
        if op is ast.Sub:
            return _eval_node(node.left) - _eval_node(node.right)
        if op is ast.Mult:
            return _eval_node(node.left) * _eval_node(node.right)
        if op is ast.Div:
            left, right = _eval_node(node.left), _eval_node(node.right)
            if right == 0:
                raise CertificateError("division by zero")
            return Fraction(left, right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _eval_node(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        args = [_eval_node(a) for a in node.args]
        if node.func.id == "floor" and len(args) == 1:
            return floor(args[0])
        if node.func.id == "mod" and len(args) == 2:
            a, b = args
            if a.denominator != 1 or b.denominator != 1 or b == 0:
                raise CertificateError("mod needs integers and nonzero modulus")
            return a.numerator % b.numerator
        raise CertificateError(f"unknown function {node.func.id!r}")
    raise CertificateError(f"unsupported syntax: {ast.dump(node)}")


def check_arithmetic(text: str) -> bool:
    """Evaluate one comparison chain exactly."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise CertificateError(f"unparseable arithmetic {text!r}: {exc}") from exc
    body = tree.body
    if not isinstance(body, ast.Compare):
        raise CertificateError(f"arithmetic must be a comparison: {text!r}")
    left = _eval_node(body.left)
    for op, comparator in zip(body.ops, body.comparators):
        if type(op) not in _CMPOPS:
            raise CertificateError(f"unsupported comparison in {text!r}")
        right = _eval_node(comparator)
        if not _CMPOPS[type(op)](left, right):
            return False
        left = right
    return True


def verify_certificate(cert: Certificate, checked: dict | None = None) -> list[str]:
    """Re-evaluate every arithmetic step; returns human-readable failures
    (empty list means the certificate is self-consistent).

    ``checked`` maps the step texts already checked in this pass to their
    outcome (``True``, ``False`` or the ``CertificateError``); each new
    text is checked once and added to it.  A failing text is reported at
    every step that states it."""
    if checked is None:
        checked = {}
    failures = []
    if cert.verdict not in VERDICTS:
        failures.append(f"unknown verdict {cert.verdict!r}")
    for i, step in enumerate(cert.steps):
        text = step.arithmetic
        if text is None:
            continue
        outcome = checked.get(text)
        if outcome is None:
            try:
                outcome = check_arithmetic(text)
            except CertificateError as exc:
                outcome = exc
            checked[text] = outcome
        if outcome is False:
            failures.append(f"step {i} ({step.rule}): arithmetic is false: {text}")
        elif outcome is not True:
            failures.append(f"step {i} ({step.rule}): {outcome}")
    return failures
