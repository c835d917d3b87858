"""The benchmark's own model of the mathematics, kept apart from fourcalc.

Everything here is written from the formulas themselves, not from the
package: a table of primitive invariants, the connected-sum, fiber-sum,
cyclic-cover and bi-cyclic-cover formulas, the two lattice regions, and
an evaluator for certificate arithmetic.  Output checks compare the
program against these, so a check never trusts the code it checks.

Expressions are small tuples built by the generators in ``workloads``:

* ``("P", name, params)``          -- a registry primitive;
* ``("S", ((node, mult), ...))``   -- a connected sum;
* ``("CV", base, d, degrees)``     -- d-fold cyclic cover of CP2 or CP1xCP1
  branched along a curve of the given (bi)degree;
* ``("BC", d, p, a, b, m, n)``     -- type-(d, p) bi-cyclic cover;
* ``("Q", inner, d, action)``      -- free Z/d quotient;
* ``("F", left, right, g)``        -- fiber sum along a genus-g surface;
* ``("L", inner, multiplicity)``   -- logarithmic transform;
* ``("N", inner)``                 -- the same manifold in parentheses.
"""

from __future__ import annotations

import re
from fractions import Fraction


def P(name, *params):
    return ("P", name, tuple(params))


def S(*parts):
    return ("S", tuple(parts))


# --- rendering ---------------------------------------------------------


def render(node) -> str:
    tag = node[0]
    if tag == "P":
        _, name, params = node
        return name if not params else f"{name}({','.join(str(p) for p in params)})"
    if tag == "S":
        pieces = []
        for part, mult in node[1]:
            text = render(part)
            if part[0] == "S":
                text = f"({text})"
            pieces.append(text if mult == 1 else f"{mult}*{text}")
        return " # ".join(pieces)
    if tag == "CV":
        _, base, d, degrees = node
        branch = degrees[0] if base == "CP2" else f"({degrees[0]},{degrees[1]})"
        return f"cover({base},d={d},branch={branch})"
    if tag == "BC":
        d, p, a, b, m, n = node[1:]
        return f"bicyclic({d},{p};{a},{b},{m},{n})"
    if tag == "Q":
        _, inner, d, action = node
        tail = ",weighted" if action == "weighted" else ""
        return f"quotient({render(inner)},{d}{tail})"
    if tag == "F":
        _, left, right, g = node
        return f"fibersum({render(left)},{render(right)},g={g})"
    if tag == "L":
        return f"logt({render(node[1])},{node[2]})"
    if tag == "N":
        return f"({render(node[1])})"
    raise ValueError(f"unknown node {node!r}")


# --- invariants --------------------------------------------------------

# (chi, tau, b1) of the fixed primitives.
_FIXED = {
    "CP2": (3, 1, 0),
    "CP2b": (3, -1, 0),
    "S2xS2": (4, 0, 0),
    "K3": (24, -16, 0),
    "S1xS3": (0, 0, 1),
    "S4": (2, 0, 0),
    "X442": (104, -64, 0),
}


def _primitive(name, params):
    if name in _FIXED:
        return _FIXED[name]
    if name == "E":
        (n,) = params
        return 12 * n, -8 * n, 0
    if name == "Sd":
        return 2, 0, 0
    if name == "Y":
        return 24, -16, 0
    if name == "Xk":
        (k,) = params
        return 52 * k + 48, -32 * (k + 1), 0
    if name == "BK":
        x, y, _ = params
        return 12 * x - y, y - 8 * x, 0
    if name == "FgProd":
        g1, g2 = params
        return (2 - 2 * g1) * (2 - 2 * g2), 0, 2 * (g1 + g2)
    raise ValueError(f"no model for primitive {name}")


def _curve_euler_cp2(k: int) -> int:
    return 2 - (k - 1) * (k - 2)


def _curve_euler_quadric(p: int, q: int) -> int:
    return 2 * (p + q) - 2 * p * q


def _signature(c1sq: int, c2: int) -> int:
    assert (c1sq - 2 * c2) % 3 == 0
    return (c1sq - 2 * c2) // 3


def invariants(node) -> tuple:
    """(chi, tau, b1) of a model expression; b1 is None when unknown."""
    tag = node[0]
    if tag == "P":
        return _primitive(node[1], node[2])
    if tag == "N":
        return invariants(node[1])
    if tag == "L":
        return invariants(node[1])
    if tag == "S":
        chi = tau = count = 0
        b1 = 0
        for part, mult in node[1]:
            c, t, b = invariants(part)
            chi += mult * c
            tau += mult * t
            count += mult
            b1 = None if b1 is None or b is None else b1 + mult * b
        return chi - 2 * (count - 1), tau, b1
    if tag == "CV":
        _, base, d, degrees = node
        if base == "CP2":
            (branch,) = degrees
            line = branch // d
            c2 = 3 * d - (d - 1) * _curve_euler_cp2(branch)
            c1sq = d * (3 - (d - 1) * line) ** 2
        else:
            p, q = degrees
            a, b = p // d, q // d
            c2 = 4 * d - (d - 1) * _curve_euler_quadric(p, q)
            c1sq = 2 * d * (2 - (d - 1) * a) * (2 - (d - 1) * b)
        return c2, _signature(c1sq, c2), 0
    if tag == "BC":
        # Two cyclic covers in a row: first along C1 = (da, db), then along
        # the preimage of C2 = (pm, pn), a d-fold cover of C2 branched at
        # the C1.C2 crossing points.
        d, p, a, b, m, n = node[1:]
        c2_first = 4 * d - (d - 1) * _curve_euler_quadric(d * a, d * b)
        crossings = d * a * p * n + d * b * p * m
        second = d * _curve_euler_quadric(p * m, p * n) - (d - 1) * crossings
        c2 = p * c2_first - (p - 1) * second
        c1sq = 2 * p * d * (2 - (d - 1) * a - (p - 1) * m) * (2 - (d - 1) * b - (p - 1) * n)
        return c2, _signature(c1sq, c2), 0
    if tag == "Q":
        chi, tau, _ = invariants(node[1])
        d = node[2]
        assert chi % d == 0 and tau % d == 0
        return chi // d, tau // d, 0
    if tag == "F":
        _, left, right, g = node
        lc, lt, _ = invariants(left)
        rc, rt, _ = invariants(right)
        # Only sums of simply connected pieces are generated.
        return lc + rc - 2 * (2 - 2 * g), lt + rt, 0
    raise ValueError(f"unknown node {node!r}")


def betti_pm(chi: int, tau: int, b1: int) -> tuple[Fraction, Fraction]:
    b2 = chi - 2 + 2 * b1
    return Fraction(b2 + tau, 2), Fraction(b2 - tau, 2)


def ht_holds(chi: int, tau: int) -> bool:
    return chi >= 0 and 2 * chi + 3 * tau >= 0 and 2 * chi - 3 * tau >= 0


def c1sq(chi: int, tau: int) -> int:
    return 2 * chi + 3 * tau


def spin_form(chi: int, tau: int) -> tuple[int, int]:
    """(p, q) with p K3 # q S2xS2 having the given chi and tau."""
    assert tau % 16 == 0
    p = -tau // 16
    twice_q = chi - 22 * p - 2
    assert twice_q % 2 == 0
    return p, twice_q // 2


# --- lattice regions ---------------------------------------------------


def free_action_points(d: int, eps: Fraction, c: Fraction, n_max: int, m_max: int):
    """(n, m) with d | n, d | m, 0 < n <= n_max, 0 < m <= m_max and
    n < (6 - eps) m - (2d/3)(c + 1), in (n, m) order."""
    shift = Fraction(2 * d, 3) * (c + 1)
    points = []
    for n in range(d, n_max + 1, d):
        for m in range(d, m_max + 1, d):
            if n < (6 - eps) * m - shift:
                points.append((n, m))
    return points


def free_action_count(d: int, eps: Fraction, c: Fraction, n_max: int, m_max: int) -> int:
    shift = Fraction(2 * d, 3) * (c + 1)
    total = 0
    for m in range(d, m_max + 1, d):
        bound = (6 - eps) * m - shift  # n < bound
        if bound <= d:
            continue
        top = min(n_max, _ceil(bound) - 1)
        total += max(0, top // d)
    return total


def free_action_k(n: int, d: int) -> int:
    return (3 * n) // (2 * d) + 1 - n // d


def _ceil(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def bk_columns(eps_prime: Fraction, c: Fraction, x_max: int, y_max: int):
    """Per column x, the largest y with 1 <= y <= min(y_max, (9 - eps') x - c),
    in integers: (9 - a/b) x - p/q = ((9b - a) x q - p b) / (b q)."""
    a, b = eps_prime.numerator, eps_prime.denominator
    p, q = c.numerator, c.denominator
    tops = []
    for x in range(1, x_max + 1):
        num = (9 * b - a) * x * q - p * b
        tops.append(min(y_max, num // (b * q)))
    return tops


def bk_count(eps_prime: Fraction, c: Fraction, x_max: int, y_max: int) -> int:
    return sum(max(0, top) for top in bk_columns(eps_prime, c, x_max, y_max))


# --- certificate arithmetic --------------------------------------------

_ARITH_TOKEN = re.compile(r"\s*(?:(\d+)|(floor|mod)|(==|!=|<=|>=|<|>)|([-+*/(),]))")


class BadArithmetic(ValueError):
    pass


def check_arithmetic(text: str) -> bool:
    """Evaluate one comparison chain of certificate arithmetic over exact
    rationals: integers, + - * / ( ), floor(x), mod(a, b)."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        match = _ARITH_TOKEN.match(text, pos)
        if match is None:
            raise BadArithmetic(f"bad arithmetic {text!r} at {pos}")
        number, func, cmp, sym = match.groups()
        if number is not None:
            tokens.append(("num", int(number)))
        elif func is not None:
            tokens.append(("func", func))
        elif cmp is not None:
            tokens.append(("cmp", cmp))
        else:
            tokens.append(("sym", sym))
        pos = match.end()
    tokens.append(("end", None))
    index = 0

    def peek():
        return tokens[index]

    def take():
        nonlocal index
        index += 1
        return tokens[index - 1]

    def expect(sym):
        tok = take()
        if tok != ("sym", sym):
            raise BadArithmetic(f"expected {sym!r} in {text!r}")

    def expr():
        value = term()
        while peek() in (("sym", "+"), ("sym", "-")):
            op = take()[1]
            right = term()
            value = value + right if op == "+" else value - right
        return value

    def term():
        value = unary()
        while peek() in (("sym", "*"), ("sym", "/")):
            op = take()[1]
            right = unary()
            value = value * right if op == "*" else value / right
        return value

    def unary():
        if peek() == ("sym", "-"):
            take()
            return -unary()
        if peek() == ("sym", "+"):
            take()
            return unary()
        return atom()

    def atom():
        tok = take()
        if tok[0] == "num":
            return Fraction(tok[1])
        if tok == ("sym", "("):
            value = expr()
            expect(")")
            return value
        if tok[0] == "func":
            expect("(")
            first = expr()
            if tok[1] == "floor":
                expect(")")
                return Fraction(first.numerator // first.denominator)
            expect(",")
            second = expr()
            expect(")")
            if first.denominator != 1 or second.denominator != 1 or second == 0:
                raise BadArithmetic(f"mod of non-integers in {text!r}")
            return Fraction(first.numerator % second.numerator)
        raise BadArithmetic(f"unexpected token {tok!r} in {text!r}")

    compare = {
        "==": lambda x, y: x == y,
        "!=": lambda x, y: x != y,
        "<=": lambda x, y: x <= y,
        ">=": lambda x, y: x >= y,
        "<": lambda x, y: x < y,
        ">": lambda x, y: x > y,
    }
    left = expr()
    seen = 0
    holds = True
    while peek()[0] == "cmp":
        op = take()[1]
        right = expr()
        holds = holds and compare[op](left, right)
        left = right
        seen += 1
    if peek()[0] != "end" or seen == 0:
        raise BadArithmetic(f"not a comparison chain: {text!r}")
    return holds
