"""Integer-valued polynomials in the binomial basis.

A polynomial is stored as integer coefficients c_0..c_d of sum c_k * C(n, k),
which represents exactly the polynomials taking integer values on all
integers; Newton forward differences convert sample values into this basis
without any rational arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormulaParseError, SignatureError
from .logic import _Tokens


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]  # binomial-basis coefficients, no trailing zeros

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise SignatureError("binomial coefficients carry a trailing zero")

    def __call__(self, n: int) -> int:
        return sum(c * math.comb(n, k) for k, c in enumerate(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def power_coeffs(self) -> tuple[Fraction, ...]:
        """Exact power-basis coefficients (may be non-integer): C(n, k) is
        the k-th Newton basis polynomial over nodes 0, 1, 2, ... divided by k!."""
        newton = [Fraction(c, math.factorial(k)) for k, c in enumerate(self.coeffs)]
        return _newton_to_power(range(len(newton)), newton)

    def to_expression(self) -> str:
        """Render as an integer-coefficient expression in n when possible,
        otherwise as a combination of C(n,k) terms."""
        power = self.power_coeffs()
        if all(c.denominator == 1 for c in power):
            return _power_to_expression([int(c) for c in power])
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = f"C(n,{k})" if k else "1"
            parts.append(f"{c}*{term}" if k else str(c))
        return " + ".join(parts) if parts else "0"


def _power_to_expression(coeffs: list[int]) -> str:
    if not any(coeffs):
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            var = "n" if k == 1 else f"n^{k}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def from_binomial(coeffs) -> IntPolynomial:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(tuple(int(c) for c in coeffs))


def from_power(coeffs) -> IntPolynomial:
    """Binomial-basis form of sum coeffs[k] * n^k (integer coefficients)."""
    coeffs = [int(c) for c in coeffs]
    degree = len(coeffs) - 1
    values = [sum(c * n**k for k, c in enumerate(coeffs)) for n in range(max(degree + 1, 1))]
    return interpolate(list(enumerate(values)))


def constant(value: int) -> IntPolynomial:
    return from_binomial([value])


def _divided_differences(points) -> list[Fraction]:
    """Newton coefficients c_0..c_{m-1} of the polynomial through (x, y)
    points at distinct arguments x_0..x_{m-1}:
    p(x) = sum_k c_k (x - x_0)...(x - x_{k-1})."""
    xs = [x for x, _ in points]
    row = [Fraction(y) for _, y in points]
    coeffs = []
    for k in range(len(xs)):
        coeffs.append(row[0])
        row = [(b - a) / (xs[i + k + 1] - xs[i]) for i, (a, b) in enumerate(zip(row, row[1:]))]
    return coeffs


def _newton_to_power(nodes, coeffs) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the Newton form sum_k coeffs[k] *
    (x - nodes[0])...(x - nodes[k-1]), by Horner's rule; trailing zeros are
    dropped."""
    out = [coeffs[-1]] if coeffs else [Fraction(0)]
    for k in range(len(coeffs) - 2, -1, -1):
        out = _add(_mul(out, [-nodes[k], 1]), [coeffs[k]])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def interpolate(samples) -> IntPolynomial:
    """Interpolation of samples (n, value) taken at consecutive arguments
    0, 1, 2, ...; the binomial coefficient of C(n, k) is k! times the k-th
    divided difference, which is the k-th forward difference and so an
    integer."""
    samples = list(samples)
    if not samples:
        raise SignatureError("interpolation needs at least one sample")
    for i, (n, _) in enumerate(samples):
        if n != i:
            raise SignatureError(f"samples must sit at consecutive n from 0; got n={n} at index {i}")
    newton = _divided_differences(samples)
    return from_binomial(int(c * math.factorial(k)) for k, c in enumerate(newton))


def lagrange_fit(points) -> tuple[Fraction, ...]:
    """Exact power-basis coefficients of the polynomial through (x, y) points
    at arbitrary distinct arguments."""
    points = list(points)
    return _newton_to_power([x for x, _ in points], _divided_differences(points))


def eval_fit(coeffs, x: int) -> Fraction:
    """Horner evaluation of power-basis coefficients at x."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


# ---------------------------------------------------------------------------
# Parsing of integer polynomial expressions in n

_POLY_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<n>n)|(?P<op>[-+*^()])|(?P<C>C))")
# The largest exponent literal and the largest degree a parsed expression may
# reach at any step, like the nesting limit of 100 levels.
MAX_DEGREE = 100


class _PolyParser(_Tokens):
    """Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := base ('^' INT)?; base := INT | 'n' | '(' expr ')' | '-' factor."""

    def __init__(self, text: str):
        super().__init__(text, _POLY_TOKEN, "polynomial")

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise FormulaParseError("unexpected trailing input in polynomial", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            value = _add(value, rhs) if op == "+" else _sub(value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek()[1] == "*":
            offset = self.next()[2]
            value = _bounded(_mul(value, self.factor()), offset)
        return value

    def factor(self):
        base = self.base()
        if self.peek()[1] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise FormulaParseError("exponent must be an integer literal", tok[2])
            exponent = int(tok[1])
            if exponent > MAX_DEGREE:
                raise FormulaParseError(f"exponent exceeds {MAX_DEGREE}", tok[2])
            result = [1]
            for _ in range(exponent):
                result = _bounded(_mul(result, base), tok[2])
            return result
        return base

    def base(self):
        kind, value, offset = self.next()
        if kind == "int":
            return [int(value)]
        if kind == "n":
            return [0, 1]
        if value not in ("(", "-"):
            raise FormulaParseError("expected a polynomial term", offset)
        self.nest(offset)
        if value == "(":
            inner = self.expr()
            tok = self.next()
            if tok[1] != ")":
                raise FormulaParseError("expected ')'", tok[2])
        else:
            inner = _sub([0], self.factor())
        self.depth -= 1
        return inner


def _bounded(a, offset: int):
    if len(a) - 1 > MAX_DEGREE:
        raise FormulaParseError(f"polynomial degree exceeds {MAX_DEGREE}", offset)
    return a


def _add(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _sub(a, b):
    return _add(a, [-v for v in b])


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse an integer-coefficient expression in n ("n", "2*n+1", "n^2")."""
    power = _PolyParser(text).parse()
    while len(power) > 1 and power[-1] == 0:
        power.pop()
    return from_power(power)
