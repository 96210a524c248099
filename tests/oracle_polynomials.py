"""Reference implementations kept as oracles for relpoly.polynomials: forward
differences at nodes 0, 1, 2, ..., the Lagrange basis at arbitrary nodes,
power-basis coefficients from multiplied-out falling factorials, and the
polynomial parser with its own token loop.  The library does all three
conversions through one divided-difference routine and tokenizes through
relpoly.logic."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from relpoly.errors import FormulaParseError, SignatureError
from relpoly.logic import MAX_NESTING
from relpoly.polynomials import (
    MAX_DEGREE,
    IntPolynomial,
    _add,
    _mul,
    _power_to_expression,
    _sub,
    from_binomial,
)


def interpolate(samples) -> IntPolynomial:
    """Newton forward-difference interpolation of samples (n, value) taken at
    consecutive arguments 0, 1, 2, ...; binomial coefficients are the leading
    finite differences and are automatically integers."""
    samples = list(samples)
    if not samples:
        raise SignatureError("interpolation needs at least one sample")
    for i, (n, _) in enumerate(samples):
        if n != i:
            raise SignatureError(f"samples must sit at consecutive n from 0; got n={n} at index {i}")
    values = [int(v) for _, v in samples]
    coeffs = []
    row = values
    while row:
        coeffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return from_binomial(coeffs)


def lagrange_fit(points) -> tuple[Fraction, ...]:
    """Exact power-basis coefficients of the polynomial through (x, y) points
    at arbitrary distinct arguments."""
    coeffs = [Fraction(0)]
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = _mul(basis, [Fraction(-xj), Fraction(1)])
            denom *= Fraction(xi - xj)
        scale = Fraction(yi) / denom
        coeffs = _add(coeffs, [scale * c for c in basis])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def power_coeffs(self: IntPolynomial) -> tuple[Fraction, ...]:
    """Exact power-basis coefficients (may be non-integer)."""
    out = [Fraction(0)] * max(len(self.coeffs), 1)
    # C(n, k) = n(n-1)...(n-k+1)/k!
    for k, c in enumerate(self.coeffs):
        poly = [Fraction(1)]
        for i in range(k):
            poly = _mul(poly, [Fraction(-i), Fraction(1)])
        scale = Fraction(c, math.factorial(k))
        for i, v in enumerate(poly):
            if i >= len(out):
                out.extend([Fraction(0)] * (i - len(out) + 1))
            out[i] += scale * v
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def to_expression(self: IntPolynomial) -> str:
    """Render as an integer-coefficient expression in n when possible,
    otherwise as a combination of C(n,k) terms."""
    power = power_coeffs(self)
    if all(c.denominator == 1 for c in power):
        return _power_to_expression([int(c) for c in power])
    parts = []
    for k, c in enumerate(self.coeffs):
        if c == 0:
            continue
        term = f"C(n,{k})" if k else "1"
        parts.append(f"{c}*{term}" if k else str(c))
    return " + ".join(parts) if parts else "0"


def from_power(coeffs) -> IntPolynomial:
    """Binomial-basis form of sum coeffs[k] * n^k (integer coefficients)."""
    coeffs = [int(c) for c in coeffs]
    degree = len(coeffs) - 1
    values = [sum(c * n**k for k, c in enumerate(coeffs)) for n in range(max(degree + 1, 1))]
    return interpolate(list(enumerate(values)))


_POLY_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<n>n)|(?P<op>[-+*^()])|(?P<C>C))")


class _PolyParser:
    """Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := base ('^' INT)?; base := INT | 'n' | '(' expr ')' | '-' factor."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _POLY_TOKEN.match(text, pos)
            if m is None or m.end() == m.start():
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise FormulaParseError(
                    f"unexpected character {stripped[0]!r} in polynomial",
                    len(text) - len(stripped) + 1,
                )
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.pos = 0
        self.depth = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

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
            value = _mul(value, self.factor())
            if len(value) - 1 > MAX_DEGREE:
                raise FormulaParseError(f"polynomial degree exceeds {MAX_DEGREE}", offset)
        return value

    def factor(self):
        base = self.base()
        if self.peek()[1] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise FormulaParseError("exponent must be an integer literal", tok[2])
            if int(tok[1]) > MAX_DEGREE:
                raise FormulaParseError(f"exponent exceeds {MAX_DEGREE}", tok[2])
            if int(tok[1]) * (len(base) - 1) > MAX_DEGREE:
                raise FormulaParseError(f"polynomial degree exceeds {MAX_DEGREE}", tok[2])
            result = [1]
            for _ in range(int(tok[1])):
                result = _mul(result, base)
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
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaParseError(
                f"polynomial nested deeper than {MAX_NESTING} levels", offset)
        if value == "(":
            inner = self.expr()
            tok = self.next()
            if tok[1] != ")":
                raise FormulaParseError("expected ')'", tok[2])
        else:
            inner = _sub([0], self.factor())
        self.depth -= 1
        return inner


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse an integer-coefficient expression in n ("n", "2*n+1", "n^2")."""
    power = _PolyParser(text).parse()
    while len(power) > 1 and power[-1] == 0:
        power.pop()
    return from_power(power)
