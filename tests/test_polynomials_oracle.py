"""Differential tests of relpoly.polynomials against the reference routines
in oracle_polynomials.py: forward differences, the Lagrange basis,
multiplied-out falling factorials and the parser with its own token loop."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_polynomials as oracle
from relpoly.errors import ToolkitError
from relpoly.polynomials import (
    from_binomial,
    interpolate,
    lagrange_fit,
    parse_polynomial,
)

_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)
_INTS = st.integers(-10**6, 10**6)


@_SETTINGS
@given(st.lists(_INTS, min_size=1, max_size=10))
def test_interpolate_matches_forward_differences(values):
    samples = list(enumerate(values))
    assert interpolate(samples) == oracle.interpolate(samples)


@_SETTINGS
@given(st.lists(st.integers(-60, 60), min_size=0, max_size=9, unique=True), st.data())
def test_lagrange_fit_matches_lagrange_basis(xs, data):
    points = [(x, data.draw(_INTS)) for x in xs]
    assert lagrange_fit(points) == oracle.lagrange_fit(points)


@_SETTINGS
@given(st.lists(st.integers(-1000, 1000), max_size=10))
def test_power_coeffs_and_expression_match(coeffs):
    poly = from_binomial(coeffs)
    assert poly.power_coeffs() == oracle.power_coeffs(poly)
    assert poly.to_expression() == oracle.to_expression(poly)


@_SETTINGS
@given(st.lists(st.integers(-1000, 1000), max_size=10))
def test_every_written_polynomial_reads_back(coeffs):
    """What `to_expression` writes, `C(n,k)` terms included, parses back to
    the same polynomial, in the library and in the reference parser."""
    poly = from_binomial(coeffs)
    assert parse_polynomial(poly.to_expression()) == poly
    assert oracle.parse_polynomial(poly.to_expression()) == poly


@st.composite
def _expressions(draw, depth=3):
    """Well-formed polynomial text: sums of products of powers."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(("n", "0", "1", "2", "7", "12")))
    kind = draw(st.sampled_from(("+", "-", "*", "^", "()", "neg")))
    left = draw(_expressions(depth - 1))
    if kind == "^":
        return f"({left})^{draw(st.integers(0, 3))}"
    if kind == "()":
        return f"({left})"
    if kind == "neg":
        return f"-{left}"
    spaces = draw(st.sampled_from(("", " ")))
    return f"{left}{spaces}{kind}{spaces}{draw(_expressions(depth - 1))}"


def _outcome(parse, text):
    try:
        return parse(text)
    except ToolkitError as exc:
        return type(exc), str(exc)


@_SETTINGS
@given(_expressions())
def test_parse_polynomial_matches_on_expressions(text):
    assert parse_polynomial(text) == oracle.parse_polynomial(text)


@_SETTINGS
@given(st.text(alphabet="n012+-*^() C,x", max_size=8))
def test_parse_polynomial_errors_match(text):
    """Arbitrary short text parses to the same polynomial or fails with the
    same error message and offset."""
    assert _outcome(parse_polynomial, text) == _outcome(oracle.parse_polynomial, text)


@pytest.mark.parametrize("text, message", [
    ("n + x", "unexpected character 'x' in polynomial at offset 5"),
    ("(n", "expected ')' at offset 3"),
    ("n^n", "exponent must be an integer literal at offset 3"),
    ("n n", "unexpected trailing input in polynomial at offset 3"),
    ("C(n,k)", "unexpected character 'k' in polynomial at offset 5"),
    ("C(2,1)", "expected C(n,k) with k an integer literal at offset 3"),
    ("C(n,101)", "polynomial degree exceeds 100 at offset 5"),
])
def test_parse_polynomial_error_messages(text, message):
    assert _outcome(parse_polynomial, text)[1] == message


@_SETTINGS
@given(st.lists(st.tuples(_expressions(depth=1), st.integers(0, 130)), min_size=1, max_size=3))
def test_parse_polynomial_degree_limit_matches(factors):
    """Products of powers near the degree limit parse to the same polynomial
    or fail with the same message and offset."""
    text = "*".join(f"({base})^{e}" for base, e in factors)
    assert _outcome(parse_polynomial, text) == _outcome(oracle.parse_polynomial, text)


@pytest.mark.parametrize("text, message", [
    ("n^101", "exponent exceeds 100 at offset 3"),
    ("(n^10)^11", "polynomial degree exceeds 100 at offset 8"),
    ("1^99999999", "exponent exceeds 100 at offset 3"),
    ("n^60*n^41", "polynomial degree exceeds 100 at offset 5"),
])
def test_parse_polynomial_degree_is_bounded(text, message):
    """A polynomial of degree above 100 fails at once instead of being
    multiplied out; degree 100 itself still parses."""
    start = time.perf_counter()
    assert _outcome(parse_polynomial, text)[1] == message
    assert time.perf_counter() - start < 0.5
    assert parse_polynomial("n^100").degree == 100
