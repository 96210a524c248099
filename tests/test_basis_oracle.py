"""Differential tests of the bitmask hom-basis decomposition against the
diagram and super-pattern enumeration kept in oracle_logic, and of its value
against brute-force counting.

Terms are compared as (coefficient, canonical key) lists: a term's
representative may be a different but isomorphic structure on each side."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoly import (
    BudgetError,
    canonical_form,
    count_satisfying,
    parse_formula,
    qf_to_hom_basis,
    sig,
)
from relpoly import logic
from relpoly.budgets import basis_budget
from relpoly.logic import (
    FALSE,
    TRUE,
    Atom,
    FalseNode,
    TrueNode,
    _children,
    build_formula,
    conj,
    disj,
)

from genutil import random_qf_formula, random_qf_node, random_structure
from oracle_logic import decompose

SIG_R = sig(("R", 2))
SIG_RW = sig(("R", 2), ("W", 1))
# Targets carry symbols the formulas never name, and list R and W in another
# order, so that each hom count aligns the pattern with the target by name.
SIG_TARGET = sig(("T", 3), ("W", 1), ("X", 2), ("R", 2))


def _keys(basis):
    return [(c, canonical_form(f)) for c, f in basis.terms]


def _agree(phi):
    assert _keys(qf_to_hom_basis(phi)) == _keys(decompose(phi, basis_budget())), phi


def _has_constant(node) -> bool:
    return isinstance(node, (TrueNode, FalseNode)) or any(map(_has_constant, _children(node)))


def test_decomposition_agrees_on_binary_formulas():
    rng = random.Random(71)
    for p, count in ((1, 10), (2, 10), (3, 8)):
        for _ in range(count):
            _agree(random_qf_formula(rng, SIG_R, p))


def test_decomposition_agrees_on_unary_and_binary_formulas():
    rng = random.Random(72)
    for p in (1, 2):
        for _ in range(10):
            _agree(random_qf_formula(rng, SIG_RW, p))
    _agree(parse_formula("W(x) & R(x,y) & !W(y) & !(x = y)", SIG_RW, ["x", "y"]))


def test_decomposition_agrees_on_formulas_with_true_and_false():
    texts = ["true", "false", "R(x,y) & true", "R(x,y) | false", "!false -> R(y,x)",
             "(x = y) <-> false", "(R(x,x) | true) & !(y = x)"]
    for text in texts:
        _agree(parse_formula(text, SIG_R, ["x", "y"]))
    _agree(parse_formula("true", SIG_RW, ["x", "y", "z"]))
    _agree(parse_formula("W(x) & !true | R(x,y) & true", SIG_RW, ["x", "y"]))
    rng = random.Random(73)
    seen = 0
    while seen < 12:
        phi = random_qf_formula(rng, SIG_RW, rng.randrange(1, 3))
        if _has_constant(phi.root):
            _agree(phi)
            seen += 1
    variables = ["x1", "x2"]
    for constant in (TRUE, FALSE):
        for _ in range(4):
            node = random_qf_node(rng, SIG_R, variables)
            _agree(build_formula(disj(conj(node, constant), Atom("R", ("x2", "x1"))),
                                 SIG_R, variables))


@pytest.mark.parametrize("limit", [1, 2, 15, 16, 63, 64, 511, 512])
def test_decomposition_budget_errors_agree(monkeypatch, limit):
    monkeypatch.setenv("RELPOLY_BASIS_BUDGET", str(limit))
    rng = random.Random(74 + limit)
    formulas = [random_qf_formula(rng, SIG_R, p) for p in (1, 2, 3) for _ in range(3)]
    formulas += [random_qf_formula(rng, SIG_RW, p) for p in (1, 2) for _ in range(3)]
    formulas.append(parse_formula("x = y", SIG_R))
    raised = 0
    for phi in formulas:
        try:
            expected = _keys(decompose(phi, limit))
        except BudgetError as exc:
            with pytest.raises(BudgetError) as fast:
                qf_to_hom_basis(phi)
            assert str(fast.value) == str(exc), phi
            raised += 1
        else:
            assert _keys(qf_to_hom_basis(phi)) == expected, phi
    assert (raised > 0) == (limit < 512)


def test_many_variables_are_refused_before_the_partition_walk(monkeypatch):
    """Twelve variables and one unary symbol give only 2^12 diagrams, but
    Bell(12) = 4,213,597 partitions, past the default basis budget."""
    variables = [f"x{i}" for i in range(12)]
    text = " & ".join(["W(x0)"] + [f"!(x{i} = x{i + 1})" for i in range(11)])
    phi = parse_formula(text, sig(("W", 1)), variables)
    monkeypatch.delenv("RELPOLY_BASIS_BUDGET", raising=False)

    def walk(n):
        raise AssertionError(f"walked the partitions of {n} variables")

    monkeypatch.setattr(logic, "set_partitions", walk)
    message = r"Bell\(12\) partitions of 12 free variables exceed the basis budget of 1000000"
    with pytest.raises(BudgetError, match=message):
        qf_to_hom_basis(phi)
    with pytest.raises(BudgetError, match=message):
        decompose(phi, basis_budget())
    # Bell(3000) has more digits than Python turns into a string: the check
    # stops the triangle past the budget and names it without its digits
    variables = [f"x{i}" for i in range(3000)]
    phi = build_formula(conj(*[Atom("W", (v,)) for v in variables]), sig(("W", 1)), variables)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        qf_to_hom_basis(phi)
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == ("Bell(3000) partitions of 3000 free variables exceed the "
                              "basis budget of 1000000")


@st.composite
def _formulas(draw):
    rng = draw(st.randoms(use_true_random=False))
    signature = draw(st.sampled_from((SIG_R, SIG_RW)))
    p = draw(st.integers(1, 3 if signature is SIG_R else 2))
    return random_qf_formula(rng, signature, p, depth=draw(st.integers(1, 4)))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_formulas())
def test_decomposition_matches_oracle_property(phi):
    _agree(phi)


@st.composite
def _formulas_and_targets(draw):
    phi = draw(_formulas())
    # the size comes from a seeded Random: hypothesis' own draws favour empty targets
    rng = random.Random(draw(st.integers(0, 2**32)))
    return phi, random_structure(rng, SIG_TARGET, rng.randrange(0, 6))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_formulas_and_targets())
def test_hom_basis_value_matches_count_satisfying(case):
    """The basis terms share the target's candidate indexes within one
    value call; the sum must still be the brute-force satisfaction count."""
    phi, target = case
    assert qf_to_hom_basis(phi).value(target) == count_satisfying(phi, target), phi
