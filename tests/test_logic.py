import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoly import (
    BindingError,
    BudgetError,
    FormulaParseError,
    basic_signature,
    build_marked_vertex,
    build_transitive_tournament,
    canonical_form,
    count_satisfying,
    eval_formula,
    formula_to_text,
    make_structure,
    parse_formula,
    qf_to_hom_basis,
    satisfying_tuples,
    sig,
)
from relpoly.logic import (
    Exists, Forall, basis_work, build_formula, conj, disj, evaluator, row_kernel,
)
from relpoly.interp import instantiate
from oracle_isomorphism import backtrack_weakly_isomorphic
from oracle_logic import _eval_node, to_dnf

from genutil import (
    permute,
    random_graph,
    random_qf_formula,
    random_qf_node,
    random_structure,
    rename_structure_symbols,
)

SIG_R = sig(("R", 2))


def test_parse_basic_signature_aliases():
    beta = basic_signature(1, 2)
    phi = parse_formula("UT1(x1) & !UT1(x2)", beta)
    assert phi.is_quantifier_free
    assert phi.free_vars == ("x1", "x2")
    # aliases resolve to the canonical spelling
    assert formula_to_text(phi) == "U1T(x1) & !U1T(x2)"


def test_parse_identity_formula():
    phi = parse_formula("x1 = x1", sig())
    assert phi.is_quantifier_free
    assert count_satisfying(phi, build_transitive_tournament(5)) == 5


def test_parse_error_offset():
    with pytest.raises(FormulaParseError) as err:
        parse_formula("S1(x1,x2", basic_signature(1, 0))
    assert err.value.offset == 9
    with pytest.raises(FormulaParseError):
        parse_formula("S1(x1,,x2)", basic_signature(1, 0))
    with pytest.raises(FormulaParseError):
        parse_formula("x1 = ", sig())
    with pytest.raises(FormulaParseError):
        parse_formula("E(x,y) E(y,x)", sig(("E", 2)))


def test_nesting_limit():
    edge = sig(("E", 2))
    for deep in ("(" * 400 + "E(x,y)" + ")" * 400,
                 "!" * 400 + "E(x,y)",
                 " <-> ".join(["E(x,y)"] * 400),
                 " -> ".join(["E(x,y)"] * 400),
                 "exists z (" * 400 + "E(x,y)" + ")" * 400):
        with pytest.raises(FormulaParseError, match="nested deeper than 100"):
            parse_formula(deep, edge)
    k2 = make_structure(edge, 2, {"E": [(0, 1), (1, 0)]})
    assert count_satisfying(parse_formula("(" * 100 + "E(x,y)" + ")" * 100, edge), k2) == 2
    assert count_satisfying(parse_formula("!" * 100 + "E(x,y)", edge), k2) == 2
    # parsed within the limit, but And/Or alternate below each parenthesis
    text = "E(x,y)"
    for _ in range(60):
        text = f"({text} & E(y,x) | x = y)"
    with pytest.raises(FormulaParseError, match="nested deeper than 100"):
        count_satisfying(parse_formula(text, edge), k2)


def test_binding_errors():
    with pytest.raises(BindingError):
        parse_formula("Q(x)", SIG_R)
    with pytest.raises(BindingError):
        parse_formula("R(x)", SIG_R)
    with pytest.raises(BindingError):
        parse_formula("R(x,y)", SIG_R, declared_vars=["x"])
    with pytest.raises(BindingError):
        parse_formula("R(x,y)", SIG_R, declared_vars=["x", "y", "x"])


def test_declared_vars_fix_arity():
    phi = parse_formula("true", SIG_R, declared_vars=["x1", "x2"])
    assert phi.free_vars == ("x1", "x2")
    assert count_satisfying(phi, random_structure(random.Random(0), SIG_R, 3)) == 9


def test_eval_formula():
    e = build_marked_vertex()
    assert eval_formula(parse_formula("U(x)", e.signature), e, {"x": 0})
    t3 = build_transitive_tournament(3)
    s = parse_formula("S(x1,x2)", t3.signature)
    assert eval_formula(s, t3, {"x1": 0, "x2": 2})
    assert not eval_formula(s, t3, {"x1": 2, "x2": 0})
    ez = parse_formula("exists z (S(x,z))", t3.signature)
    assert eval_formula(ez, t3, {"x": 0})
    assert not eval_formula(ez, t3, {"x": 2})
    fa = parse_formula("forall z (S(x,z) | x = z | S(z,x))", t3.signature)
    assert eval_formula(fa, t3, {"x": 1})
    with pytest.raises(BindingError):
        eval_formula(s, t3, {"x1": 0})
    for outside in (99, -1, 3):
        with pytest.raises(BindingError, match=f"{outside} is not a vertex of a domain of size 3"):
            eval_formula(s, t3, {"x1": outside, "x2": 2})


def test_substitution_renames_a_bound_variable_to_a_fresh_name():
    """Renaming the bound y of phi to y_q0 would capture the y_q0 that
    replaces z; the fresh name must avoid every substituted name."""
    graph_sig = sig(("E", 2))
    phi = parse_formula("exists y (E(x1,y) & E(y,z))", graph_sig)
    psi = build_formula(instantiate(phi, ["y", "y_q0"]), graph_sig, ("y", "y_q0"))
    path = make_structure(graph_sig, 3, {"E": [(0, 1), (1, 0), (1, 2), (2, 1)]})
    for a, b in product(range(3), repeat=2):
        assert eval_formula(psi, path, {"y": a, "y_q0": b}) == \
            eval_formula(phi, path, {"x1": a, "z": b})
    assert eval_formula(psi, path, {"y": 0, "y_q0": 2})


def test_count_satisfying(monkeypatch):
    t4 = build_transitive_tournament(4)
    assert count_satisfying(parse_formula("S(x1,x2)", t4.signature), t4) == 6
    assert count_satisfying(parse_formula("x1 = x2", sig()), t4) == 4
    e = build_marked_vertex()
    assert count_satisfying(parse_formula("U(x)", e.signature), e) == 1
    tuples = list(satisfying_tuples(parse_formula("S(x1,x2)", t4.signature), t4))
    assert tuples == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    monkeypatch.setenv("RELPOLY_ASSIGNMENT_BUDGET", "3")
    with pytest.raises(BudgetError):
        count_satisfying(parse_formula("S(x1,x2)", t4.signature), t4)


def test_quantifiers_count_against_the_assignment_budget(monkeypatch):
    edge = sig(("E", 2))
    g = random_graph(random.Random(3), 3)
    deep = parse_formula("exists z (" * 99 + "E(x,y)" + ")" * 99, edge)
    with pytest.raises(BudgetError, match=r"\|A\|\^101"):
        count_satisfying(deep, g)
    with pytest.raises(BudgetError):
        list(satisfying_tuples(deep, g))
    with pytest.raises(BudgetError):
        eval_formula(deep, g, {"x": 0, "y": 1})
    # |A|^(p+d) = 3^3 = 27: one quantifier over two free variables
    one = parse_formula("exists z (E(x,z) & E(z,y))", edge)
    unbounded = count_satisfying(one, g)
    monkeypatch.setenv("RELPOLY_ASSIGNMENT_BUDGET", "27")
    assert count_satisfying(one, g) == unbounded
    monkeypatch.setenv("RELPOLY_ASSIGNMENT_BUDGET", "26")
    with pytest.raises(BudgetError):
        count_satisfying(one, g)


def test_compiled_matches_reference_interpreter():
    rng = random.Random(13)
    for _ in range(30):
        phi = random_qf_formula(rng, SIG_R, 2)
        s = random_structure(rng, SIG_R, rng.randrange(1, 4))
        for a in product(range(s.domain), repeat=2):
            env = dict(zip(phi.free_vars, a))
            assert eval_formula(phi, s, env) == _eval_node(phi.root, s, env)


SIG_RW = sig(("R", 2), ("W", 1))


@st.composite
def _formulas_and_structures(draw):
    """A random quantifier-free body over free and bound variables, under up
    to two quantifiers, each possibly joined with another quantifier-free
    part over the variables in scope; and a structure of 0 to 4 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    free = [f"x{i + 1}" for i in range(draw(st.integers(0, 3)))]
    bound = [f"z{i + 1}" for i in range(draw(st.integers(0 if free else 1, 2)))]
    node = random_qf_node(rng, SIG_RW, free + bound)
    for i in reversed(range(len(bound))):
        node = draw(st.sampled_from((Exists, Forall)))(bound[i], node)
        scope = free + bound[:i]
        if scope and draw(st.booleans()):
            join = draw(st.sampled_from((conj, disj)))
            node = join(node, random_qf_node(rng, SIG_RW, scope, depth=2, max_atoms=2))
    phi = build_formula(node, SIG_RW, free)
    # sizes come from a seeded Random: hypothesis' own draws favour empty domains
    return phi, random_structure(rng, SIG_RW, rng.randrange(0, 5))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_formulas_and_structures())
def test_compiled_evaluator_matches_reference_property(case):
    phi, s = case
    test = evaluator(phi, s)
    for a in product(range(s.domain), repeat=len(phi.free_vars)):
        assert test(a) == _eval_node(phi.root, s, dict(zip(phi.free_vars, a))), (phi, s, a)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_formulas_and_structures(), st.integers(0, 2**32))
def test_row_kernel_matches_the_evaluator_property(case, seed):
    """At every split of the free variables into head and row, the kernel
    returns the indices of the rows the evaluator accepts, on row lists that
    may be empty or repeat rows."""
    phi, s = case
    rng = random.Random(seed)
    test = evaluator(phi, s)
    p = len(phi.free_vars)
    for split in range(p + 1):
        run = row_kernel(phi, s, split)
        heads = list(product(range(s.domain), repeat=split))
        values = list(product(range(s.domain), repeat=p - split))
        for head in rng.sample(heads, min(len(heads), 3)):
            rows = [rng.choice(values) for _ in range(rng.randrange(7))] if values else []
            rows += rows[:rng.randrange(len(rows) + 1)]
            expected = [j for j, row in enumerate(rows) if test(head + row)]
            assert run(head, rows) == expected, (phi, s, split, head, rows)
            assert run(head, []) == []


def test_row_kernel_at_the_nesting_limit():
    edge = sig(("E", 2))
    k2 = make_structure(edge, 2, {"E": [(0, 1), (1, 0)]})
    pairs = list(product(range(2), repeat=2))
    for text in ("(" * 100 + "E(x,y)" + ")" * 100, "!" * 100 + "E(x,y)"):
        phi = parse_formula(text, edge)
        test = evaluator(phi, k2)
        for split in range(3):
            for head in product(range(2), repeat=split):
                rows = [pair[split:] for pair in pairs]
                expected = [j for j, row in enumerate(rows) if test(head + row)]
                assert row_kernel(phi, k2, split)(head, rows) == expected
    text = "E(x,y)"
    for _ in range(60):
        text = f"({text} & E(y,x) | x = y)"
    with pytest.raises(FormulaParseError, match="nested deeper than 100"):
        row_kernel(parse_formula(text, edge), k2, 1)


def test_eval_invariant_under_relabeling():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randrange(1, 5)
        s = random_structure(rng, SIG_R, n)
        perm = list(range(n))
        rng.shuffle(perm)
        t = permute(s, perm)
        phi = random_qf_formula(rng, SIG_R, 2)
        for a in product(range(n), repeat=2):
            env_s = dict(zip(phi.free_vars, a))
            env_t = {v: perm[x] for v, x in env_s.items()}
            assert eval_formula(phi, s, env_s) == eval_formula(phi, t, env_t)


def _all_structures(n):
    tuples = list(product(range(n), repeat=2))
    for mask in range(1 << len(tuples)):
        yield make_structure(
            SIG_R, n, {"R": [t for i, t in enumerate(tuples) if mask >> i & 1]}
        )


def test_dnf_shape_and_equivalence():
    demorgan = to_dnf(parse_formula("!(R(x,y) & R(y,x))", SIG_R))
    assert formula_to_text(demorgan) == "!R(x,y) | !R(y,x)"

    iff = to_dnf(parse_formula("x1 = y1 <-> x2 = y2", sig()))
    text = formula_to_text(iff)
    assert "|" in text and "<->" not in text

    rng = random.Random(31)
    for _ in range(20):
        phi = random_qf_formula(rng, SIG_R, 3)
        dnf = to_dnf(phi)
        for n in (0, 1, 2):
            for s in _all_structures(n):
                for a in product(range(n), repeat=3):
                    env = dict(zip(phi.free_vars, a))
                    assert eval_formula(phi, s, env) == eval_formula(dnf, s, env)


def test_dnf_rejects_quantifiers_and_budget(monkeypatch):
    with pytest.raises(BindingError):
        to_dnf(parse_formula("exists z (R(x,z))", SIG_R))
    big = " | ".join(f"R(x{i},y{i}) & R(y{i},x{i})" for i in range(12))
    phi = parse_formula(f"!({big})", SIG_R)
    monkeypatch.setenv("RELPOLY_DNF_BUDGET", "50")
    with pytest.raises(BudgetError):
        to_dnf(phi)


def test_hom_basis_identity_formula():
    basis = qf_to_hom_basis(parse_formula("x1 = x2", SIG_R, ["x1", "x2"]))
    assert len(basis.terms) == 1
    coeff, pattern = basis.terms[0]
    assert coeff == 1 and pattern.domain == 1 and pattern.total_tuples() == 0
    target = random_structure(random.Random(2), SIG_R, 5)
    assert basis.value(target) == 5


def test_hom_basis_edge_formula():
    phi = parse_formula("R(x1,x2)", SIG_R)
    basis = qf_to_hom_basis(phi)
    rng = random.Random(4)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(0, 5))
        target = make_structure(SIG_R, g.domain, {"R": g.rel("E")})
        # on a loopless symmetric target the count is twice the edge count
        assert basis.value(target) == count_satisfying(phi, target)
        assert basis.value(target) == len(g.rel("E"))


def test_hom_basis_random_oracle():
    rng = random.Random(8)
    for _ in range(25):
        phi = random_qf_formula(rng, SIG_R, rng.randrange(1, 4))
        basis = qf_to_hom_basis(phi)
        for _ in range(4):
            s = random_structure(rng, SIG_R, rng.randrange(0, 5))
            assert basis.value(s) == count_satisfying(phi, s)


def test_hom_basis_like_terms_canonical():
    basis = qf_to_hom_basis(parse_formula("R(x1,x2) | R(x2,x1)", SIG_R))
    keys = [canonical_form(p) for _, p in basis.terms]
    assert len(keys) == len(set(keys))
    for _, p in basis.terms:
        for _, q in basis.terms:
            if p is not q and p.domain == q.domain:
                assert (not backtrack_weakly_isomorphic(p, q)
                        or canonical_form(p) != canonical_form(q))


def test_hom_basis_invariant_under_dnf():
    rng = random.Random(17)
    for _ in range(10):
        phi = random_qf_formula(rng, SIG_R, 2)
        b1 = qf_to_hom_basis(phi)
        b2 = qf_to_hom_basis(to_dnf(phi))
        key1 = sorted((c, canonical_form(p)) for c, p in b1.terms)
        key2 = sorted((c, canonical_form(p)) for c, p in b2.terms)
        assert key1 == key2


def test_basis_work_bound():
    graph = sig(("E", 2))
    # sum over k = 1..3 of (S(3,k) + 1 + Bell(k)) * 3^(k^2)
    p3ind = parse_formula("E(x,y) & E(y,z) & !E(x,z) & !(x=z)", graph)
    assert basis_work(p3ind) == 3 * 3 + 6 * 3**4 + 7 * 3**9 == 138276
    assert basis_work(parse_formula("x = y", graph)) == (1 + 1 + 1) + (1 + 1 + 2)
    rq = parse_formula("R(x,y) & Q(y,z) & !(x = z)", sig(("R", 2), ("Q", 2)))
    assert basis_work(rq) == 3 * 3**2 + 6 * 3**8 + 7 * 3**18
    assert 10**3 < basis_work(rq, cap=10**3) < basis_work(rq)
    many = parse_formula(" & ".join(f"x{i} = x{i + 1}" for i in range(300)), graph)
    assert basis_work(many, cap=10**6) > 10**6


def test_hom_basis_is_cached_per_budget(monkeypatch):
    phi = parse_formula("R(x1,x2) & !R(x2,x1)", SIG_R)
    assert qf_to_hom_basis(phi) is qf_to_hom_basis(phi)
    monkeypatch.setenv("RELPOLY_BASIS_BUDGET", "2")
    with pytest.raises(BudgetError):
        qf_to_hom_basis(phi)


def test_hom_basis_rejects_bad_inputs():
    with pytest.raises(BindingError):
        qf_to_hom_basis(parse_formula("exists z (R(x,z))", SIG_R))
    with pytest.raises(BindingError):
        qf_to_hom_basis(parse_formula("true", SIG_R, declared_vars=[]))


def test_formula_text_round_trip():
    rng = random.Random(41)
    for _ in range(25):
        phi = random_qf_formula(rng, SIG_R, 3)
        text = formula_to_text(phi)
        again = parse_formula(text, SIG_R, phi.free_vars)
        assert again.root == phi.root
    quantified = parse_formula("exists z (R(x,z) & forall w (R(w,z) -> w = x))", SIG_R)
    assert parse_formula(formula_to_text(quantified), SIG_R).root == quantified.root


def test_eval_invariant_under_symbol_renaming():
    from relpoly import build_formula
    from relpoly.logic import rename_symbols

    rng = random.Random(29)
    renamed_sig = sig(("Q", 2))
    for _ in range(10):
        n = rng.randrange(1, 5)
        s = random_structure(rng, SIG_R, n)
        phi = random_qf_formula(rng, SIG_R, 2)
        perm = list(range(n))
        rng.shuffle(perm)
        t = rename_structure_symbols(permute(s, perm), {"R": "Q"})
        psi = build_formula(rename_symbols(phi.root, {"R": "Q"}),
                            renamed_sig, phi.free_vars)
        for a in product(range(n), repeat=2):
            env_s = dict(zip(phi.free_vars, a))
            env_t = {v: perm[x] for v, x in env_s.items()}
            assert eval_formula(phi, s, env_s) == eval_formula(psi, t, env_t)


def test_hom_basis_with_unary_and_binary_symbols():
    mixed = sig(("R", 2), ("W", 1))
    rng = random.Random(53)
    for _ in range(15):
        phi = random_qf_formula(rng, mixed, rng.randrange(1, 3))
        basis = qf_to_hom_basis(phi)
        for _ in range(4):
            s = random_structure(rng, mixed, rng.randrange(0, 5))
            assert basis.value(s) == count_satisfying(phi, s)
