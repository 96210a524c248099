import random
from dataclasses import replace

import pytest

from relpoly import (
    GRAPH_SIG,
    BasicSeq,
    BindingError,
    ClassCertificate,
    GraphicalScheme,
    InterpretationScheme,
    InterpretedSeq,
    SignatureError,
    ValidationError,
    apply_quotient_with_report,
    apply_scheme,
    basic_signature,
    build_basic,
    BasicStructureSpec,
    build_formula,
    canonical_form,
    complement_scheme,
    compose,
    count_satisfying,
    generate_term,
    isomorphic,
    make_structure,
    mark,
    merge_marked_schemes,
    parse_formula,
    parse_polynomial,
    parse_scheme,
    product_scheme,
    scheme_to_text,
    sig,
    strong_sum,
    translate_formula,
)
from relpoly.errors import BudgetError, FormulaParseError
from relpoly.gallery import (
    chord_graph_scheme,
    clique_intersection_scheme,
    complete_graph,
    crown_scheme,
    cycle_graph,
    half_graph_scheme,
    johnson_scheme,
    line_graph_scheme,
    subdivision_scheme,
)
from relpoly.interp import BUILTIN_SCHEMES
from relpoly.logic import TRUE
from relpoly.polynomials import constant

from genutil import (
    K2, K3, graph, random_graph, random_qf_formula, random_scheme, random_structure,
)
from oracle_isomorphism import backtrack_weakly_isomorphic


def _crown_base(n):
    return build_basic(BasicStructureSpec(1, 2, (n,)))


def test_complement_scheme():
    out = apply_scheme(complement_scheme(), K3)
    assert out.domain == 3 and out.rel("E") == ()
    out = apply_scheme(complement_scheme(), graph(3, [(0, 1)]))
    assert len(out.rel("E")) == 4


def test_crown_scheme_is_crown():
    out = apply_scheme(crown_scheme(), _crown_base(3))
    assert out.domain == 6 and len(out.rel("E")) == 12
    assert canonical_form(out) == canonical_form(cycle_graph(6))


def test_chord_scheme_on_t4():
    t4 = build_basic(BasicStructureSpec(1, 0, (4,)))
    out = apply_scheme(chord_graph_scheme(), t4)
    assert out.domain == 6 and len(out.rel("E")) == 2  # one undirected edge


def test_half_graph_scheme_small():
    out = apply_scheme(half_graph_scheme(), _crown_base(2))
    assert out.domain == 4 and len(out.rel("E")) == 2


def test_graphical_edgeless_and_loops():
    src = basic_signature(1, 0)
    t5 = build_basic(BasicStructureSpec(1, 0, (5,)))
    none = GraphicalScheme(
        "none", 1,
        build_formula(TRUE, src, ["x1"]),
        parse_formula("false", src, ["x1", "y1"]),
    )
    out = apply_scheme(none, t5)
    assert out.domain == 5 and out.rel("E") == ()

    same = parse_formula("x1 = y1", src, ["x1", "y1"])
    loops = GraphicalScheme("loops", 1, build_formula(TRUE, src, ["x1"]), same)
    assert apply_scheme(loops, t5).rel("E") == ()
    # a plain scheme into graphs keeps them
    plain = InterpretationScheme("loops", 1, src, GRAPH_SIG, loops.rho0, (same,))
    assert apply_scheme(plain, t5).rel("E") == tuple((v, v) for v in range(5))


def test_graphical_symmetry_violation_reports_witness():
    """apply_quotient_with_report, and apply_scheme and generate_term through
    it, raise with the lex-least pair of vertex tuples joined one way only."""
    src = basic_signature(1, 0)
    bad = GraphicalScheme(
        "bad", 1,
        build_formula(TRUE, src, ["x1"]),
        parse_formula("S1(x1,y1)", src, ["x1", "y1"]),
    )
    t3 = build_basic(BasicStructureSpec(1, 0, (3,)))
    spec = InterpretedSeq(bad, BasicSeq(1, 0, (parse_polynomial("n"),)))
    for build in (lambda: apply_quotient_with_report(bad, t3), lambda: apply_scheme(bad, t3),
                  lambda: generate_term(spec, 3)):
        with pytest.raises(ValidationError, match="edge formula of 'bad' is not symmetric") as err:
            build()
        assert err.value.witness == ((0,), (1,))


def test_builtin_graphical_schemes_are_interpretation_schemes():
    """Each builtin graphical scheme has one loopless edge formula rho("E"),
    translates formulas, composes, and writes text that reads back as a plain
    scheme.  On every input the certified application gives the plain
    scheme's image where that image is symmetric, and refuses it where not."""
    rng = random.Random(41)
    adjacency = parse_formula("E(x,y)", GRAPH_SIG, ["x", "y"])
    params = {"vertexBlowup": {"edges": ((0, 1), (1, 2)), "k": 3},
              "treeBlowup": {"parents": {2: 1, 3: 1}, "k": 3}}
    builtins = [build(params.get(name, {})) for name, build in BUILTIN_SCHEMES.items()]
    schemes = [s for s in builtins if isinstance(s, GraphicalScheme)]
    assert len(schemes) == 15 and complement_scheme() in schemes
    plain_complement = parse_scheme(scheme_to_text(complement_scheme()))
    refused = 0
    for scheme in schemes:
        assert isinstance(scheme, InterpretationScheme) and scheme.target == GRAPH_SIG
        assert scheme.rhos == (scheme.rho("E"),)
        assert len(scheme.rho("E").free_vars) == 2 * scheme.p
        text = scheme_to_text(scheme)
        again = parse_scheme(text)
        assert type(again) is InterpretationScheme and scheme_to_text(again) == text
        composed = compose(complement_scheme(), scheme)
        assert scheme_to_text(parse_scheme(scheme_to_text(composed))) == scheme_to_text(composed)
        for _ in range(3):
            a = random_structure(rng, scheme.source, rng.randrange(0, 4))
            image = apply_scheme(again, a)
            assert all(u != v for u, v in image.rel("E")), scheme.name
            edges = set(image.rel("E"))
            if all(e[::-1] in edges for e in edges):
                assert apply_scheme(scheme, a) == image
            else:
                refused += 1
                with pytest.raises(ValidationError, match="is not symmetric"):
                    apply_scheme(scheme, a)
            assert count_satisfying(translate_formula(scheme, adjacency), a) == len(edges)
            assert apply_scheme(composed, a) == apply_scheme(plain_complement, image)
    assert 0 < refused < 3 * len(schemes)


def test_apply_interpretation_records_tuple_map():
    report = apply_quotient_with_report(
        InterpretationScheme(
            "pairs", 2, GRAPH_SIG, GRAPH_SIG,
            parse_formula("E(x1,x2)", GRAPH_SIG, ["x1", "x2"]),
            (parse_formula("x1 = y2 & x2 = y1", GRAPH_SIG,
                           ["x1", "x2", "y1", "y2"]),),
        ),
        K2,
    )
    assert report.tuples == ((0, 1), (1, 0))
    assert report.structure.rel("E") == ((0, 1), (1, 0))
    assert report.classes == ((0,), (1,)) and report.certificate_labels == (None, None)


def test_apply_interpretation_signature_and_budget(monkeypatch):
    scheme = complement_scheme()
    with pytest.raises(SignatureError):
        apply_scheme(scheme, build_basic(BasicStructureSpec(1, 0, (2,))))
    with pytest.raises(SignatureError, match="sequence index must be non-negative"):
        apply_scheme(scheme, K3, n=-1)
    big = graph(40, [])
    monkeypatch.setenv("RELPOLY_TUPLE_BUDGET", "100")
    with pytest.raises(BudgetError):
        apply_scheme(crown_scheme(), _crown_base(200))
    del big


def test_translate_formula_crown():
    scheme = crown_scheme()
    base = _crown_base(3)
    adjacency = parse_formula("E(x,y)", GRAPH_SIG)
    translated = translate_formula(scheme, adjacency)
    assert translated.is_quantifier_free
    assert len(translated.free_vars) == 4
    assert count_satisfying(translated, base) == 12
    assert count_satisfying(adjacency, apply_scheme(scheme, base)) == 12


def test_translate_formula_quantifiers():
    scheme = InterpretationScheme(
        "comp", 1, GRAPH_SIG, GRAPH_SIG,
        build_formula(TRUE, GRAPH_SIG, ["x1"]),
        (parse_formula("!E(x1,x2)", GRAPH_SIG, ["x1", "x2"]),),
    )
    rng = random.Random(3)
    phi = parse_formula("exists z (E(x,z) & !E(z,y))", GRAPH_SIG, ["x", "y"])
    for _ in range(6):
        a = random_graph(rng, rng.randrange(1, 5))
        image = apply_scheme(scheme, a)
        assert count_satisfying(phi, image) == count_satisfying(
            translate_formula(scheme, phi), a
        )


def test_translate_duality_random():
    rng = random.Random(9)
    source = sig(("R", 2), ("W", 1))
    target = sig(("E", 2))
    checked = 0
    for _ in range(40):
        p = rng.randrange(1, 3)
        scheme = random_scheme(rng, source, target, p)
        phi = random_qf_formula(rng, target, rng.randrange(1, 3))
        from genutil import random_structure

        a = random_structure(rng, source, rng.randrange(1, 5))
        image = apply_scheme(scheme, a)
        translated = translate_formula(scheme, phi)
        assert translated.is_quantifier_free
        assert count_satisfying(phi, image) == count_satisfying(translated, a)
        checked += 1
    assert checked == 40


def test_merge_marked_schemes_componentwise():
    sig_a = sig(("E", 2), ("UA", 1))
    sig_b = sig(("E", 2), ("UB", 1))
    comp = InterpretationScheme(
        "comp", 1, sig_a, GRAPH_SIG,
        build_formula(TRUE, sig_a, ["x1"]),
        (parse_formula("!E(x1,x2) & !(x1 = x2)", sig_a, ["x1", "x2"]),),
    )
    ident = InterpretationScheme(
        "id", 1, sig_b, GRAPH_SIG,
        build_formula(TRUE, sig_b, ["x1"]),
        (parse_formula("E(x1,x2)", sig_b, ["x1", "x2"]),),
    )
    merged = merge_marked_schemes([comp, ident], ["UA", "UB"])
    assert merged.quantifier_free
    rng = random.Random(12)
    for _ in range(6):
        a = random_graph(rng, rng.randrange(1, 4))
        b = random_graph(rng, rng.randrange(1, 4))
        inp = strong_sum(mark(a, "UA"), mark(b, "UB"))
        got = apply_scheme(merged, inp)
        want = strong_sum(
            apply_scheme(comp, mark(a, "UA")),
            apply_scheme(ident, mark(b, "UB")),
        )
        assert isomorphic(got, want)

    single = merge_marked_schemes([comp], ["UA"])
    out = apply_scheme(single, mark(K3, "UA"))
    assert backtrack_weakly_isomorphic(out, apply_scheme(comp, mark(K3, "UA")))

    with pytest.raises(SignatureError):
        merge_marked_schemes([comp], ["UB"])


def test_compose_matches_sequential_application():
    comp = InterpretationScheme(
        "comp", 1, GRAPH_SIG, GRAPH_SIG,
        build_formula(TRUE, GRAPH_SIG, ["x1"]),
        (parse_formula("!E(x1,x2)", GRAPH_SIG, ["x1", "x2"]),),
    )
    pairs = InterpretationScheme(
        "pairs", 2, GRAPH_SIG, GRAPH_SIG,
        parse_formula("true", GRAPH_SIG, ["x1", "x2"]),
        (parse_formula("E(x1,y1) & E(x2,y2)", GRAPH_SIG,
                       ["x1", "x2", "y1", "y2"]),),
    )
    composed = compose(pairs, comp)
    assert composed.p == 2
    rng = random.Random(21)
    for _ in range(6):
        a = random_graph(rng, rng.randrange(1, 4))
        assert apply_scheme(composed, a) == apply_scheme(
            pairs, apply_scheme(comp, a)
        )


def test_product_schemes():
    both = strong_sum(mark(K2, "UA"), mark(K2, "UB"))
    cart = apply_scheme(product_scheme("cartesian"), both)
    assert canonical_form(cart) == canonical_form(cycle_graph(4))
    direct = apply_scheme(product_scheme("direct"), both)
    assert canonical_form(direct) == canonical_form(graph(4, [(0, 1), (2, 3)]))
    lex = apply_scheme(
        product_scheme("lex"), strong_sum(mark(K2, "UA"), mark(graph(2, []), "UB"))
    )
    assert canonical_form(lex) == canonical_form(cycle_graph(4))
    union = apply_scheme(product_scheme("disjointUnion"), both)
    assert union.domain == 4 and len(union.rel("E")) == 4
    strong = apply_scheme(product_scheme("strong"), both)
    assert canonical_form(strong) == canonical_form(
        graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    )
    with pytest.raises(SignatureError):
        product_scheme("bogus")


def test_quotient_line_graph():
    scheme = line_graph_scheme()
    report = apply_quotient_with_report(scheme, K3)
    assert report.structure.domain == 3
    assert report.class_sizes == (2, 2, 2)
    assert set(report.certificate_labels) == {"edge"}
    assert canonical_form(report.structure) == canonical_form(K3)


def test_quotient_with_trivial_equivalence_matches_plain():
    plain = replace(line_graph_scheme(), varpi=None, certificates=())
    trivial = replace(
        plain, varpi=parse_formula("x1 = y1 & x2 = y2", GRAPH_SIG, ["x1", "x2", "y1", "y2"])
    )
    assert apply_scheme(trivial, K3) == apply_scheme(plain, K3)


def test_quotient_subdivision():
    out = apply_scheme(subdivision_scheme(), K3)
    assert canonical_form(out) == canonical_form(cycle_graph(6))


def test_quotient_validation_errors():
    base = line_graph_scheme()
    not_equiv = replace(
        base,
        varpi=parse_formula("x1 = y2 & x2 = y1", GRAPH_SIG, ["x1", "x2", "y1", "y2"]),
        certificates=(),
    )
    with pytest.raises(ValidationError):
        apply_scheme(not_equiv, K3)  # not reflexive on oriented edges

    bad_cert = replace(
        base,
        certificates=(ClassCertificate("edge", parse_formula("true", GRAPH_SIG, ["x1", "x2"]),
                                       constant(3)),),
    )
    with pytest.raises(ValidationError):
        apply_scheme(bad_cert, K3)

    no_cover = replace(
        base,
        certificates=(ClassCertificate("none", parse_formula("false", GRAPH_SIG, ["x1", "x2"]),
                                       constant(2)),),
    )
    with pytest.raises(ValidationError):
        apply_scheme(no_cover, K3)


def test_quotient_compatibility_violation():
    # relation formula depends on the representative, not the class
    scheme = InterpretationScheme(
        "rep-dependent", 2, GRAPH_SIG, GRAPH_SIG,
        parse_formula("E(x1,x2)", GRAPH_SIG, ["x1", "x2"]),
        (parse_formula("E(x1,y2) & E(x2,y1) & !(x1 = y1)", GRAPH_SIG,
                       ["x1", "x2", "y1", "y2"]),),
        varpi=parse_formula("x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1",
                            GRAPH_SIG, ["x1", "x2", "y1", "y2"]),
    )
    with pytest.raises(ValidationError):
        apply_scheme(scheme, K3)


def test_constant_certificate_consistency():
    # constant class size c implies c * classes = domain tuples
    report = apply_quotient_with_report(line_graph_scheme(), K3)
    assert 2 * len(report.classes) == len(report.tuples)


def test_scheme_text_round_trip():
    """Quotient schemes read back equal, their origin aside, and apply as the
    builtin does: the same structure, tuples, classes and labels.  Graphical
    schemes read back as plain schemes that apply as they do; a name with
    several intersection sizes reads back too."""
    c5 = cycle_graph(5)
    for scheme in (line_graph_scheme(), subdivision_scheme(),
                   clique_intersection_scheme(2, (1,)), clique_intersection_scheme(3, (1,)),
                   clique_intersection_scheme(2, (0, 1))):
        text = scheme_to_text(scheme)
        again = parse_scheme(text)
        assert scheme_to_text(again) == text
        assert again == replace(scheme, origin=None)
        for a in (complete_graph(4), c5):
            assert apply_quotient_with_report(again, a) == apply_quotient_with_report(scheme, a)
    t4 = build_basic(BasicStructureSpec(1, 0, (4,)))
    for scheme, a in ((crown_scheme(), _crown_base(3)), (johnson_scheme(2, (0, 1)), t4)):
        text = scheme_to_text(scheme)
        again = parse_scheme(text)
        assert scheme_to_text(again) == text and again.name == scheme.name
        assert apply_scheme(again, a) == apply_scheme(scheme, a)


def test_scheme_text_errors():
    with pytest.raises(BindingError):
        parse_scheme(
            "interpretation x {\n  source: graph;\n  target: graph;\n  p: 1;\n"
            "  domain(x1): true;\n  E(x1; y1): Q(x1,y1);\n}\n"
        )
    with pytest.raises(BindingError):
        parse_scheme(
            "interpretation x {\n  source: graph;\n  target: graph;\n  p: 1;\n"
            "  domain(x1): true;\n}\n"
        )
    with pytest.raises(BindingError):
        parse_scheme(
            "interpretation x {\n  source: graph;\n  target: graph;\n  p: 1;\n"
            "  domain(x1,x2): true;\n  E(x1; y1): E(x1,y1);\n}\n"
        )


_LINE_GRAPH_TEXT = (
    "interpretation lg {\n  source: graph;\n  target: sig{E:2};\n  p: 2;\n"
    "  domain(x1,x2): E(x1,x2) & !(x1 = x2);\n"
    "  E(x1,x2; y1,y2): (x1 = y1 | x1 = y2 | x2 = y1 | x2 = y2)"
    " & !(x1 = y1 & x2 = y2) & !(x1 = y2 & x2 = y1);\n"
    "  equiv(x1,x2; y1,y2): x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1;\n"
    "  class edge: eta=true, size=2;\n}\n"
)


@pytest.mark.parametrize("clause", [
    "source: graph", "target: graph", "p: 2", "domain(y1,y2): E(y1,y2)",
    "equiv(x1,x2; y1,y2): x1 = y1 & x2 = y2", "E(x1,x2; y1,y2): false",
    "class  edge: eta=false, size=1", "trailing",
])
def test_scheme_text_refuses_repeated_clauses_and_trailing_text(clause):
    """A second clause of any kind, or any text after the closing brace
    (found by brace depth, past the braces of sig{...}), is a parse error."""
    assert parse_scheme(_LINE_GRAPH_TEXT + "\n  \n").varpi is not None
    if clause == "trailing":
        text = _LINE_GRAPH_TEXT + "trailing E(x1; y1): false;\n"
        match = "text after the closing '}'"
    else:
        text = _LINE_GRAPH_TEXT.replace("\n}", f"\n  {clause};\n}}")
        match = "repeated clause"
    with pytest.raises(FormulaParseError, match=match):
        parse_scheme(text)


def test_scheme_validation():
    with pytest.raises(BindingError):
        InterpretationScheme(
            "bad", 2, GRAPH_SIG, GRAPH_SIG,
            parse_formula("true", GRAPH_SIG, ["x1"]),  # needs 2 free vars
            (parse_formula("true", GRAPH_SIG, ["x1", "x2", "y1", "y2"]),),
        )
    with pytest.raises(BindingError):
        GraphicalScheme(
            "bad", 1,
            parse_formula("true", GRAPH_SIG, ["x1"]),
            parse_formula("true", GRAPH_SIG, ["x1"]),
        )
    # johnson and cliqueIntersection take intersection sizes in 0..k alone
    for build in (johnson_scheme, clique_intersection_scheme):
        for d_set in ((3,), (-1,)):
            with pytest.raises(SignatureError, match="intersection sizes must lie in 0..k"):
                build(2, d_set)
    # certificates need an equivalence formula
    line = line_graph_scheme()
    with pytest.raises(BindingError, match="need an equivalence formula"):
        replace(line, varpi=None)
    # one quantifier in the equivalence or in one certificate is enough
    subdivision = subdivision_scheme()
    assert line.quantifier_free and subdivision.quantifier_free
    pair = ["x1", "x2", "y1", "y2"]
    quantified_varpi = parse_formula(
        "exists z (z = x1) & (x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1)", GRAPH_SIG, pair
    )
    assert not replace(line, varpi=quantified_varpi).quantifier_free
    vertex, edge = subdivision.certificates
    quantified_eta = parse_formula("exists z (z = x1) & !(x1 = x2)", GRAPH_SIG, ["x1", "x2"])
    assert not replace(subdivision, certificates=(
        vertex, replace(edge, eta=quantified_eta))).quantifier_free


def test_quotient_schemes_are_refused_where_unsupported():
    """Translation, composition on either side and merging would drop the
    equivalence formula and miscount, so each refuses a quotient scheme."""
    line = line_graph_scheme()
    adjacency = parse_formula("E(x,y)", GRAPH_SIG, ["x", "y"])
    marked = parse_scheme(
        scheme_to_text(line).replace("source: graph", "source: sig{E:2, UA:1}"))
    for refused in (lambda: translate_formula(line, adjacency),
                    lambda: compose(complement_scheme(), line),
                    lambda: compose(line, complement_scheme()),
                    lambda: merge_marked_schemes([marked], ["UA"])):
        with pytest.raises(SignatureError, match="quotient scheme 'lineGraph'"):
            refused()


def _cartesian_oracle(a, b):
    n, m = a.domain, b.domain
    ea, eb = set(a.rel("E")), set(b.rel("E"))
    edges = []
    for u1 in range(n):
        for u2 in range(m):
            for v1 in range(n):
                for v2 in range(m):
                    if (u1, v1) in ea and u2 == v2 or u1 == v1 and (u2, v2) in eb:
                        edges.append((u1 * m + u2, v1 * m + v2))
    return make_structure(GRAPH_SIG, n * m, {"E": edges})


def _direct_oracle(a, b):
    n, m = a.domain, b.domain
    ea, eb = set(a.rel("E")), set(b.rel("E"))
    edges = [
        (u1 * m + u2, v1 * m + v2)
        for u1 in range(n) for u2 in range(m)
        for v1 in range(n) for v2 in range(m)
        if (u1, v1) in ea and (u2, v2) in eb
    ]
    return make_structure(GRAPH_SIG, n * m, {"E": edges})


def _strong_oracle(a, b):
    left = _cartesian_oracle(a, b)
    right = _direct_oracle(a, b)
    return make_structure(
        GRAPH_SIG, left.domain, {"E": set(left.rel("E")) | set(right.rel("E"))}
    )


def _lex_oracle(a, b):
    n, m = a.domain, b.domain
    ea, eb = set(a.rel("E")), set(b.rel("E"))
    edges = [
        (u1 * m + u2, v1 * m + v2)
        for u1 in range(n) for u2 in range(m)
        for v1 in range(n) for v2 in range(m)
        if (u1, v1) in ea or (u1 == v1 and (u2, v2) in eb)
    ]
    return make_structure(GRAPH_SIG, n * m, {"E": edges})


def test_product_schemes_match_direct_constructions():
    from relpoly import disjoint_union

    oracles = {
        "cartesian": _cartesian_oracle,
        "direct": _direct_oracle,
        "strong": _strong_oracle,
        "lex": _lex_oracle,
        "disjointUnion": lambda a, b: disjoint_union(a, b),
    }
    rng = random.Random(77)
    for trial in range(12):
        a = random_graph(rng, rng.randrange(1, 5))
        b = random_graph(rng, rng.randrange(1, 5))
        marked = strong_sum(mark(a, "UA"), mark(b, "UB"))
        for op, oracle in oracles.items():
            built = apply_scheme(product_scheme(op), marked)
            want = oracle(a, b)
            assert built.domain == want.domain, (op, trial)
            assert backtrack_weakly_isomorphic(built, want, cap=16), (op, trial)


def test_merge_with_mixed_exponents():
    # one scheme keeps vertices (p=1), the other interprets ordered adjacent
    # pairs (p=2); merging pads the shorter tuples
    sig_a = sig(("E", 2), ("UA", 1))
    sig_b = sig(("E", 2), ("UB", 1))
    ident = InterpretationScheme(
        "id", 1, sig_a, GRAPH_SIG,
        build_formula(TRUE, sig_a, ["x1"]),
        (parse_formula("E(x1,x2)", sig_a, ["x1", "x2"]),),
    )
    pairs = InterpretationScheme(
        "pairs", 2, sig_b, GRAPH_SIG,
        parse_formula("E(x1,x2)", sig_b, ["x1", "x2"]),
        (parse_formula("x1 = y2 & x2 = y1", sig_b, ["x1", "x2", "y1", "y2"]),),
    )
    merged = merge_marked_schemes([ident, pairs], ["UA", "UB"])
    assert merged.p == 2
    rng = random.Random(31)
    for _ in range(6):
        a = random_graph(rng, rng.randrange(1, 4))
        b = random_graph(rng, rng.randrange(1, 4))
        got = apply_scheme(merged, strong_sum(mark(a, "UA"), mark(b, "UB")))
        want = strong_sum(
            apply_scheme(ident, mark(a, "UA")),
            apply_scheme(pairs, mark(b, "UB")),
        )
        assert isomorphic(got, want)


def test_translate_formula_avoids_variable_capture():
    scheme = InterpretationScheme(
        "comp", 1, GRAPH_SIG, GRAPH_SIG,
        build_formula(TRUE, GRAPH_SIG, ["x1"]),
        (parse_formula("!E(x1,x2)", GRAPH_SIG, ["x1", "x2"]),),
    )
    # x occurs both bound and free
    phi = parse_formula("exists x (E(x,y)) & E(x,y)", GRAPH_SIG)
    assert phi.free_vars == ("y", "x")
    translated = translate_formula(scheme, phi)
    rng = random.Random(33)
    for _ in range(8):
        a = random_graph(rng, rng.randrange(1, 5))
        image = apply_scheme(scheme, a)
        assert count_satisfying(phi, image) == count_satisfying(translated, a)


def test_compose_higher_exponents():
    pairs = InterpretationScheme(
        "pairs", 2, GRAPH_SIG, GRAPH_SIG,
        parse_formula("true", GRAPH_SIG, ["x1", "x2"]),
        (parse_formula("E(x1,y1) | E(x2,y2)", GRAPH_SIG,
                       ["x1", "x2", "y1", "y2"]),),
    )
    composed = compose(pairs, pairs)
    assert composed.p == 4
    rng = random.Random(35)
    for _ in range(4):
        a = random_graph(rng, 2)
        assert apply_scheme(composed, a) == apply_scheme(
            pairs, apply_scheme(pairs, a)
        )
