import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from relpoly import (
    GRAPH_SIG,
    BasicSeq,
    BudgetError,
    CopiesSeq,
    FormulaParseError,
    GraphicalScheme,
    InterpretedSeq,
    OrderedSumSeq,
    ReindexedSeq,
    SignatureError,
    StrongSumSeq,
    ValidationError,
    build_transitive_tournament,
    canonical_form,
    complement_scheme,
    constant_seq,
    count_satisfying,
    custom_seq,
    detect_polynomial,
    domain_degree,
    forget,
    forget_orientation_scheme,
    from_binomial,
    generate_term,
    inj,
    interpolate,
    is_nice,
    make_structure,
    ordered_splits,
    parse_formula,
    parse_polynomial,
    parse_scheme,
    predict_inj_into_ordered_sum,
    product_sequences,
    scheme_to_text,
    signature_of,
    spec_from_json,
    spec_to_json,
    telescoped_inj,
)
from relpoly import logic, sequences
from relpoly.budgets import basis_budget
from relpoly.gallery import ENTRIES, crown_scheme, cycle_graph
from relpoly.logic import basis_work
from relpoly.polynomials import constant
from relpoly.sequences import _term

from genutil import K1, K2, K3, graph
from oracle_isomorphism import backtrack_weakly_isomorphic

N = parse_polynomial("n")


def test_polynomial_parse_and_basis():
    assert parse_polynomial("n^2").coeffs == (0, 1, 2)
    assert parse_polynomial("2*n+1").coeffs == (1, 2)
    assert parse_polynomial("7").coeffs == (7,)
    assert parse_polynomial("n*(n-1)").coeffs == (0, 0, 2)
    p = parse_polynomial("(n+1)^2")
    assert [p(n) for n in range(4)] == [1, 4, 9, 16]
    assert parse_polynomial(parse_polynomial("n^3-n").to_expression()) == parse_polynomial("n^3-n")


def test_polynomial_nesting_limit():
    assert parse_polynomial("(" * 100 + "n" + ")" * 100) == N
    assert parse_polynomial("-" * 100 + "n") == N
    for deep in ("(" * 400 + "n" + ")" * 400, "-" * 400 + "n", "-(" * 60 + "n" + ")" * 60):
        with pytest.raises(FormulaParseError, match="nested deeper than 100"):
            parse_polynomial(deep)


def test_polynomial_literals_past_the_digit_limit_are_parse_errors():
    huge = "9" * 5000
    for text, offset in ((huge, 1), (f"n + {huge}", 5), (f"n^{huge}", 3)):
        with pytest.raises(FormulaParseError, match="more than 4300 digits") as info:
            parse_polynomial(text)
        assert info.value.offset == offset


def test_polynomials_written_as_binomial_terms_read_back():
    """C(n,2) has no integer power-basis form, so it is written as a C(n,k)
    term; a spec or a class certificate holding it parses back."""
    spec = CopiesSeq(from_binomial((0, 0, 1)), BasicSeq(1, 0, (N,)))
    text = spec_to_json(spec)
    assert '"count": "1*C(n,2)"' in text
    assert spec_from_json(text) == spec
    scheme = parse_scheme(
        "interpretation pairs {\n  source: graph;\n  target: graph;\n  p: 1;\n"
        "  domain(x1): true;\n  E(x1; y1): E(x1,y1);\n  equiv(x1; y1): x1 = y1;\n"
        "  class c: eta=true, size=C(n, 2);\n}\n")
    assert scheme.certificates[0].size == from_binomial((0, 0, 1))
    assert "size=1*C(n,2);" in scheme_to_text(scheme)
    assert scheme_to_text(parse_scheme(scheme_to_text(scheme))) == scheme_to_text(scheme)
    with pytest.raises(FormulaParseError, match="more than 4300 digits"):
        parse_polynomial(f"C(n,{'9' * 5000})")


def test_interpolate():
    assert interpolate([(0, 0), (1, 1), (2, 4)]).coeffs == (0, 1, 2)
    assert interpolate([(0, 7)]).coeffs == (7,)
    assert interpolate([(0, 0), (1, 0), (2, 1)]).coeffs == (0, 0, 1)
    with pytest.raises(SignatureError):
        interpolate([(0, 0), (2, 4)])
    with pytest.raises(SignatureError):
        interpolate([(1, 1), (2, 4)])
    with pytest.raises(SignatureError):
        interpolate([])


def test_generate_basic_and_reindexed():
    spec = BasicSeq(1, 0, (N,))
    assert generate_term(spec, 4) == build_transitive_tournament(4).__class__(
        generate_term(spec, 4).signature, 4, generate_term(spec, 4).relations
    )
    assert generate_term(spec, 4).domain == 4
    squared = ReindexedSeq(parse_polynomial("n^2"), spec)
    assert generate_term(squared, 2).domain == 4
    assert backtrack_weakly_isomorphic(generate_term(squared, 2), build_transitive_tournament(4))


def test_basic_requires_nonconstant_orders():
    with pytest.raises(SignatureError):
        BasicSeq(1, 0, (constant(3),))


def test_negative_polynomial_rejected():
    spec = BasicSeq(1, 0, (parse_polynomial("n-2"),))
    with pytest.raises(ValidationError):
        generate_term(spec, 0)
    assert generate_term(spec, 5).domain == 3


def test_copies_and_strong_sum():
    spec = CopiesSeq(N, constant_seq(K2))
    g = generate_term(spec, 3)
    assert g.domain == 6 and len(g.rel("E")) == 6
    assert generate_term(spec, 0).domain == 0
    both = StrongSumSeq((constant_seq(K2), constant_seq(K3)))
    assert signature_of(both).names == ("E", "E'")
    assert generate_term(both, 1).domain == 5


def test_ordered_sum_shapes():
    single = OrderedSumSeq(constant_seq(K1), N)
    t = generate_term(single, 3)
    assert t.signature.names == ("E", "S", "U")
    assert backtrack_weakly_isomorphic(forget(t, ["E"]), build_transitive_tournament(3))

    pairs = OrderedSumSeq(constant_seq(K2), N)
    t = generate_term(pairs, 3)
    assert t.domain == 6
    assert len(t.rel("S")) == 12  # 4 ordered cross-pairs per block pair
    assert len(t.rel("U")) == 6
    assert generate_term(pairs, 0).domain == 0

    # name clash: inner already carries S -> added relations get ticks
    inner_sig_clash = OrderedSumSeq(constant_seq(build_transitive_tournament(2)), N)
    names = signature_of(inner_sig_clash).names
    assert names == ("U", "S", "S'", "U'")


def test_telescoped_inj():
    assert telescoped_inj([constant(1)], 4) == 4
    assert telescoped_inj([constant(1), constant(1)], 4) == 6
    assert telescoped_inj([from_binomial([0, 1]), constant(1)], 3) == 4
    assert telescoped_inj([], 5) == 1
    assert telescoped_inj([constant(2), constant(3)], 3) == 18


def _pattern(signature, n, U=(), S=(), E=()):
    rels = {"U": [(u,) for u in U], "S": list(S), "E": []}
    for u, v in E:
        rels["E"] += [(u, v), (v, u)]
    return make_structure(signature, n, rels)


def test_ordered_splits_and_niceness():
    lam = signature_of(OrderedSumSeq(constant_seq(K2), N))
    chain = _pattern(lam, 2, U=(0, 1), S=[(0, 1)])
    splits = list(ordered_splits(chain))
    assert splits == [((0,), (1,))]
    assert is_nice(chain)

    cycle = _pattern(lam, 2, S=[(0, 1), (1, 0)])
    assert list(ordered_splits(cycle)) == []
    assert not is_nice(cycle)

    trapped = _pattern(lam, 2, S=[(0, 1)], E=[(0, 1)])
    assert list(ordered_splits(trapped)) == []

    free_pair = _pattern(lam, 2, U=(0, 1))
    assert len(list(ordered_splits(free_pair))) == 3  # together, or split both ways


def test_ordered_sum_injective_counts_match_prediction():
    lam = signature_of(OrderedSumSeq(constant_seq(K2), N))
    rng = random.Random(11)
    inners = [constant_seq(K1), constant_seq(K2)]
    for _ in range(80):
        nv = rng.randrange(0, 4)
        pattern = _pattern(
            lam, nv,
            U=[v for v in range(nv) if rng.random() < 0.8],
            S=[(i, j) for i in range(nv) for j in range(nv)
               if i != j and rng.random() < 0.3],
            E=[(i, j) for i in range(nv) for j in range(i + 1, nv)
               if rng.random() < 0.3],
        )
        inner = rng.choice(inners)
        n = rng.randrange(0, 5)
        target = generate_term(OrderedSumSeq(inner, N), n)
        assert inj(pattern, target) == predict_inj_into_ordered_sum(pattern, inner, n)


def test_ordered_sum_single_part_bookkeeping_undercounts():
    # Two marked isolated vertices admit the one-part strict partition, yet
    # injective maps may also split them across blocks; the split-based
    # predictor counts them all, the single-part telescoped product does not.
    lam = signature_of(OrderedSumSeq(constant_seq(K1), N))
    pattern = _pattern(lam, 2, U=(0, 1))
    inner = constant_seq(K1)
    n = 5
    target = generate_term(OrderedSumSeq(inner, N), n)
    true_count = inj(pattern, target)
    assert true_count == 20
    assert predict_inj_into_ordered_sum(pattern, inner, n) == true_count
    single_part_value = telescoped_inj([constant(0)], n)  # inj of a 2-vertex
    assert single_part_value == 0                          # part into K1 blocks
    assert single_part_value != true_count


def test_detector_complete_graphs():
    kn = InterpretedSeq(forget_orientation_scheme(), BasicSeq(1, 0, (N,)))
    fit = detect_polynomial(kn, K3)
    assert fit.verdict == "Polynomial"
    assert fit.fit.coeffs == (0, 0, 0, 6)
    assert [v for _, v in fit.sample_points] == [0, 0, 0, 6]
    assert fit.verify_points[0][:2] == (4, 24)
    assert all(m for _, _, m in fit.verify_points)


def test_detector_crown_edge_count():
    crown_seq = InterpretedSeq(crown_scheme(), BasicSeq(1, 2, (N,)))
    fit = detect_polynomial(crown_seq, K2)
    assert fit.verdict == "Polynomial" and fit.fit.coeffs == (0, 0, 4)
    adj = parse_formula("E(x,y)", GRAPH_SIG)
    fit2 = detect_polynomial(crown_seq, adj)
    assert fit2.verdict == "Polynomial" and fit2.fit.coeffs == (0, 0, 4)


def test_detector_crown_c8_fits_a_small_search_budget(monkeypatch):
    """hom(C8, crown_n) up to n = 21 stays within 2*10^6 candidate images per
    count, because the hom search memoises on its separators."""
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "2000000")
    crown_seq = InterpretedSeq(crown_scheme(), BasicSeq(1, 2, (N,)))
    fit = detect_polynomial(crown_seq, cycle_graph(8))
    assert fit.verdict == "Polynomial", fit.note
    assert fit.fit.coeffs == (0, 0, 4, 504, 11088, 70560, 181440, 201600, 80640)


def test_detector_cycle_counterexample():
    fit = detect_polynomial(custom_seq("cycle"), K3)
    assert fit.verdict == "NotPolynomial"
    assert "witness" in fit.note
    sampled = dict(fit.sample_points)
    assert sampled[3] == 6  # the window catches the triangle


def test_detector_more_verify_points_same_fit():
    kn = InterpretedSeq(forget_orientation_scheme(), BasicSeq(1, 0, (N,)))
    fit5 = detect_polynomial(kn, K2)
    fit8 = detect_polynomial(kn, K2, verify_count=8)
    assert fit5.fit == fit8.fit
    assert fit8.verdict == "Polynomial"
    assert len(fit8.verify_points) == 8


def test_detector_budget_inconclusive(monkeypatch):
    kn = InterpretedSeq(forget_orientation_scheme(), BasicSeq(1, 0, (N,)))
    monkeypatch.setenv("RELPOLY_TUPLE_BUDGET", "20")
    fit = detect_polynomial(kn, K3)
    assert fit.verdict == "Inconclusive"


def test_warm_term_cache_keeps_the_tuple_budget(monkeypatch):
    """Terms are cached per tuple budget: terms built under the default
    budget must not let a smaller budget pass."""
    kn = InterpretedSeq(forget_orientation_scheme(), BasicSeq(1, 0, (N,)))
    assert detect_polynomial(kn, K3).verdict == "Polynomial"
    before = _term.cache_info()
    assert detect_polynomial(kn, K3).verdict == "Polynomial"
    after = _term.cache_info()
    assert after.hits > before.hits and after.misses == before.misses
    monkeypatch.setenv("RELPOLY_TUPLE_BUDGET", "20")
    assert detect_polynomial(kn, K3).verdict == "Inconclusive"


def test_custom_params_must_be_hashable():
    for value in ([1], {"a": 1}):
        with pytest.raises(SignatureError, match="parameter 'x' is not hashable"):
            custom_seq("cycle", x=value)
    assert generate_term(custom_seq("cycle", x=(1,)), 3) == generate_term(custom_seq("cycle"), 3)


def test_detector_pattern_query_charges_no_assignments(monkeypatch):
    kn = InterpretedSeq(forget_orientation_scheme(), BasicSeq(1, 0, (N,)))
    monkeypatch.setenv("RELPOLY_ASSIGNMENT_BUDGET", "20")
    assert detect_polynomial(kn, K3).verdict == "Polynomial"


def test_detector_respects_copies_and_reindexing():
    base = InterpretedSeq(forget_orientation_scheme(), BasicSeq(1, 0, (N,)))
    m = parse_polynomial("n+1")
    blown = CopiesSeq(m, base)
    fit_base = detect_polynomial(base, K3)
    fit_blown = detect_polynomial(blown, K3)
    assert fit_blown.verdict == "Polynomial"
    for n in range(10):
        assert fit_blown.fit(n) == m(n) * fit_base.fit(n)

    reindexed = ReindexedSeq(parse_polynomial("2*n"), base)
    fit_re = detect_polynomial(reindexed, K3)
    assert fit_re.verdict == "Polynomial"
    for n in range(10):
        assert fit_re.fit(n) == fit_base.fit(2 * n)


def test_product_sequences():
    cart = product_sequences("cartesian", constant_seq(K2), constant_seq(K2))
    assert canonical_form(generate_term(cart, 2)) == canonical_form(cycle_graph(4))
    direct = product_sequences("direct", constant_seq(K2), constant_seq(K2))
    assert canonical_form(generate_term(direct, 0)) == canonical_form(
        graph(4, [(0, 1), (2, 3)])
    )
    lex = product_sequences("lex", constant_seq(K2), constant_seq(graph(2, [])))
    assert canonical_form(generate_term(lex, 1)) == canonical_form(cycle_graph(4))
    with pytest.raises(SignatureError):
        product_sequences("cartesian", BasicSeq(1, 0, (N,)), constant_seq(K2))
    with pytest.raises(SignatureError):
        product_sequences("bogus", constant_seq(K2), constant_seq(K2))


def test_domain_degree():
    base = BasicSeq(1, 0, (N,))
    assert domain_degree(base) == 1
    assert domain_degree(InterpretedSeq(crown_scheme(), BasicSeq(1, 2, (N,)))) == 2
    assert domain_degree(OrderedSumSeq(constant_seq(K2), N)) == 1
    assert domain_degree(OrderedSumSeq(base, N)) == 2
    assert domain_degree(CopiesSeq(parse_polynomial("n^2"), base)) == 3
    assert domain_degree(ReindexedSeq(parse_polynomial("n^2"), base)) == 2
    assert domain_degree(constant_seq(K3)) == 0


def test_spec_json_round_trip():
    """Builtin schemes, complement among them, round-trip by name; a
    graphical scheme built by hand has no name to round-trip by."""
    for seq in (InterpretedSeq(crown_scheme(), BasicSeq(1, 2, (N,))),
                InterpretedSeq(complement_scheme(), custom_seq("complete"))):
        text = spec_to_json(seq)
        again = spec_from_json(text)
        assert spec_to_json(again) == text
        # equal specs share term-cache entries: build each side afresh
        expected = generate_term(seq, 3)
        _term.cache_clear()
        assert generate_term(again, 3) == expected
    by_hand = GraphicalScheme("byHand", 1, complement_scheme().rho0,
                              parse_formula("!E(x1,y1)", GRAPH_SIG, ["x1", "y1"]))
    with pytest.raises(SignatureError, match="has no origin in BUILTIN_SCHEMES"):
        spec_to_json(InterpretedSeq(by_hand, custom_seq("complete")))

    spec = OrderedSumSeq(constant_seq(K2), parse_polynomial("2*n"))
    text = spec_to_json(spec)
    again = spec_from_json(text)
    expected = generate_term(spec, 2)
    _term.cache_clear()
    assert generate_term(again, 2) == expected

    with pytest.raises(SignatureError):
        spec_from_json('{"variant": "Nope"}')
    with pytest.raises(SignatureError):
        spec_from_json("{]")


CROWN_SPEC = """{
  "variant": "Interpreted",
  "scheme": {"builtin": "crown"},
  "inner": {"variant": "Basic", "k": 1, "l": 2, "orders": ["n"]}
}"""


def test_builtin_spec_loads_after_importing_the_package_alone():
    """The builtin scheme table needs no other module: a fresh interpreter
    that imports only `relpoly` loads a builtin spec and builds its terms."""
    code = (
        "import sys, relpoly\n"
        "spec = relpoly.spec_from_json(sys.stdin.read())\n"
        "print(type(spec).__name__, relpoly.generate_term(spec, 3).domain,"
        " 'relpoly.gallery' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], input=CROWN_SPEC, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "InterpretedSeq 6 False\n"


def test_detector_formula_queries_on_basic_specs():
    # quantifier-free queries over the basic signature itself
    import random as _random

    from genutil import random_qf_formula

    spec = BasicSeq(1, 1, (N,))
    signature = signature_of(spec)
    rng = _random.Random(99)
    for _ in range(8):
        phi = random_qf_formula(rng, signature, rng.randrange(1, 3))
        fit = detect_polynomial(spec, phi)
        assert fit.verdict == "Polynomial", (fit.verdict, fit.note)
        assert all(m for _, _, m in fit.verify_points)


# The benchmark's detect formulas over graphs.
DETECT_FORMULAS = (
    "E(x,y) & E(y,z) & !E(x,z) & !(x=z)",
    "E(x,y) & !(x=y)",
    "!E(x,y) & !(x=y)",
    "x = y | E(x,y)",
    "E(x,y) -> E(y,x)",
)

RQ_SCHEME = parse_scheme(
    "interpretation rq {\n  source: graph;\n  target: sig{R:2,Q:2};\n  p: 1;\n"
    "  domain(x1): true;\n  R(x1; y1): E(x1,y1);\n"
    "  Q(x1; y1): !E(x1,y1) & !(x1 = y1);\n}\n"
)


def _brute_force_fit(spec, phi, verify_count=5):
    """The fit detect_polynomial must give, computed from count_satisfying."""
    d_bound = len(phi.free_vars) * domain_degree(spec)
    samples = tuple((n, count_satisfying(phi, generate_term(spec, n)))
                    for n in range(d_bound + 1))
    fit = interpolate(samples)
    verifies = []
    for n in range(d_bound + 1, d_bound + 1 + verify_count):
        value = count_satisfying(phi, generate_term(spec, n))
        verifies.append((n, value, value == fit(n)))
    verdict = "Polynomial" if all(m for _, _, m in verifies) else "NotPolynomial"
    return samples, tuple(verifies), fit, verdict


def _assert_matches_brute_force(spec, phi):
    fit = detect_polynomial(spec, phi)
    samples, verifies, poly, verdict = _brute_force_fit(spec, phi)
    assert fit.sample_points == samples
    assert fit.verify_points == verifies
    assert fit.fit == poly
    assert fit.verdict == verdict, fit.note
    return fit


@pytest.fixture
def brute_force_calls(monkeypatch):
    """Count the detector's calls of count_satisfying (the brute-force route)."""
    calls = []

    def spy(phi, s):
        calls.append(phi)
        return count_satisfying(phi, s)

    monkeypatch.setattr(logic, "count_satisfying", spy)
    return calls


def test_detector_formula_route_matches_brute_force_on_gallery(brute_force_calls):
    for name in ("complete", "crown", "halfGraph"):
        spec = ENTRIES[name].spec()
        for text in DETECT_FORMULAS:
            phi = parse_formula(text, GRAPH_SIG)
            assert basis_work(phi) <= basis_budget()
            _assert_matches_brute_force(spec, phi)
    assert brute_force_calls == []


def test_detector_formula_route_matches_brute_force_on_random_formulas():
    from genutil import random_qf_formula

    spec = BasicSeq(1, 1, (N,))
    signature = signature_of(spec)
    rng = random.Random(404)
    for _ in range(12):
        phi = random_qf_formula(rng, signature, rng.randrange(1, 4))
        _assert_matches_brute_force(spec, phi)


def test_detector_sentence_takes_brute_force(brute_force_calls):
    spec = custom_seq("cycle")
    for text in ("true", "false"):
        phi = parse_formula(text, GRAPH_SIG, declared_vars=[])
        _assert_matches_brute_force(spec, phi)
    assert len(brute_force_calls) == 12


def test_detector_oversized_basis_takes_brute_force(brute_force_calls):
    spec = InterpretedSeq(RQ_SCHEME, custom_seq("cycle"))
    phi = parse_formula("R(x,y) & Q(y,z) & !(x = z)", signature_of(spec))
    assert basis_work(phi) > 2 * 10**9 > basis_budget()
    fit = _assert_matches_brute_force(spec, phi)
    assert len(brute_force_calls) == 9
    # on the n-cycle, n >= 4: 2n choices of the arc xy, then n - 3 of z
    assert fit.verify_points[-1][:2] == (8, 2 * 8 * 5)


def test_detector_honours_a_lowered_basis_budget(brute_force_calls, monkeypatch):
    spec = ENTRIES["crown"].spec()
    phi = parse_formula(DETECT_FORMULAS[1], GRAPH_SIG)
    through_basis = detect_polynomial(spec, phi)
    assert brute_force_calls == []
    monkeypatch.setenv("RELPOLY_BASIS_BUDGET", "10")
    through_brute_force = detect_polynomial(spec, phi)
    assert len(brute_force_calls) == 10
    assert through_brute_force == through_basis
    _assert_matches_brute_force(spec, phi)


def test_detector_on_ordered_sums():
    # counting single marked vertices in the ordered sum of n one-vertex
    # blocks grows linearly; marked ordered pairs grow as C(n,2)
    seq = OrderedSumSeq(constant_seq(K1), N)
    lam = signature_of(seq)
    one = make_structure(lam, 1, {"U": [(0,)]})
    fit = detect_polynomial(seq, one)
    assert fit.verdict == "Polynomial" and fit.fit.coeffs == (0, 1)
    chain = make_structure(lam, 2, {"U": [(0,), (1,)], "S": [(0, 1)]})
    fit = detect_polynomial(seq, chain)
    assert fit.verdict == "Polynomial" and fit.fit.coeffs == (0, 0, 1)


def test_quotient_certificates_with_index_dependent_size():
    from relpoly import InterpretationScheme, apply_quotient_with_report
    from relpoly.interp import ClassCertificate
    from relpoly import basic_signature

    src = basic_signature(1, 0)
    scheme = InterpretationScheme(
        "firstCoordinate", 2, src, GRAPH_SIG,
        parse_formula("true", src, ["x1", "x2"]),
        (parse_formula("S1(x1,y1)", src, ["x1", "x2", "y1", "y2"]),),
        varpi=parse_formula("x1 = y1", src, ["x1", "x2", "y1", "y2"]),
        certificates=(ClassCertificate("row", parse_formula("true", src, ["x1", "x2"]), N),),
    )
    for n in (1, 2, 4):
        term = generate_term(BasicSeq(1, 0, (N,)), n)
        report = apply_quotient_with_report(scheme, term, n=n)
        assert report.structure.domain == n
        assert set(report.class_sizes) == {n}
    # a wrong index trips the certificate check
    with pytest.raises(ValidationError):
        apply_quotient_with_report(scheme, generate_term(BasicSeq(1, 0, (N,)), 3), n=4)


def test_ordered_sum_with_growing_blocks():
    # blocks are complete graphs K_1 .. K_n; per-part counts vary with the
    # block index and the split predictor must track them exactly
    complete_seq = custom_seq("complete")
    seq = OrderedSumSeq(complete_seq, N)
    lam = signature_of(seq)
    rng = random.Random(61)
    for _ in range(25):
        nv = rng.randrange(0, 4)
        pattern = make_structure(lam, nv, {
            "E": [(i, j) for i in range(nv) for j in range(nv)
                  if i != j and rng.random() < 0.4],
            "S": [(i, j) for i in range(nv) for j in range(nv)
                  if i != j and rng.random() < 0.3],
            "U": [(v,) for v in range(nv) if rng.random() < 0.8],
        })
        for n in (0, 2, 4):
            target = generate_term(seq, n)
            assert inj(pattern, target) == predict_inj_into_ordered_sum(
                pattern, complete_seq, n
            )


def test_detector_on_generalized_basic_shapes():
    # a strong sum of a fixed block and an ordered sum of growing blocks
    spec = StrongSumSeq((
        constant_seq(K3),
        OrderedSumSeq(custom_seq("complete"), N),
    ))
    lam = signature_of(spec)
    assert lam.names == ("E", "E'", "S", "U")
    marked_vertex = make_structure(lam, 1, {"U": [(0,)]})
    fit = detect_polynomial(spec, marked_vertex)
    assert fit.verdict == "Polynomial"
    # vertices in the ordered-sum part: 1 + 2 + ... + n
    assert fit.fit.coeffs == (0, 1, 1)
    edge = make_structure(lam, 2, {"E'": [(0, 1), (1, 0)]})
    fit = detect_polynomial(spec, edge)
    assert fit.verdict == "Polynomial"


def test_built_terms_are_charged_to_the_tuple_budget(monkeypatch):
    """A tournament's order tuples, the vertices and tuples of copies, an
    ordered sum's block pairs and its order tuples between blocks, and the
    edge tuples of the complete graph, the cycle and the path are charged to
    the tuple budget before they are built: at the charge the term is built,
    one below it is refused."""
    n = parse_polynomial("n")
    marked = BasicSeq(0, 1, ())  # one vertex, one tuple
    cases = ((BasicSeq(1, 0, (n,)), 10, 45, "tournament order tuples"),
             (CopiesSeq(n, marked), 10, 20, "vertices and tuples of copies"),
             (OrderedSumSeq(BasicSeq(0, 2, ()), n), 20, 180, "ordered-sum order tuples"),
             (OrderedSumSeq(BasicSeq(0, 0, ()), n), 0, 45, "ordered-sum block pairs"),
             (custom_seq("complete"), 10, 90, "edge tuples"),
             (custom_seq("cycle"), 10, 20, "edge tuples"),
             (custom_seq("path"), 10, 18, "edge tuples"))
    for spec, domain, charge, what in cases:
        monkeypatch.setenv("RELPOLY_TUPLE_BUDGET", str(charge))
        assert generate_term(spec, 10).domain == domain
        monkeypatch.setenv("RELPOLY_TUPLE_BUDGET", str(charge - 1))
        message = f"^{charge} {what} exceed the tuple budget of {charge - 1}$"
        with pytest.raises(BudgetError, match=message):
            generate_term(spec, 10)
    with pytest.raises(BudgetError, match="^45 tournament order tuples exceed"):
        build_transitive_tournament(10)
    # copies of an empty term are empty, however many are asked for
    empty = CopiesSeq(parse_polynomial("1000000000"), BasicSeq(0, 0, ()))
    assert generate_term(empty, 0).domain == 0


def test_ordered_sums_of_empty_blocks_stop_at_the_block_pairs(monkeypatch):
    """An ordered sum of n blocks charges n(n-1)/2 block pairs even when its
    blocks are empty, which bounds how many blocks are generated.  Under the
    default tuple budget of 10^7 the largest is 4,472 blocks (9,997,156
    pairs); 4,473 are refused before any block is built.  The order relation
    is built in one loop per block, so the 4,472 empty blocks assemble at
    once; a walk over every pair of blocks took about 10 s."""
    monkeypatch.delenv("RELPOLY_TUPLE_BUDGET", raising=False)
    empty = BasicSeq(0, 0, ())
    message = "^10001628 ordered-sum block pairs exceed the tuple budget of 10000000$"
    with pytest.raises(BudgetError, match=message):
        sequences.ordered_sum(empty, 4473)
    start = time.perf_counter()
    term = sequences.ordered_sum(empty, 4472)
    assert time.perf_counter() - start < 5.0
    assert term.domain == 0 and term.total_tuples() == 0
