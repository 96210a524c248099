"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line (run pytest with
-s to see them all) and enforces its runtime budget.
"""

import math
import random
import time
from fractions import Fraction

from relpoly import (
    BasicSeq,
    CopiesSeq,
    InterpretedSeq,
    OrderedSumSeq,
    UnboundedDegreeError,
    apply_quotient_with_report,
    canonical_form,
    constant_seq,
    count_satisfying,
    detect_polynomial,
    forget_orientation_scheme,
    generate_term,
    hom_count,
    ind_count,
    inj_count,
    isomorphic,
    make_structure,
    mobius,
    parse_polynomial,
    predict_inj_into_ordered_sum,
    product_sequences,
    qf_to_hom_basis,
    quotient,
    set_partitions,
    sig,
    signature_of,
    super_patterns,
    custom_seq,
)
from relpoly.gallery import (
    ENTRIES,
    bounded_decompose,
    complete_graph,
    cycle_graph,
    edge_count,
    gallery_build,
    gallery_check,
    line_graph_oracle,
    line_graph_scheme,
    octahedron,
    paley_experiment,
)
from relpoly.interp import apply_scheme, translate_formula
from relpoly.sequences import ordered_splits

from genutil import (
    K1,
    K2,
    K3,
    P3,
    nonisomorphic_graphs,
    random_graph,
    random_qf_formula,
    random_scheme,
    random_structure,
)

N = parse_polynomial("n")


def _report(num: int, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.1f}s of {budget:.0f}s budget) {detail}")


def test_criterion_1_inversion_identities():
    budget = 60.0
    start = time.time()
    rng = random.Random(101)
    patterns = []
    for n in range(0, 6):
        patterns.extend(nonisomorphic_graphs(n))
    targets = [random_graph(rng, rng.randrange(1, 7)) for _ in range(20)]
    cache: dict = {}
    counters = {"hom": hom_count, "inj": inj_count, "ind": ind_count}

    def count(mode, pattern, idx):
        key = (canonical_form(pattern), idx, mode)
        if key not in cache:
            cache[key] = counters[mode](pattern, targets[idx]).value
        return cache[key]

    failures = []
    checked = 0
    for pattern in patterns:
        quotients = [(quotient(pattern, th), mobius(th))
                     for th in set_partitions(pattern.domain)]
        supers = list(super_patterns(pattern, closure="simple"))
        for idx in range(len(targets)):
            h = count("hom", pattern, idx)
            i = count("inj", pattern, idx)
            d = count("ind", pattern, idx)
            if h != sum(count("inj", q, idx) for q, _ in quotients):
                failures.append(("hom=sum inj/quotients", pattern, idx))
            if i != sum(m * count("hom", q, idx) for q, m in quotients):
                failures.append(("inj=sum mobius*hom", pattern, idx))
            if i != sum(count("ind", s, idx) for s, _ in supers):
                failures.append(("inj=sum ind/supers", pattern, idx))
            if d != sum((-1) ** k * count("inj", s, idx) for s, k in supers):
                failures.append(("ind=signed sum inj/supers", pattern, idx))
            checked += 1
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(1, ok, elapsed, budget,
            f"{checked} pattern/target pairs over {len(patterns)} patterns")
    assert not failures, failures[:3]
    assert elapsed < budget


def test_criterion_2_qf_hom_basis():
    budget = 120.0
    start = time.time()
    rng = random.Random(202)
    sig_r = sig(("R", 2))
    formulas = [
        random_qf_formula(rng, sig_r, rng.randrange(1, 4), max_atoms=4)
        for _ in range(100)
    ]
    structures = [random_structure(rng, sig_r, rng.randrange(1, 6)) for _ in range(20)]
    cache: dict = {}

    def hom_cached(pattern, idx):
        key = (canonical_form(pattern), idx)
        if key not in cache:
            cache[key] = hom_count(pattern, structures[idx]).value
        return cache[key]

    failures = []
    for phi in formulas:
        basis = qf_to_hom_basis(phi)
        for idx, s in enumerate(structures):
            lhs = sum(c * hom_cached(f, idx) for c, f in basis.terms)
            rhs = count_satisfying(phi, s)
            if lhs != rhs:
                failures.append((phi, idx, lhs, rhs))
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(2, ok, elapsed, budget, "100 formulas x 20 structures")
    assert not failures, failures[:3]
    assert elapsed < budget


def test_criterion_3_interpretation_duality():
    budget = 120.0
    start = time.time()
    rng = random.Random(303)
    source = sig(("R", 2), ("W", 1))
    target = sig(("E", 2))
    failures = []
    for _ in range(200):
        scheme = random_scheme(rng, source, target, rng.randrange(1, 3))
        phi = random_qf_formula(rng, target, rng.randrange(1, 3))
        a = random_structure(rng, source, rng.randrange(1, 5))
        translated = translate_formula(scheme, phi)
        assert translated.is_quantifier_free
        lhs = count_satisfying(phi, apply_scheme(scheme, a))
        rhs = count_satisfying(translated, a)
        if lhs != rhs:
            failures.append((scheme, phi, a, lhs, rhs))
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(3, ok, elapsed, budget, "200 scheme/formula/structure triples")
    assert not failures, failures[:1]
    assert elapsed < budget


def test_criterion_4_gallery_isomorphism():
    budget = 120.0
    start = time.time()
    failures = []
    for name, entry in sorted(ENTRIES.items()):
        if entry.expect_mismatch:
            continue
        report = gallery_check(name)
        if not report.ok:
            failures.append((name, report.first_mismatch and report.first_mismatch[0]))
    # named spot checks
    crown3, _ = gallery_build("crown", None, 3)
    if canonical_form(crown3) != canonical_form(cycle_graph(6)):
        failures.append(("crown(3) is C6", None))
    j5, _ = gallery_build("johnson", None, 5)
    if not (j5.domain == 10 and edge_count(j5) == 30):
        failures.append(("johnson(5,2,{1}) size", None))
    for n in range(4, 9):
        built = generate_term(ENTRIES["chordGraph"].spec(None), n)
        if edge_count(built) != math.comb(n, 4):
            failures.append((f"chordGraph({n}) edges", None))
    sub3, _ = gallery_build("subdivision", None, 3)
    if canonical_form(sub3) != canonical_form(cycle_graph(6)):
        failures.append(("subdivision(K3) is C6", None))
    lg4, _ = gallery_build("lineGraph", None, 4)
    if canonical_form(lg4) != canonical_form(octahedron()):
        failures.append(("lineGraph(K4) is the octahedron", None))
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(4, ok, elapsed, budget,
            f"{sum(1 for e in ENTRIES.values() if not e.expect_mismatch)} entries "
            "+ named spot checks")
    assert not failures, failures
    assert elapsed < budget


def test_criterion_5_detector_soundness():
    budget = 300.0
    start = time.time()
    patterns = {"K1": K1, "K2": K2, "P3": P3, "K3": K3}
    failures = []
    for name, entry in sorted(ENTRIES.items()):
        if entry.expect_mismatch:
            continue
        spec = entry.spec(None)
        for label, pattern in patterns.items():
            fit = detect_polynomial(spec, pattern)
            if fit.verdict != "Polynomial" or len(fit.verify_points) != 5:
                failures.append((name, label, fit.verdict, fit.note))
            elif not all(m for _, _, m in fit.verify_points):
                failures.append((name, label, "verify mismatch"))
    # complete graphs against the triangle: the classical coloring count
    kn = InterpretedSeq(forget_orientation_scheme(), BasicSeq(1, 0, (N,)))
    fit = detect_polynomial(kn, K3)
    if fit.fit.coeffs != (0, 0, 0, 6):
        failures.append(("K_n/K3 fit", fit.fit.coeffs))
    if [v for _, v in fit.sample_points] != [0, 0, 0, 6] or fit.verify_points[0][1] != 24:
        failures.append(("K_n/K3 values", fit.sample_points, fit.verify_points[:1]))
    # cycles are not strongly polynomial against the triangle
    bad = detect_polynomial(custom_seq("cycle"), K3)
    if bad.verdict != "NotPolynomial" or "witness" not in bad.note:
        failures.append(("cycle/K3 counterexample", bad.verdict, bad.note))
    if not any(not m for _, _, m in bad.verify_points):
        failures.append(("cycle/K3 has no recorded mismatch",))
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(5, ok, elapsed, budget, "12 sequences x 4 patterns + named fits")
    assert not failures, failures[:3]
    assert elapsed < budget


def test_criterion_6_bounded_degree_decomposition():
    budget = 60.0
    start = time.time()
    failures = []
    spec = product_sequences(
        "disjointUnion",
        CopiesSeq(parse_polynomial("n+1"), constant_seq(K1)),
        CopiesSeq(parse_polynomial("n^2"), constant_seq(K2)),
    )
    decomposition = bounded_decompose(spec, degree_cap=1)
    by_edges = {edge_count(c): m.coeffs for c, m in decomposition.parts}
    if len(decomposition.parts) != 2:
        failures.append(("part count", len(decomposition.parts)))
    if by_edges.get(0) != (1, 1) or by_edges.get(1) != (0, 1, 2):
        failures.append(("multiplicities", by_edges))
    if len(decomposition.verified) != 3:
        failures.append(("held-out count", decomposition.verified))
    for n in decomposition.verified:
        if not isomorphic(decomposition.reassemble(n), generate_term(spec, n), cap=200):
            failures.append(("reassembly", n))
    rejected = False
    try:
        bounded_decompose(ENTRIES["crown"].spec(None), degree_cap=2)
    except UnboundedDegreeError:
        rejected = True
    if not rejected:
        failures.append(("crown not rejected",))
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(6, ok, elapsed, budget, "exact parts, reassembly, crown rejection")
    assert not failures, failures
    assert elapsed < budget


def _ordered_sum_patterns(lam, rng, exhaustive_max=2, sampled=120):
    """Every pattern on at most two vertices, plus a seeded sample on 3-4
    (exhausting those sizes is out of desk range)."""
    from itertools import product as iproduct

    patterns = []
    for n in range(exhaustive_max + 1):
        e_tuples = list(iproduct(range(n), repeat=2))
        s_tuples = list(iproduct(range(n), repeat=2))
        u_tuples = [(v,) for v in range(n)]
        for e_mask in range(1 << len(e_tuples)):
            for s_mask in range(1 << len(s_tuples)):
                for u_mask in range(1 << len(u_tuples)):
                    patterns.append(make_structure(lam, n, {
                        "E": [t for i, t in enumerate(e_tuples) if e_mask >> i & 1],
                        "S": [t for i, t in enumerate(s_tuples) if s_mask >> i & 1],
                        "U": [t for i, t in enumerate(u_tuples) if u_mask >> i & 1],
                    }))
    for _ in range(sampled):
        n = rng.randrange(3, 5)
        patterns.append(make_structure(lam, n, {
            "E": [(i, j) for i in range(n) for j in range(n)
                  if i != j and rng.random() < 0.25],
            "S": [(i, j) for i in range(n) for j in range(n)
                  if i != j and rng.random() < 0.3],
            "U": [(v,) for v in range(n) if rng.random() < 0.8],
        }))
    return patterns


def test_criterion_7_ordered_sums():
    budget = 120.0
    start = time.time()
    rng = random.Random(707)
    failures = []
    checked = 0
    for inner_structure in (K1, K2):
        inner = constant_seq(inner_structure)
        seq = OrderedSumSeq(inner, N)
        lam = signature_of(seq)
        patterns = _ordered_sum_patterns(lam, rng)
        targets = {n: generate_term(seq, n) for n in range(0, 6)}
        for pattern in patterns:
            splits = list(ordered_splits(pattern))
            for n, target in targets.items():
                observed = inj_count(pattern, target).value
                predicted = predict_inj_into_ordered_sum(pattern, inner, n)
                if observed != predicted:
                    failures.append((pattern.relations, n, observed, predicted))
                if not splits and observed != 0:
                    failures.append(("non-splittable with nonzero count",
                                     pattern.relations, n, observed))
                checked += 1
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(7, ok, elapsed, budget,
            f"{checked} pattern/index checks over inner K1 and K2")
    assert not failures, failures[:3]
    assert elapsed < budget


def test_criterion_8_quotient_certificates():
    budget = 30.0
    start = time.time()
    failures = []
    for m in (3, 4, 5):
        km = complete_graph(m)
        report = apply_quotient_with_report(line_graph_scheme(), km)
        if set(report.class_sizes) != {2}:
            failures.append((m, "class sizes", report.class_sizes))
        if len(report.classes) != m * (m - 1) // 2:
            failures.append((m, "class count", len(report.classes)))
        oracle = line_graph_oracle(km)
        if canonical_form(report.structure) != canonical_form(oracle):
            failures.append((m, "structure mismatch"))
    elapsed = time.time() - start
    ok = not failures and elapsed < budget
    _report(8, ok, elapsed, budget, "line graph of K3, K4, K5")
    assert not failures, failures
    assert elapsed < budget


def _lagrange_at(points, x):
    """Value at x of the polynomial through the points, in exact arithmetic."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def test_criterion_9_paley_exploration():
    # hom(C4, Paley_q) = q(q-1)(q^2-2q+9)/16 is a quartic with leading
    # coefficient 1/16, so the cubic through q = 5, 13, 17, 29 misses the
    # count at q = 37 by (1/16)(37-5)(37-13)(37-17)(37-29) = 7680.  The
    # procedure must fit on the four samples, report that gap as a failed
    # verification, and carry the homomorphic-image counts alongside.
    budget = 120.0
    fit_primes = (5, 13, 17, 29)
    held_out = 37
    primes = [*fit_primes, held_out]
    start = time.time()
    report = paley_experiment(cycle_graph(4), primes, fit_count=4)
    elapsed = time.time() - start

    def hom_closed(q):
        return Fraction(q * (q - 1) * (q * q - 2 * q + 9), 16)

    def images_closed(q):
        # C4 + P3 + K2 subgraphs of the strongly regular Paley graph
        return Fraction(q * (q - 1) * (q + 3) ** 2, 128)

    homs_ok = [(q, h) for q, h, _ in report.rows] == [(q, hom_closed(q)) for q in primes]
    images_ok = [(q, im) for q, _, im in report.rows] == [(q, images_closed(q)) for q in primes]

    actual = hom_closed(held_out)
    predicted = _lagrange_at([(q, hom_closed(q)) for q in fit_primes], held_out)
    gap = Fraction(1, 16) * math.prod(held_out - q for q in fit_primes)
    closed_forms_ok = (actual == 108558 and gap == 7680
                       and predicted == actual - gap == 100878)

    def reported_cubic(q):
        return sum(c * q ** k for k, c in enumerate(report.fit_coeffs))

    fit_ok = (
        report.fit_primes == fit_primes
        and len(report.fit_coeffs) == 4
        and all(reported_cubic(q) == hom_closed(q) for q in fit_primes)
        and reported_cubic(held_out) == predicted
    )
    verdict_ok = report.verify_rows == ((held_out, actual, False),) and report.all_match is False
    flagged = "homomorphic images" in report.note
    ok = (homs_ok and images_ok and closed_forms_ok and fit_ok and verdict_ok
          and flagged and elapsed < budget)
    _report(9, ok, elapsed, budget,
            f"cubic fit predicts {predicted} at q={held_out}, brute force gives "
            f"{report.rows[-1][1]} (gap {report.rows[-1][1] - predicted}, expected {gap}); "
            f"hom and image counts match the closed forms: {homs_ok and images_ok}")
    assert closed_forms_ok
    assert homs_ok, ("hom(C4, Paley_q) must equal q(q-1)(q^2-2q+9)/16", report.rows)
    assert images_ok, ("homomorphic images must equal q(q-1)(q+3)^2/128", report.rows)
    assert fit_ok, ("the reported cubic must pass through the four samples and "
                    f"predict {predicted} at q={held_out}", report.fit_coeffs)
    assert verdict_ok, ("the held-out prime must be reported as a mismatch",
                        report.verify_rows, report.all_match)
    assert flagged
    assert elapsed < budget
