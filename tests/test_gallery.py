import math
import random
import time

import pytest

from relpoly import (
    GRAPH_SIG,
    BasicSeq,
    BudgetError,
    SignatureError,
    UnboundedDegreeError,
    ValidationError,
    canonical_form,
    constant_seq,
    CopiesSeq,
    custom_seq,
    InterpretedSeq,
    generate_term,
    hom,
    isomorphic,
    make_structure,
    parse_polynomial,
    parse_scheme,
    product_sequences,
    spec_from_json,
    spec_to_json,
)
from relpoly.gallery import (
    ENTRIES,
    bounded_decompose,
    chord_graph_oracle,
    complete_graph,
    cycle_graph,
    edge_count,
    gallery_build,
    gallery_check,
    gallery_list,
    graph_from_edges,
    homomorphic_image_count,
    max_degree,
    octahedron,
    paley_experiment,
    paley_graph,
    path_graph,
    star_graph,
)
from relpoly.interp import PRODUCT_OPS
from relpoly.sequences import _term

from genutil import K1, K2, K3, P3, nonisomorphic_graphs, permute
from oracle_isomorphism import backtrack_weakly_isomorphic


def test_canonical_form_two_builds_of_c6():
    crown3, _ = gallery_build("crown", None, 3)
    tensor = product_sequences("direct", constant_seq(K2), constant_seq(K3))
    tensor_c6 = generate_term(tensor, 0)
    assert crown3.domain == 6 and tensor_c6.domain == 6
    assert canonical_form(crown3) == canonical_form(cycle_graph(6))
    assert canonical_form(crown3) == canonical_form(tensor_c6)
    ladder = product_sequences("cartesian", constant_seq(K2), constant_seq(path_graph(3)))
    assert canonical_form(crown3) != canonical_form(generate_term(ladder, 0))
    assert canonical_form(K3) != canonical_form(P3)


def test_canonical_form_random_relabeling():
    rng = random.Random(50)
    for _ in range(50):
        n = rng.randrange(0, 9)
        g = graph_from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        )
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permute(g, perm))


def test_nonisomorphic_graph_counts():
    assert len(nonisomorphic_graphs(0)) == 1
    assert len(nonisomorphic_graphs(1)) == 1
    assert len(nonisomorphic_graphs(2)) == 2
    assert len(nonisomorphic_graphs(3)) == 4
    assert len(nonisomorphic_graphs(4)) == 11


def test_gallery_list_index():
    index = gallery_list()
    names = {e["name"] for e in index["entries"]}
    assert {"crown", "kneser", "johnson", "vertexBlowup", "treeBlowup",
            "starUnion", "halfGraph", "chordGraph", "cliqueIntersection",
            "lineGraph", "subdivision"} <= names
    crown = next(e for e in index["entries"] if e["name"] == "crown")
    assert crown["defaultRange"] == [0, 6]


def test_crown_entry():
    scheme_built, oracle_built = gallery_build("crown", None, 3)
    assert edge_count(oracle_built) == 6
    assert canonical_form(scheme_built) == canonical_form(cycle_graph(6))
    assert canonical_form(scheme_built) == canonical_form(oracle_built)


def test_johnson_entry():
    scheme_built, oracle_built = gallery_build("johnson", {"k": 2, "D": [1]}, 5)
    assert scheme_built.domain == 10 and edge_count(scheme_built) == 30
    assert canonical_form(scheme_built) == canonical_form(oracle_built)
    small, _ = gallery_build("johnson", {"k": 2, "D": [1]}, 4)
    assert small.domain == 6 and edge_count(small) == 12


def test_kneser_is_johnson_disjoint():
    kneser_built, _ = gallery_build("kneser", {"k": 2}, 5)
    johnson_built, _ = gallery_build("johnson", {"k": 2, "D": [0]}, 5)
    assert canonical_form(kneser_built) == canonical_form(johnson_built)
    # Petersen graph: 10 vertices, 15 edges, triangle-free
    assert kneser_built.domain == 10 and edge_count(kneser_built) == 15
    assert hom(K3, kneser_built) == 0


def test_half_graph_entry():
    built, oracle = gallery_build("halfGraph", None, 4)
    assert built.domain == 8 and edge_count(built) == 6
    assert canonical_form(built) == canonical_form(oracle)


def test_chord_graph_edge_counts():
    for n in range(4, 9):
        assert edge_count(chord_graph_oracle(n)) == math.comb(n, 4)
    built, oracle = gallery_build("chordGraph", None, 6)
    assert edge_count(built) == math.comb(6, 4) == edge_count(oracle)


def test_subdivision_and_line_graph_entries():
    built, _ = gallery_build("subdivision", None, 3)
    assert canonical_form(built) == canonical_form(cycle_graph(6))
    built, oracle = gallery_build("lineGraph", None, 4)
    assert canonical_form(built) == canonical_form(octahedron())
    assert canonical_form(oracle) == canonical_form(octahedron())
    clique_built, _ = gallery_build("cliqueIntersection", {"k": 2, "D": [1]}, 4)
    assert canonical_form(clique_built) == canonical_form(octahedron())


def test_line_graph_of_k3_is_k3():
    built, _ = gallery_build("lineGraph", None, 3)
    assert canonical_form(built) == canonical_form(K3)


def test_star_union_repaired_and_literal():
    built, oracle = gallery_build("starUnion", None, 4)
    assert built.domain == 10 and edge_count(built) == 6
    assert canonical_form(built) == canonical_form(oracle)

    literal_built, literal_oracle = gallery_build("starUnionLiteral", None, 4)
    assert edge_count(literal_built) == 0
    assert edge_count(literal_oracle) == 6
    report = gallery_check("starUnionLiteral")
    assert not report.ok
    assert report.first_mismatch[0] == 1


def test_tree_blowup_deeper_tree():
    params = {"parents": {"2": 1, "3": 2}, "polys": {"1": "n", "2": "n", "3": "n"}}
    built, oracle = gallery_build("treeBlowup", params, 2)
    assert built.domain == 2 + 4 + 8
    assert canonical_form(built, cap=16) == canonical_form(oracle, cap=16)


def test_gallery_default_range_checks():
    for name, entry in ENTRIES.items():
        if entry.expect_mismatch:
            continue
        report = gallery_check(name)
        assert report.ok, (name, report.to_dict())


def test_gallery_check_past_each_canonical_cap():
    # The first n whose construction outgrows the entry's canonical cap:
    # gallery_check falls back to the isomorphism test there.
    for name, entry in ENTRIES.items():
        n = entry.default_range[1] + 1
        while entry.oracle(n).domain <= entry.canonical_cap:
            n += 1
        start = time.perf_counter()
        report = gallery_check(name, n_range=(n, n))
        elapsed = time.perf_counter() - start
        (row,) = report.rows
        if entry.expect_mismatch:
            assert not report.ok, name
        else:
            assert (row.method, report.ok) == ("isomorphism", True), (name, n)
        assert elapsed < 2.0, (name, n, elapsed)


def test_gallery_check_with_detector():
    report = gallery_check("crown", n_range=(0, 4), detect=True)
    assert report.ok
    assert set(report.detector_verdicts.values()) == {"Polynomial"}


def test_gallery_unknown_entry_and_params():
    with pytest.raises(SignatureError):
        gallery_build("bogus", None, 1)
    with pytest.raises(SignatureError):
        gallery_check("crown", {"nope": 1})


def test_bounded_decompose_exact_parts():
    spec = product_sequences(
        "disjointUnion",
        CopiesSeq(parse_polynomial("n+1"), constant_seq(K1)),
        CopiesSeq(parse_polynomial("n^2"), constant_seq(K2)),
    )
    decomposition = bounded_decompose(spec, degree_cap=1)
    assert len(decomposition.parts) == 2
    by_edges = {edge_count(c): m for c, m in decomposition.parts}
    assert by_edges[0].coeffs == (1, 1)      # n + 1
    assert by_edges[1].coeffs == (0, 1, 2)   # n^2
    for n in (5, 6, 7):
        assert isomorphic(decomposition.reassemble(n), generate_term(spec, n), cap=200)


def test_bounded_decompose_constant():
    decomposition = bounded_decompose(constant_seq(K3), degree_cap=2)
    assert len(decomposition.parts) == 1
    component, multiplicity = decomposition.parts[0]
    assert canonical_form(component) == canonical_form(K3)
    assert multiplicity.coeffs == (1,)


def test_bounded_decompose_needs_a_held_out_index():
    """With no held-out index nothing is verified: a one-tournament sequence
    under cap 2 would be reported with the multiplicity -n^2 + 2n."""
    line = BasicSeq(1, 0, (parse_polynomial("n"),))
    with pytest.raises(SignatureError, match="held_out must be positive"):
        bounded_decompose(line, degree_cap=2, held_out=0)


def test_bounded_decompose_rejects_growing_degree():
    crown_spec = ENTRIES["crown"].spec(None)
    with pytest.raises(UnboundedDegreeError):
        bounded_decompose(crown_spec, degree_cap=2)


def test_bounded_decompose_detects_new_components():
    # stars keep max degree growing; a tight cap trips the degree check,
    # a loose cap trips the census verification
    star_spec = ENTRIES["starUnion"].spec(None)
    with pytest.raises((UnboundedDegreeError, ValidationError)):
        bounded_decompose(star_spec, degree_cap=100)


def test_max_degree():
    assert max_degree(star_graph(5)) == 4
    assert max_degree(cycle_graph(4)) == 2
    assert max_degree(complete_graph(1)) == 0


def test_degree_cap_reads_the_gaifman_degree_of_every_arity():
    """T(x; y; z) over a linear order joins every vertex to every other at
    n >= 3, so the degree cap trips before the census sees a new component."""
    scheme = parse_scheme(
        "interpretation chains {\n  source: basic(k=1, l=0);\n  target: sig{T:3};\n  p: 1;\n"
        "  domain(x): true;\n  T(x; y; z): S1(x,y) & S1(y,z);\n}\n")
    spec = InterpretedSeq(scheme, BasicSeq(1, 0, (parse_polynomial("n"),)))
    assert max_degree(generate_term(spec, 5)) == 4
    with pytest.raises(UnboundedDegreeError, match="term at n=3 has maximum degree 2 > cap 1"):
        bounded_decompose(spec, degree_cap=1)


def test_paley_graph_small():
    g = paley_graph(5)
    assert canonical_form(g) == canonical_form(cycle_graph(5))
    assert edge_count(g) == 5
    for q in (5, 13):
        assert hom(K2, paley_graph(q)) == q * (q - 1) // 2
    for bad in (7, 9, 12, 1):
        with pytest.raises(SignatureError):
            paley_graph(bad)


def test_homomorphic_image_count_c4():
    # images of a 4-cycle: the cycle itself, a path on 3, a single edge
    g = cycle_graph(5)
    assert homomorphic_image_count(cycle_graph(4), g) == 0 + 5 * 2 // 2 + 5
    k4 = complete_graph(4)
    c4_subs = 3  # three 4-cycles in K4
    p3_subs = 12
    e_subs = 6
    assert homomorphic_image_count(cycle_graph(4), k4) == c4_subs + p3_subs + e_subs


def test_homomorphic_image_count_budget(monkeypatch):
    # the Bell(|F|) quotients count against the basis budget: Bell(4) = 15
    monkeypatch.setenv("RELPOLY_BASIS_BUDGET", "14")
    with pytest.raises(BudgetError, match=r"Bell\(4\) quotients of a 4-vertex pattern"):
        homomorphic_image_count(cycle_graph(4), paley_graph(5))
    monkeypatch.setenv("RELPOLY_BASIS_BUDGET", "15")
    assert homomorphic_image_count(cycle_graph(4), paley_graph(5)) == 10
    # Bell(3000) has more digits than Python turns into a string; the check
    # stops the triangle past the budget and names it without its digits
    monkeypatch.delenv("RELPOLY_BASIS_BUDGET")
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        homomorphic_image_count(make_structure(GRAPH_SIG, 3000), paley_graph(5))
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == ("Bell(3000) quotients of a 3000-vertex pattern "
                              "exceed the basis budget of 1000000")


def test_paley_experiment_quartic_fit_verifies():
    report = paley_experiment(
        cycle_graph(4), [5, 13, 17, 29, 37, 41], fit_count=5, image_counts=False
    )
    assert report.all_match
    assert report.verify_rows == ((41, 164820, True),)
    values = {q: h for q, h, _ in report.rows}
    assert values[5] == 30 and values[13] == 1482
    # closed form for the homomorphism count of the 4-cycle
    for q, h in values.items():
        assert h == q * (q - 1) * (q * q - 2 * q + 9) // 16


def test_paley_experiment_reports_image_distinction():
    report = paley_experiment(cycle_graph(4), [5, 13], fit_count=2)
    assert "homomorphic images" in report.note
    rows = {q: (h, im) for q, h, im in report.rows}
    assert rows[5] == (30, 10)


def test_weak_isomorphism_agrees_with_canonical_keys():
    # two independent routes to the same question on single-symbol graphs
    rng = random.Random(91)
    pool = [graph_from_edges(4, [p for p in
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] if rng.random() < 0.5])
            for _ in range(14)]
    for a in pool:
        for b in pool:
            assert backtrack_weakly_isomorphic(a, b) == (canonical_form(a) == canonical_form(b))


@pytest.mark.parametrize("name", [*ENTRIES, *PRODUCT_OPS])
def test_spec_json_round_trip_of_every_builtin(name):
    """Every gallery entry and product op survives the JSON spec format:
    the parsed spec equals the original and builds the same terms."""
    if name in ENTRIES:
        spec = ENTRIES[name].spec()
    else:
        spec = product_sequences(name, custom_seq("path"), custom_seq("complete"))
    text = spec_to_json(spec)
    again = spec_from_json(text)
    assert again == spec
    assert spec_to_json(again) == text
    expected = [generate_term(spec, n) for n in range(4)]
    _term.cache_clear()  # equal specs share cache entries: build `again` afresh
    assert [generate_term(again, n) for n in range(4)] == expected


@pytest.mark.parametrize("name", ENTRIES)
def test_cached_terms_equal_fresh_ones(name):
    """A term served from the cache equals one built from an empty cache,
    inner terms included, and a repeated call returns the cached object."""
    spec = ENTRIES[name].spec()
    cached = [generate_term(spec, n) for n in range(6)]
    assert all(generate_term(spec, n) is cached[n] for n in range(6))
    for n in range(6):
        _term.cache_clear()
        assert generate_term(spec, n) == cached[n]


@pytest.mark.parametrize("inner", ["complete", "cycle", "path"])
@pytest.mark.parametrize("name", ["lineGraph", "cliqueIntersection", "subdivision"])
def test_quotient_entries_over_every_inner_sequence(name, inner):
    """C_1 is a loop: the quotient entries must not take it for an edge or
    a 2-clique, so the scheme matches the oracle at every n."""
    report = gallery_check(name, {"inner": inner})
    assert report.ok, report.first_mismatch
