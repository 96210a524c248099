import gc
import json
import os
import random
import subprocess
import sys
import time
import weakref
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoly import (
    GRAPH_SIG,
    BudgetError,
    SignatureError,
    Structure,
    ToolkitError,
    copies,
    count_satisfying,
    disjoint_union,
    hom,
    hom_count,
    ind,
    ind_count,
    induced,
    inj,
    inj_count,
    make_structure,
    mobius,
    parse_formula,
    qf_to_hom_basis,
    quotient,
    set_partitions,
    sig,
    super_patterns,
)
from relpoly import canon, counting
from relpoly.counting import bell, gaifman_components, validate_partition
from relpoly.gallery import cycle_graph, johnson_oracle, paley_graph, path_graph

from genutil import C4, K1, K2, K3, P3, graph, random_graph, random_structure
from oracle_counting import oracle_hom, oracle_ind, oracle_inj, oracle_set_partitions


def fresh(s: Structure) -> Structure:
    """A structure equal to `s` that remembers no hom counts, so that a count
    into it searches (`copy.copy` would carry the remembered counts along)."""
    return Structure(s.signature, s.domain, s.relations)


def test_hom_examples():
    assert hom(K2, K3) == 6
    assert hom(P3, K3) == 12  # proper-coloring count n(n-1)^2 at n=3
    assert hom(K3, make_structure(GRAPH_SIG, 0)) == 0
    assert hom(make_structure(GRAPH_SIG, 0), K3) == 1
    report = hom_count(K2, K3)
    assert report.mode == "hom" and report.nodes_explored > 0


def test_inj_examples():
    assert inj(K2, K3) == 6
    assert inj(graph(2, []), K1) == 0
    assert inj(K1, K3) == 3
    assert inj_count(K3, K2).value == 0


def test_ind_examples():
    assert ind(K2, K3) == 6
    assert ind(graph(2, []), K3) == 0
    assert ind(K1, K3) == 3
    assert ind_count(P3, K3).value == 0


def test_signature_alignment_by_name():
    r_edge = make_structure(sig(("R", 2)), 2, {"R": [(0, 1), (1, 0)]})
    assert hom(r_edge, K3) == 0  # no R relation in the target
    lifted_target = make_structure(
        sig(("E", 2), ("R", 2)), 3,
        {"E": K3.rel("E"), "R": K3.rel("E")},
    )
    assert hom(r_edge, lifted_target) == 6
    with pytest.raises(SignatureError):
        hom(make_structure(sig(("E", 1)), 1, {"E": [(0,)]}), K3)


def test_quotient():
    loop = quotient(K2, [(0, 1)])
    assert loop.domain == 1 and loop.rel("E") == ((0, 0),)
    assert quotient(P3, [(0,), (1,), (2,)]) == P3
    folded = quotient(P3, [(0, 2), (1,)])
    assert folded.domain == 2
    assert (0, 0) not in folded.rel("E") and len(folded.rel("E")) == 2
    with pytest.raises(SignatureError):
        quotient(K2, [(0,)])
    with pytest.raises(SignatureError):
        quotient(K2, [(0, 1), (1,)])
    assert validate_partition([(1,), (0,)], 2) == ((0,), (1,))


def test_mobius():
    assert mobius(((0,), (1,), (2,))) == 1
    assert mobius(((0, 1), (2,))) == -1
    assert mobius(((0, 1, 2),)) == 2
    assert mobius(((0, 1, 2, 3),)) == -6


def test_set_partitions_counts():
    assert len(list(set_partitions(0))) == 1
    assert len(list(set_partitions(3))) == 5
    assert len(list(set_partitions(5))) == 52
    for theta in set_partitions(4):
        assert sorted(v for block in theta for v in block) == [0, 1, 2, 3]
        assert list(theta) == sorted(theta, key=min)


def test_set_partitions_match_the_recursive_generator():
    for n in range(9):
        partitions = list(set_partitions(n))
        assert partitions == list(oracle_set_partitions(n))
        assert len(partitions) == bell(n)
    assert [bell(n) for n in (10, 13)] == [115975, 27644437]
    # with a cap, the triangle stops at its first entry past it
    assert bell(13, cap=27644437) == 27644437
    assert 27644437 < bell(14, cap=27644437) <= bell(14)
    assert 10**6 < bell(3000, cap=10**6) < 10**7
    # no recursion per vertex: a 1200-vertex pattern starts at once
    first = set_partitions(1200)
    assert next(first) == (tuple(range(1200)),)
    assert next(first) == (tuple(range(1199)), (1199,))


def test_inversion_identities_random():
    rng = random.Random(42)
    for _ in range(12):
        f = random_graph(rng, rng.randrange(1, 5))
        a = random_graph(rng, rng.randrange(1, 6))
        homv, injv, indv = hom(f, a), inj(f, a), ind(f, a)
        assert indv <= injv <= homv
        assert homv == sum(inj(quotient(f, th), a) for th in set_partitions(f.domain))
        assert injv == sum(
            mobius(th) * hom(quotient(f, th), a) for th in set_partitions(f.domain)
        )
        assert injv == sum(ind(g, a) for g, _ in super_patterns(f, closure="simple"))
        assert indv == sum(
            (-1) ** k * inj(g, a) for g, k in super_patterns(f, closure="simple")
        )


def test_inversion_identities_general_relations():
    # loops and asymmetric tuples included; full tuple-lattice closure
    rng = random.Random(43)
    sig_r = sig(("R", 2))
    for _ in range(10):
        f = random_structure(rng, sig_r, rng.randrange(1, 4))
        a = random_structure(rng, sig_r, rng.randrange(1, 5))
        assert inj(f, a) == sum(ind(g, a) for g, _ in super_patterns(f))
        assert ind(f, a) == sum((-1) ** k * inj(g, a) for g, k in super_patterns(f))


def test_super_patterns_keep_the_pattern_and_yield_in_order():
    """Every super-pattern contains the pattern, even when a symmetric group
    added by the simple closure meets a tuple of an asymmetric pattern; the
    first group varies slowest, left out before it is added."""
    arc = make_structure(GRAPH_SIG, 3, {"E": [(2, 1)]})
    supers = list(super_patterns(arc, closure="simple"))
    assert [k for _, k in supers] == [0, 1, 1, 2, 1, 2, 2, 3]
    assert all(set(arc.rel("E")) <= set(g.rel("E")) for g, _ in supers)
    assert supers[1][0].rel("E") == ((1, 2), (2, 1))
    assert supers[2][0].rel("E") == ((0, 2), (2, 0), (2, 1))
    assert supers[4][0].rel("E") == ((0, 1), (1, 0), (2, 1))


def test_hom_multiplicative_over_components():
    rng = random.Random(44)
    for _ in range(8):
        f = disjoint_union(random_graph(rng, 3), random_graph(rng, 2))
        a = random_graph(rng, 5)
        total = 1
        for comp in gaifman_components(f):
            total *= hom(induced(f, comp), a)
        assert hom(f, a) == total


def test_hom_additive_over_disjoint_union_for_connected():
    rng = random.Random(45)
    a = random_graph(rng, 4)
    b = random_graph(rng, 5)
    both = disjoint_union(a, b)
    for f in (K2, K3, P3):
        assert hom(f, both) == hom(f, a) + hom(f, b)


def test_hom_into_copies():
    rng = random.Random(46)
    a = random_graph(rng, 4, 0.5)
    m = 3
    blown = copies(a, m)
    for f in (K2, P3, K3):
        assert hom(f, blown) == m * hom(f, a)
    f = disjoint_union(K2, K2)
    assert hom(f, blown) == (m * hom(K2, a)) ** 2
    assert copies(a, 0).domain == 0


def test_counts_agree_with_full_enumeration():
    from itertools import product as iproduct

    rng = random.Random(47)
    for _ in range(8):
        f = random_graph(rng, rng.randrange(1, 4))
        a = random_graph(rng, rng.randrange(1, 5))
        fa, aa = set(f.rel("E")), set(a.rel("E"))
        brute_hom = brute_inj = brute_ind = 0
        for image in iproduct(range(a.domain), repeat=f.domain):
            preserves = all((image[u], image[v]) in aa for u, v in fa)
            if preserves:
                brute_hom += 1
                if len(set(image)) == f.domain:
                    brute_inj += 1
                    induced_exactly = all(
                        ((image[u], image[v]) in aa) == ((u, v) in fa)
                        for u in range(f.domain)
                        for v in range(f.domain)
                    )
                    if induced_exactly:
                        brute_ind += 1
        assert hom_count(f, a).value == brute_hom
        assert inj_count(f, a).value == brute_inj
        assert ind_count(f, a).value == brute_ind


def _enumerate_counts(f, a) -> tuple[int, int, int]:
    """(hom, inj, ind) by trying every map of f's domain into a's; f and a
    share one signature."""
    fsets, asets = ([frozenset(r) for r in s.relations] for s in (f, a))
    arities = [arity for _, arity in f.signature.symbols]
    homv = injv = indv = 0
    for image in product(range(a.domain), repeat=f.domain):
        if not all(tuple(image[u] for u in t) in aset
                   for fset, aset in zip(fsets, asets) for t in fset):
            continue
        homv += 1
        if len(set(image)) < f.domain:
            continue
        injv += 1
        if all((tuple(image[u] for u in t) in aset) == (t in fset)
               for fset, aset, arity in zip(fsets, asets, arities)
               for t in product(range(f.domain), repeat=arity)):
            indv += 1
    return homv, injv, indv


def test_kernel_agrees_with_oracle_and_enumeration():
    # unary, binary and ternary symbols; random tuples include loops and
    # repeated vertices such as T(x,y,x); domains start at 0
    signature = sig(("R", 2), ("U", 1), ("T", 3))
    fixed = [
        (make_structure(signature, 1, {"R": [(0, 0)]}),
         make_structure(signature, 3, {"R": [(0, 0), (0, 1), (2, 2)]})),
        (make_structure(signature, 2, {"T": [(0, 1, 0)], "U": [(1,)]}),
         make_structure(signature, 3, {"T": [(0, 1, 0), (1, 1, 1), (2, 0, 1)],
                                       "U": [(1,), (2,)]})),
        (make_structure(signature, 3, {"T": [(0, 0, 1), (1, 2, 2)]}),
         make_structure(signature, 3, {"T": [(0, 0, 1), (1, 1, 1), (1, 2, 2), (2, 2, 2)]})),
        (make_structure(signature, 0), make_structure(signature, 0)),
        (make_structure(signature, 0), make_structure(signature, 2, {"U": [(0,)]})),
        (make_structure(signature, 2), make_structure(signature, 0)),
    ]
    rng = random.Random(48)
    cases = list(fixed)
    for i in range(300):
        target = random_structure(rng, signature, rng.randrange(0, 6),
                                  rng.choice((0.2, 0.4, 0.7)))
        if i % 4 == 0:  # disconnected: two random parts side by side
            pattern = disjoint_union(random_structure(rng, signature, rng.randrange(0, 3), 0.2),
                                     random_structure(rng, signature, rng.randrange(1, 3), 0.2))
        else:
            pattern = random_structure(rng, signature, rng.randrange(0, 5),
                                       rng.choice((0.05, 0.15, 0.3)))
        cases.append((pattern, target))
    for pattern, target in cases:
        expected = _enumerate_counts(pattern, target)
        for count, oracle, value in zip((hom_count, inj_count, ind_count),
                                        (oracle_hom, oracle_inj, oracle_ind), expected):
            report = count(pattern, target)
            oracle_value, oracle_nodes = oracle(pattern, target)
            assert report.value == oracle_value == value, (count.__name__, pattern, target)
            assert report.nodes_explored <= oracle_nodes, (count.__name__, pattern, target)


SIG_RUT = sig(("R", 2), ("U", 1), ("T", 3))


@st.composite
def _patterns_and_targets(draw):
    """A pattern of 0 to 4 vertices, sometimes two parts side by side, and a
    target of 0 to 5 vertices, over unary, binary and ternary symbols."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from((0.05, 0.15, 0.3)))
    # sizes come from a seeded Random: hypothesis' own draws favour empty domains
    pattern = random_structure(rng, SIG_RUT, rng.randrange(0, 5), density)
    if draw(st.booleans()):
        pattern = disjoint_union(pattern, random_structure(rng, SIG_RUT,
                                                           rng.randrange(1, 3), density))
    target = random_structure(rng, SIG_RUT, rng.randrange(0, 6),
                              draw(st.sampled_from((0.2, 0.4, 0.7))))
    return pattern, target


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_patterns_and_targets())
def test_kernel_matches_the_backtracker_property(case):
    """Each case is counted twice, into fresh copies of the target: with the
    kernel's own choice, candidate masks on nearly every drawn target, and
    on candidate sets throughout."""
    pattern, target = case
    for sets in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if sets:
                mp.setattr(counting, "_MASK_VERTICES", -1)
            into = fresh(target)
            reports = [count(pattern, into) for count, _ in COUNTS]
        for report, (count, oracle) in zip(reports, COUNTS):
            value, nodes = oracle(pattern, target)
            assert report.value == value, (count.__name__, sets, pattern, target)
            assert report.nodes_explored <= nodes, (count.__name__, sets, pattern, target)


@st.composite
def _deep_patterns_and_targets(draw):
    """A connected pattern of 5 to 7 vertices (a cycle, a path or a random
    tree over R, each edge one or both ways) with, now and then, a ternary T
    tuple, a loop and a unary U tuple, and a target of 3 to 5 vertices.  Long
    patterns have vertices that drop out of the separator before the last
    depth, where the hom search keeps an inner memo."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = rng.randrange(5, 8)
    shape = rng.choice(("cycle", "path", "tree"))
    if shape == "cycle":
        edges = [(i, (i + 1) % k) for i in range(k)]
    elif shape == "path":
        edges = [(i, i + 1) for i in range(k - 1)]
    else:
        edges = [(rng.randrange(i), i) for i in range(1, k)]
    relations = {"R": set(), "U": set(), "T": set()}
    for u, v in edges:
        relations["R"].add((u, v))
        if rng.random() < 0.7:
            relations["R"].add((v, u))
    if rng.random() < 0.4:
        relations["T"].add(tuple(rng.randrange(k) for _ in range(3)))
    if rng.random() < 0.4:
        v = rng.randrange(k)
        relations["R"].add((v, v))
    if rng.random() < 0.4:
        relations["U"].add((rng.randrange(k),))
    pattern = make_structure(SIG_RUT, k, relations)
    target = random_structure(rng, SIG_RUT, rng.randrange(3, 6), rng.choice((0.3, 0.5)))
    return pattern, target


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_deep_patterns_and_targets())
def test_hom_memo_matches_the_backtracker_on_long_patterns(case):
    pattern, target = case
    report = hom_count(pattern, target)
    value, nodes = oracle_hom(pattern, target)
    assert report.value == value, (pattern, target)
    assert report.nodes_explored <= nodes, (pattern, target)


# Target signatures for one pattern over SIG_RUT: in another order, lacking
# U or T, lacking both, and with an extra symbol V.
TARGET_SIGS = (SIG_RUT, sig(("T", 3), ("U", 1), ("R", 2)), sig(("R", 2), ("U", 1)),
               sig(("R", 2), ("T", 3)), sig(("R", 2)),
               sig(("R", 2), ("U", 1), ("T", 3), ("V", 1)))
COUNTS = ((hom_count, oracle_hom), (inj_count, oracle_inj), (ind_count, oracle_ind))


def test_one_pattern_into_targets_of_different_signatures():
    # the search plan is cached per pattern and target signature; each call
    # must still see its own target's symbols and arities
    # a triangle with one vertex marked U, into K4 with vertex 0 marked U
    pattern = make_structure(sig(("R", 2), ("U", 1), ("W", 1)), 3,
                             {"R": K3.rel("E"), "U": [(0,)]})
    full = {"R": [(i, j) for i in range(4) for j in range(4) if i != j], "U": [(0,)]}
    extra = make_structure(sig(("R", 2), ("U", 1), ("W", 1), ("V", 1)), 4,
                           {**full, "V": [(3,)]})
    lacks_used = make_structure(sig(("R", 2), ("W", 1)), 4, {"R": full["R"]})
    lacks_empty = make_structure(sig(("U", 1), ("R", 2)), 4, full)
    conflict = make_structure(sig(("R", 2), ("W", 2)), 4, {"R": full["R"]})
    for _ in range(2):
        for target in (extra, lacks_used, lacks_empty):
            for count, oracle in COUNTS:
                report = count(pattern, fresh(target))
                value, nodes = oracle(pattern, target)
                assert report.value == value, (count.__name__, target.signature)
                assert report.nodes_explored <= nodes
        assert hom(pattern, fresh(lacks_used)) == 0 and hom(pattern, fresh(lacks_empty)) == 6
        # the pattern lacks V, so an induced copy must avoid vertex 3
        assert ind(pattern, lacks_empty) == 6 and ind(pattern, extra) == 2
        for count, _ in COUNTS:
            for _ in range(2):
                with pytest.raises(SignatureError, match="'W' has conflicting arities"):
                    count(pattern, conflict)


def test_budgets_are_read_per_call_after_the_plan_is_cached(monkeypatch):
    f = disjoint_union(P3, K2)
    k6 = graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    for count, mode in ((hom_count, "hom"), (inj_count, "inj"), (ind_count, "ind")):
        monkeypatch.delenv("RELPOLY_SEARCH_BUDGET", raising=False)
        counting._plan.cache_clear()
        assert count(f, k6).nodes_explored > 20  # the plan is now cached
        monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "20")
        with pytest.raises(BudgetError) as cached:
            count(f, k6)
        counting._plan.cache_clear()
        with pytest.raises(BudgetError) as fresh:
            count(f, k6)
        assert str(cached.value) == str(fresh.value)
        assert str(cached.value).startswith(f"{mode} search explored 2")


@st.composite
def _patterns_and_target_lists(draw):
    """A pattern over SIG_RUT as in `_patterns_and_targets`, three to five
    targets over the signatures of TARGET_SIGS, and two other patterns over
    SIG_RUT."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from((0.05, 0.15, 0.3)))
    pattern = random_structure(rng, SIG_RUT, rng.randrange(0, 5), density)
    if draw(st.booleans()):
        pattern = disjoint_union(pattern, random_structure(rng, SIG_RUT,
                                                           rng.randrange(1, 3), density))
    targets = [random_structure(rng, rng.choice(TARGET_SIGS), rng.randrange(0, 6),
                                rng.choice((0.2, 0.4, 0.7)))
               for _ in range(rng.randrange(3, 6))]
    others = [random_structure(rng, SIG_RUT, rng.randrange(1, 4), 0.3) for _ in range(2)]
    return pattern, targets, others


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_patterns_and_target_lists())
def test_one_plan_serves_many_targets_property(case):
    """Each target is counted into twice: as a fresh object, and as one that
    already keeps the candidate indexes of hom, inj and ind counts of other
    patterns."""
    pattern, targets, others = case
    for target in targets:
        expected = [oracle(pattern, target) for _, oracle in COUNTS]
        for warm in (False, True):
            into = fresh(target)
            if warm:
                for other in others:
                    for count, _ in COUNTS:
                        count(other, into)
            reports = [count(pattern, into) for count, _ in COUNTS]
            for report, (value, nodes) in zip(reports, expected):
                assert report.value == value, (report.mode, warm, pattern, target)
                assert report.nodes_explored <= nodes, (report.mode, warm, pattern, target)


def _closed_walks(adjacency: list[list[int]], length: int) -> int:
    """trace(A^length) for a symmetric A, by repeated products with the
    adjacency lists."""
    n = len(adjacency)
    power = [[int(w == u) for w in range(n)] for u in range(n)]
    for _ in range(length):
        power = [[sum(row[v] for v in adjacency[w]) for w in range(n)] for row in power]
    return sum(power[u][u] for u in range(n))


def test_hom_of_c5_into_paley_101_fits_a_small_search_budget(monkeypatch):
    """Paley_101 is one orbit, so the C5 search roots at two vertices and
    keeps under 5*10^4 nodes with the orbit finder's work; the separator memo
    alone tries 1,020,201 candidate images and the plain search 3.3*10^8."""
    q = 101
    squares = {x * x % q for x in range(1, q)}
    adjacency = [[v for v in range(q) if (u - v) % q in squares] for u in range(q)]
    monkeypatch.setattr(canon, "_ORBITS", {})  # so that the finder's work is counted
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "400000")
    report = hom_count(cycle_graph(5), paley_graph(q))
    assert report.value == _closed_walks(adjacency, 5) == 312337450
    assert 2 * 101 ** 2 < report.nodes_explored <= 400000
    monkeypatch.setattr(counting, "_ORBIT_GATE", 10**12)
    with pytest.raises(BudgetError, match="hom search explored"):
        hom_count(cycle_graph(5), paley_graph(q))


def test_hom_of_c8_into_kneser_21_2_fits_a_small_search_budget(monkeypatch):
    """Kneser(21, 2) is one orbit of 210 vertices; the search without orbits
    tries about 4.2*10^7 candidate images."""
    monkeypatch.setattr(canon, "_ORBITS", {})
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "1000000")
    report = hom_count(cycle_graph(8), johnson_oracle(21, 2, {0}))
    assert report.value == 731086920211050270
    assert report.nodes_explored <= 1000000


def test_hom_of_p80_into_c_8000_fits_a_small_search_budget(monkeypatch):
    """An 8000-cycle is one orbit, found for about 10^5 units of work, so the
    path is searched from two first-vertex images; with singleton orbits the
    search explores about 1.27*10^6 nodes."""
    monkeypatch.setattr(canon, "_ORBITS", {})
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "200000")
    report = hom_count(path_graph(80), cycle_graph(8000))
    assert report.value == 8000 * 2 ** 79
    assert report.nodes_explored <= 200000


def test_search_budget(monkeypatch):
    f = disjoint_union(P3, K2)
    assert hom_count(f, K3).nodes_explored > 20
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "20")
    for count, mode in ((hom_count, "hom"), (inj_count, "inj"), (ind_count, "ind")):
        with pytest.raises(BudgetError, match=f"{mode} search explored 2[1-9] nodes"):
            count(f, graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]))
    assert hom_count(K2, fresh(K3)).value == 6


def test_searches_deeper_than_the_vertex_limit_are_refused():
    # one recursion per pattern vertex: refused well inside Python's limit
    limit = counting._MAX_SEARCH_VERTICES
    assert hom(cycle_graph(limit), K2) == 2
    big = cycle_graph(limit + 1)
    message = f"search over {limit + 1} pattern vertices exceeds the limit of {limit}"
    for _ in range(2):  # the cached plan refuses it again
        with pytest.raises(BudgetError, match=message):
            hom_count(big, K3)
        with pytest.raises(BudgetError, match=message):
            inj_count(big, make_structure(GRAPH_SIG, limit + 1))
    # components are searched one at a time, and one counting 0 before the
    # oversized one ends the product
    assert hom(copies(K1, big.domain), K2) == 2 ** (limit + 1)
    assert hom(disjoint_union(K3, big), K2) == 0


SIG_RU = sig(("R", 2), ("U", 1))


@pytest.mark.parametrize("sets", (False, True))
@pytest.mark.parametrize("seed", range(12))
def test_wide_targets_match_the_backtracker(seed, sets, monkeypatch):
    """Targets of 0 or 64 to 130 vertices, dense enough for masks, so that
    the candidate masks span several machine words; with `sets`, every target
    is past the mask limit, so that the search runs on candidate sets, as it
    does on sparse targets and on those of more than _MASK_VERTICES
    vertices.  hom, inj and ind are counted into one object in turn, so that
    each later count reuses the indexes of the earlier ones, and each must
    equal the count into a fresh object and the oracle."""
    if sets:
        monkeypatch.setattr(counting, "_MASK_VERTICES", -1)
    rng = random.Random(seed)
    n = 0 if seed == 0 else rng.randrange(64, 131)
    p = rng.choice((0.02, 0.04))
    target = make_structure(SIG_RU, n, {
        "R": [(u, v) for u in range(n) for v in range(n) if rng.random() < p],
        "U": [(v,) for v in range(n) if rng.random() < 0.5],
    })
    assert counting._uses_masks(target) is not sets
    pattern = random_structure(rng, SIG_RU, 1 + seed % 3, 0.4)
    into = fresh(target)
    for count, oracle in COUNTS:
        report = count(pattern, into)
        alone = count(pattern, fresh(target))
        assert (report.value, report.nodes_explored) == (alone.value, alone.nodes_explored)
        value, nodes = oracle(pattern, target)
        assert report.value == value, (report.mode, seed, pattern)
        assert report.nodes_explored <= nodes, (report.mode, seed, pattern)


_LONG_SPARSE_COUNTS = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
from relpoly import copies, hom, ind, inj
from relpoly.gallery import complete_graph, cycle_graph, path_graph
n = 100_000
k2, p3, k3 = complete_graph(2), path_graph(3), complete_graph(3)
cycle, path, triangles = cycle_graph(n), path_graph(n), copies(k3, n // 3)
print(json.dumps([hom(k2, cycle), hom(p3, cycle), hom(k3, cycle), inj(p3, cycle),
                  ind(p3, cycle), hom(p3, path), hom(k3, triangles), inj(p3, triangles),
                  hom(path_graph(60), cycle_graph(8000))]))
"""


def test_long_sparse_targets_count_in_bounded_memory():
    """A cycle, a path and copies of K3 on 10^5 vertices keep candidate sets,
    whose memory is in proportion to the target's tuples.  Masks would take
    about n/8 bytes per key, over 0.6 GB for one index of the cycle.  A path
    of 60 vertices is large enough to ask for the orbits of an 8000-cycle,
    and the orbit finder's inputs are in proportion to its tuples too: a
    structure of n^2 entries would not fit.  A k-vertex path has n * 2^(k-1)
    homomorphisms into an n-cycle.  The counts run in a process limited to
    400 MB of address space and must end within two minutes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LONG_SPARSE_COUNTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    n = 100_000
    assert json.loads(done.stdout) == [2 * n, 4 * n, 0, 2 * n, 2 * n, 4 * n - 6,
                                       2 * n - 2, 2 * n - 2, 8000 * 2 ** 59]


def test_ind_count_on_paley_matches_oracle():
    # the induced check runs per depth against the placed vertices; a scan of
    # every target tuple at every injective leaf takes about 6.4 s here
    g = paley_graph(29)
    start = time.perf_counter()
    report = ind_count(C4, g)
    assert time.perf_counter() - start < 2.0
    by_inclusion_exclusion = sum((-1) ** k * oracle_inj(f, g)[0]
                                 for f, k in super_patterns(C4, closure="simple"))
    assert report.value == by_inclusion_exclusion == 9744
    assert ind_count(C4, paley_graph(17)).value == oracle_ind(C4, paley_graph(17))[0] == 816


def test_path_plans_keep_separators_to_one_vertex():
    # the search order starts a path at an end, so that each depth's
    # separator is the one vertex placed just before it
    p8 = graph(8, [(i, i + 1) for i in range(7)])
    (plan,) = counting._plan(p8, GRAPH_SIG, "hom")
    assert plan.order[0] in (0, 7)
    probe = list(range(8))
    assert sorted(plan.separators) == list(range(2, 8))
    assert all(isinstance(plan.separators[depth](probe), int) for depth in range(2, 8))
    # a path of k vertices into a d-regular graph on n vertices: n * d^(k-1)
    assert hom(p8, paley_graph(13)) == 13 * 6 ** 7
    assert hom(p8, paley_graph(61)) == 61 * 30 ** 7


def _circulant(n: int, jumps):
    return graph(n, [(i, (i + j) % n) for i in range(n) for j in jumps if j % n])


SIG_EU = sig(("E", 2), ("U", 1))


@st.composite
def _patterns_into_symmetric_targets(draw):
    """A target with planted symmetry (a circulant, copies of a random graph
    or of a random structure with unary marks and loops, a small Paley
    graph) or a random graph, most of which are rigid; and a pattern of 2 to
    4 vertices over the target's signature, loops and marks included."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("circulant", "copies", "marked", "paley", "rigid")))
    if kind == "circulant":
        n = rng.randrange(4, 11)
        target = _circulant(n, rng.sample(range(1, n // 2 + 1), rng.randrange(1, n // 2 + 1)))
    elif kind == "copies":
        target = copies(random_graph(rng, rng.randrange(2, 5), rng.random()), rng.randrange(2, 4))
    elif kind == "marked":
        target = copies(random_structure(rng, SIG_EU, rng.randrange(1, 4), 0.4),
                        rng.randrange(2, 4))
    elif kind == "paley":
        target = paley_graph(rng.choice((5, 13)))
    else:
        target = random_graph(rng, rng.randrange(5, 10), 0.5)
    pattern = random_structure(rng, target.signature, rng.randrange(2, 5),
                               draw(st.sampled_from((0.15, 0.3, 0.5))))
    return pattern, target


@settings(derandomize=True, deadline=None, database=None, max_examples=250)
@given(_patterns_into_symmetric_targets())
def test_orbit_weighting_matches_the_backtracker_property(case):
    """With the gate at 0 every search of three or more depth-0 candidates
    whose second subtree is not empty asks for orbits: first under the
    kernel's allowance, which often runs out, then with an unbounded one
    that finds every orbit."""
    pattern, target = case
    expected = [oracle(pattern, target)[0] for _, oracle in COUNTS]
    real = canon.orbits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_ORBIT_GATE", 0)
        mp.setattr(canon, "_ORBITS", {})
        for unbounded in (False, True):
            if unbounded:
                mp.setattr(canon, "orbits", lambda s, _: real(s, 10**9))
            for (count, _), value in zip(COUNTS, expected):
                assert count(pattern, fresh(target)).value == value, (count.__name__, unbounded)


def test_orbit_weighting_searches_one_vertex_per_orbit(monkeypatch):
    g = paley_graph(29)
    for f in (cycle_graph(4), cycle_graph(5)):
        for count in (inj_count, ind_count):
            monkeypatch.setattr(canon, "_ORBITS", {})
            rooted = count(f, fresh(g))
            monkeypatch.setattr(counting, "_ORBIT_GATE", 10**12)
            plain = count(f, fresh(g))
            monkeypatch.undo()
            assert rooted.value == plain.value
            assert rooted.nodes_explored * 4 < plain.nodes_explored
    assert ind(cycle_graph(4), g) == 9744 and hom(cycle_graph(5), g) == 533890


def test_small_searches_never_ask_for_orbits(monkeypatch):
    def refuse(*_):
        raise AssertionError("orbits asked for below the gate")

    monkeypatch.setattr(canon, "orbits", refuse)
    g = paley_graph(13)
    assert hom(K3, g) == 13 * 6 * 2  # n * degree * common neighbours of an edge
    assert hom(cycle_graph(4), g) == oracle_hom(cycle_graph(4), g)[0]
    assert ind(P3, g) == oracle_ind(P3, g)[0]


def test_a_starved_orbit_finder_gives_the_exact_count_or_a_budget_error(monkeypatch):
    g = paley_graph(29)
    c5 = cycle_graph(5)
    truth = [533890, 375550, 18270]
    real = canon.orbits
    for allowance in (0, 30, 300, 3000, 30000):
        monkeypatch.setattr(canon, "_ORBITS", {})
        monkeypatch.setattr(canon, "orbits", lambda s, a, cap=allowance: real(s, min(a, cap)))
        assert [count(c5, fresh(g)).value for count, _ in COUNTS] == truth
    monkeypatch.undo()
    outcomes = set()
    for budget in range(2000, 40001, 2000):
        monkeypatch.setattr(canon, "_ORBITS", {})
        monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", str(budget))
        try:
            outcomes.add(hom(c5, fresh(g)) == truth[0])
        except BudgetError as error:
            assert str(error).startswith("hom search explored")
            outcomes.add("budget")
    assert outcomes == {True, "budget"}


def test_a_leaf_map_that_is_no_automorphism_is_rejected(monkeypatch):
    """Paley_13 beside a 5-cycle, with every leaf of the orbit finder read
    as the rotation v -> v + 1 of all 18 vertices, which carries a Paley
    vertex into the cycle: each is checked and rejected, so the orbits stay
    singletons and no count changes."""
    target = disjoint_union(paley_graph(13), cycle_graph(5))
    leaves = []

    def rotation(ref_colors, colors):
        leaves.append(len(colors))
        return [(v + 1) % len(colors) for v in range(len(colors))]

    monkeypatch.setattr(canon, "_ORBITS", {})
    monkeypatch.setattr(canon, "_leaf_map", rotation)
    monkeypatch.setattr(counting, "_ORBIT_GATE", 0)
    assert canon.orbits(target, 10**9)[0] == tuple(range(18)) and leaves
    for f in (P3, C4):
        for count, oracle in COUNTS:
            assert count(f, target).value == oracle(f, target)[0], count.__name__


# (pattern, target) -> the (value, nodes_explored) of hom, inj and ind, the
# same on candidate masks and on candidate sets; where a count asks for the
# target's orbits, its nodes include the orbit finder's work
PINNED_WORK = {
    ('C4', 'Paley13'): ((1482, 1027), (624, 1105), (312, 949)),
    ('C4', 'Paley29'): ((40194, 11803), (29232, 4513), (9744, 3673)),
    ('C4', 'Kneser72'): ((11550, 4431), (7560, 3521), (5040, 3401)),
    ('C4', 'marked'): ((2148, 1372), (896, 1488), (32, 322)),
    ('C4', 'C300'): ((1800, 3300), (0, 1500), (0, 1500)),
    ('C5', 'Paley13'): ((7410, 2041), (3510, 1287), (390, 2821)),
    ('C5', 'Paley29'): ((533890, 3729), (375550, 32961), (18270, 9945)),
    ('C5', 'Kneser72'): ((93870, 3441), (65520, 10601), (2520, 5321)),
    ('C5', 'marked'): ((8444, 2776), (3360, 3827), (50, 614)),
    ('C5', 'C300'): ((0, 3900), (0, 2100), (0, 2100)),
    ('P4', 'Paley13'): ((2808, 247), (1794, 2275), (390, 1651)),
    ('P4', 'Paley29'): ((79576, 1247), (66178, 7061), (10150, 5045)),
    ('P4', 'Kneser72'): ((21000, 651), (16380, 4361), (2520, 3881)),
    ('P4', 'marked'): ((3940, 316), (2304, 2896), (74, 480)),
    ('P4', 'C300'): ((2400, 2100), (600, 2100), (600, 2100)),
    ('loop-mark', 'Paley13'): ((0, 0), (0, 0), (0, 0)),
    ('loop-mark', 'Paley29'): ((0, 0), (0, 0), (0, 0)),
    ('loop-mark', 'Kneser72'): ((0, 0), (0, 0), (0, 0)),
    ('loop-mark', 'marked'): ((30, 50), (24, 52), (10, 44)),
    ('loop-mark', 'C300'): ((0, 0), (0, 0), (0, 0)),
}


@pytest.mark.parametrize("sets", (False, True))
def test_counts_keep_their_pinned_work(sets, monkeypatch):
    """Every count's value and nodes, as the kernel first gave them: the
    property tests bound nodes only from above, so this table is what shows
    that a change to the search moved no work.  Each count runs into a fresh
    target with no orbits remembered, first with the kernel's own choice of
    masks or sets, then on sets throughout."""
    if sets:
        monkeypatch.setattr(counting, "_MASK_VERTICES", -1)
    n = 16
    marked = make_structure(SIG_EU, n, {
        "E": [(v, v) for v in range(0, n, 4)]
        + [e for u in range(n) for j in (1, 2, 5) for e in ((u, (u + j) % n), ((u + j) % n, u))],
        "U": [(v,) for v in range(1, n, 5)],
    })
    patterns = {
        "C4": cycle_graph(4), "C5": cycle_graph(5), "P4": graph(4, [(0, 1), (1, 2), (2, 3)]),
        "loop-mark": make_structure(SIG_EU, 3, {"E": [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)],
                                                "U": [(2,)]}),
    }
    targets = {"Paley13": paley_graph(13), "Paley29": paley_graph(29),
               "Kneser72": johnson_oracle(7, 2, {0}), "marked": marked, "C300": cycle_graph(300)}
    for (p, t), expected in PINNED_WORK.items():
        got = []
        for count, _ in COUNTS:
            canon._ORBITS.clear()
            report = count(patterns[p], fresh(targets[t]))
            got.append((report.value, report.nodes_explored))
        assert tuple(got) == expected, (p, t)


@st.composite
def _interleaved_counts(draw):
    """Twelve (count, pattern, target) calls over two patterns and two
    targets over SIG_RUT, each present also as an equal but distinct object."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    patterns = [random_structure(rng, SIG_RUT, rng.randrange(0, 4), 0.2) for _ in range(2)]
    targets = [random_structure(rng, SIG_RUT, rng.randrange(0, 5), 0.4) for _ in range(2)]
    patterns += [fresh(p) for p in patterns]
    targets += [fresh(t) for t in targets]
    return [(rng.choice(COUNTS), rng.choice(patterns), rng.choice(targets)) for _ in range(12)]


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_interleaved_counts())
def test_remembered_hom_counts_match_the_backtracker_property(calls):
    for (count, oracle), pattern, target in calls:
        report = count(pattern, target)
        value, nodes = oracle(pattern, target)
        assert report.value == value, (report.mode, pattern, target)
        assert report.nodes_explored <= nodes, (report.mode, pattern, target)
        assert count(pattern, target) is report
        assert count(fresh(pattern), target) is report


def test_a_remembered_count_keeps_to_the_search_budget(monkeypatch):
    f = disjoint_union(P3, K2)
    k6 = graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    report = hom_count(f, k6)
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", str(report.nodes_explored))
    assert hom_count(f, k6) is report
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", str(report.nodes_explored - 1))
    with pytest.raises(BudgetError) as remembered:
        hom_count(f, k6)
    with pytest.raises(BudgetError) as searched:
        hom_count(f, fresh(k6))
    assert str(remembered.value) == str(searched.value)
    assert str(remembered.value).startswith("hom search explored")
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "1e9")
    with pytest.raises(ToolkitError, match="RELPOLY_SEARCH_BUDGET must be a non-negative integer"):
        hom_count(f, k6)
    monkeypatch.delenv("RELPOLY_SEARCH_BUDGET")
    assert hom_count(f, k6) is report


def test_remembered_counts_keep_no_structure_alive(monkeypatch):
    """Each of a and b is remembered as a pattern by the other, and g by
    itself; none of them outlives its last outside reference."""
    monkeypatch.setattr(canon, "_ORBITS", {})
    rng = random.Random(5)
    a, b, g = (random_graph(rng, 5, 0.6) for _ in range(3))
    assert hom(a, b) == oracle_hom(a, b)[0] and hom(b, a) == oracle_hom(b, a)[0]
    assert hom(g, g) == oracle_hom(g, g)[0] and inj(g, g) == oracle_inj(g, g)[0]
    alive = [weakref.ref(s) for s in (a, b, g)]
    del a, b, g
    counting._plan.cache_clear()
    canon._ORBITS.clear()
    gc.collect()
    assert [ref() for ref in alive] == [None, None, None]


def test_orbits_die_with_their_target():
    g = paley_graph(29)
    assert hom(cycle_graph(5), g) == 533890
    assert g in canon._ORBITS
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None


def test_a_target_remembers_at_most_the_memo_bound():
    cap = counting._MEMO_CAP
    target = fresh(K3)
    patterns = [make_structure(GRAPH_SIG, k) for k in range(cap + 5)]
    for k, pattern in enumerate(patterns):
        assert hom(pattern, target) == 3 ** k
        assert len(target.count_reports) == min(k + 1, cap)
    assert list(target.count_reports) == [("hom", p) for p in patterns[5:]]  # oldest first out
    assert ind(K1, target) == 3  # every mode shares the one bound
    assert list(target.count_reports) == [("hom", p) for p in patterns[6:]] + [("ind", K1)]


def test_a_second_basis_value_searches_nothing(monkeypatch):
    phi = parse_formula("(E(x,y) & !(x = y)) | (E(y,z) & !E(x,z))", GRAPH_SIG)
    basis = qf_to_hom_basis(phi)
    target = random_graph(random.Random(6), 7)
    first = basis.value(target)

    def refuse(*_):
        raise AssertionError("a remembered hom count was searched again")

    monkeypatch.setattr(counting, "_count_maps", refuse)
    assert basis.value(target) == first == count_satisfying(phi, target)
