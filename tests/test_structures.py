import random
import time

import pytest

from relpoly import (
    GRAPH_SIG,
    BasicStructureSpec,
    SignatureError,
    basic_signature,
    build_basic,
    build_marked_vertex,
    build_transitive_tournament,
    count_satisfying,
    disjoint_union,
    forget,
    induced,
    isomorphic,
    lift,
    make_structure,
    mark,
    merge,
    parse_formula,
    permute,
    sig,
    strong_sum,
    structure_from_json,
    structure_to_json,
    weakly_isomorphic,
)
from relpoly.errors import BudgetError

from genutil import K2, graph, random_graph


def test_marked_vertex():
    e = build_marked_vertex()
    assert e.domain == 1
    assert e.rel("U") == ((0,),)
    phi = parse_formula("U(x)", e.signature)
    assert count_satisfying(phi, e) == 1
    assert strong_sum(e, e).domain == 2


def test_transitive_tournament():
    assert build_transitive_tournament(0).domain == 0
    assert build_transitive_tournament(0).rel("S") == ()
    t4 = build_transitive_tournament(4)
    assert len(t4.rel("S")) == 6
    t3 = build_transitive_tournament(3)
    assert t3.rel("U") == ((0,), (1,), (2,))


def test_strong_sum_sizes_and_naming():
    e = build_marked_vertex()
    t3 = build_transitive_tournament(3)
    s = strong_sum(e, e, t3)
    assert s.domain == 5
    two = strong_sum(e, build_transitive_tournament(2))
    assert two.signature.names == ("U", "U'", "S")
    # relations only on their own blocks
    assert two.rel("U") == ((0,),)
    assert two.rel("U'") == ((1,), (2,))
    assert two.rel("S") == ((1, 2),)


def test_strong_sum_commutes_weakly():
    rng = random.Random(5)
    for _ in range(10):
        a = random_graph(rng, rng.randrange(0, 4))
        b = random_graph(rng, rng.randrange(0, 4))
        assert weakly_isomorphic(strong_sum(a, b), strong_sum(b, a))


def test_strong_sum_associative_up_to_weak_iso():
    rng = random.Random(6)
    for _ in range(8):
        a, b, c = (random_graph(rng, rng.randrange(0, 3)) for _ in range(3))
        left = strong_sum(strong_sum(a, b), c)
        right = strong_sum(a, strong_sum(b, c))
        assert weakly_isomorphic(left, right)


def test_adapt_signature():
    t2 = build_transitive_tournament(2)
    marked = mark(t2, "W")
    assert marked.rel("W") == ((0,), (1,))
    t3 = build_transitive_tournament(3)
    dropped = forget(t3, ["U"])
    assert dropped.signature.names == ("S",)
    target = sig(("U", 1), ("S", 2), ("X", 3))
    lifted = lift(t3, target)
    assert lifted.rel("X") == ()
    assert forget(lifted, ["X"]).relations == t3.relations

    both = strong_sum(K2, K2)
    merged = merge(both, [["E", "E'"]])
    assert merged.signature.names == ("E",)
    assert isomorphic(merged, disjoint_union(K2, K2))
    assert len(merged.rel("E")) == len(K2.rel("E")) * 2


def test_adapt_signature_errors():
    t2 = build_transitive_tournament(2)
    with pytest.raises(SignatureError):
        mark(t2, "U")
    with pytest.raises(SignatureError):
        forget(t2, ["missing"])
    with pytest.raises(SignatureError):
        merge(strong_sum(t2, t2), [["U", "S"]])
    with pytest.raises(SignatureError):
        lift(t2, sig(("U", 1)))


def test_lift_then_forget_is_identity():
    rng = random.Random(7)
    for _ in range(6):
        g = random_graph(rng, rng.randrange(0, 5))
        target = sig(("E", 2), ("W", 1), ("Q", 3))
        assert forget(lift(g, target), ["W", "Q"]) == g


def test_build_basic():
    b = build_basic(BasicStructureSpec(1, 2, (3,)))
    assert b.domain == 5
    assert len(b.rel("S1")) == 3
    assert b.signature == basic_signature(1, 2)
    # marked vertices occupy the lowest indices
    assert b.rel("U1E") == ((0,),) and b.rel("U2E") == ((1,),)

    single = build_basic(BasicStructureSpec(0, 1, ()))
    assert weakly_isomorphic(single, build_marked_vertex())

    pair = build_basic(BasicStructureSpec(2, 0, (1, 1)))
    assert pair.rel("S1") == () and pair.rel("S2") == ()
    assert len(pair.rel("U1T")) == 1 and len(pair.rel("U2T")) == 1


def test_build_basic_matches_explicit_chain():
    e = build_marked_vertex()
    chain = strong_sum(e, e, build_transitive_tournament(3))
    assert weakly_isomorphic(build_basic(BasicStructureSpec(1, 2, (3,))), chain)


def test_weak_isomorphism():
    t2 = build_transitive_tournament(2)
    renamed = make_structure(
        sig(("U", 1), ("R", 2)), 2, {"U": t2.rel("U"), "R": t2.rel("S")}
    )
    assert weakly_isomorphic(t2, renamed)

    t3 = build_transitive_tournament(3)
    reversed_order = make_structure(
        t3.signature, 3, {"U": t3.rel("U"), "S": [(j, i) for i, j in t3.rel("S")]}
    )
    assert weakly_isomorphic(t3, reversed_order)

    assert not weakly_isomorphic(K2, graph(2, []))
    with pytest.raises(BudgetError):
        weakly_isomorphic(graph(11, []), graph(11, []))
    assert weakly_isomorphic(graph(11, []), graph(11, []), cap=12)


def test_weak_isomorphism_pairs_symbols_by_invariants():
    # k singleton marks and an edge, against the same marks and a loop: the
    # marks' Gaifman degrees differ, so none of the k! bijections is tried.
    k = 7
    signature = sig(*[(f"U{i}", 1) for i in range(k)], ("E", 2))
    marks = {f"U{i}": [(i,)] for i in range(k)}
    edge = make_structure(signature, k, {**marks, "E": [(0, 1)]})
    loop = make_structure(signature, k, {**marks, "E": [(0, 0)]})
    start = time.perf_counter()
    assert not weakly_isomorphic(edge, loop)
    assert time.perf_counter() - start < 0.1


def test_weak_isomorphism_tries_equal_symbols_once():
    # k identical full marks: the k! orders of their partners rename b to the
    # same structure, so one is tried (k = 6 took 0.24 s when all were)
    k = 8
    signature = sig(("E", 2), *[(f"U{i}", 1) for i in range(k)])
    marks = {f"U{i}": [(v,) for v in range(6)] for i in range(k)}

    def marked(edges):
        return make_structure(signature, 6, {**marks, "E": edges + [(v, u) for u, v in edges]})

    hexagon = marked([(i, (i + 1) % 6) for i in range(6)])
    triangles = marked([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    start = time.perf_counter()
    assert not weakly_isomorphic(hexagon, triangles)
    assert weakly_isomorphic(hexagon, permute(hexagon, [3, 1, 5, 0, 2, 4]))
    assert time.perf_counter() - start < 0.1


def test_weak_isomorphism_search_budget(monkeypatch):
    # E and F have equal invariants, so both bijections are tried, and fail.
    two = sig(("E", 2), ("F", 2))
    reverse = make_structure(two, 2, {"E": [(0, 1)], "F": [(1, 0)]})
    same = make_structure(two, 2, {"E": [(0, 1)], "F": [(0, 1)]})
    assert not weakly_isomorphic(reverse, same)
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "1")
    with pytest.raises(BudgetError):
        weakly_isomorphic(reverse, same)


def test_structure_validation():
    with pytest.raises(SignatureError):
        make_structure(GRAPH_SIG, 2, {"E": [(0, 5)]})
    with pytest.raises(SignatureError):
        make_structure(GRAPH_SIG, 2, {"E": [(0,)]})
    with pytest.raises(SignatureError):
        make_structure(GRAPH_SIG, 2, {"Q": [(0, 1)]})
    with pytest.raises(SignatureError):
        sig(("E", 2), ("E", 1))
    with pytest.raises(SignatureError):
        sig(("E", 0))
    empty = make_structure(GRAPH_SIG, 0)
    assert empty.rel("E") == ()


def test_induced_and_permute():
    p3 = graph(3, [(0, 1), (1, 2)])
    ends = induced(p3, [0, 2])
    assert ends.domain == 2 and ends.rel("E") == ()
    assert permute(K2, [1, 0]) == K2
    rng = random.Random(3)
    g = random_graph(rng, 5)
    perm = [3, 1, 4, 0, 2]
    assert isomorphic(g, permute(g, perm))


def test_json_round_trip():
    b = build_basic(BasicStructureSpec(2, 1, (2, 3)))
    text = structure_to_json(b)
    assert structure_to_json(structure_from_json(text)) == text
    assert text.startswith('{"signature":[{"name":"U1E","arity":1}')
    with pytest.raises(SignatureError):
        structure_from_json("{broken")
    with pytest.raises(SignatureError):
        structure_from_json('{"domain": 1}')


def test_weak_isomorphism_swaps_same_arity_symbols():
    two = sig(("A", 2), ("B", 2))
    left = make_structure(two, 3, {"A": [(0, 1)], "B": [(0, 1), (1, 2)]})
    right = make_structure(two, 3, {"A": [(2, 1), (1, 0)], "B": [(2, 1)]})
    # carrying A->B, B->A with the vertex reversal 0<->2
    assert weakly_isomorphic(left, right)
    odd = make_structure(two, 3, {"A": [(0, 1)], "B": [(0, 1), (1, 0)]})
    assert not weakly_isomorphic(left, odd)
