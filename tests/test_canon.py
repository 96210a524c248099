"""The one isomorphism engine: the pruned canon search against the unpruned
search it replaced, `isomorphic` against the old backtracker and networkx,
and the search budget."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import permute, random_graph, random_structure
from oracle_isomorphism import backtrack_isomorphic, unpruned_key
from relpoly import (
    BudgetError,
    canonical_form,
    copies,
    isomorphic,
    make_structure,
    sig,
)
from relpoly.canon import _canonical_key
from relpoly.gallery import crown_oracle

SIGNATURES = (
    sig(("E", 2)),
    sig(("U", 1), ("V", 1), ("E", 2)),
    sig(("R", 2), ("S", 2)),
    sig(("U", 1), ("R", 2)),
)


def _shuffled(rng, s):
    perm = list(range(s.domain))
    rng.shuffle(perm)
    return permute(s, perm)


def _random_case(rng):
    """A random graph; a random structure with loops, unary marks or two
    directed relations; or 2-4 copies of a small one (at most 9 vertices, as
    the unpruned search is slow on more copies).  Randomly labeled."""
    kind = rng.randrange(3)
    if kind == 0:
        s = random_graph(rng, rng.randint(1, 8), rng.random())
    elif kind == 1:
        s = random_structure(rng, rng.choice(SIGNATURES), rng.randint(1, 7), 0.6 * rng.random())
    else:
        m = rng.randint(2, 4)
        k = rng.randint(1, 3 if m < 4 else 2)
        if rng.random() < 0.5:
            base = random_graph(rng, k, rng.random())
        else:
            base = random_structure(rng, rng.choice(SIGNATURES), k, 0.6 * rng.random())
        s = copies(base, m)
    return _shuffled(rng, s)


def _cycle_unions(max_vertices):
    """Every disjoint union of two or more cycles on at most max_vertices
    vertices, undirected (lengths 3-6) and directed (lengths 2-6).  Colour
    refinement leaves all vertices in one class, so the search alone tells
    the cycles apart and the pruning has the most to do."""

    def lengths(total, low, smallest):
        if total == 0:
            yield ()
        for k in range(max(low, smallest), min(6, total) + 1):
            for rest in lengths(total - k, low, k):
                yield (k,) + rest

    for directed in (False, True):
        for total in range(4, max_vertices + 1):
            for ls in lengths(total, 2 if directed else 3, 0):
                if len(ls) < 2:
                    continue
                edges, offset = [], 0
                for k in ls:
                    for i in range(k):
                        edges.append((offset + i, offset + (i + 1) % k))
                        if not directed:
                            edges.append((offset + (i + 1) % k, offset + i))
                    offset += k
                yield make_structure(sig(("E", 2)), offset, {"E": edges})


def test_keys_match_the_unpruned_search():
    rng = random.Random(2014)
    for _ in range(2000):
        s = _random_case(rng)
        assert canonical_form(s, cap=16) == unpruned_key(s), s
    # The unpruned key of a cycle union is computed once, on its plain
    # labeling; the key is labeling-invariant, so every shuffle must match it.
    unions = 0
    for s in _cycle_unions(9):
        key = unpruned_key(s)
        for _ in range(6):
            assert canonical_form(_shuffled(rng, s), cap=16) == key, s
        unions += 1
    assert unions == 27


def _flip(rng, s):
    """s with one tuple of one relation toggled."""
    name, arity = rng.choice(s.signature.symbols)
    t = tuple(rng.randrange(s.domain) for _ in range(arity))
    tuples = set(s.rel(name)) ^ {t}
    return make_structure(s.signature, s.domain,
                          {**{n: s.rel(n) for n in s.signature.names}, name: tuples})


def test_isomorphic_agrees_with_backtracker_and_networkx():
    nx = pytest.importorskip("networkx")

    def as_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.domain))
        h.add_edges_from(g.rel("E"))
        return h

    rng = random.Random(2015)
    outcomes = set()
    for trial in range(150):
        a = random_graph(rng, rng.randint(1, 9), rng.random())
        if trial % 3 == 0:
            b = _shuffled(rng, a)
        elif trial % 3 == 1:
            # Same size and edge count, so only the structure differs.
            b = random_graph(rng, a.domain, len(a.rel("E")) / max(1, a.domain * (a.domain - 1)))
        else:
            u, v = rng.sample(range(a.domain), 2) if a.domain > 1 else (0, 0)
            b = _shuffled(rng, make_structure(a.signature, a.domain, {
                "E": set(a.rel("E")) ^ {(u, v), (v, u)}}))
        expected = backtrack_isomorphic(a, b)
        assert isomorphic(a, b) == expected, (a, b)
        assert nx.is_isomorphic(as_nx(a), as_nx(b)) == expected, (a, b)
        outcomes.add(expected)
    # Structures with marks, loops and directed relations, and arity 3 (the
    # brute-force keys).
    for signature in SIGNATURES + (sig(("T", 3), ("U", 1)),):
        for _ in range(40):
            a = random_structure(rng, signature, rng.randint(1, 5), 0.5 * rng.random())
            b = _shuffled(rng, a if rng.random() < 0.5 else _flip(rng, a))
            expected = backtrack_isomorphic(a, b)
            assert isomorphic(a, b) == expected, (a, b)
            outcomes.add(expected)
    assert outcomes == {True, False}


@st.composite
def _labeled_structures(draw):
    signature = draw(st.sampled_from(SIGNATURES))
    n = draw(st.integers(1, 9))
    relations = {}
    for name, arity in signature.symbols:
        space = list(product(range(n), repeat=arity))
        relations[name] = draw(st.lists(st.sampled_from(space), max_size=2 * n))
    perm = draw(st.permutations(range(n)))
    return make_structure(signature, n, relations), perm


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(_labeled_structures())
def test_keys_are_labeling_invariant(case):
    s, perm = case
    relabeled = permute(s, perm)
    assert canonical_form(relabeled) == canonical_form(s)
    assert isomorphic(s, relabeled)


def test_canon_search_budget(monkeypatch):
    crown = crown_oracle(5)
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "3")
    _canonical_key.cache_clear()
    with pytest.raises(BudgetError, match="canonical form search on 10 vertices explored 4 nodes"):
        canonical_form(crown)
    with pytest.raises(BudgetError, match="canonical form search on 10 vertices explored 4 nodes"):
        isomorphic(crown, permute(crown, list(reversed(range(10)))))
    monkeypatch.delenv("RELPOLY_SEARCH_BUDGET")
    _canonical_key.cache_clear()
    assert isomorphic(crown, permute(crown, list(reversed(range(10)))))
