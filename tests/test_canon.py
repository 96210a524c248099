"""The one isomorphism engine: the partition refined in place against colour
refinement in rounds, the pruned canon search against the unpruned search it
replaced, keys of relations of arity > 2 against the brute force over all
labelings, `isomorphic` against the old backtracker and networkx, the search
budget, and the automorphism orbits against brute force."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import permute, random_graph, random_structure
from oracle_isomorphism import (
    backtrack_isomorphic,
    brute_stream,
    round_based_colors,
    unpruned_key,
)
from relpoly import (
    BudgetError,
    canonical_form,
    copies,
    isomorphic,
    make_structure,
    sig,
)
from relpoly import canon
from relpoly.canon import _canonical_key
from relpoly.gallery import crown_oracle, cycle_graph, half_graph_oracle, paley_graph

SIGNATURES = (
    sig(("E", 2)),
    sig(("U", 1), ("V", 1), ("E", 2)),
    sig(("R", 2), ("S", 2)),
    sig(("U", 1), ("R", 2)),
)
WIDE_SIGNATURES = (
    sig(("T", 3)),
    sig(("T", 3), ("U", 1)),
    sig(("E", 2), ("T", 3)),
    sig(("Q", 4), ("E", 2)),
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


def _random_wide(rng, max_vertices=6):
    """A random structure of 1 to max_vertices vertices over a signature with
    a relation of arity 3 or 4, each relation holding up to 2n random tuples
    (duplicates merge), randomly labeled."""
    signature = rng.choice(WIDE_SIGNATURES)
    n = rng.randint(1, max_vertices)
    return make_structure(signature, n, {
        name: [tuple(rng.randrange(n) for _ in range(arity)) for _ in range(rng.randint(0, 2 * n))]
        for name, arity in signature.symbols})


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


def _partition(s):
    return canon._Partition(*canon._inputs(s))


def _cells(part) -> list[tuple[int, frozenset]]:
    """The partition's cells in position order, each with its start, read
    from `order` and `size`; checks that `pos` inverts `order` and that every
    vertex is coloured by its cell's start."""
    assert all(part.order[p] == v for v, p in enumerate(part.pos))
    cells, start = [], 0
    while start < len(part.order):
        members = frozenset(part.order[start:start + part.size[start]])
        assert all(part.color[v] == start for v in members)
        cells.append((start, members))
        start += part.size[start]
    assert len(cells) == part.cells
    return cells


def test_partition_matches_the_round_based_refinement():
    """On the cases of `test_keys_match_the_unpruned_search` the in-place
    partition has the cells of colour refinement in rounds."""
    rng = random.Random(2014)
    cases = [_random_case(rng) for _ in range(2000)]
    for s in cases + list(_cycle_unions(9)):
        part = _partition(s)
        _cells(part)
        assert _classes(part.color) == _classes(round_based_colors(s)), s


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.integers(0, 2**32).map(lambda seed: _random_case(random.Random(seed))),
       st.lists(st.integers(0, 2**16), max_size=8), st.integers(0, 8))
def test_individualise_then_undo_restores_the_partition(s, picks, back):
    """Each individualisation refines to the round-based refinement of the
    colouring with that vertex split off; undoing to any mark restores the
    colours and cells exactly as they were when the mark was taken."""
    part = _partition(s)
    states, marks = [], []
    for pick in picks:
        v = pick % s.domain
        if part.size[part.color[v]] == 1:
            continue
        states.append((list(part.color), _cells(part)))
        split_off = [(c, u == v) for u, c in enumerate(part.color)]
        marks.append(part.individualise(v))
        _cells(part)
        assert _classes(part.color) == _classes(round_based_colors(s, split_off)), (s, v)
    if marks:
        back %= len(marks)
        part.undo(marks[back])
        assert (part.color, _cells(part)) == states[back]
        del marks[back:], states[back:]
    while marks:
        part.undo(marks.pop())
        assert (part.color, _cells(part)) == states.pop()


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
    # Structures with marks, loops and directed relations, and arity 3.
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


def test_cycles_and_paley_61_key_in_a_few_nodes(monkeypatch):
    """Individualising one vertex of a cycle splits it by distance, and the
    automorphisms found at the first leaves prune the rest of the tree."""
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "100")
    _canonical_key.cache_clear()
    for n in (20, 40, 64):
        assert canonical_form(cycle_graph(n), cap=64) == unpruned_key(cycle_graph(n))
    paley = paley_graph(61)
    assert isomorphic(paley, _shuffled(random.Random(61), paley))


def test_empty_relations_of_arity_three_do_not_force_the_brute_force():
    """An empty relation of arity > 2 adds nothing to the key; a non-empty one
    ends each leaf with its tuples, whatever the number of vertices."""
    signature = sig(("E", 2), ("R", 3))

    def directed_cycle(n):
        return make_structure(signature, n, {"E": [(i, (i + 1) % n) for i in range(n)], "R": []})

    cycle = directed_cycle(9)
    assert isomorphic(cycle, _shuffled(random.Random(9), cycle))
    assert not isomorphic(cycle, copies(make_structure(signature, 3, {
        "E": [(0, 1), (1, 2), (2, 0)], "R": []}), 3))
    marked = make_structure(signature, 3, {"E": [(0, 1), (1, 2), (2, 0)], "R": [(0, 1, 2)]})
    assert canonical_form(marked) != canonical_form(directed_cycle(3))
    assert canonical_form(marked) == unpruned_key(marked)
    three = copies(marked, 3)
    assert canonical_form(three) == unpruned_key(three)
    assert isomorphic(three, _shuffled(random.Random(3), three))
    assert canonical_form(three) != canonical_form(copies(directed_cycle(3), 3))


def test_wide_keys_match_the_brute_force():
    """Over signatures with relations of arity 3 and 4, keys are equal
    exactly when the brute-force streams over all labelings are, and each
    key is the unpruned search's."""
    rng = random.Random(2027)
    outcomes = set()
    for _ in range(400):
        a = _random_wide(rng)
        b = _shuffled(rng, a if rng.random() < 0.5 else _flip(rng, a))
        expected = brute_stream(a) == brute_stream(b)
        assert (canonical_form(a) == canonical_form(b)) == expected, (a, b)
        assert canonical_form(b) == unpruned_key(b), b
        outcomes.add(expected)
    assert outcomes == {True, False}
    # 0 and 1 have equal codes to every vertex, yet swapping them is not an
    # automorphism, so the unpruned search must not skip one as a twin.
    tricky = make_structure(sig(("T", 3)), 6, {"T": [(0, 2, 3), (0, 4, 5), (1, 2, 5), (1, 4, 3)]})
    assert canonical_form(tricky) == unpruned_key(tricky)


def test_long_ternary_cycle_keys_and_has_one_orbit(monkeypatch):
    """A 30-vertex ternary cycle {(i, i+1, i+2)}: refinement by its position
    pairs keys it in a few nodes, and the finder gets its one orbit."""
    n = 30
    cycle = make_structure(sig(("T", 3)), n, {"T": [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]})
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "100")
    _canonical_key.cache_clear()
    assert canonical_form(cycle, cap=n) == canonical_form(_shuffled(random.Random(n), cycle), cap=n)
    monkeypatch.setattr(canon, "_ORBITS", {})
    found, _ = canon.orbits(cycle, 10**4)
    assert _classes(found) == [list(range(n))] and cycle in canon._ORBITS


def _classes(found) -> list[list[int]]:
    """The orbit partition `canon.orbits` returns, as sorted classes."""
    classes: dict[int, list[int]] = {}
    for v, root in enumerate(found):
        classes.setdefault(root, []).append(v)
    return sorted(classes.values())


def _brute_orbits(s) -> list[list[int]]:
    """The orbits of Aut(s), from every permutation of its domain."""
    rels = [frozenset(r) for r in s.relations]
    root = list(range(s.domain))
    for perm in permutations(range(s.domain)):
        if all(tuple(perm[x] for x in t) in rel for rel in rels for t in rel):
            for v in range(s.domain):
                root[v] = min(root[v], root[perm[v]])
    return _classes([min(v, *(u for u in range(s.domain) if root[u] == root[v]))
                     for v in range(s.domain)])


def test_orbits_of_symmetric_and_rigid_graphs(monkeypatch):
    monkeypatch.setattr(canon, "_ORBITS", {})
    for q in (5, 13, 17, 29, 37, 61):
        g = paley_graph(q)
        found, work = canon.orbits(g, 10**9)
        assert _classes(found) == [list(range(q))] and work > 0
        assert canon.orbits(g, 10**9) == (found, 0)  # kept in the cache
    for n in range(1, 9):
        found, _ = canon.orbits(half_graph_oracle(n), 10**9)
        assert _classes(found) == [[i, 2 * n - 1 - i] for i in range(n)]
    # the smallest asymmetric tree: legs of one, two and three edges
    spider = make_structure(sig(("E", 2)), 7, {"E": [
        e for u, v in ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)) for e in ((u, v), (v, u))]})
    assert canon.orbits(spider, 10**9)[0] == tuple(range(7))
    # a relation of arity 3 refines by its position pairs like any other
    triangle = make_structure(sig(("T", 3)), 3, {"T": list(permutations(range(3)))})
    found, work = canon.orbits(triangle, 10**9)
    assert _classes(found) == [[0, 1, 2]] and work > 0
    # a long cycle: its refinement reads 16,000 neighbour entries, not n^2
    cycle = cycle_graph(8000)
    found, _ = canon.orbits(cycle, 10**6)
    assert _classes(found) == [list(range(8000))] and cycle in canon._ORBITS


@settings(derandomize=True, deadline=None, database=None, max_examples=160)
@given(st.integers(0, 2**32), st.sampled_from((0, 40, 400, 10**9)), st.booleans())
def test_orbits_lie_inside_the_true_orbits(seed, allowance, wide):
    """With any allowance each orbit found lies inside a true one, the work
    stays within the allowance, and a search that ends in time (a cached
    partition) finds the true orbits.  Structures up to 7 vertices, with
    marks, loops and two directed relations, or copies of one; or up to 6
    vertices with relations of arity 3 and 4."""
    rng = random.Random(seed)
    s = _random_wide(rng) if wide else _random_case(rng)
    if s.domain > 7:
        s = _shuffled(rng, copies(random_graph(rng, 3, rng.random()), 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_ORBITS", {})
        found, work = canon.orbits(s, allowance)
        complete = s in canon._ORBITS
    truth = _brute_orbits(s)
    assert work <= allowance
    assert all(any(set(c) <= set(t) for t in truth) for c in _classes(found)), (s, found)
    if complete:
        assert _classes(found) == truth, (s, found)
    if allowance == 10**9:
        assert complete

