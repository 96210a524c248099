"""Canonical keys for small structures: the toolkit's one isomorphism engine.

Two structures over the same signature get equal keys exactly when some
domain bijection carries every relation onto its namesake.  The key is the
minimum of a per-vertex encoding stream over all labelings compatible with an
iterated-refinement coloring.  The search is a branch and bound with twin
elimination and automorphism pruning (McKay & Piperno, Practical graph
isomorphism II, 2014): a leaf that repeats the best stream yields an
automorphism and a jump back to where its labeling parts from the best one,
and of the candidates in one orbit of the automorphisms fixing the current
prefix only the first is tried.  Each search level counts against
RELPOLY_SEARCH_BUDGET.  A signature with a symbol of arity > 2 goes through
a brute force over all labelings instead, capped at 8 vertices.

`orbits` gives the counting kernel the automorphism orbits of a target.
Starting from the same colour refinement, it pairs individualisations of two
vertices of one cell down to discrete colourings, and keeps only the
permutations that preserve every relation.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING

from . import budgets
from .errors import BudgetError

if TYPE_CHECKING:
    from .structures import Structure

DEFAULT_CAP = 12
_BRUTE_CAP = 8


def _inputs(s: Structure) -> tuple[list[dict[int, int]], list[int], list[int]]:
    """Per vertex u: a map from each other vertex v sharing a binary tuple
    with u to the pair's code, which has bit 2i set when (u, v) is in the
    i-th binary relation and bit 2i + 1 when (v, u) is; and the bit masks of
    the unary relations holding u and of the binary relations looping on u."""
    n = s.domain
    binary = [s.rel(name) for name, arity in s.signature.symbols if arity == 2]
    unary_names = [name for name, arity in s.signature.symbols if arity == 1]
    unary_mask = [0] * n
    for bit, name in enumerate(unary_names):
        for (v,) in s.rel(name):
            unary_mask[v] |= 1 << bit
    adjacency: list[dict[int, int]] = [{} for _ in range(n)]
    loop_mask = [0] * n
    for bit, rel in enumerate(binary):
        for u, v in rel:
            if u == v:
                loop_mask[v] |= 1 << bit
            else:
                adjacency[u][v] = adjacency[u].get(v, 0) | 1 << (2 * bit)
                adjacency[v][u] = adjacency[v].get(u, 0) | 1 << (2 * bit + 1)
    return adjacency, unary_mask, loop_mask


def _refine_colors(adjacency: list[dict[int, int]], unary_mask, loop_mask) -> tuple[list[int], int]:
    """The stable colouring, and the number of refinement rounds it took."""
    # Colours are ranks of sorted keys, never of first appearance: the
    # stream records them and the orbit finder starts from them, so they
    # must not depend on the labeling.
    initial = list(zip(unary_mask, loop_mask))
    ranking = {key: rank for rank, key in enumerate(sorted(set(initial)))}
    colors = [ranking[key] for key in initial]
    rounds = 0
    while True:
        rounds += 1
        keys = [(colors[v], tuple(sorted((code, colors[u]) for u, code in row.items())))
                for v, row in enumerate(adjacency)]
        ranking = {}
        for key in sorted(set(keys)):
            ranking[key] = len(ranking)
        new = [ranking[k] for k in keys]
        if new == colors:
            return colors, rounds
        colors = new


def _root(orbit: list[int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = orbit[orbit[v]]
        v = orbit[v]
    return v


def _canonical_stream(s: Structure) -> tuple:
    n = s.domain
    adjacency, unary_mask, loop_mask = _inputs(s)
    colors, _ = _refine_colors(adjacency, unary_mask, loop_mask)

    def is_twin(u: int, v: int) -> bool:
        if unary_mask[u] != unary_mask[v] or loop_mask[u] != loop_mask[v]:
            return False
        au, av = adjacency[u], adjacency[v]
        if au.get(v) != av.get(u) or len(au) != len(av):
            return False
        return all(w == v or av.get(w) == code for w, code in au.items())

    budget = budgets.search_budget()
    nodes = 0
    best: list | None = None
    best_labeled: list[int] = []
    automorphisms: list[list[int]] = []
    jump = -1   # depth the search unwinds to after finding an automorphism
    labeled: list[int] = []
    remaining_by_color: dict[int, set[int]] = {}
    for v in range(n):
        remaining_by_color.setdefault(colors[v], set()).add(v)

    def search(stream: list):
        nonlocal best, best_labeled, nodes, jump
        depth = len(labeled)
        if depth == n:
            if best is None or stream < best:
                best = list(stream)
                best_labeled = list(labeled)
            elif stream == best:
                # Both labelings give the best stream, so the map from one to
                # the other is an automorphism.  It carries the subtree where
                # best was found onto the current one from the depth where
                # the two labelings part, so the rest of it is skipped.
                gamma = [0] * n
                for u, v in zip(best_labeled, labeled):
                    gamma[u] = v
                automorphisms.append(gamma)
                jump = next(i for i in range(n) if best_labeled[i] != labeled[i])
            return
        nodes += 1
        if nodes > budget:
            raise BudgetError(
                f"canonical form search on {n} vertices explored {nodes} nodes, "
                f"over the budget of {budget}"
            )
        # Smallest remaining class first: its vertices are individualized
        # early, so later rows discriminate instead of branching blindly.
        size, color = min(
            (len(vs), c) for c, vs in remaining_by_color.items() if vs
        )
        candidates = []
        for v in remaining_by_color[color]:
            row = tuple(adjacency[v].get(u, 0) for u in labeled)
            candidates.append((row, v))
        candidates.sort()
        min_row = candidates[0][0]
        picked: list[int] = []
        for row, v in candidates:
            if row != min_row:
                break
            if any(is_twin(v, w) for w in picked):
                continue
            picked.append(v)
        # Orbits of the automorphisms found so far that fix the prefix
        # pointwise: a candidate in the orbit of one already tried has an
        # isomorphic subtree.
        orbit = list(range(n))
        merged = 0
        tried: list[int] = []
        for v in picked:
            if tried:
                for gamma in automorphisms[merged:]:
                    if all(gamma[u] == u for u in labeled):
                        for u in range(n):
                            orbit[_root(orbit, u)] = _root(orbit, gamma[u])
                merged = len(automorphisms)
                if any(_root(orbit, v) == _root(orbit, w) for w in tried):
                    continue
            tried.append(v)
            level = (size, color, unary_mask[v], loop_mask[v], min_row)
            stream.append(level)
            if best is not None and stream > best[: len(stream)]:
                stream.pop()
                continue
            labeled.append(v)
            remaining_by_color[color].discard(v)
            search(stream)
            remaining_by_color[color].add(v)
            labeled.pop()
            stream.pop()
            if jump >= 0:
                if jump < depth:
                    return
                jump = -1
        return

    search([])
    assert best is not None
    return tuple(best)


def _brute_stream(s: Structure) -> tuple:
    if s.domain > _BRUTE_CAP:
        raise BudgetError(
            f"canonical form for arity > 2 is capped at {_BRUTE_CAP} vertices (got {s.domain})"
        )
    best = None
    for perm in permutations(range(s.domain)):
        encoded = tuple(
            tuple(sorted(tuple(perm[v] for v in t) for t in rel)) for rel in s.relations
        )
        if best is None or encoded < best:
            best = encoded
    return best


@lru_cache(maxsize=65536)
def _canonical_key(s: Structure) -> bytes:
    if any(arity > 2 for _, arity in s.signature.symbols):
        stream = _brute_stream(s)
    elif s.domain == 0:
        stream = ()
    else:
        stream = _canonical_stream(s)
    return repr((s.domain, s.signature.symbols, stream)).encode()


def canonical_form(s: Structure, cap: int = DEFAULT_CAP) -> bytes:
    """Canonical byte-string key; equal keys exactly for structures isomorphic
    under the identity symbol map."""
    if s.domain > cap:
        raise BudgetError(f"canonical form capped at {cap} vertices (got {s.domain})")
    return _canonical_key(s)


# ---------------------------------------------------------------------------
# Automorphism orbits

class _OutOfAllowance(Exception):
    pass


# Complete orbit partitions of the last few structures asked about.
_ORBITS: dict = {}
_ORBITS_CAP = 16


def _leaf_map(ref_colors: list[int], colors: list[int]) -> list[int]:
    """The permutation taking each vertex of one discrete colouring to the
    vertex of the same colour in the other."""
    where = [0] * len(colors)
    for v, c in enumerate(colors):
        where[c] = v
    return [where[c] for c in ref_colors]


def _shape(colors: list[int]) -> tuple[int, int | None]:
    """A hash of the cell sizes by colour, and the colour of the smallest
    cell of two or more vertices (the lowest such colour on a tie), None if
    the colouring is discrete."""
    sizes = [0] * len(colors)
    for c in colors:
        sizes[c] += 1
    split = min(((k, c) for c, k in enumerate(sizes) if k > 1), default=None)
    return hash(tuple(sizes)), None if split is None else split[1]


def _individualise(adjacency: list, colors: list[int], v: int, charge) -> list[int]:
    """`colors`, an equitable colouring whose colours are the first positions
    of their cells in a vertex order, with v split off its cell and refined
    until equitable again.  Only cells that changed are used as splitters:
    each splits every cell by the (code) multiset of its members' neighbours
    inside it, and the fragments take consecutive positions in key order.  So
    the result does not depend on the labeling, as long as `colors` does not.
    `charge` is called with the neighbour entries each splitter reads."""
    n = len(colors)
    colors = list(colors)
    cells: dict[int, list[int]] = {}
    for u, c in enumerate(colors):
        cells.setdefault(c, []).append(u)
    cell = cells[colors[v]]
    cell.remove(v)
    colors[v] = colors[v] + len(cell)
    cells[colors[v]] = [v]
    queue = deque([colors[v]])
    queued = {colors[v]}
    while queue and len(cells) < n:
        splitter = queue.popleft()
        queued.discard(splitter)
        hits: dict[int, list[int]] = {}
        work = 0
        for u in cells[splitter]:
            row = adjacency[u]
            work += len(row)
            for x, code in row.items():
                hit = hits.get(x)
                if hit is None:
                    hits[x] = [code]
                else:
                    hit.append(code)
        charge(work)
        by_cell: dict[int, dict] = {}
        for x, found in hits.items():
            found.sort()
            by_cell.setdefault(colors[x], {}).setdefault(tuple(found), []).append(x)
        for start in sorted(by_cell):
            groups = by_cell[start]
            members = cells[start]
            if sum(map(len, groups.values())) < len(members):
                groups[()] = [x for x in members if x not in hits]
            if len(groups) == 1:
                continue
            parts = [groups[key] for key in sorted(groups)]
            largest = max(range(len(parts)), key=lambda i: len(parts[i]))
            keep_all = start in queued
            for i, part in enumerate(parts):
                cells[start] = part
                for x in part:
                    colors[x] = start
                if (keep_all or i != largest) and start not in queued:
                    queue.append(start)
                    queued.add(start)
                start += len(part)
    return colors


def orbits(s: Structure, allowance: int) -> tuple[tuple[int, ...], int]:
    """Each vertex's orbit representative under a group of automorphisms of
    `s`, and the work spent finding it.

    For vertices r and w of one refined cell, the finder individualises r and
    refines, then individualises the first vertex of the smallest
    non-singleton cell until the colouring is discrete.  On w's side it
    follows every individualisation that keeps the cell sizes equal, and the
    two discrete leaves give a candidate permutation sigma with sigma(r) = w.
    Each sigma is checked against every relation of `s` before it is used,
    and the orbits are the components of the checked ones; so each orbit
    lies inside a true orbit whatever the search misses.  Work is counted as
    vertices and neighbour entries refined plus tuples checked.  A search
    that would pass `allowance` stops and returns the orbits found so far; a
    complete partition is kept in a small cache.  A structure with a
    relation of arity > 2 gets singleton orbits.
    """
    found = _ORBITS.get(s)
    if found is not None:
        return found, 0
    n = s.domain
    if any(arity > 2 and rel for (_, arity), rel in zip(s.signature.symbols, s.relations)):
        return tuple(range(n)), 0
    adjacency, unary_mask, loop_mask = _inputs(s)
    checks = [(frozenset(rel), rel) for rel in s.relations if rel]
    check_work = s.total_tuples()
    spent = 0
    parent = list(range(n))

    def charge(work: int) -> None:
        nonlocal spent
        if spent + work > allowance:
            raise _OutOfAllowance
        spent += work

    def individualise(colors: list[int], v: int) -> list[int]:
        charge(n)
        return _individualise(adjacency, colors, v, charge)

    def path_from(r: int) -> tuple[list, list[int]]:
        """The shape of each colouring on r's path, and its discrete leaf."""
        shapes = []
        colors = individualise(base, r)
        while True:
            shapes.append(_shape(colors))
            split = shapes[-1][1]
            if split is None:
                return shapes, colors
            colors = individualise(colors, colors.index(split))

    def children(colors: list[int], cell: list[int], shape: int):
        for y in cell:
            nxt = individualise(colors, y)
            if _shape(nxt)[0] == shape:
                yield nxt

    def follow(shapes: list, leaf: list[int], w: int) -> list[int] | None:
        """A checked sigma with sigma(r) = w, for the r whose path has the
        colouring shapes `shapes` and the leaf `leaf`: a depth-first search
        over the individualisations that keep w's side in the same shapes,
        kept on a list because a path can be as long as the domain."""
        branches = [children(base, [w], shapes[0][0])]
        while branches:
            colors = next(branches[-1], None)
            if colors is None:
                branches.pop()
                continue
            depth = len(branches) - 1
            split = shapes[depth][1]
            if split is not None:
                cell = [v for v, c in enumerate(colors) if c == split]
                # Below the first level a cell is tried from its second
                # vertex on, while r's path took the first.  Where any choice
                # extends, as under a symmetric group of the cell, the leaves
                # then pair the cells off shifted by one, and sigma merges
                # them in long cycles instead of fixing most of their vertices.
                if depth:
                    cell = cell[1:] + cell[:1]
                branches.append(children(colors, cell, shapes[depth + 1][0]))
            elif _shape(colors)[1] is None:  # discrete, so sigma is a permutation
                sigma = _leaf_map(leaf, colors)
                charge(check_work)
                if all(tuple([sigma[x] for x in t]) in rset for rset, rel in checks for t in rel):
                    return sigma
        return None

    complete = True
    try:
        ranks, rounds = _refine_colors(adjacency, unary_mask, loop_mask)
        charge(rounds * n * n)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(ranks):
            cells.setdefault(c, []).append(v)
        base = [0] * n  # each vertex coloured by its cell's first position
        start = 0
        for c in range(len(cells)):
            for v in cells[c]:
                base[v] = start
            start += len(cells[c])
        paths: dict[int, tuple] = {}
        for cell in cells.values():
            reps: list[int] = []
            for w in cell:
                if any(_root(parent, r) == _root(parent, w) for r in reps):
                    continue
                for r in reps:
                    if r not in paths:
                        paths[r] = path_from(r)
                    sigma = follow(*paths[r], w)
                    if sigma is not None:
                        for u, x in enumerate(sigma):
                            parent[_root(parent, u)] = _root(parent, x)
                        break
                else:
                    reps.append(w)
    except _OutOfAllowance:
        complete = False
    found = tuple(_root(parent, v) for v in range(n))
    if complete:
        if len(_ORBITS) >= _ORBITS_CAP:
            del _ORBITS[next(iter(_ORBITS))]
        _ORBITS[s] = found
    return found, spent
