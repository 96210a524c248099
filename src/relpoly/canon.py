"""Canonical keys for small structures: the toolkit's one isomorphism engine.

Two structures over the same signature get equal keys exactly when some
domain bijection carries every relation onto its namesake.  Keys and
`orbits` walk one individualise-refine tree (McKay & Piperno, Practical
graph isomorphism II, 2014) on one `_Partition`, refined and undone in
place: at a node each vertex of the smallest cell of two or more is
individualised in turn.  Refinement reads the codes of every pair of
positions of every relation, so one tree serves every arity.  A key is the
least stream over the leaves: the cell sizes at each level, then the
structure relabelled by the discrete colouring, which ends with the sorted
tuples of each non-empty relation of arity > 2.  A leaf that repeats the
best stream yields an automorphism and a jump back to where its path parts
from the best one; of the vertices in one orbit of the automorphisms fixing
the path only the first is tried, and a prefix above the best stream's is
cut.  Each node counts against RELPOLY_SEARCH_BUDGET.

`orbits` gives the counting kernel a target's automorphism orbits from the
same tree, keeping only the leaf maps that preserve every relation.
"""

from __future__ import annotations

import weakref
from collections import defaultdict, deque
from functools import lru_cache
from itertools import combinations, groupby
from operator import itemgetter
from typing import TYPE_CHECKING

from . import budgets
from .errors import BudgetError

if TYPE_CHECKING:
    from .structures import Structure

DEFAULT_CAP = 12


def _inputs(s: Structure) -> tuple[list[dict[int, int]], list[tuple[int, int]]]:
    """Per vertex u: a map from each other vertex v sharing a tuple with u to
    the pair's code; and the pair of bit masks of the unary relations holding
    u and of the position pairs looping on u.  The relations of arity >= 2
    are taken by arity, stably, and each pair of positions i < j of each is
    the k-th pair: a tuple with u at i and v at j sets bit 2k of the code
    from u to v and bit 2k + 1 of the code from v to u, or loop bit k of u
    if u = v.  So the code of a binary pair has bit 2i set when (u, v) is in
    the i-th binary relation and bit 2i + 1 when (v, u) is."""
    n = s.domain
    unary_mask = [0] * n
    loop_mask = [0] * n
    adjacency: list[dict[int, int]] = [{} for _ in range(n)]
    unary = pair = 0
    for (_, arity), rel in sorted(zip(s.signature.symbols, s.relations), key=lambda e: e[0][1]):
        if arity == 1:
            for (v,) in rel:
                unary_mask[v] |= 1 << unary
            unary += 1
            continue
        for i, j in combinations(range(arity), 2):
            forward, backward, loop = 1 << 2 * pair, 1 << 2 * pair + 1, 1 << pair
            pair += 1
            # A binary tuple is its own pair; itemgetter would cost a call each.
            for u, v in rel if arity == 2 else map(itemgetter(i, j), rel):
                if u == v:
                    loop_mask[v] |= loop
                else:
                    adjacency[u][v] = adjacency[u].get(v, 0) | forward
                    adjacency[v][u] = adjacency[v].get(u, 0) | backward
    return adjacency, list(zip(unary_mask, loop_mask))


class _Partition:
    """An ordered partition of the vertices, refined and undone in place.

    Each cell is a run of `order` named by its first position: `color[v]` is
    the start of v's cell, `size[start]` the cell's length and `pos[v]` v's
    place in `order`.  Cells start as the classes of `keys` in key order and
    are refined to the coarsest equitable colouring: a splitter cell splits
    every cell by the sorted codes from its members to each vertex.  The
    vertices it misses sort first and keep the cell's colour, so a split
    moves only the vertices it hits.  Cells are split and queued in the order
    of their starts, so no colour depends on the labeling unless `keys` do.
    `charge` gets the neighbour entries each splitter reads, the vertices
    each split moves and what each `shape` scans.  Splits are logged, and
    `undo` merges them back down to a mark."""

    def __init__(self, adjacency: list[dict[int, int]], keys: list, charge=lambda work: None):
        n = len(keys)
        self.adjacency, self.charge, self.log, self.cells = adjacency, charge, [], 1
        self.order, self.pos, self.color = list(range(n)), list(range(n)), [0] * n
        self.size = [n] + [0] * n
        classes = groupby(sorted(range(n), key=keys.__getitem__), keys.__getitem__)
        parts = [list(members) for _, members in classes]
        self.refine([0, *self._split(0, parts[1:])])

    def _split(self, start: int, parts: list[list[int]]) -> list[int]:
        """Move `parts` to the back of cell `start` as new cells, in order,
        and return their starts."""
        order, pos, color, size = self.order, self.pos, self.color, self.size
        end = free = start + size[start]
        starts = []
        for part in reversed(parts):
            free -= len(part)
            starts.insert(0, free)
            size[free] = len(part)
            for i, x in enumerate(part, free):
                y, p = order[i], pos[x]
                order[p], pos[y], order[i], pos[x] = y, p, x, i
                color[x] = free
        self.log.append((start, free, end))
        self.charge(end - free)
        size[start] = free - start
        self.cells += len(parts)
        return starts

    def refine(self, queue: list[int]) -> None:
        """Split cells, from the splitters `queue` on, until all are equitable."""
        order, color, size, adjacency = self.order, self.color, self.size, self.adjacency
        queue, queued = deque(queue), set(queue)
        while queue and self.cells < len(order):
            splitter = queue.popleft()
            queued.discard(splitter)
            hits: defaultdict[int, list[int]] = defaultdict(list)
            for u in order[splitter:splitter + size[splitter]]:
                for x, code in adjacency[u].items():
                    hits[x].append(code)
            self.charge(sum(map(len, hits.values())))
            by_cell: dict[int, dict] = {}
            for x, found in hits.items():
                found.sort()
                by_cell.setdefault(color[x], {}).setdefault(tuple(found), []).append(x)
            for start, groups in sorted(by_cell.items()):
                missed = size[start] - sum(map(len, groups.values()))
                if not missed and len(groups) == 1:
                    continue
                parts = [groups[key] for key in sorted(groups)]
                cells = [start, *self._split(start, parts if missed else parts[1:])]
                # A cell not queued has refined the others already, so all
                # but its largest fragment suffice: that one's effect follows.
                if start not in queued:
                    cells.remove(max(cells, key=size.__getitem__))
                for c in cells:
                    if c not in queued:
                        queue.append(c)
                        queued.add(c)

    def individualise(self, v: int) -> tuple[int, int]:
        """Split v off the back of its cell, of two or more vertices, and
        refine; the mark to undo to."""
        mark = len(self.log), self.cells
        self.refine(self._split(self.color[v], [[v]]))
        return mark

    def undo(self, mark: tuple[int, int]) -> None:
        """Merge back every split logged since `mark` was taken."""
        depth, self.cells = mark
        order, color, log = self.order, self.color, self.log
        while len(log) > depth:
            start, at, end = log.pop()
            for x in order[at:end]:
                color[x] = start
            self.size[start] = end - start

    def shape(self) -> tuple[tuple[int, ...], list[int] | None]:
        """The cells' sizes in position order, and the vertices of the
        smallest cell of two or more (the first on a tie) in ascending
        order; () and None if the colouring is discrete."""
        size, n = self.size, len(self.order)
        if self.cells == n:
            return (), None
        cells, start = [], 0
        while start < n:
            cells.append((size[start], start))
            start += size[start]
        k, start = min(c for c in cells if c[0] > 1)
        self.charge(len(cells) + k)
        return tuple(c[0] for c in cells), sorted(self.order[start:start + k])


def _root(orbit: list[int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = orbit[orbit[v]]
        v = orbit[v]
    return v


def _leaf_map(ref_colors: list[int], colors: list[int]) -> list[int]:
    """The permutation taking each vertex of one discrete colouring to the
    vertex of the same colour in the other."""
    where = [0] * len(colors)
    for v, c in enumerate(colors):
        where[c] = v
    return [where[c] for c in ref_colors]


def _canonical_stream(s: Structure) -> tuple:
    n = s.domain
    adjacency, masks = _inputs(s)
    wide = [(i, rel) for i, ((_, arity), rel) in enumerate(zip(s.signature.symbols, s.relations))
            if arity > 2 and rel]
    part = _Partition(adjacency, masks)
    budget = budgets.search_budget()
    nodes = 0
    best: list | None = None
    best_path: list[int] = []
    best_colors: list[int] = []
    automorphisms: list[list[int]] = []
    jump = -1   # depth the search unwinds to after finding an automorphism
    path: list[int] = []

    def search(stream: list, cell: list[int] | None) -> None:
        nonlocal best, best_path, best_colors, nodes, jump
        if cell is None:  # discrete: the structure relabelled by its colours
            color = part.color
            leaf = [*stream, tuple(
                (masks[v], tuple(sorted((color[u], code) for u, code in adjacency[v].items())))
                for v in part.order)]
            for i, rel in wide:
                leaf.append((i, tuple(sorted(tuple([color[x] for x in t]) for t in rel))))
            if best is None or leaf < best:
                best, best_path, best_colors = leaf, list(path), list(color)
            elif leaf == best:
                # Both leaves give the best stream, so the map from one to
                # the other is an automorphism.  It carries the subtree where
                # best was found onto the current one from the depth where
                # the two paths part, so the rest of it is skipped.
                automorphisms.append(_leaf_map(best_colors, color))
                jump = next(i for i, (u, v) in enumerate(zip(best_path, path)) if u != v)
            return
        nodes += 1
        if nodes > budget:
            raise BudgetError(
                f"canonical form search on {n} vertices explored {nodes} nodes, "
                f"over the budget of {budget}"
            )
        # Orbits of the automorphisms found so far that fix the path
        # pointwise: a vertex in the orbit of one already tried has an
        # isomorphic subtree.
        orbit = list(range(n))
        merged = 0
        tried: list[int] = []
        for v in cell:
            if tried:
                for gamma in automorphisms[merged:]:
                    if all(gamma[u] == u for u in path):
                        for u in range(n):
                            orbit[_root(orbit, u)] = _root(orbit, gamma[u])
                merged = len(automorphisms)
                if any(_root(orbit, v) == _root(orbit, w) for w in tried):
                    continue
            tried.append(v)
            mark = part.individualise(v)
            sizes, below = part.shape()
            stream.append(sizes)
            if best is None or stream <= best[: len(stream)]:
                path.append(v)
                search(stream, below)
                path.pop()
            stream.pop()
            part.undo(mark)
            if jump >= 0:
                if jump < len(path):
                    return
                jump = -1

    search([], part.shape()[1])
    assert best is not None
    return tuple(best)


@lru_cache(maxsize=65536)
def _canonical_key(s: Structure) -> bytes:
    if s.domain == 0:
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

# Complete orbit partitions, each kept while its structure lives.
_ORBITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def orbits(s: Structure, allowance: int) -> tuple[tuple[int, ...], int]:
    """Each vertex's orbit representative under a group of automorphisms of
    `s`, and the work spent finding it.

    For vertices r and w of one refined cell, the finder individualises r and
    refines, then individualises the lowest vertex of the smallest
    non-singleton cell until the colouring is discrete.  On w's side it
    follows every individualisation that keeps the cell sizes equal, and the
    two discrete leaves give a candidate permutation sigma with sigma(r) = w.
    Each sigma is checked against every relation of `s` before it is used,
    and the orbits are the components of the checked ones; so each orbit
    lies inside a true orbit whatever the search misses.  Work is what the
    partition charges plus the tuples checked.  A search that would pass
    `allowance` stops and returns the orbits found so far; a complete
    partition is kept while `s` lives.
    """
    found = _ORBITS.get(s)
    if found is not None:
        return found, 0
    n = s.domain
    adjacency, masks = _inputs(s)
    checks = [(frozenset(rel), rel) for rel in s.relations if rel]
    check_work = s.total_tuples()
    spent = 0
    parent = list(range(n))

    def charge(work: int) -> None:
        nonlocal spent
        if spent + work > allowance:
            raise BudgetError("out of allowance")
        spent += work

    def path_from(r: int) -> tuple[list, list[int]]:
        """The hash of each colouring's shape on r's path, and its leaf."""
        shapes, cell = [], [r]
        while cell is not None:
            part.individualise(cell[0])
            shape, cell = part.shape()
            shapes.append(hash(shape))
        leaf = list(part.color)
        part.undo(base)
        return shapes, leaf

    def follow(shapes: list, leaf: list[int], w: int) -> list[int] | None:
        """A checked sigma with sigma(r) = w, for the r whose path has the
        colouring shapes `shapes` and the leaf `leaf`: a depth-first search
        over the individualisations that keep w's side in the same shapes,
        kept on lists because a path can be as long as the domain."""
        # Per depth, the vertices left to try and the mark of the choice above.
        branches = [([w], base)]
        while branches:
            tries, above = branches[-1]
            if not tries:
                part.undo(above)
                branches.pop()
                continue
            depth = len(branches) - 1
            mark = part.individualise(tries.pop())
            shape, cell = part.shape()
            if hash(shape) != shapes[depth]:
                part.undo(mark)
            elif cell is not None:
                # Below the first level a cell is tried from its second
                # vertex on, while r's path took the first.  Where any choice
                # extends, as under a symmetric group of the cell, the leaves
                # then pair the cells off shifted by one, and sigma merges
                # them in long cycles instead of fixing most of their vertices.
                if depth:
                    cell = cell[1:] + cell[:1]
                branches.append((cell[::-1], mark))
            else:  # discrete, so sigma is a permutation
                sigma = _leaf_map(leaf, part.color)
                charge(check_work)
                if all(tuple([sigma[x] for x in t]) in rset for rset, rel in checks for t in rel):
                    part.undo(base)
                    return sigma
                part.undo(mark)
        return None

    try:
        part = _Partition(adjacency, masks, charge)
        base = len(part.log), part.cells
        paths: dict[int, tuple] = {}
        for c in sorted(set(part.color)):
            reps: list[int] = []
            for w in part.order[c:c + part.size[c]]:
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
    except BudgetError:  # from charge
        return tuple(_root(parent, v) for v in range(n)), spent
    found = _ORBITS[s] = tuple(_root(parent, v) for v in range(n))
    return found, spent
