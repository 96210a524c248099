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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING

from . import budgets
from .errors import BudgetError

if TYPE_CHECKING:
    from .structures import Structure

DEFAULT_CAP = 12
_BRUTE_CAP = 8


def _codes(s: Structure, binary: list) -> list[list[int]]:
    """codes[u][v] has bit 2i set when (u, v) is in the i-th binary relation
    and bit 2i + 1 when (v, u) is."""
    n = s.domain
    codes = [[0] * n for _ in range(n)]
    for bit, rel in enumerate(binary):
        for u, v in rel:
            codes[u][v] |= 1 << (2 * bit)
            codes[v][u] |= 1 << (2 * bit + 1)
    return codes


def _refine_colors(codes: list[list[int]], unary_mask, loop_mask):
    n = len(codes)
    # Colours are ranks of sorted keys, never of first appearance: the
    # stream records them, so they must not depend on the labeling.
    initial = [(unary_mask[v], loop_mask[v]) for v in range(n)]
    ranking = {key: rank for rank, key in enumerate(sorted(set(initial)))}
    colors = [ranking[key] for key in initial]
    while True:
        keys = []
        for v in range(n):
            row = codes[v]
            neigh = sorted((row[u], colors[u]) for u in range(n) if u != v and row[u])
            keys.append((colors[v], tuple(neigh)))
        ranking = {}
        for key in sorted(set(keys)):
            ranking[key] = len(ranking)
        new = [ranking[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _root(orbit: list[int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = orbit[orbit[v]]
        v = orbit[v]
    return v


def _canonical_stream(s: Structure) -> tuple:
    n = s.domain
    binary = [s.rel(name) for name, arity in s.signature.symbols if arity == 2]
    unary_names = [name for name, arity in s.signature.symbols if arity == 1]
    unary_mask = [0] * n
    for bit, name in enumerate(unary_names):
        for (v,) in s.rel(name):
            unary_mask[v] |= 1 << bit
    loop_mask = [0] * n
    for bit, rel in enumerate(binary):
        for u, v in rel:
            if u == v:
                loop_mask[v] |= 1 << bit
    codes = _codes(s, binary)
    colors = _refine_colors(codes, unary_mask, loop_mask)

    def is_twin(u: int, v: int) -> bool:
        if unary_mask[u] != unary_mask[v] or loop_mask[u] != loop_mask[v]:
            return False
        cu, cv = codes[u], codes[v]
        if cu[v] != cv[u]:
            return False
        return all(cu[w] == cv[w] for w in range(n) if w != u and w != v)

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
            row = tuple(codes[v][u] for u in labeled)
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
