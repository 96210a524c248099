"""Exact hom/inj/ind counting by indexed candidate search, quotients, and the
partition-lattice machinery tying the three counts together."""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

from . import budgets
from .errors import BudgetError, SignatureError
from .structures import Signature, Structure, gaifman_components, lift, make_structure


# ---------------------------------------------------------------------------
# Partitions of {0..n-1}

def set_partitions(n: int):
    """All partitions of range(n), blocks ordered by minimum element.

    Generated lazily from restricted-growth strings in lexicographic order.
    """
    if n == 0:
        yield ()
        return
    growth = [0] * n      # growth[v]: the block of vertex v
    highest = [0] * n     # highest[v]: the largest block among vertices 0..v
    while True:
        blocks: list[list[int]] = [[] for _ in range(highest[-1] + 1)]
        for v, b in enumerate(growth):
            blocks[b].append(v)
        yield tuple(tuple(b) for b in blocks)
        v = n - 1
        while v > 0 and growth[v] == highest[v - 1] + 1:
            v -= 1
        if v == 0:
            return
        growth[v] += 1
        highest[v] = max(highest[v - 1], growth[v])
        for u in range(v + 1, n):
            growth[u] = 0
            highest[u] = highest[v]


def bell(n: int) -> int:
    """Number of partitions of an n-set, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def validate_partition(theta, n: int) -> tuple[tuple[int, ...], ...]:
    blocks = tuple(tuple(sorted(b)) for b in theta)
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise SignatureError("partition blocks must be non-empty")
        if seen & set(block):
            raise SignatureError("partition blocks must be disjoint")
        seen.update(block)
    if seen != set(range(n)):
        raise SignatureError("partition must cover the whole domain")
    return tuple(sorted(blocks, key=min))


def mobius(theta) -> int:
    """Product over blocks I of (-1)^(|I|-1) * (|I|-1)!."""
    value = 1
    for block in theta:
        size = len(block)
        value *= (-1) ** (size - 1) * math.factorial(size - 1)
    return value


def quotient(pattern: Structure, theta) -> Structure:
    """Identify the vertices inside each block; tuples collapse accordingly."""
    blocks = validate_partition(theta, pattern.domain)
    block_of = {}
    for i, block in enumerate(blocks):
        for v in block:
            block_of[v] = i
    relations = {
        name: {tuple(block_of[v] for v in t) for t in pattern.rel(name)}
        for name in pattern.signature.names
    }
    return make_structure(pattern.signature, len(blocks), relations)


# ---------------------------------------------------------------------------
# Counting

@dataclass(frozen=True)
class CountReport:
    value: int
    mode: str
    nodes_explored: int


def _aligned(pattern: Structure, target: Structure) -> tuple[Structure, Structure]:
    symbols = list(pattern.signature.symbols)
    names = {n for n, _ in symbols}
    for name, arity in target.signature.symbols:
        if name in names:
            if pattern.signature.arity(name) != arity:
                raise SignatureError(f"symbol {name!r} has conflicting arities")
        else:
            symbols.append((name, arity))
            names.add(name)
    combined = Signature(tuple(symbols))
    return lift(pattern, combined), lift(target, combined)


def _search_order(pattern: Structure, vertices: list[int]) -> list[int]:
    # Place the most constrained vertex first, then greedily extend along
    # tuples touching already-placed vertices.
    if len(vertices) < 2:  # most components of hom-basis terms are single vertices
        return list(vertices)
    incident: dict[int, list] = {v: [] for v in vertices}
    for idx, rel in enumerate(pattern.relations):
        for t in rel:
            for v in set(t):
                if v in incident:
                    incident[v].append((idx, t))
    remaining = set(vertices)
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        best = max(
            remaining,
            key=lambda v: (
                sum(1 for _, t in incident[v] if placed & set(t)),
                len(incident[v]),
                -v,
            ),
        )
        order.append(best)
        placed.add(best)
        remaining.discard(best)
    return order


def _items(positions: tuple[int, ...]):
    """The function taking a sequence to its items at `positions`: the item
    itself for one position, a tuple of them otherwise.  Index keys and the
    lookups into them are made by the same rule."""
    return itemgetter(*positions) if positions else _no_items


def _no_items(_) -> tuple:
    return ()


def _candidate_index(rel, here: tuple[int, ...], bound: tuple[int, ...]) -> dict:
    """Map the images at the `bound` positions of a target tuple (keyed by
    `_items(bound)`) to the set of w that fill every `here` position of some
    tuple of `rel` agreeing with them."""
    index: dict = {}
    first, rest = here[0], here[1:]
    if rest:
        at_here = itemgetter(*here)
        rel = [s for s in rel if at_here(s).count(s[first]) == len(here)]
    key = _items(bound)
    for s in rel:
        k = key(s)
        found = index.get(k)
        if found is None:
            index[k] = {s[first]}
        else:
            found.add(s[first])
    return index


# The candidate indexes shared inside a `shared_indexes` block: the target
# they index and a dict from tuple shape to index.
_SHARED: ContextVar = ContextVar("relpoly_shared_indexes", default=None)


class shared_indexes:
    """Inside a `with shared_indexes(target)` block, hom counts into `target`
    (this very object) build each candidate index once and share it; the
    indexes are dropped on exit.  A class rather than a generator-based
    context manager, because `HomBasis.value` enters one per call."""

    __slots__ = ("target", "token")

    def __init__(self, target: Structure):
        self.target = target

    def __enter__(self):
        self.token = _SHARED.set((self.target, {}))

    def __exit__(self, *exc):
        _SHARED.reset(self.token)


def _compile_lookups(pattern: Structure, target: Structure, order: list[int],
                     indexes: dict) -> tuple[list, dict]:
    """Per depth, the (index, key) lookups for the tuples whose last-placed
    vertex sits at that depth; and by depth, the key of the depth's separator.

    A tuple's shape is its relation symbol and which positions hold the
    vertex being placed; one index in `indexes` serves every tuple of the same
    shape, and an index equal to one already built (E(u,v) and E(v,u) in a
    symmetric relation) is shared so that the search looks it up once.  A
    lookup's key takes the image list to the index key of its bound vertices.

    The separator of a depth is the tuple of vertices placed before it that
    lookups at this depth or later read: the count of extensions from this
    depth on depends on their images alone.  Its key takes the image list to
    those images.  A depth whose separator holds every placed vertex gets no
    key, since a memo keyed on it would see each key once.
    """
    position = {v: i for i, v in enumerate(order)}
    lookups: list[dict] = [{} for _ in order]
    for idx, rel in enumerate(pattern.relations):
        for t in rel:
            if not all(u in position for u in t):
                continue
            depth = max(position[u] for u in t)
            v = order[depth]
            here = tuple(i for i, u in enumerate(t) if u == v)
            bound = tuple(i for i, u in enumerate(t) if u != v)
            shape = (pattern.signature.symbols[idx][0], here, bound)
            index = indexes.get(shape)
            if index is None:
                index = _candidate_index(target.relations[idx], here, bound)
                index = next((b for b in indexes.values() if b == index), index)
                indexes[shape] = index
            us = tuple(t[i] for i in bound)
            key = (id(index), us)
            at = lookups[depth]
            if key not in at:
                at[key] = (index, _items(us))
    separators: dict = {}
    if len(order) > 2:  # in a connected pattern the first vertex is depth 1's separator
        last_read: dict[int, int] = {}
        for depth, at in enumerate(lookups):
            for _, us in at:
                for u in us:
                    last_read[u] = depth
        for depth in range(2, len(order)):
            separator = tuple(u for u in order[:depth] if last_read.get(u, -1) >= depth)
            if len(separator) < depth:
                separators[depth] = _items(separator)
    return [list(at.values()) for at in lookups], separators


def _absent_tuples(pattern: Structure, target: Structure, order: list[int]) -> list[list]:
    """Per depth, the (target tuple set, pattern tuple) pairs for the tuples
    that hold the vertex placed at that depth, lie over placed vertices only
    and are missing from the pattern; an induced map must send each of them
    to a tuple missing from the target."""
    pattern_sets, target_sets = pattern.rel_sets(), target.rel_sets()
    absent: list[list] = []
    for depth, v in enumerate(order):
        placed = order[:depth + 1]
        here = []
        for (_, arity), have, tset in zip(pattern.signature.symbols, pattern_sets, target_sets):
            if tset:
                here.extend((tset, t) for t in product(placed, repeat=arity)
                            if v in t and t not in have)
        absent.append(here)
    return absent


def _count_maps(pattern: Structure, target: Structure, vertices: list[int],
                mode: str, nodes: int, budget: int, indexes: dict) -> tuple[int, int]:
    """Count relation-preserving maps of `vertices` into the target by an
    indexed candidate search.

    `mode` is "hom", "inj" or "ind".  `nodes` is the count of candidate images
    tried before this call and the return value includes it; the search stops
    with BudgetError once it exceeds `budget`.  `indexes` holds the candidate
    indexes built so far for this target, by shape, and gains the new ones.

    In hom mode the count of extensions from a depth is cached under the
    images of the depth's separator, so the search order runs as a
    path-decomposition DP.  Only cache misses try candidates, so a depth holds
    at most min(candidates tried at the depth before, n^|separator|) entries;
    the caches are dropped on return.  inj and ind keep the plain search: their used set makes a
    subtotal depend on more than the separator.
    """
    injective = mode != "hom"
    induced = mode == "ind"
    order = _search_order(pattern, vertices)
    lookups, memo_keys = _compile_lookups(pattern, target, order, indexes)
    memos: dict[int, dict] = {} if injective else {depth: {} for depth in memo_keys}
    absent = _absent_tuples(pattern, target, order) if induced else None
    last = len(order) - 1
    n = target.domain
    everything = frozenset(range(n)) if injective else range(n)
    image = [0] * pattern.domain
    used: set[int] = set()

    def stays_induced(depth: int, v: int, w: int) -> bool:
        image[v] = w
        return not any(tuple([image[u] for u in t]) in tset for tset, t in absent[depth])

    def extend(depth: int) -> int:
        nonlocal nodes
        if depth > last:
            return 1
        memo = memos.get(depth)
        if memo is not None:
            key = memo_keys[depth](image)
            total = memo.get(key)
            if total is not None:
                return total
        checks = lookups[depth]
        if checks:
            sets = []
            for index, key_of in checks:
                found = index.get(key_of(image))
                if not found:
                    return 0
                sets.append(found)
            if len(sets) == 1:
                candidates = sets[0]
            else:
                sets.sort(key=len)
                candidates = sets[0].intersection(*sets[1:])
        else:
            candidates = everything
        if injective and used:
            candidates = candidates - used
        nodes += len(candidates)
        if nodes > budget:
            raise BudgetError(
                f"{mode} search explored {nodes} nodes, over the budget of {budget}"
            )
        if induced and absent[depth]:
            v = order[depth]
            candidates = [w for w in candidates if stays_induced(depth, v, w)]
        if depth == last:
            total = len(candidates)
        else:
            v = order[depth]
            total = 0
            for w in candidates:
                image[v] = w
                if injective:
                    used.add(w)
                    total += extend(depth + 1)
                    used.discard(w)
                else:
                    total += extend(depth + 1)
        if memo is not None:
            memo[key] = total
        return total

    return extend(0), nodes


def hom_count(pattern: Structure, target: Structure) -> CountReport:
    """All relation-preserving maps; factorizes over the pattern's connected
    components and multiplies the per-component counts.  Inside a
    `shared_indexes(target)` block it reuses the block's candidate indexes."""
    shared = _SHARED.get()
    indexes = shared[1] if shared is not None and shared[0] is target else {}
    pattern, target = _aligned(pattern, target)
    budget = budgets.search_budget()
    value = 1
    nodes = 0
    for component in gaifman_components(pattern):
        sub, nodes = _count_maps(pattern, target, component, "hom", nodes, budget, indexes)
        value *= sub
        if value == 0:
            break
    return CountReport(value, "hom", nodes)


def _injective_count(pattern: Structure, target: Structure, mode: str) -> CountReport:
    """The "inj" or "ind" count, over the whole pattern at once."""
    pattern, target = _aligned(pattern, target)
    if pattern.domain > target.domain:
        return CountReport(0, mode, 0)
    value, nodes = _count_maps(pattern, target, list(range(pattern.domain)), mode, 0,
                               budgets.search_budget(), {})
    return CountReport(value, mode, nodes)


def inj_count(pattern: Structure, target: Structure) -> CountReport:
    """Injective relation-preserving maps (no component factorization)."""
    return _injective_count(pattern, target, "inj")


def ind_count(pattern: Structure, target: Structure) -> CountReport:
    """Injective maps whose image induces exactly the pattern's relations."""
    return _injective_count(pattern, target, "ind")


def hom(pattern: Structure, target: Structure) -> int:
    return hom_count(pattern, target).value


def inj(pattern: Structure, target: Structure) -> int:
    return inj_count(pattern, target).value


def ind(pattern: Structure, target: Structure) -> int:
    return ind_count(pattern, target).value


# ---------------------------------------------------------------------------
# Super-pattern enumeration (for the ind/inj inclusion-exclusion)

def _missing_tuples(pattern: Structure, closure: str | None):
    """Per symbol, the addable tuple groups.  With closure='simple' the binary
    relations grow by symmetric non-loop pairs; otherwise single tuples."""
    groups = []
    for idx, (name, arity) in enumerate(pattern.signature.symbols):
        present = set(pattern.relations[idx])
        if closure == "simple" and arity == 2:
            candidates = []
            for u in range(pattern.domain):
                for v in range(u + 1, pattern.domain):
                    if (u, v) not in present:
                        candidates.append(((u, v), (v, u)))
            groups.append((idx, candidates))
        else:
            candidates = [
                (t,) for t in product(range(pattern.domain), repeat=arity) if t not in present
            ]
            groups.append((idx, candidates))
    return groups


def super_patterns(pattern: Structure, closure: str | None = None):
    """Yield (superstructure, number of added tuple groups) for every way of
    enlarging the pattern's relations on the same domain; more than
    RELPOLY_BASIS_BUDGET of them is a BudgetError."""
    groups = _missing_tuples(pattern, closure)
    limit = budgets.basis_budget()
    total = 1
    for _, candidates in groups:
        total <<= len(candidates)
        if total > limit:
            raise BudgetError("super-pattern enumeration too large")

    def rec(level: int, relations: list[set], added: int):
        if level == len(groups):
            yield (
                make_structure(pattern.signature, pattern.domain,
                               {pattern.signature.symbols[i][0]: relations[i]
                                for i in range(len(relations))}),
                added,
            )
            return
        idx, candidates = groups[level]

        def choose(pos: int, count: int):
            if pos == len(candidates):
                yield from rec(level + 1, relations, added + count)
                return
            yield from choose(pos + 1, count)
            for t in candidates[pos]:
                relations[idx].add(t)
            yield from choose(pos + 1, count + 1)
            for t in candidates[pos]:
                relations[idx].discard(t)

        yield from choose(0, 0)

    base = [set(rel) for rel in pattern.relations]
    yield from rec(0, base, 0)
