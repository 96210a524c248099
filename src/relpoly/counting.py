"""Exact hom/inj/ind counting by indexed candidate search, quotients, and the
partition-lattice machinery tying the three counts together."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product, repeat
from operator import contains, itemgetter
from typing import NamedTuple

from . import budgets, canon
from .errors import BudgetError, SignatureError
from .structures import Signature, Structure, gaifman_components, make_structure


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


def bell(n: int, cap: int | None = None) -> int:
    """Number of partitions of an n-set, by the Bell triangle.  With a cap,
    the triangle stops at its first entry above the cap, at most Bell(n),
    and returns that entry instead once Bell(n) passes the cap."""
    row = [1]
    for _ in range(n):
        if cap is not None and row[-1] > cap:
            return row[-1]
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

@dataclass(frozen=True, slots=True)  # slots: each target keeps its hom reports
class CountReport:
    value: int
    mode: str
    nodes_explored: int


def _target_symbols(pattern: Signature, target: Signature) -> tuple[int | None, ...]:
    """For each pattern symbol, its position in the target's signature, or
    None when the target lacks it (an empty relation there).  A symbol of
    both with two arities is a SignatureError."""
    where = {name: i for i, (name, _) in enumerate(target.symbols)}
    for name, arity in target.symbols:
        if pattern.has(name) and pattern.arity(name) != arity:
            raise SignatureError(f"symbol {name!r} has conflicting arities")
    return tuple(where.get(name) for name in pattern.names)


def _search_order(pattern: Structure, vertices: list[int]) -> list[int]:
    # Place the most constrained vertex first, then greedily extend along
    # tuples touching already-placed vertices; among equals, the one leaving
    # the fewest tuples open, so that separators stay small (a path starts
    # at an end).
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
                -sum(1 for _, t in incident[v] if not set(t) <= placed | {v}),
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


def _candidate_index(rel, here: tuple[int, ...], bound: tuple[int, ...], built,
                     masks: bool) -> dict:
    """Map the images at the `bound` positions of a target tuple (keyed by
    `_items(bound)`) to the w that fill every `here` position of some tuple of
    `rel` agreeing with them, as a filter of them: with `masks`, a `_Mask`;
    otherwise the set of them.  The search never changes an entry.

    An index of `built` that holds every (key, w) of `rel` and no more (E(u,v)
    and E(v,u) in a symmetric relation) is returned instead, before any entry
    is made: a tuple is its key and its w, so `rel` gives as many pairs as it
    has tuples."""
    first, rest = here[0], here[1:]
    if rest:
        at_here = itemgetter(*here)
        rel = [s for s in rel if at_here(s).count(s[first]) == len(here)]
    key, w_of = _items(bound), itemgetter(first)
    for index in built:  # each w of `rel` in the entry of its key, by C-level maps
        if all(map(contains, map(index.get, map(key, rel), repeat(())), map(w_of, rel))) and (
                sum(map(len, index.values())) == len(rel)):
            return index
    found = defaultdict(set)
    for s in rel:
        found[key(s)].add(s[first])
    found.default_factory = None  # so that no lookup can add a key
    if not masks:
        return found
    bit = (1).__lshift__
    return {k: _Mask(sum(map(bit, ws)), sorted(ws)) for k, ws in found.items()}


class _Mask(int):
    """A candidate filter on masks: an int with bit w set for each member w,
    which keeps its members in ascending order.  Like a set, it iterates,
    counts and tests them; `&` and `^` give plain ints."""

    def __new__(cls, bits: int, members):
        self = int.__new__(cls, bits)
        self.members = members
        return self

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: int) -> bool:
        return self >> w & 1 == 1


def _members(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending, one step per set
    bit, so that walking them costs in proportion to the candidates walked."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# A target's candidates are bitmasks when it has at most this many vertices
# and at least n/64 tuples per vertex, and sets otherwise (`_uses_masks`).  A
# mask costs in proportion to its target's vertices, not to its key's
# members: about n/8 bytes, and about n/30 digit steps to build, `&` and
# count.  It pays where a key's members are many next to that, as on dense
# targets, where a set intersection walks hundreds of members: hom(K3,
# G(1024, 0.3)) takes 0.4 s with masks and 5.6 s with sets.  On sparse
# targets building the masks costs more than they save (hom(K2, C_1024) takes
# 1.6 times as long), and past 1024 vertices their memory would grow with
# n^2 (0.65 GB for one index of C_100000), where that of sets follows the
# tuples.  Up to 1024 vertices a mask is at most 35 digits, 164 bytes, less
# than the smallest set's 216.
_MASK_VERTICES = 1024


def _uses_masks(target: Structure) -> bool:
    n = target.domain
    return n <= _MASK_VERTICES and 64 * target.total_tuples() >= n * n

# The search recurses once per placed vertex; larger searches are refused
# well inside Python's default recursion limit of 1000 frames.
_MAX_SEARCH_VERTICES = 500

# The counts one target remembers (`Structure.count_reports`); past this
# many (mode, pattern) pairs the oldest is dropped.
_MEMO_CAP = 64

# Depth 0 goes through the target's automorphism orbits only when the work
# projected from its second candidate exceeds this many times the target's
# vertices plus tuples; below that, finding the orbits would not pay.
_ORBIT_GATE = 32


class _Search(NamedTuple):
    """The target-independent part of the search over one group of pattern
    vertices, in search order.

    `steps[depth]` holds the lookups for the tuples whose last-placed vertex
    sits at that depth, as (target symbol, shape, bound vertices, key).  A
    tuple's shape is its relation symbol and which positions hold the vertex
    being placed, and one candidate index serves every tuple of one shape; the
    key takes the image list to the index key of the bound vertices.  The
    target symbol is None when the target lacks the symbol.

    `separators[depth]` takes the image list to the images of the depth's
    separator: the vertices placed before it that lookups at this depth or
    later read, so that the count of extensions from this depth on depends on
    their images alone.  A depth whose separator holds every placed vertex
    gets no key, since a memo keyed on it would see each key once.

    `absent[depth]` holds lookups of the same form for the tuples over placed
    vertices that the pattern lacks, in ind only (empty in hom and inj): an
    induced map sends none of them to a target tuple, so the images they find
    are no candidates.

    A group of more than _MAX_SEARCH_VERTICES vertices keeps its vertices
    as `order` and no steps, and is refused when it is searched."""

    order: tuple[int, ...]
    steps: tuple | None
    separators: dict
    absent: tuple | None


def _search_plan(pattern: Structure, signature: Signature, symbols: tuple,
                 vertices: list[int], mode: str) -> _Search:
    if len(vertices) > _MAX_SEARCH_VERTICES:
        return _Search(tuple(vertices), None, {}, None)
    order = _search_order(pattern, vertices)
    position = {v: i for i, v in enumerate(order)}
    steps: list[dict] = [{} for _ in order]
    absent: list[dict] = [{} for _ in order]
    # Every lookup of one shape, or over the same bound vertices, shares one
    # object: ind has a lookup per tuple the pattern lacks.
    shapes, keys = {}, {}

    def add_lookup(at: list[dict], name: str, symbol: int | None, t: tuple) -> None:
        depth = max(position[u] for u in t)
        v = order[depth]
        shape = (name, tuple(i for i, u in enumerate(t) if u == v),
                 tuple(i for i, u in enumerate(t) if u != v))
        shape = shapes.setdefault(shape, shape)
        us = tuple(t[i] for i in shape[2])
        us, key_of = keys.setdefault(us, (us, _items(us)))
        at[depth].setdefault((shape, us), (symbol, shape, us, key_of))

    for (name, _), symbol, rel in zip(pattern.signature.symbols, symbols, pattern.relations):
        for t in rel:
            if all(u in position for u in t):
                add_lookup(steps, name, symbol, t)
    if mode == "ind":
        have = {j: frozenset(rel) for j, rel in zip(symbols, pattern.relations)}
        for j, (name, arity) in enumerate(signature.symbols):
            for t in product(order, repeat=arity):
                if t not in have.get(j, ()):
                    add_lookup(absent, name, j, t)
    separators: dict = {}
    if len(order) > 2:  # in a connected pattern the first vertex is depth 1's separator
        last_read: dict[int, int] = {}
        for depth, at in enumerate(steps):
            for _, us in at:
                for u in us:
                    last_read[u] = depth
        for depth in range(2, len(order)):
            separator = tuple(u for u in order[:depth] if last_read.get(u, -1) >= depth)
            if len(separator) < depth:
                separators[depth] = _items(separator)
    return _Search(tuple(order), tuple(tuple(at.values()) for at in steps), separators,
                   tuple(tuple(at.values()) for at in absent))


@lru_cache(maxsize=256)
def _plan(pattern: Structure, signature: Signature, mode: str) -> tuple[_Search, ...]:
    """The part of a `mode` count that depends only on the pattern and the
    target's signature, built once per such pair and kept in a bounded cache:
    one `_Search` per Gaifman component for hom, one over the whole domain for
    inj and ind.  Budgets are read per count, never here."""
    symbols = _target_symbols(pattern.signature, signature)
    groups = gaifman_components(pattern) if mode == "hom" else [list(range(pattern.domain))]
    return tuple(_search_plan(pattern, signature, symbols, vertices, mode) for vertices in groups)


def _bind(plan: _Search, target: Structure, masks: bool) -> tuple[list[list], list[list]]:
    """Per depth, the (index.get, key) lookups of the plan's steps, and those of
    its absent tuples, into this target, whose indexes hold masks when
    `masks`.  The target keeps the candidate indexes built for it, by shape
    (`Structure.candidate_indexes`), and gains the new ones; two shapes with
    equal indexes share one, so that the search looks it up once."""
    indexes = target.candidate_indexes
    gets: dict = {}  # one bound `get` per index, shared by all its lookups

    def bind(at: tuple) -> list:
        bound: dict = {}
        for symbol, shape, us, key_of in at:
            index = indexes.get(shape)
            if index is None:
                rel = target.relations[symbol] if symbol is not None else ()
                index = indexes[shape] = _candidate_index(
                    rel, shape[1], shape[2], indexes.values(), masks)
            get = gets.setdefault(id(index), index.get)
            bound.setdefault((id(index), us), (get, key_of))
        return list(bound.values())

    return [bind(at) for at in plan.steps], [bind(at) for at in plan.absent]


def _count_maps(plan: _Search, target: Structure, image: list[int], mode: str,
                nodes: int, budget: int) -> tuple[int, int]:
    """Count relation-preserving maps of the plan's vertices into the target
    by an indexed candidate search.

    `mode` is "hom", "inj" or "ind".  `image` is a list over the pattern's
    vertices to write images in.  `nodes` is the count of candidate images
    tried before this call and the return value includes it; the search stops
    with BudgetError once it exceeds `budget`, or at once for more than
    _MAX_SEARCH_VERTICES vertices.

    A depth's candidates are a filter: the `&` of its lookups' entries, less
    the used images in inj and ind, dropped from a filter f as `f ^ (f & g)`:
    bitmasks on targets that `_uses_masks` and sets on the others, told apart
    only by the few operations the setup below picks.  A depth with one
    lookup and nothing dropped walks that entry's members; any other walks
    its filter, which the last depth only counts.  The depth's nodes are
    counted there; in ind the images its absent lookups find are dropped
    after that.

    In hom mode the count of extensions from a depth is cached under the
    images of the depth's separator, so the search order runs as a
    path-decomposition DP.  Only cache misses try candidates, so a depth holds
    at most min(candidates tried at the depth before, n^|separator|) entries;
    the caches are dropped on return.  inj and ind keep the plain search: their used set makes a
    subtotal depend on more than the separator.

    At depth 0, composing with an automorphism s of the target is a
    bijection from the maps sending the first vertex to w onto those sending
    it to s(w), in every mode: depth 0's candidates are closed under
    automorphisms, nothing is used yet, and the memos are keyed on images
    alone.  So once the second candidate's subtree, times the candidates
    left, projects more than _ORBIT_GATE * (n + tuples) nodes,
    `canon.orbits` is asked for orbits within that projection (and what is
    left of the budget), its work is charged as nodes, and each further
    candidate reuses the subtotal of an orbit-mate already searched.
    """
    order = plan.order
    if plan.steps is None:
        raise BudgetError(
            f"a search over {len(order)} pattern vertices exceeds the limit of "
            f"{_MAX_SEARCH_VERTICES}"
        )
    last = len(order) - 1
    if last < 0:
        return 1, nodes
    injective = mode != "hom"
    masks = _uses_masks(target)
    lookups, absent = _bind(plan, target, masks)
    n = target.domain
    # `size` counts a filter's members, `walk` iterates them and `one` makes
    # the filter of one image.
    if masks:
        size, walk, one = int.bit_count, _members, (1).__lshift__
        everything = _Mask((1 << n) - 1, range(n))
    else:
        size, walk, one = len, iter, lambda w: {w}
        everything = frozenset(range(n)) if injective else range(n)

    # Depth 0 binds no vertex: its keys are all (), and nothing is used yet.
    found = [get(()) for get, _ in lookups[0]]
    if None in found:
        return 0, nodes
    mask = candidates = found[0] if found else everything
    for other in found[1:]:
        mask = mask & other
        candidates = None
    nodes += size(mask)
    if nodes > budget:
        raise BudgetError(f"{mode} search explored {nodes} nodes, over the budget of {budget}")
    for get, _ in absent[0]:
        found = get(())
        if found is not None:
            drop = mask & found
            if drop:
                mask = mask ^ drop
                candidates = None
    count = size(mask)
    if last == 0:
        return count, nodes
    if candidates is None:
        candidates = walk(mask)
    memo_keys = plan.separators
    memos = [None if injective or depth not in memo_keys else {} for depth in range(last + 1)]
    # The filter of the images placed so far, in inj and ind.  A set is
    # changed in place, each image added and removed again around its
    # subtree; no other filter ever is.
    used = None

    def extend(depth: int) -> int:
        """The count of extensions from `depth` on, for 1 <= depth <= last."""
        nonlocal nodes, used
        memo = memos[depth]
        if memo is not None:
            key = memo_keys[depth](image)
            total = memo.get(key)
            if total is not None:
                return total
        checks = lookups[depth]
        if checks:
            mask = None
            for get, key_of in checks:
                found = get(key_of(image))
                if found is None:
                    return 0
                if mask is None:
                    mask = candidates = found
                else:
                    mask = mask & found
                    candidates = None
        else:
            mask = candidates = everything
        gone = absent[depth]
        count = size(mask)
        if injective:
            drop = mask & used
            if drop:
                count -= size(drop)
                if gone or depth < last:  # the filter is read again
                    mask, candidates = mask ^ drop, None
        nodes += count
        if nodes > budget:
            raise BudgetError(f"{mode} search explored {nodes} nodes, over the budget of {budget}")
        if gone:
            for get, key_of in gone:
                found = get(key_of(image))
                if found is not None:
                    drop = mask & found
                    if drop:
                        mask = mask ^ drop
                        candidates = None
        if depth == last:
            total = size(mask) if gone else count
        else:
            if candidates is None:
                candidates = walk(mask)
            v = order[depth]
            total = 0
            if injective:
                for w in candidates:
                    image[v] = w
                    bit = one(w)
                    used ^= bit
                    total += extend(depth + 1)
                    used ^= bit
            else:
                for w in candidates:
                    image[v] = w
                    total += extend(depth + 1)
        if memo is not None:
            memo[key] = total
        return total

    v = order[0]

    def search(ws) -> int:
        """Depth 0's one loop: the maps sending the first vertex into `ws`."""
        nonlocal used
        total = 0
        for w in ws:
            image[v] = w
            if injective:
                used = one(w)
            total += extend(1)
        return total

    if count <= 2:
        total = search(candidates)
    else:
        todo = iter(candidates)
        first, second = next(todo), next(todo)
        first_total = search((first,))
        start = nodes
        second_total = search((second,))
        total = first_total + second_total
        # Projected from the second subtree, which finds the separator memos
        # filled by the first as every later one does; n alone settles most
        # searches without summing the target's tuples.  One subtree holds
        # at most last * n^last nodes, so small targets never reach the gate.
        projected = (nodes - start) * (count - 2)
        limit = _ORBIT_GATE * n
        if projected <= limit or projected <= limit + _ORBIT_GATE * target.total_tuples():
            total += search(todo)
        else:
            orbit_of, work = canon.orbits(target, min(projected, budget - nodes))
            nodes += work  # at most the allowance, so still within the budget
            subtotals = {orbit_of[first]: first_total, orbit_of[second]: second_total}
            for w in todo:
                sub = subtotals.get(orbit_of[w])
                if sub is None:
                    sub = subtotals[orbit_of[w]] = search((w,))
                total += sub
    return total, nodes


def _count(pattern: Structure, target: Structure, mode: str) -> CountReport:
    """The product of the `mode` counts of the plan's groups, remembered with
    the target for at most _MEMO_CAP (mode, pattern) pairs: a later count of
    an equal pattern returns the report while its nodes fit the search budget
    and is searched again otherwise."""
    budget = budgets.search_budget()
    memo = target.count_reports
    report = memo.get((mode, pattern))
    if report is not None and report.nodes_explored <= budget:
        return report
    value, nodes = 1, 0
    if mode != "hom" and pattern.domain > target.domain:
        _target_symbols(pattern.signature, target.signature)  # conflicting arities still raise
        value = 0
    else:
        image = [0] * pattern.domain
        for component in _plan(pattern, target.signature, mode):
            sub, nodes = _count_maps(component, target, image, mode, nodes, budget)
            value *= sub
            if value == 0:
                break
    if report is None and len(memo) >= _MEMO_CAP:
        del memo[next(iter(memo))]
    report = memo[mode, pattern] = CountReport(value, mode, nodes)
    return report


def hom_count(pattern: Structure, target: Structure) -> CountReport:
    """All relation-preserving maps; factorizes over the pattern's connected
    components and multiplies the per-component counts."""
    return _count(pattern, target, "hom")


def inj_count(pattern: Structure, target: Structure) -> CountReport:
    """Injective relation-preserving maps (no component factorization)."""
    return _count(pattern, target, "inj")


def ind_count(pattern: Structure, target: Structure) -> CountReport:
    """Injective maps whose image induces exactly the pattern's relations."""
    return _count(pattern, target, "ind")


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
    enlarging the pattern's relations on the same domain, the first group
    varying slowest and left out before it is added; more than
    RELPOLY_BASIS_BUDGET of them is a BudgetError."""
    groups = [(idx, group) for idx, candidates in _missing_tuples(pattern, closure)
              for group in candidates]
    if 1 << len(groups) > budgets.basis_budget():
        raise BudgetError("super-pattern enumeration too large")
    names = pattern.signature.names
    for picks in product((0, 1), repeat=len(groups)):
        relations = {name: list(rel) for name, rel in zip(names, pattern.relations)}
        for idx, group in compress(groups, picks):
            relations[names[idx]].extend(group)
        yield make_structure(pattern.signature, pattern.domain, relations), sum(picks)
