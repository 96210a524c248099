"""Exact hom/inj/ind counting by indexed candidate search, quotients, and the
partition-lattice machinery tying the three counts together."""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter
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


# The search recurses once per placed vertex; larger searches are refused
# well inside Python's default recursion limit of 1000 frames.
_MAX_SEARCH_VERTICES = 500

# The hom counts one target remembers (`Structure.hom_reports`); past this
# many patterns the oldest is dropped.
_HOM_MEMO_CAP = 64

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

    `absent[depth]`, for ind only, holds (target symbol, pattern tuples) for
    the tuples that hold the vertex placed at that depth, lie over placed
    vertices only and are missing from the pattern; an induced map must send
    each of them to a tuple missing from the target.

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
    for (name, _), symbol, rel in zip(pattern.signature.symbols, symbols, pattern.relations):
        for t in rel:
            if not all(u in position for u in t):
                continue
            depth = max(position[u] for u in t)
            v = order[depth]
            here = tuple(i for i, u in enumerate(t) if u == v)
            bound = tuple(i for i, u in enumerate(t) if u != v)
            steps[depth].setdefault(((name, here, bound), tuple(t[i] for i in bound)), symbol)
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
    absent = None
    if mode == "ind":
        have = {j: frozenset(rel) for j, rel in zip(symbols, pattern.relations)}
        absent = tuple(
            tuple((j, tuple(t for t in product(order[:depth + 1], repeat=arity)
                            if v in t and t not in have.get(j, ())))
                  for j, (_, arity) in enumerate(signature.symbols))
            for depth, v in enumerate(order)
        )
    return _Search(
        tuple(order),
        tuple(tuple((symbol, shape, us, _items(us)) for (shape, us), symbol in at.items())
              for at in steps),
        separators,
        absent,
    )


@lru_cache(maxsize=256)
def _plan(pattern: Structure, signature: Signature, mode: str) -> tuple[_Search, ...]:
    """The part of a `mode` count that depends only on the pattern and the
    target's signature, built once per such pair and kept in a bounded cache:
    one `_Search` per Gaifman component for hom, one over the whole domain for
    inj and ind.  Budgets are read per count, never here."""
    symbols = _target_symbols(pattern.signature, signature)
    groups = gaifman_components(pattern) if mode == "hom" else [list(range(pattern.domain))]
    return tuple(_search_plan(pattern, signature, symbols, vertices, mode) for vertices in groups)


def _bind(plan: _Search, target: Structure, indexes: dict) -> list[list]:
    """Per depth, the (index, key) lookups of the plan's steps into this
    target.  `indexes` holds the candidate indexes built so far for the
    target, by shape, and gains the new ones; an index equal to one already
    built (E(u,v) and E(v,u) in a symmetric relation) is shared, so that the
    search looks it up once."""
    lookups = []
    for at in plan.steps:
        bound: dict = {}
        for symbol, shape, us, key_of in at:
            index = indexes.get(shape)
            if index is None:
                rel = target.relations[symbol] if symbol is not None else ()
                index = _candidate_index(rel, shape[1], shape[2])
                index = next((b for b in indexes.values() if b == index), index)
                indexes[shape] = index
            bound.setdefault((id(index), us), (index, key_of))
        lookups.append(list(bound.values()))
    return lookups


def _count_maps(plan: _Search, target: Structure, image: list[int], mode: str,
                nodes: int, budget: int, indexes: dict) -> tuple[int, int]:
    """Count relation-preserving maps of the plan's vertices into the target
    by an indexed candidate search.

    `mode` is "hom", "inj" or "ind".  `image` is a list over the pattern's
    vertices to write images in.  `nodes` is the count of candidate images
    tried before this call and the return value includes it; the search stops
    with BudgetError once it exceeds `budget`, or at once for more than
    _MAX_SEARCH_VERTICES vertices.  `indexes` is as in `_bind`.

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
    injective = mode != "hom"
    induced = mode == "ind"
    lookups = _bind(plan, target, indexes)
    memo_keys = plan.separators
    memos: dict[int, dict] = {} if injective else {depth: {} for depth in memo_keys}
    if induced:
        tsets = target.rel_sets()
        absent = [[(tsets[j], ts) for j, ts in at if ts and tsets[j]] for at in plan.absent]
    last = len(order) - 1
    n = target.domain
    everything = frozenset(range(n)) if injective else range(n)
    used: set[int] = set()

    def stays_induced(depth: int, v: int, w: int) -> bool:
        image[v] = w
        return not any(tuple([image[u] for u in t]) in tset
                       for tset, ts in absent[depth] for t in ts)

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

    # One depth-0 subtree holds at most last * n^last nodes.  When that many
    # over n - 2 candidates stay within the gate, as on every small target,
    # the search is the plain one; `extend` itself never looks at the gate.
    if not (last > 0 and last * n ** last * (n - 2) > _ORBIT_GATE * n):
        return extend(0), nodes

    def below(w: int) -> int:
        image[order[0]] = w
        if not injective:
            return extend(1)
        used.add(w)
        total = extend(1)
        used.discard(w)
        return total

    def rooted() -> int:
        """extend(0), with the gate after the second candidate."""
        nonlocal nodes
        sets = [index.get(()) for index, _ in lookups[0]]  # loops and marks of the first vertex
        if not all(sets):
            return 0
        candidates = set.intersection(*sets) if sets else everything
        nodes += len(candidates)
        if nodes > budget:
            raise BudgetError(f"{mode} search explored {nodes} nodes, over the budget of {budget}")
        if induced and absent[0]:
            candidates = [w for w in candidates if stays_induced(0, order[0], w)]
        if len(candidates) <= 2:
            return sum(below(w) for w in candidates)
        todo = iter(candidates)
        first = next(todo)
        first_total = below(first)
        start = nodes
        second = next(todo)
        second_total = below(second)
        total = first_total + second_total
        # Projected from the second subtree, which finds the separator memos
        # filled by the first as every later one does; n alone settles most
        # searches without summing the target's tuples.
        projected = (nodes - start) * (len(candidates) - 2)
        limit = _ORBIT_GATE * n
        if projected <= limit or projected <= limit + _ORBIT_GATE * target.total_tuples():
            v = order[0]
            for w in todo:  # extend's own loop, without a call per candidate
                image[v] = w
                if injective:
                    used.add(w)
                    total += extend(1)
                    used.discard(w)
                else:
                    total += extend(1)
            return total
        orbit_of, work = canon.orbits(target, min(projected, budget - nodes))
        nodes += work  # at most the allowance, so still within the budget
        subtotals = {orbit_of[first]: first_total, orbit_of[second]: second_total}
        for w in todo:
            sub = subtotals.get(orbit_of[w])
            if sub is None:
                sub = subtotals[orbit_of[w]] = below(w)
            total += sub
        return total

    return rooted(), nodes


def hom_count(pattern: Structure, target: Structure) -> CountReport:
    """All relation-preserving maps; factorizes over the pattern's connected
    components and multiplies the per-component counts.  Inside a
    `shared_indexes(target)` block it reuses the block's candidate indexes.

    The report is remembered with the target, for at most _HOM_MEMO_CAP
    patterns, and a later count of an equal pattern returns it while its
    nodes fit the search budget; otherwise the count is searched again."""
    budget = budgets.search_budget()
    memo = target.hom_reports
    report = memo.get(pattern)
    if report is not None and report.nodes_explored <= budget:
        return report
    shared = _SHARED.get()
    indexes = shared[1] if shared is not None and shared[0] is target else {}
    plan = _plan(pattern, target.signature, "hom")
    image = [0] * pattern.domain
    value = 1
    nodes = 0
    for component in plan:
        sub, nodes = _count_maps(component, target, image, "hom", nodes, budget, indexes)
        value *= sub
        if value == 0:
            break
    if report is None and len(memo) >= _HOM_MEMO_CAP:
        del memo[next(iter(memo))]
    report = memo[pattern] = CountReport(value, "hom", nodes)
    return report


def _injective_count(pattern: Structure, target: Structure, mode: str) -> CountReport:
    """The "inj" or "ind" count, over the whole pattern at once."""
    if pattern.domain > target.domain:
        _target_symbols(pattern.signature, target.signature)  # conflicting arities still raise
        return CountReport(0, mode, 0)
    (plan,) = _plan(pattern, target.signature, mode)
    value, nodes = _count_maps(plan, target, [0] * pattern.domain, mode, 0,
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
