"""Reference isomorphism engines, kept as oracles for relpoly.canon.

`_tree_stream` walks canon's individualise-refine tree with neither its
automorphism nor its prefix pruning: from the refined partition it
individualises each vertex of each target cell in turn and keeps the least
stream of cell sizes per level ending in the leaf's relabelled structure,
the tuples of each non-empty relation of arity > 2 last.  It skips only a
twin of a vertex tried before in the same cell: swapping two twins and
fixing the rest is an automorphism that fixes the path, so their subtrees
give the same streams, and without the skip an edgeless 9-vertex structure
has 9! leaves.  Pair codes alone do not make a swap an automorphism once a
relation has arity > 2, so the swap is checked against those relations too.
`canonical_form` must reproduce that stream byte for byte (see
`unpruned_key`), so the test checks that the pruning loses no leaf.

`brute_stream` is the least encoding of a structure over all n! labelings,
the reference that shares nothing with canon: two structures over one
signature are isomorphic exactly when their brute streams are equal.

`round_based_colors` is colour refinement in rounds, as canon computed it
before its partition refined in place: every round recolours each vertex by
its colour and the sorted (code, colour) pairs of its neighbours.  Canon's
partition must have the same cells.  The initial colours are ranked by
sorted key; the old code ranked them by first appearance, which made keys of
structures with unary marks or loops depend on the labeling.

`_vertex_profile` and `_find_vertex_bijection` are the profile-guided
backtracker that `structures.isomorphic` used before it became a
canonical-key comparison; `backtrack_isomorphic` is that function as it was.
`backtrack_weakly_isomorphic` also searches the arity-preserving symbol
bijections.  The library compares structures only under the identity symbol
map, so this is the one weak-isomorphism test: the suite uses it where two
structures name their symbols differently.
"""

from itertools import permutations

from relpoly.canon import _Partition, _inputs
from relpoly.errors import BudgetError
from relpoly.structures import Structure


def _binary_code(s: Structure, u: int, v: int, binary: list[frozenset]) -> int:
    code = 0
    for bit, rel in enumerate(binary):
        if (u, v) in rel:
            code |= 1 << (2 * bit)
        if (v, u) in rel:
            code |= 1 << (2 * bit + 1)
    return code


def _refine_colors(s: Structure, binary: list[frozenset], initial: list):
    n = s.domain
    ranking = {key: rank for rank, key in enumerate(sorted(set(initial)))}
    colors = [ranking[key] for key in initial]
    while True:
        keys = []
        for v in range(n):
            neigh = sorted(
                (_binary_code(s, v, u, binary), colors[u])
                for u in range(n)
                if u != v and _binary_code(s, v, u, binary)
            )
            keys.append((colors[v], tuple(neigh)))
        ranking = {}
        for key in sorted(set(keys)):
            ranking[key] = len(ranking)
        new = [ranking[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _masks(s: Structure) -> tuple[list[frozenset], list[int], list[int]]:
    n = s.domain
    binary = [frozenset(s.rel(name)) for name, arity in s.signature.symbols if arity == 2]
    unary_names = [name for name, arity in s.signature.symbols if arity == 1]
    unary_mask = [0] * n
    for bit, name in enumerate(unary_names):
        for (v,) in s.rel(name):
            unary_mask[v] |= 1 << bit
    loop_mask = [0] * n
    for bit, rel in enumerate(binary):
        for v in range(n):
            if (v, v) in rel:
                loop_mask[v] |= 1 << bit
    return binary, unary_mask, loop_mask


def round_based_colors(s: Structure, initial: list | None = None) -> list[int]:
    """The stable colouring of rounds of colour refinement from `initial`, one
    key per vertex (by default the masks of its unary marks and loops)."""
    binary, unary_mask, loop_mask = _masks(s)
    return _refine_colors(s, binary, initial or list(zip(unary_mask, loop_mask)))


def brute_stream(s: Structure) -> tuple:
    """The least tuple of sorted relabelled relations over all labelings."""
    best = None
    for perm in permutations(range(s.domain)):
        encoded = tuple(
            tuple(sorted(tuple(perm[v] for v in t) for t in rel)) for rel in s.relations
        )
        if best is None or encoded < best:
            best = encoded
    return best


def _tree_stream(s: Structure) -> tuple:
    adjacency, masks = _inputs(s)
    wide = [(i, rel) for i, ((_, arity), rel) in enumerate(zip(s.signature.symbols, s.relations))
            if arity > 2 and rel]
    wide_sets = [frozenset(rel) for _, rel in wide]
    part = _Partition(adjacency, masks)
    best: list | None = None

    def twins(u: int, v: int) -> bool:
        """Whether swapping u and v and fixing the rest is an automorphism."""
        au, av = adjacency[u], adjacency[v]
        swap = {u: v, v: u}
        return (masks[u] == masks[v] and au.get(v) == av.get(u) and len(au) == len(av)
                and all(w == v or av.get(w) == code for w, code in au.items())
                and all(tuple(swap.get(x, x) for x in t) in rel for rel in wide_sets for t in rel))

    def walk(stream: list, cell: list[int] | None) -> None:
        nonlocal best
        if cell is None:
            leaf = [tuple(
                (masks[v], tuple(sorted((part.color[u], code) for u, code in adjacency[v].items())))
                for v in part.order
            )]
            leaf += [(i, tuple(sorted(tuple(part.color[x] for x in t) for t in rel)))
                     for i, rel in wide]
            if best is None or stream + leaf < best:
                best = stream + leaf
            return
        for i, v in enumerate(cell):
            if any(twins(u, v) for u in cell[:i]):
                continue
            mark = part.individualise(v)
            sizes, below = part.shape()
            walk(stream + [sizes], below)
            part.undo(mark)

    walk([], part.shape()[1])
    assert best is not None
    return tuple(best)


def unpruned_key(s: Structure) -> bytes:
    """The key `canonical_form` must give: the least stream of the whole
    individualise-refine tree."""
    if s.domain == 0:
        stream = ()
    else:
        stream = _tree_stream(s)
    return repr((s.domain, s.signature.symbols, stream)).encode()


def _vertex_profile(s: Structure, order: list[str]):
    profiles = [[] for _ in range(s.domain)]
    for name in order:
        arity = s.signature.arity(name)
        counts = [[0] * arity for _ in range(s.domain)]
        loops = [0] * s.domain
        for t in s.rel(name):
            for pos, v in enumerate(t):
                counts[v][pos] += 1
            if len(set(t)) == 1:
                loops[t[0]] += 1
        for v in range(s.domain):
            profiles[v].append((tuple(counts[v]), loops[v]))
    return [tuple(p) for p in profiles]


def _find_vertex_bijection(a: Structure, b: Structure, symbol_map: dict[str, str]) -> bool:
    order = list(a.signature.names)
    pa = _vertex_profile(a, order)
    pb = _vertex_profile(b, [symbol_map[n] for n in order])
    if sorted(pa) != sorted(pb):
        return False
    rel_pairs = [(frozenset(a.rel(n)), frozenset(b.rel(symbol_map[n]))) for n in order]
    n = a.domain
    image = [-1] * n
    preimage = [-1] * n

    def consistent(v: int) -> bool:
        # Both directions: assigned a-tuples must land in b, and b-tuples fully
        # inside the current image must pull back into a.
        for ra, rb in rel_pairs:
            for t in ra:
                if all(u <= v for u in t) and tuple(image[u] for u in t) not in rb:
                    return False
            for t in rb:
                if all(preimage[u] >= 0 for u in t) and tuple(preimage[u] for u in t) not in ra:
                    return False
        return True

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if preimage[w] >= 0 or pb[w] != pa[v]:
                continue
            image[v] = w
            preimage[w] = v
            if consistent(v) and extend(v + 1):
                return True
            image[v] = -1
            preimage[w] = -1
        return False

    return extend(0)


def backtrack_weakly_isomorphic(a: Structure, b: Structure, cap: int = 10) -> bool:
    """Search for an arity-preserving symbol bijection plus a domain bijection
    carrying each relation of a exactly onto its partner in b."""
    if a.domain != b.domain:
        return False
    if a.domain > cap:
        raise BudgetError(f"weak isomorphism capped at {cap} vertices (got {a.domain})")
    by_arity_a: dict[int, list[str]] = {}
    by_arity_b: dict[int, list[str]] = {}
    for name, arity in a.signature.symbols:
        by_arity_a.setdefault(arity, []).append(name)
    for name, arity in b.signature.symbols:
        by_arity_b.setdefault(arity, []).append(name)
    if {k: len(v) for k, v in by_arity_a.items()} != {k: len(v) for k, v in by_arity_b.items()}:
        return False

    arities = sorted(by_arity_a)
    choices_per_arity = []
    for arity in arities:
        names_a = by_arity_a[arity]
        sizes_a = [len(a.rel(n)) for n in names_a]
        perms = []
        for perm in permutations(by_arity_b[arity]):
            if [len(b.rel(n)) for n in perm] == sizes_a:
                perms.append(perm)
        if not perms:
            return False
        choices_per_arity.append((names_a, perms))

    def assemble(level: int, symbol_map: dict[str, str]) -> bool:
        if level == len(choices_per_arity):
            return _find_vertex_bijection(a, b, symbol_map)
        names_a, perms = choices_per_arity[level]
        for perm in perms:
            trial = dict(symbol_map)
            trial.update(zip(names_a, perm))
            if assemble(level + 1, trial):
                return True
        return False

    return assemble(0, {})


def backtrack_isomorphic(a: Structure, b: Structure, cap: int = 64) -> bool:
    """Isomorphism under the identity symbol map (signatures must agree)."""
    if a.signature != b.signature or a.domain != b.domain:
        return False
    if a.domain > cap:
        raise BudgetError(f"isomorphism search capped at {cap} vertices (got {a.domain})")
    if a.total_tuples() != b.total_tuples():
        return False
    return _find_vertex_bijection(a, b, {n: n for n in a.signature.names})
