"""Reference backtracker for hom/inj/ind counts, kept as the oracle for the
indexed candidate search in relpoly.counting.

`_count_maps` below is the kernel relpoly used before the indexed search: it
tries every target vertex at each depth and only then tests the tuples that
close there.  The wrappers mirror hom_count, inj_count and ind_count,
including the factorization over components, so that their node counts are
comparable with the kernel's.
"""

from relpoly.counting import _search_order, gaifman_components
from relpoly.errors import SignatureError
from relpoly.structures import Signature, Structure, lift


def _aligned(pattern: Structure, target: Structure) -> tuple[Structure, Structure]:
    """Both structures lifted to the union of their signatures."""
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


def _count_maps(pattern: Structure, target: Structure, vertices: list[int],
                injective: bool, induced_check: bool) -> tuple[int, int]:
    """Count relation-preserving maps of `vertices` into the target."""
    order = _search_order(pattern, vertices)
    position = {v: i for i, v in enumerate(order)}
    # Tuples checked as soon as their last vertex (in search order) is placed.
    check_at: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    for idx, rel in enumerate(pattern.relations):
        for t in rel:
            if all(v in position for v in t):
                check_at[max(position[v] for v in t)].append((idx, t))
    target_sets = [frozenset(r) for r in target.relations]
    n = target.domain
    image: dict[int, int] = {}
    used: set[int] = set()
    nodes = 0

    def verify_induced() -> bool:
        img = set(image.values())
        inverse = {w: v for v, w in image.items()}
        for idx, rel in enumerate(target.relations):
            pattern_rel = frozenset(pattern.relations[idx])
            for t in rel:
                if all(w in img for w in t):
                    if tuple(inverse[w] for w in t) not in pattern_rel:
                        return False
        return True

    def extend(depth: int) -> int:
        nonlocal nodes
        if depth == len(order):
            if induced_check and not verify_induced():
                return 0
            return 1
        v = order[depth]
        total = 0
        for w in range(n):
            if injective and w in used:
                continue
            nodes += 1
            image[v] = w
            ok = all(
                tuple(image[u] for u in t) in target_sets[idx]
                for idx, t in check_at[depth]
            )
            if ok:
                if injective:
                    used.add(w)
                total += extend(depth + 1)
                if injective:
                    used.discard(w)
            del image[v]
        return total

    return extend(0), nodes


def oracle_hom(pattern, target) -> tuple[int, int]:
    """(hom count, nodes explored), factorized over components."""
    pattern, target = _aligned(pattern, target)
    value = 1
    nodes = 0
    for component in gaifman_components(pattern):
        sub, sub_nodes = _count_maps(pattern, target, component, False, False)
        value *= sub
        nodes += sub_nodes
        if value == 0:
            break
    return value, nodes


def oracle_inj(pattern, target) -> tuple[int, int]:
    pattern, target = _aligned(pattern, target)
    if pattern.domain > target.domain:
        return 0, 0
    return _count_maps(pattern, target, list(range(pattern.domain)), True, False)


def oracle_ind(pattern, target) -> tuple[int, int]:
    pattern, target = _aligned(pattern, target)
    if pattern.domain > target.domain:
        return 0, 0
    return _count_maps(pattern, target, list(range(pattern.domain)), True, True)


def oracle_set_partitions(n: int):
    """Partitions of range(n) from restricted-growth strings, generated
    recursively (one level per vertex) in lexicographic order."""
    if n == 0:
        yield ()
        return

    def grow(prefix, maxval):
        depth = len(prefix)
        if depth == n:
            blocks: list[list[int]] = [[] for _ in range(maxval + 1)]
            for v, b in enumerate(prefix):
                blocks[b].append(v)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(maxval + 2):
            yield from grow(prefix + [b], max(maxval, b))

    yield from grow([0], 0)
