"""Seeded random generators and small-graph builders shared by the tests."""

import random
from itertools import combinations

from relpoly import (
    GRAPH_SIG,
    InterpretationScheme,
    Signature,
    SignatureError,
    Structure,
    build_formula,
    canonical_form,
    make_structure,
)
from relpoly.logic import FALSE, TRUE, Atom, Eq, Iff, Not, conj, disj


def graph(n, edges) -> Structure:
    sym = []
    for u, v in edges:
        sym.append((u, v))
        sym.append((v, u))
    return make_structure(GRAPH_SIG, n, {"E": sym})


K1 = graph(1, [])
K2 = graph(2, [(0, 1)])
K3 = graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = graph(3, [(0, 1), (1, 2)])
C4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def nonisomorphic_graphs(n: int) -> list[Structure]:
    """All simple graphs on n vertices up to isomorphism."""
    pairs = list(combinations(range(n), 2))
    seen: dict[bytes, Structure] = {}
    for mask in range(1 << len(pairs)):
        g = graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        seen.setdefault(canonical_form(g), g)
    return list(seen.values())


def rename_structure_symbols(s: Structure, mapping: dict[str, str]) -> Structure:
    symbols = tuple((mapping.get(name, name), arity) for name, arity in s.signature.symbols)
    relations = {mapping.get(name, name): s.rel(name) for name in s.signature.names}
    return make_structure(Signature(symbols), s.domain, relations)


def permute(s: Structure, perm) -> Structure:
    """Relabel vertices: vertex v becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(s.domain)):
        raise SignatureError("perm is not a permutation of the domain")
    relations = {
        name: [tuple(perm[v] for v in t) for t in s.rel(name)]
        for name in s.signature.names
    }
    return make_structure(s.signature, s.domain, relations)


def random_graph(rng: random.Random, n: int, p: float = 0.45) -> Structure:
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def random_structure(rng: random.Random, signature: Signature, n: int,
                     p: float = 0.35) -> Structure:
    from itertools import product

    relations = {}
    for name, arity in signature.symbols:
        relations[name] = [
            t for t in product(range(n), repeat=arity) if rng.random() < p
        ]
    return make_structure(signature, n, relations)


def random_qf_node(rng: random.Random, signature: Signature, variables,
                   depth: int = 3, max_atoms: int = 4):
    """Random quantifier-free formula tree using at most max_atoms atoms."""
    budget = [max_atoms]

    def leaf():
        budget[0] -= 1
        choice = rng.random()
        if choice < 0.55 and signature.symbols:
            name, arity = rng.choice(signature.symbols)
            return Atom(name, tuple(rng.choice(variables) for _ in range(arity)))
        if choice < 0.85:
            return Eq(rng.choice(variables), rng.choice(variables))
        return TRUE if rng.random() < 0.5 else FALSE

    def build(d):
        if d == 0 or budget[0] <= 1 or rng.random() < 0.3:
            return leaf()
        r = rng.random()
        if r < 0.25:
            return Not(build(d - 1))
        if r < 0.55:
            return conj(build(d - 1), build(d - 1))
        if r < 0.85:
            return disj(build(d - 1), build(d - 1))
        return Iff(build(d - 1), build(d - 1))

    return build(depth)


def random_qf_formula(rng: random.Random, signature: Signature, num_vars: int,
                      depth: int = 3, max_atoms: int = 4):
    variables = [f"x{i + 1}" for i in range(num_vars)]
    return build_formula(
        random_qf_node(rng, signature, variables, depth, max_atoms), signature, variables
    )


def random_scheme(rng: random.Random, source: Signature, target: Signature,
                  p: int) -> InterpretationScheme:
    rho0 = random_qf_formula(rng, source, p, depth=2, max_atoms=3)
    rhos = tuple(
        random_qf_formula(rng, source, p * arity, depth=2, max_atoms=3)
        for _, arity in target.symbols
    )
    return InterpretationScheme("random", p, source, target, rho0, rhos)
