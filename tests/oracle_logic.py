"""Reference implementations kept as oracles for relpoly.logic: the formula
interpreter the compiled evaluator is checked against, and the hom-basis
decomposition by explicit diagram and super-pattern enumeration that the
bitmask decomposition is checked against."""

from itertools import product

from relpoly.canon import canonical_form
from relpoly.counting import mobius, quotient, set_partitions, super_patterns
from relpoly.errors import BudgetError
from relpoly.logic import (
    And,
    Atom,
    Eq,
    Exists,
    FalseNode,
    Forall,
    Formula,
    HomBasis,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    TrueNode,
    atom_symbols,
    evaluator,
)
from relpoly.structures import Signature, Structure, make_structure


def _eval_node(node: Node, s: Structure, env: dict[str, int]) -> bool:
    """Reference interpreter (used to cross-check the compiled path)."""
    if isinstance(node, TrueNode):
        return True
    if isinstance(node, FalseNode):
        return False
    if isinstance(node, Eq):
        return env[node.left] == env[node.right]
    if isinstance(node, Atom):
        return tuple(env[a] for a in node.args) in set(s.rel(node.symbol))
    if isinstance(node, Not):
        return not _eval_node(node.body, s, env)
    if isinstance(node, And):
        return all(_eval_node(p, s, env) for p in node.parts)
    if isinstance(node, Or):
        return any(_eval_node(p, s, env) for p in node.parts)
    if isinstance(node, Implies):
        return (not _eval_node(node.left, s, env)) or _eval_node(node.right, s, env)
    if isinstance(node, Iff):
        return _eval_node(node.left, s, env) == _eval_node(node.right, s, env)
    if isinstance(node, Exists):
        return any(_eval_node(node.body, s, {**env, node.var: w}) for w in range(s.domain))
    if isinstance(node, Forall):
        return all(_eval_node(node.body, s, {**env, node.var: w}) for w in range(s.domain))
    raise TypeError(f"unknown node {node!r}")


def _all_diagrams(signature: Signature, k: int, budget: int):
    """Every structure on k vertices over the signature."""
    spaces = []
    total = 1
    for name, arity in signature.symbols:
        tuples = list(product(range(k), repeat=arity))
        total <<= len(tuples)
        if total > budget:
            raise BudgetError("diagram enumeration exceeds the basis budget")
        spaces.append((name, tuples))

    def rec(level: int, chosen: dict):
        if level == len(spaces):
            yield make_structure(signature, k, chosen)
            return
        name, tuples = spaces[level]
        for mask in range(1 << len(tuples)):
            chosen[name] = [t for i, t in enumerate(tuples) if mask >> i & 1]
            yield from rec(level + 1, chosen)
        del chosen[name]

    yield from rec(0, {})


def decompose(phi: Formula, limit: int) -> HomBasis:
    """The hom basis of a quantifier-free formula: induced counts from every
    satisfying diagram, injective counts by inclusion-exclusion over every
    super-pattern, hom counts by Moebius inversion over quotients."""
    p = len(phi.free_vars)
    occurring = atom_symbols(phi.root)
    base_sig = phi.signature.restrict([n for n in phi.signature.names if n in occurring])
    base = Formula(phi.root, base_sig, phi.free_vars)

    ind_coeffs: dict[Structure, int] = {}
    for theta in set_partitions(p):
        block_of: dict[int, int] = {}
        for b, block in enumerate(theta):
            for v in block:
                block_of[v] = b
        assignment = tuple(block_of[i] for i in range(p))
        k = len(theta)
        for diagram in _all_diagrams(base_sig, k, limit):
            if evaluator(base, diagram)(assignment):
                ind_coeffs[diagram] = ind_coeffs.get(diagram, 0) + 1

    inj_coeffs: dict[Structure, int] = {}
    for pattern, coeff in ind_coeffs.items():
        for bigger, added in super_patterns(pattern, budget=limit):
            sign = -1 if added % 2 else 1
            inj_coeffs[bigger] = inj_coeffs.get(bigger, 0) + coeff * sign

    merged: dict[bytes, list] = {}
    for pattern, coeff in inj_coeffs.items():
        if coeff == 0:
            continue
        for theta in set_partitions(pattern.domain):
            q = quotient(pattern, theta)
            key = canonical_form(q)
            entry = merged.setdefault(key, [0, q])
            entry[0] += coeff * mobius(theta)

    terms = [
        (coeff, pattern)
        for coeff, pattern in (tuple(v) for v in merged.values())
        if coeff != 0
    ]
    terms.sort(key=lambda item: (item[1].domain, canonical_form(item[1])))
    return HomBasis(tuple(terms))
