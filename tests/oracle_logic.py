"""Reference implementations kept as oracles for relpoly.logic: the formula
interpreter the compiled evaluator is checked against, the hom-basis
decomposition by explicit diagram and super-pattern enumeration that the
bitmask decomposition is checked against, and a disjunctive normal form,
whose output must have the same hom basis as its input."""

from itertools import product

from relpoly import budgets
from relpoly.canon import canonical_form
from relpoly.counting import bell, mobius, quotient, set_partitions, super_patterns
from relpoly.errors import BindingError, BudgetError
from relpoly.logic import (
    FALSE,
    TRUE,
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
    conj,
    disj,
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
    if bell(p) > limit:
        raise BudgetError(
            f"Bell({p}) partitions of {p} free variables exceed the basis budget of {limit}"
        )
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
        for bigger, added in super_patterns(pattern):
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


def _desugar(node: Node) -> Node:
    if isinstance(node, Implies):
        return disj(Not(_desugar(node.left)), _desugar(node.right))
    if isinstance(node, Iff):
        left, right = _desugar(node.left), _desugar(node.right)
        return disj(conj(left, right), conj(Not(left), Not(right)))
    if isinstance(node, Not):
        return Not(_desugar(node.body))
    if isinstance(node, And):
        return conj(*(_desugar(p) for p in node.parts))
    if isinstance(node, Or):
        return disj(*(_desugar(p) for p in node.parts))
    return node


def _nnf(node: Node, negate: bool) -> Node:
    if isinstance(node, Not):
        return _nnf(node.body, not negate)
    if isinstance(node, And):
        parts = tuple(_nnf(p, negate) for p in node.parts)
        return disj(*parts) if negate else conj(*parts)
    if isinstance(node, Or):
        parts = tuple(_nnf(p, negate) for p in node.parts)
        return conj(*parts) if negate else disj(*parts)
    if isinstance(node, TrueNode):
        return FALSE if negate else TRUE
    if isinstance(node, FalseNode):
        return TRUE if negate else FALSE
    return Not(node) if negate else node


def _dnf_terms(node: Node, budget: int) -> list[list[Node]]:
    if isinstance(node, Or):
        out: list[list[Node]] = []
        for part in node.parts:
            out.extend(_dnf_terms(part, budget))
            if sum(len(t) + 1 for t in out) > budget:
                raise BudgetError("DNF expansion exceeds the node budget")
        return out
    if isinstance(node, And):
        terms: list[list[Node]] = [[]]
        for part in node.parts:
            sub = _dnf_terms(part, budget)
            terms = [t + u for t in terms for u in sub]
            if sum(len(t) + 1 for t in terms) > budget:
                raise BudgetError("DNF expansion exceeds the node budget")
        return terms
    if isinstance(node, TrueNode):
        return [[]]
    if isinstance(node, FalseNode):
        return []
    return [[node]]


def to_dnf(phi: Formula) -> Formula:
    """Equivalent disjunction of conjunctions of possibly negated atoms."""
    if not phi.is_quantifier_free:
        raise BindingError("DNF is defined for quantifier-free formulas only")
    flat = _nnf(_desugar(phi.root), False)
    terms = _dnf_terms(flat, budgets.dnf_budget())
    root = disj(*(conj(*term) for term in terms))
    return Formula(root, phi.signature, phi.free_vars)
