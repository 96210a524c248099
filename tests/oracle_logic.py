"""Reference interpreter for formulas, kept as the oracle the compiled
evaluator in relpoly.logic is checked against."""

from relpoly.logic import (
    And,
    Atom,
    Eq,
    Exists,
    FalseNode,
    Forall,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    TrueNode,
)
from relpoly.structures import Structure


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
