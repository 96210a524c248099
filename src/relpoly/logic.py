"""First-order formulas over relational signatures.

AST with equality and relation atoms, a recursive-descent text parser, a
compiled evaluator with a quantifier-free fast path, row kernels that
evaluate a formula on a list of tuples in one call, and the reduction of
quantifier-free satisfaction counting to an integer combination of
homomorphism counts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import budgets
from .canon import canonical_form
from .counting import bell, hom_count, mobius, quotient, set_partitions, shared_indexes
from .errors import BindingError, BudgetError, FormulaParseError
from .structures import Signature, Structure, make_structure


# ---------------------------------------------------------------------------
# AST

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class TrueNode(Node):
    pass


@dataclass(frozen=True)
class FalseNode(Node):
    pass


@dataclass(frozen=True)
class Eq(Node):
    left: str
    right: str


@dataclass(frozen=True)
class Atom(Node):
    symbol: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not(Node):
    body: Node


@dataclass(frozen=True)
class And(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True)
class Or(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True)
class Implies(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Iff(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Exists(Node):
    var: str
    body: Node


@dataclass(frozen=True)
class Forall(Node):
    var: str
    body: Node


TRUE = TrueNode()
FALSE = FalseNode()


def atom(symbol: str, *args: str) -> Atom:
    return Atom(symbol, tuple(args))


def eq(left: str, right: str) -> Eq:
    return Eq(left, right)


def neg(body: Node) -> Not:
    return Not(body)


def conj(*parts: Node) -> Node:
    flat: list[Node] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Node) -> Node:
    flat: list[Node] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def exists(var: str, body: Node) -> Exists:
    return Exists(var, body)


def forall(var: str, body: Node) -> Forall:
    return Forall(var, body)


def _children(node: Node):
    if isinstance(node, Not):
        return (node.body,)
    if isinstance(node, (And, Or)):
        return node.parts
    if isinstance(node, (Implies, Iff)):
        return (node.left, node.right)
    if isinstance(node, (Exists, Forall)):
        return (node.body,)
    return ()


def _rebuild(node: Node, f) -> Node:
    """The node with f applied to each direct subformula."""
    if isinstance(node, Not):
        return Not(f(node.body))
    if isinstance(node, (And, Or)):
        return type(node)(tuple(f(p) for p in node.parts))
    if isinstance(node, (Implies, Iff)):
        return type(node)(f(node.left), f(node.right))
    if isinstance(node, (Exists, Forall)):
        return type(node)(node.var, f(node.body))
    return node


def free_variables(node: Node, bound: frozenset = frozenset()) -> list[str]:
    """Free variables in first-occurrence order."""
    out: list[str] = []
    seen: set[str] = set()

    def walk(n: Node, bound: frozenset):
        if isinstance(n, Eq):
            for v in (n.left, n.right):
                if v not in bound and v not in seen:
                    seen.add(v)
                    out.append(v)
        elif isinstance(n, Atom):
            for v in n.args:
                if v not in bound and v not in seen:
                    seen.add(v)
                    out.append(v)
        elif isinstance(n, (Exists, Forall)):
            walk(n.body, bound | {n.var})
        else:
            for child in _children(n):
                walk(child, bound)

    walk(node, bound)
    return out


def is_quantifier_free(node: Node) -> bool:
    if isinstance(node, (Exists, Forall)):
        return False
    return all(is_quantifier_free(c) for c in _children(node))


def _atoms(node: Node):
    if isinstance(node, Atom):
        yield node
    for child in _children(node):
        yield from _atoms(child)


def atom_symbols(node: Node) -> set[str]:
    return {a.symbol for a in _atoms(node)}


def rename_symbols(node: Node, mapping: dict[str, str]) -> Node:
    if isinstance(node, Atom):
        return Atom(mapping.get(node.symbol, node.symbol), node.args)
    return _rebuild(node, lambda child: rename_symbols(child, mapping))


def substitute(node: Node, mapping: dict[str, str], fresh_counter: list[int] | None = None) -> Node:
    """Capture-avoiding substitution of free variables by variables."""
    if fresh_counter is None:
        fresh_counter = [0]
    if isinstance(node, Eq):
        return Eq(mapping.get(node.left, node.left), mapping.get(node.right, node.right))
    if isinstance(node, Atom):
        return Atom(node.symbol, tuple(mapping.get(a, a) for a in node.args))
    if isinstance(node, (Exists, Forall)):
        var = node.var
        inner = dict(mapping)
        if var in inner:
            del inner[var]
        if var in inner.values():
            fresh = f"{var}_q{fresh_counter[0]}"
            fresh_counter[0] += 1
            inner[var] = fresh
            var = fresh
        body = substitute(node.body, inner, fresh_counter)
        return Exists(var, body) if isinstance(node, Exists) else Forall(var, body)
    return _rebuild(node, lambda child: substitute(child, mapping, fresh_counter))


# ---------------------------------------------------------------------------
# Bound formulas

@dataclass(frozen=True)
class Formula:
    """AST bound against a signature with an explicit free-variable order."""

    root: Node
    signature: Signature
    free_vars: tuple[str, ...]

    @property
    def is_quantifier_free(self) -> bool:
        return is_quantifier_free(self.root)


_BASIC_ALIAS = re.compile(r"^U([ET])(\d+)$")


def _resolve_symbol(signature: Signature, name: str) -> str | None:
    if signature.has(name):
        return name
    m = _BASIC_ALIAS.match(name)
    if m:
        flipped = f"U{m.group(2)}{m.group(1)}"
        if signature.has(flipped):
            return flipped
    return None


def _bind(node: Node, signature: Signature) -> Node:
    """Resolve atom symbols against the signature, checking arities."""
    if isinstance(node, Atom):
        resolved = _resolve_symbol(signature, node.symbol)
        if resolved is None:
            raise BindingError(f"unknown relation symbol {node.symbol!r}")
        arity = signature.arity(resolved)
        if arity != len(node.args):
            raise BindingError(
                f"symbol {resolved!r} has arity {arity}, got {len(node.args)} arguments"
            )
        return Atom(resolved, node.args)
    return _rebuild(node, lambda child: _bind(child, signature))


def build_formula(root: Node, signature: Signature,
                  declared_vars=None) -> Formula:
    root = _bind(root, signature)
    occurring = free_variables(root)
    if declared_vars is None:
        free = tuple(occurring)
    else:
        free = tuple(declared_vars)
        if len(set(free)) != len(free):
            raise BindingError("declared variables contain duplicates")
        extra = [v for v in occurring if v not in free]
        if extra:
            raise BindingError(f"undeclared variables: {extra}")
    return Formula(root, signature, free)


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(
    r"\s*(?:(?P<iff><->)|(?P<imp>->)|(?P<or>\|)|(?P<and>&)|(?P<not>!)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)|(?P<eq>=)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*))"
)

_KEYWORDS = {"true", "false", "exists", "forall"}

# Nesting deeper than this would overflow the recursive parser, the recursive
# passes over the AST, or Python's own parser on the compiled evaluator.
MAX_NESTING = 100


class _Tokens:
    """Token stream of one parser: (kind, text, 1-based offset) triples cut
    by the named groups of `pattern`, plus the nesting counter that bounds
    recursion.  `language` names the parsed language in error messages."""

    def __init__(self, text: str, pattern: re.Pattern, language: str):
        self.text = text
        self.language = language
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = pattern.match(text, pos)
            if m is None or m.end() == m.start():
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                offset = len(text) - len(stripped) + 1
                # formula messages name no language: formulas are the default
                where = "" if language == "formula" else f" in {language}"
                raise FormulaParseError(f"unexpected character {stripped[0]!r}{where}", offset)
            kind = m.lastgroup
            value = m.group(kind)
            self.tokens.append((kind, value, m.start(kind) + 1))
            pos = m.end()
        self.pos = 0
        self.depth = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise FormulaParseError(f"expected {what}", tok[2])
        return tok

    def nest(self, offset: int):
        """Enter one nesting level; the caller leaves it with `depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaParseError(
                f"{self.language} nested deeper than {MAX_NESTING} levels", offset)


def _parse_formula_node(tk: _Tokens) -> Node:
    return _parse_iff(tk)


def _parse_iff(tk: _Tokens) -> Node:
    # a <-> b <-> c nests to the left, one level per operator
    entered = tk.depth
    node = _parse_imp(tk)
    while tk.peek()[0] == "iff":
        tk.nest(tk.next()[2])
        node = Iff(node, _parse_imp(tk))
    tk.depth = entered
    return node


def _parse_imp(tk: _Tokens) -> Node:
    left = _parse_or(tk)
    if tk.peek()[0] == "imp":
        tk.nest(tk.next()[2])
        node = Implies(left, _parse_imp(tk))
        tk.depth -= 1
        return node
    return left


def _parse_or(tk: _Tokens) -> Node:
    parts = [_parse_and(tk)]
    while tk.peek()[0] == "or":
        tk.next()
        parts.append(_parse_and(tk))
    return disj(*parts) if len(parts) > 1 else parts[0]


def _parse_and(tk: _Tokens) -> Node:
    parts = [_parse_unary(tk)]
    while tk.peek()[0] == "and":
        tk.next()
        parts.append(_parse_unary(tk))
    return conj(*parts) if len(parts) > 1 else parts[0]


def _parse_unary(tk: _Tokens) -> Node:
    kind, value, offset = tk.peek()
    if kind not in ("not", "lpar"):
        return _parse_atom(tk)
    tk.next()
    tk.nest(offset)
    if kind == "not":
        node = Not(_parse_unary(tk))
    else:
        node = _parse_formula_node(tk)
        tk.expect("rpar", "')'")
    tk.depth -= 1
    return node


def _parse_atom(tk: _Tokens) -> Node:
    kind, value, offset = tk.next()
    if kind != "ident":
        raise FormulaParseError("expected an atom", offset)
    if value == "true":
        return TRUE
    if value == "false":
        return FALSE
    if value in ("exists", "forall"):
        var = tk.expect("ident", "a variable")[1]
        if var in _KEYWORDS:
            raise FormulaParseError("expected a variable", offset)
        tk.nest(tk.expect("lpar", "'('")[2])
        body = _parse_formula_node(tk)
        tk.expect("rpar", "')'")
        tk.depth -= 1
        return Exists(var, body) if value == "exists" else Forall(var, body)
    if tk.peek()[0] == "lpar":
        tk.next()
        args = [tk.expect("ident", "a variable")[1]]
        while tk.peek()[0] == "comma":
            tk.next()
            args.append(tk.expect("ident", "a variable")[1])
        tk.expect("rpar", "')'")
        return Atom(value, tuple(args))
    if tk.peek()[0] == "eq":
        tk.next()
        right = tk.expect("ident", "a variable")[1]
        return Eq(value, right)
    raise FormulaParseError("expected '(' or '=' after identifier", tk.peek()[2])


def parse_formula(text: str, signature: Signature, declared_vars=None) -> Formula:
    """Parse formula text and bind it against the signature."""
    tk = _Tokens(text, _TOKEN, "formula")
    root = _parse_formula_node(tk)
    trailing = tk.peek()
    if trailing[0] != "eof":
        raise FormulaParseError("unexpected trailing input", trailing[2])
    return build_formula(root, signature, declared_vars)


# ---------------------------------------------------------------------------
# Printing (canonical text; reparsing yields the same AST)

def _node_to_text(node: Node) -> tuple[str, int]:
    # precedence: atom 5, not 4, and 3, or 2, imp 1, iff 0
    if isinstance(node, TrueNode):
        return "true", 5
    if isinstance(node, FalseNode):
        return "false", 5
    if isinstance(node, Eq):
        return f"{node.left} = {node.right}", 5
    if isinstance(node, Atom):
        return f"{node.symbol}({','.join(node.args)})", 5
    if isinstance(node, Not):
        text, prec = _node_to_text(node.body)
        if prec < 4:
            text = f"({text})"
        return f"!{text}", 4
    if isinstance(node, And):
        parts = []
        for p in node.parts:
            text, prec = _node_to_text(p)
            parts.append(f"({text})" if prec < 3 else text)
        return " & ".join(parts), 3
    if isinstance(node, Or):
        parts = []
        for p in node.parts:
            text, prec = _node_to_text(p)
            parts.append(f"({text})" if prec < 2 else text)
        return " | ".join(parts), 2
    if isinstance(node, Implies):
        lt, lp = _node_to_text(node.left)
        rt, rp = _node_to_text(node.right)
        if lp <= 1:
            lt = f"({lt})"
        if rp < 1:
            rt = f"({rt})"
        return f"{lt} -> {rt}", 1
    if isinstance(node, Iff):
        lt, lp = _node_to_text(node.left)
        rt, rp = _node_to_text(node.right)
        if lp < 0:
            lt = f"({lt})"
        if rp <= 0:
            rt = f"({rt})"
        return f"{lt} <-> {rt}", 0
    if isinstance(node, (Exists, Forall)):
        kw = "exists" if isinstance(node, Exists) else "forall"
        body, _ = _node_to_text(node.body)
        return f"{kw} {node.var} ({body})", 5
    raise TypeError(f"unknown node {node!r}")


def formula_to_text(phi: Formula | Node) -> str:
    node = phi.root if isinstance(phi, Formula) else phi
    return _node_to_text(node)[0]


# ---------------------------------------------------------------------------
# Evaluation

def _compile_node(node: Node, env: dict[str, str], sig_index: dict[str, int],
                  depth: int = 0) -> str:
    # Every compound node opens exactly one parenthesis (an atom two), so the
    # nesting limit keeps the generated expression within Python's parser.
    if depth > MAX_NESTING:
        raise FormulaParseError(f"formula nested deeper than {MAX_NESTING} levels", 1)

    def sub(child: Node, inner_env: dict[str, str] = env) -> str:
        return _compile_node(child, inner_env, sig_index, depth + 1)

    if isinstance(node, TrueNode):
        return "True"
    if isinstance(node, FalseNode):
        return "False"
    if isinstance(node, Eq):
        return f"({env[node.left]} == {env[node.right]})"
    if isinstance(node, Atom):
        args = ",".join(env[a] for a in node.args)
        return f"(({args},) in r{sig_index[node.symbol]})"
    if isinstance(node, Not):
        return f"(not {sub(node.body)})"
    if isinstance(node, And):
        return "(" + " and ".join(sub(p) for p in node.parts) + ")"
    if isinstance(node, Or):
        return "(" + " or ".join(sub(p) for p in node.parts) + ")"
    if isinstance(node, Implies):
        return f"(not {sub(node.left)} or {sub(node.right)})"
    if isinstance(node, Iff):
        return f"({sub(node.left)} == {sub(node.right)})"
    if isinstance(node, (Exists, Forall)):
        local = f"q{len(env)}"
        inner_env = dict(env)
        inner_env[node.var] = local
        comb = "any" if isinstance(node, Exists) else "all"
        return f"{comb}({sub(node.body, inner_env)} for {local} in range(n))"
    raise TypeError(f"unknown node {node!r}")


def _unbound_variables(phi: Formula) -> list[str]:
    return [v for v in free_variables(phi.root) if v not in phi.free_vars]


def _expression(phi: Formula, env: dict[str, str]) -> tuple[str, str]:
    """phi's compiled expression with its free variables read as named by
    env, and the parameter list r0, r1, ... of the signature's relations."""
    missing = _unbound_variables(phi)
    if missing:
        raise BindingError(f"formula uses undeclared variables: {missing}")
    sig_index = {name: i for i, (name, _) in enumerate(phi.signature.symbols)}
    expr = _compile_node(phi.root, env, sig_index)
    return expr, "".join(f", r{i}" for i in range(len(phi.signature.symbols)))


@lru_cache(maxsize=4096)
def _compiled(phi: Formula):
    expr, params = _expression(phi, {v: f"a[{i}]" for i, v in enumerate(phi.free_vars)})
    return eval(f"lambda a, n{params}: {expr}")  # noqa: S307 - generated from our own AST


@lru_cache(maxsize=4096)
def _compiled_rows(phi: Formula, split: int):
    """The row kernel of phi: one list comprehension that reads phi's first
    `split` free variables from a head tuple h and the rest from each row,
    and returns the indices of the rows where phi holds."""
    width = len(phi.free_vars) - split
    env = {v: f"h{i}" if i < split else f"b{i - split}" for i, v in enumerate(phi.free_vars)}
    expr, params = _expression(phi, env)
    head = "".join(f"h{i}, " for i in range(split))
    row = "".join(f"b{i}, " for i in range(width))
    source = (f"def kernel(h, rows, n{params}):\n"
              + (f"    {head}= h\n" if split else "")
              + f"    return [j for j, ({row}) in enumerate(rows) if {expr}]\n")
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - generated from our own AST
    return namespace["kernel"]


def _structure_rels(phi: Formula, s: Structure) -> tuple[frozenset, ...]:
    rels = []
    for name, arity in phi.signature.symbols:
        if s.signature.has(name) and s.signature.arity(name) == arity:
            rels.append(frozenset(s.rel(name)))
        else:
            rels.append(frozenset())
    return tuple(rels)


def evaluator(phi: Formula, s: Structure):
    """Compiled satisfaction test: takes an assignment tuple aligned with
    phi.free_vars, returns a bool."""
    fn = _compiled(phi)
    rels = _structure_rels(phi, s)
    n = s.domain
    return lambda a: fn(a, n, *rels)


def row_kernel(phi: Formula, s: Structure, split: int):
    """Batched satisfaction test: takes a head tuple, the values of phi's
    first `split` free variables, and a list of rows, each the values of
    the rest; returns the indices of the rows where phi holds, in order."""
    fn = _compiled_rows(phi, split)
    rels = _structure_rels(phi, s)
    n = s.domain
    return lambda h, rows: fn(h, rows, n, *rels)


def quantifier_depth(node: Node) -> int:
    """Deepest nesting of quantifiers in the formula tree."""
    deepest = 0
    stack = [(node, 0)]
    while stack:
        n, depth = stack.pop()
        if isinstance(n, (Exists, Forall)):
            depth += 1
            deepest = max(deepest, depth)
        stack.extend((child, depth) for child in _children(n))
    return deepest


def _charge_assignments(phi: Formula, s: Structure, p: int) -> None:
    """Refuse an evaluation whose |A|^(p+d) assignments, with p free and d
    nested quantified variables, exceed the assignment budget."""
    exponent = p + quantifier_depth(phi.root)
    total = s.domain ** exponent
    limit = budgets.assignment_budget()
    if total > limit:
        raise BudgetError(
            f"{total} assignments (|A|^{exponent}) exceed the budget of {limit}"
        )


def eval_formula(phi: Formula, s: Structure, assignment: dict[str, int]) -> bool:
    """Standard satisfaction; quantifiers range over the full domain."""
    try:
        a = tuple(assignment[v] for v in phi.free_vars)
    except KeyError as exc:
        raise BindingError(f"assignment is missing variable {exc.args[0]!r}") from exc
    _charge_assignments(phi, s, 0)
    return evaluator(phi, s)(a)


def stream_satisfying(phi: Formula, s: Structure):
    """Stream the satisfying assignments in lexicographic order, with no
    budget check: one row-kernel call per value of all free variables but
    the last, over the |A| values of the last, so memory stays O(|A|)."""
    split = max(len(phi.free_vars) - 1, 0)
    rows = [(v,) for v in range(s.domain)] if phi.free_vars else [()]
    run = row_kernel(phi, s, split)
    for head in product(range(s.domain), repeat=split):
        for j in run(head, rows):
            yield head + rows[j]


def satisfying_tuples(phi: Formula, s: Structure):
    """Stream the satisfying assignments in lexicographic order."""
    _charge_assignments(phi, s, len(phi.free_vars))
    yield from stream_satisfying(phi, s)


def count_satisfying(phi: Formula, s: Structure) -> int:
    """|phi(A)| by brute-force enumeration of |A|^p assignments."""
    return sum(1 for _ in satisfying_tuples(phi, s))


# ---------------------------------------------------------------------------
# Quantifier-free counts as homomorphism combinations

@dataclass(frozen=True)
class HomBasis:
    """Integer combination sum_i c_i * hom(F_i, -) of pattern structures."""

    terms: tuple[tuple[int, Structure], ...]

    def value(self, target: Structure) -> int:
        """The combination at `target`; its terms share the target's
        candidate indexes for the length of the call."""
        with shared_indexes(target):
            return sum(c * hom_count(f, target).value for c, f in self.terms)


def _subset_moebius(a: list[int]) -> None:
    """In place, a[S] becomes the sum over T subset of S of (-1)^|S - T| a[T]."""
    bit = 1
    while bit < len(a):
        for mask in range(len(a)):
            if mask & bit:
                a[mask] -= a[mask ^ bit]
        bit <<= 1


def qf_to_hom_basis(phi: Formula) -> HomBasis:
    """Decompose a quantifier-free satisfaction count into hom counts.

    Satisfying assignments are split by the partition their equalities induce,
    every complete diagram on the quotient variables contributes an induced
    count, induced counts convert to injective ones by inclusion-exclusion
    over super-patterns, and injective ones to homomorphism counts by Moebius
    inversion over quotient partitions; like terms merge by canonical key.
    A diagram on k vertices is a bitmask over its N_k cells (symbol, tuple),
    so the inclusion-exclusion is one subset Moebius transform of N_k * 2^N_k
    integer steps, and only diagrams with a nonzero injective coefficient are
    built as structures.  A BudgetError refuses Bell(p) > RELPOLY_BASIS_BUDGET
    partitions of the p free variables before the walk, and 2^N_k above it
    for some k.  The result is cached per formula and budget.
    """
    if not phi.is_quantifier_free:
        raise BindingError("hom-basis decomposition needs a quantifier-free formula")
    if not phi.free_vars:
        raise BindingError("hom-basis decomposition needs at least one free variable")
    return _decompose(phi, budgets.basis_budget())


@lru_cache(maxsize=256)
def _decompose(phi: Formula, limit: int) -> HomBasis:
    p = len(phi.free_vars)
    if bell(p, cap=limit) > limit:
        raise BudgetError(
            f"Bell({p}) partitions of {p} free variables exceed the basis budget of {limit}"
        )
    occurring = atom_symbols(phi.root)
    base_sig = phi.signature.restrict([n for n in phi.signature.names if n in occurring])
    base = Formula(phi.root, base_sig, phi.free_vars)
    test = _compiled(base)
    position = {v: i for i, v in enumerate(phi.free_vars)}
    atoms = [(base_sig.index(a.symbol), [position[v] for v in a.args])
             for a in _atoms(phi.root)]

    # A diagram on k vertices is a bitmask over its cells (symbol, tuple);
    # coeffs[k][mask] counts the partitions with k blocks whose assignment
    # satisfies phi in that diagram.
    cells: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    coeffs: dict[int, list[int]] = {}
    for theta in set_partitions(p):
        k = len(theta)
        if k not in cells:
            cells[k] = [(i, t) for i, (_, arity) in enumerate(base_sig.symbols)
                        for t in product(range(k), repeat=arity)]
            if cells[k] and 1 << len(cells[k]) > limit:
                raise BudgetError("diagram enumeration exceeds the basis budget")
            coeffs[k] = [0] * (1 << len(cells[k]))
        block_of = [0] * p
        for b, block in enumerate(theta):
            for v in block:
                block_of[v] = b
        # phi reads only the cells of its atoms: decide it on each choice of
        # those cells, then credit every diagram that agrees with a
        # satisfying choice.
        bit = {cell: j for j, cell in enumerate(cells[k])}
        read = sorted({bit[i, tuple(block_of[v] for v in args)] for i, args in atoms})
        satisfying = set()
        for choice in range(1 << len(read)):
            on = [j for n, j in enumerate(read) if choice >> n & 1]
            rels = [set() for _ in base_sig.symbols]
            for j in on:
                i, t = cells[k][j]
                rels[i].add(t)
            if test(block_of, k, *rels):
                satisfying.add(sum(1 << j for j in on))
        seen = sum(1 << j for j in read)
        diagram_coeffs = coeffs[k]
        for mask in range(len(diagram_coeffs)):
            if mask & seen in satisfying:
                diagram_coeffs[mask] += 1

    # Induced counts become injective ones by inclusion-exclusion over the
    # super-patterns of each diagram, a subset Moebius transform; only the
    # diagrams left with a nonzero count are built as structures.
    merged: dict[bytes, list] = {}
    for k, diagram_coeffs in coeffs.items():
        _subset_moebius(diagram_coeffs)
        for mask, coeff in enumerate(diagram_coeffs):
            if not coeff:
                continue
            relations: dict[str, list] = {}
            for j, (i, t) in enumerate(cells[k]):
                if mask >> j & 1:
                    relations.setdefault(base_sig.names[i], []).append(t)
            pattern = make_structure(base_sig, k, relations)
            for theta in set_partitions(k):
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


# ---------------------------------------------------------------------------
# Counting route

def _stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k blocks."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) \
        // math.factorial(k)


def basis_work(phi: Formula, cap: int | None = None) -> int:
    """Bound W(phi) on the terms qf_to_hom_basis enumerates for phi.

    With p free variables and N_k = sum of k^arity over the symbols occurring
    in phi, W = sum_{k=1..p} (S(p,k) + 1 + Bell(k)) * 3^N_k: S(p,k) passes
    over 2^N_k diagrams, the Moebius transform and Bell(k) quotients of each
    of at most 2^N_k diagrams on k vertices.  The 3^N_k factor, the number
    of (diagram, super-pattern) pairs, is a conservative bound: the
    transform takes N_k * 2^N_k steps.  The sum stops once it passes `cap`,
    so an oversized formula is refused without the whole bound.
    """
    p = len(phi.free_vars)
    arities = [phi.signature.arity(name) for name in atom_symbols(phi.root)]
    total = 0
    for k in range(1, p + 1):
        total += (_stirling2(p, k) + 1 + bell(k)) * 3 ** sum(k ** a for a in arities)
        if cap is not None and total > cap:
            break
    return total


def satisfying_counter(phi: Formula):
    """The way to count |phi(A)| for many structures A: a function from a
    structure to its count.

    A quantifier-free phi with free variables whose basis_work fits the
    basis budget is counted through its (cached) hom basis, a few hom counts
    per structure; anything else by count_satisfying under the assignment
    budget.
    """
    if phi.free_vars and phi.is_quantifier_free:
        limit = budgets.basis_budget()
        if basis_work(phi, cap=limit) <= limit:
            return qf_to_hom_basis(phi).value
    return lambda s: count_satisfying(phi, s)
