"""Interpretation schemes: plain, graphical, merged-marked, and quotient
variants, the formula translation that moves satisfaction counting from an
interpreted structure back to its source, and the table of builtin schemes
that sequence specs name."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from typing import Callable

from . import budgets
from .errors import BindingError, BudgetError, FormulaParseError, SignatureError, ValidationError
from .logic import (
    Formula,
    Node,
    TRUE,
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    TrueNode,
    FalseNode,
    _children,
    _rebuild,
    atom,
    build_formula,
    conj,
    disj,
    eq,
    evaluator,
    formula_to_text,
    neg,
    parse_formula,
    rename_symbols,
    row_kernel,
    stream_satisfying,
    substitute,
)
from .polynomials import IntPolynomial, constant, parse_polynomial
from .structures import (
    GRAPH_SIG,
    Signature,
    Structure,
    basic_signature,
    disjoint_union_signature,
    make_structure,
    sig,
)


def instantiate(phi: Formula, names) -> Node:
    """Substitute the formula's free variables positionally by `names`."""
    names = list(names)
    if len(names) != len(phi.free_vars):
        raise BindingError(
            f"expected {len(phi.free_vars)} arguments, got {len(names)}"
        )
    return substitute(phi.root, dict(zip(phi.free_vars, names)))


# ---------------------------------------------------------------------------
# Scheme types

@dataclass(frozen=True)
class InterpretationScheme:
    """Exponent p, a domain formula with p free variables, and one formula
    with p*r free variables per target symbol of arity r."""

    name: str
    p: int
    source: Signature
    target: Signature
    rho0: Formula
    rhos: tuple[Formula, ...]
    origin: tuple | None = None

    def __post_init__(self):
        if self.p < 1:
            raise SignatureError("exponent must be positive")
        if self.rho0.signature != self.source:
            raise BindingError("domain formula is not bound against the source signature")
        if len(self.rho0.free_vars) != self.p:
            raise BindingError(
                f"domain formula needs exactly {self.p} free variables, "
                f"got {len(self.rho0.free_vars)}"
            )
        if len(self.rhos) != len(self.target.symbols):
            raise BindingError("one relation formula per target symbol is required")
        for (name, arity), rho in zip(self.target.symbols, self.rhos):
            if rho.signature != self.source:
                raise BindingError(f"formula for {name!r} is not bound against the source")
            if len(rho.free_vars) != self.p * arity:
                raise BindingError(
                    f"formula for {name!r} needs {self.p * arity} free variables, "
                    f"got {len(rho.free_vars)}"
                )

    @property
    def quantifier_free(self) -> bool:
        return self.rho0.is_quantifier_free and all(r.is_quantifier_free for r in self.rhos)

    def rho(self, symbol: str) -> Formula:
        return self.rhos[self.target.index(symbol)]


@dataclass(frozen=True)
class GraphicalScheme:
    """Vertex formula with p free variables and a symmetric edge formula with
    2p; emits a loopless graph unless loop_policy is 'keep'."""

    name: str
    p: int
    iota: Formula
    rho: Formula
    loop_policy: str = "drop"
    origin: tuple | None = None

    def __post_init__(self):
        if self.p < 1:
            raise SignatureError("exponent must be positive")
        if len(self.iota.free_vars) != self.p:
            raise BindingError("vertex formula arity does not match the exponent")
        if len(self.rho.free_vars) != 2 * self.p:
            raise BindingError("edge formula needs 2p free variables")
        if self.iota.signature != self.rho.signature:
            raise BindingError("vertex and edge formulas disagree on the source signature")
        if self.loop_policy not in ("drop", "keep"):
            raise SignatureError(f"unknown loop policy {self.loop_policy!r}")

    @property
    def source(self) -> Signature:
        return self.iota.signature

    @property
    def target(self) -> Signature:
        return GRAPH_SIG

    @property
    def quantifier_free(self) -> bool:
        return self.iota.is_quantifier_free and self.rho.is_quantifier_free


@dataclass(frozen=True)
class ClassCertificate:
    label: str
    eta: Formula
    size: IntPolynomial


@dataclass(frozen=True)
class QuotientScheme:
    """Interpretation scheme combined with an equivalence formula on p-tuples
    and declared class-size certificates."""

    base: InterpretationScheme
    varpi: Formula
    certificates: tuple[ClassCertificate, ...]
    origin: tuple | None = None

    def __post_init__(self):
        if len(self.varpi.free_vars) != 2 * self.base.p:
            raise BindingError("equivalence formula needs 2p free variables")
        if self.varpi.signature != self.base.source:
            raise BindingError("equivalence formula is not bound against the source")
        for cert in self.certificates:
            if len(cert.eta.free_vars) != self.base.p:
                raise BindingError(f"certificate {cert.label!r} needs p free variables")

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def source(self) -> Signature:
        return self.base.source

    @property
    def target(self) -> Signature:
        return self.base.target

    @property
    def quantifier_free(self) -> bool:
        return (self.base.quantifier_free and self.varpi.is_quantifier_free
                and all(c.eta.is_quantifier_free for c in self.certificates))


Scheme = InterpretationScheme | GraphicalScheme | QuotientScheme


# ---------------------------------------------------------------------------
# Application

_EQUIV_SIG = sig(("equiv", 2))


def _domain_tuples(scheme: Scheme, domain: Formula, a: Structure) -> list[tuple[int, ...]]:
    """The p-tuples satisfying the domain formula in lexicographic order."""
    if a.signature != scheme.source:
        raise SignatureError(
            f"structure signature {a.signature.symbols} does not match the "
            f"scheme source {scheme.source.symbols}"
        )
    limit = budgets.tuple_budget()
    if a.domain ** scheme.p > limit:
        raise BudgetError(f"{a.domain}^{scheme.p} candidate tuples exceed the budget of {limit}")
    return list(stream_satisfying(domain, a))


def _incompatibility(name: str, rho: Formula, arity: int, a: Structure, tuples,
                     classes) -> ValidationError:
    """The first class tuple, in lexicographic order, on which the relation
    formula is not invariant, with its first disagreeing pick of members."""
    test = evaluator(rho, a)
    for combo in product(classes, repeat=arity):
        choices = [[tuples[i] for i in c] for c in combo]
        reps = tuple(c[0] for c in choices)
        value = test(sum(reps, ()))
        for pick in product(*choices):
            if test(sum(pick, ())) != value:
                return ValidationError(
                    f"relation {name!r} is not compatible with the equivalence",
                    witness=(reps, pick),
                )
    raise AssertionError("the relation is invariant on every class tuple")


def _relations(target: Signature, rhos, a: Structure, tuples,
               classes) -> dict[str, list[tuple[int, ...]]]:
    """The one relation loop of every scheme kind: each formula of arity r is
    evaluated on all len(tuples)**r tuples of domain tuples, counted against
    the tuple budget, and must be invariant on the classes, whose members
    are then one vertex.  Plain and graphical schemes pass singletons.

    Rows are ordered by class, and each head of r - 1 rows costs one
    row-kernel call over all rows; the last position varies fastest.  The
    head of the first members of its classes must hold on whole classes,
    and every other head of the same classes on the same rows."""
    limit = budgets.tuple_budget()
    rows = [tuples[i] for c in classes for i in c]
    owner = [k for k, c in enumerate(classes) for _ in c]
    sizes = [len(c) for c in classes]
    spans = [range(end - size, end) for size, end in zip(sizes, accumulate(sizes))]
    grouped = len(rows) > len(classes)   # else both checks below are vacuous
    relations = {}
    for (name, arity), rho in zip(target.symbols, rhos):
        if len(rows) ** arity > limit:
            raise BudgetError(
                f"{len(rows)}^{arity} candidates for {name!r} exceed the budget of {limit}"
            )
        run = row_kernel(rho, a, len(rho.free_vars) // arity * (arity - 1))
        rel = []
        for head in product(range(len(classes)), repeat=arity - 1):
            picks = product(*map(spans.__getitem__, head))
            first = run(sum(map(rows.__getitem__, next(picks)), ()), rows)
            lasts = dict.fromkeys(map(owner.__getitem__, first)) if grouped else first
            if grouped and (sum(map(sizes.__getitem__, lasts)) != len(first)
                            or any(run(sum(map(rows.__getitem__, pick), ()), rows) != first
                                   for pick in picks)):
                raise _incompatibility(name, rho, arity, a, tuples, classes)
            rel.extend(head + (last,) for last in lasts)
        relations[name] = rel
    return relations


def _singletons(tuples) -> list[tuple[int]]:
    return [(i,) for i in range(len(tuples))]


def apply_interpretation_with_map(
    scheme: InterpretationScheme, a: Structure
) -> tuple[Structure, tuple[tuple[int, ...], ...]]:
    """Interpret and also return the vertex-index -> source-tuple table."""
    tuples = _domain_tuples(scheme, scheme.rho0, a)
    relations = _relations(scheme.target, scheme.rhos, a, tuples, _singletons(tuples))
    return make_structure(scheme.target, len(tuples), relations), tuple(tuples)


def apply_interpretation(scheme: InterpretationScheme, a: Structure) -> Structure:
    """Domain = satisfying p-tuples of the domain formula in lexicographic
    order; each target relation holds where its formula holds on the
    concatenated tuples."""
    return apply_interpretation_with_map(scheme, a)[0]


def apply_graphical(scheme: GraphicalScheme, a: Structure) -> Structure:
    """Undirected graph on the vertex tuples; the edge formula is certified
    symmetric on this input, with a witness reported on violation."""
    tuples = _domain_tuples(scheme, scheme.iota, a)
    edges = _relations(scheme.target, (scheme.rho,), a, tuples, _singletons(tuples))["E"]
    present = set(edges)
    one_way = [tuple(sorted(e)) for e in edges if e[::-1] not in present]
    if one_way:
        i, j = min(one_way)
        raise ValidationError(
            f"edge formula of {scheme.name!r} is not symmetric", witness=(tuples[i], tuples[j])
        )
    if scheme.loop_policy != "keep":
        present.difference_update(zip(range(len(tuples)), range(len(tuples))))
    return make_structure(scheme.target, len(tuples), {"E": present})


def _equivalence_error(rows: list[set[int]], tuples) -> ValidationError:
    """The first failure of the related pairs `rows` to form an equivalence:
    reflexivity of tuple i, or symmetry of i with a later j, for the least i
    and j; else transitivity in the connected component of least members,
    at its least unrelated pair of members."""
    for i, row in enumerate(rows):
        if i not in row:
            return ValidationError("equivalence formula is not reflexive", witness=tuples[i])
        for j in range(i + 1, len(rows)):
            if (j in row) != (i in rows[j]):
                return ValidationError(
                    "equivalence formula is not symmetric", witness=(tuples[i], tuples[j])
                )
    placed: set[int] = set()
    for i in range(len(rows)):
        if i in placed:
            continue
        component, stack = {i}, [i]
        while stack:
            new = rows[stack.pop()] - component
            component |= new
            stack.extend(new)
        placed |= component
        members = sorted(component)
        for u, w in product(members, repeat=2):
            if w not in rows[u]:
                return ValidationError(
                    "equivalence formula is not transitive", witness=(tuples[u], tuples[w])
                )
    raise AssertionError("the related pairs form an equivalence")


@dataclass(frozen=True)
class QuotientReport:
    structure: Structure
    tuples: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]   # tuple indices per class, lex-least first
    class_sizes: tuple[int, ...]
    certificate_labels: tuple[str | None, ...]


def apply_quotient_with_report(
    qs: QuotientScheme,
    a: Structure,
    n: int | None = None,
) -> QuotientReport:
    """Interpret with one vertex per equivalence class of the tuple relation.

    The equivalence formula is evaluated on all pairs of domain tuples and
    validated exhaustively: grouping the tuples by the set they are related
    to must give each group exactly that set.  Relation formulas are
    evaluated on every tuple of domain tuples and must give the same answer
    on every member of a class, and declared class-size certificates are
    checked where they apply (a non-constant size needs the sequence index n).
    """
    base = qs.base
    tuples = _domain_tuples(base, base.rho0, a)
    pairs = _relations(_EQUIV_SIG, (qs.varpi,), a, tuples, _singletons(tuples))
    rows: list[set[int]] = [set() for _ in tuples]
    for i, j in pairs["equiv"]:
        rows[i].add(j)
    groups: dict[frozenset[int], list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(frozenset(row), []).append(i)
    if any(row != set(members) for row, members in groups.items()):
        raise _equivalence_error(rows, tuples)
    classes = list(groups.values())

    labels: list[str | None] = []
    if qs.certificates:
        eta_tests = [(cert, evaluator(cert.eta, a)) for cert in qs.certificates]
        for members in classes:
            rep = tuples[members[0]]
            label = None
            for cert, test in eta_tests:
                if test(rep):
                    label = cert.label
                    expected = None
                    if cert.size.is_constant():
                        expected = cert.size(0)
                    elif n is not None:
                        expected = cert.size(n)
                    if expected is not None and expected != len(members):
                        raise ValidationError(
                            f"class size {len(members)} contradicts certificate "
                            f"{cert.label!r} = {expected}",
                            witness=rep,
                        )
                    break
            if label is None:
                raise ValidationError(
                    "certificates do not cover a domain tuple", witness=rep
                )
            labels.append(label)
    else:
        labels = [None] * len(classes)

    relations = _relations(base.target, base.rhos, a, tuples, classes)
    structure = make_structure(base.target, len(classes), relations)
    return QuotientReport(
        structure,
        tuple(tuples),
        tuple(tuple(c) for c in classes),
        tuple(len(c) for c in classes),
        tuple(labels),
    )


def apply_quotient(qs: QuotientScheme, a: Structure, n: int | None = None) -> Structure:
    return apply_quotient_with_report(qs, a, n=n).structure


def apply_scheme(scheme: Scheme, a: Structure, n: int | None = None) -> Structure:
    if isinstance(scheme, InterpretationScheme):
        return apply_interpretation(scheme, a)
    if isinstance(scheme, GraphicalScheme):
        return apply_graphical(scheme, a)
    if isinstance(scheme, QuotientScheme):
        return apply_quotient(scheme, a, n=n)
    raise TypeError(f"not a scheme: {scheme!r}")


# ---------------------------------------------------------------------------
# Formula translation

def _fresh_tuple_names(base: str, p: int, used: set[str]) -> tuple[str, ...]:
    names = []
    for j in range(1, p + 1):
        candidate = f"{base}_{j}"
        while candidate in used:
            candidate += "'"
        used.add(candidate)
        names.append(candidate)
    return tuple(names)


def _all_variables(node: Node) -> set[str]:
    """Every variable name in the formula, free, bound or quantified."""
    if isinstance(node, Eq):
        return {node.left, node.right}
    if isinstance(node, Atom):
        return set(node.args)
    own = {node.var} if isinstance(node, (Exists, Forall)) else set()
    return own.union(*map(_all_variables, _children(node)))


def translate_formula(scheme: InterpretationScheme, phi: Formula) -> Formula:
    """Rewrite a target-signature formula into a source-signature formula with
    the same satisfaction count: each variable becomes a p-tuple of variables,
    relation atoms become their defining formulas, quantifiers are guarded by
    the domain formula, and the result constrains every free tuple to the
    interpreted domain."""
    if phi.signature != scheme.target:
        raise BindingError("formula is not bound against the scheme target")
    p = scheme.p
    used = set(_all_variables(phi.root)) | set(phi.free_vars)
    mapping: dict[str, tuple[str, ...]] = {}
    for v in phi.free_vars:
        mapping[v] = _fresh_tuple_names(v, p, used)

    def tr(node: Node, mapping: dict[str, tuple[str, ...]]) -> Node:
        if isinstance(node, (TrueNode, FalseNode)):
            return node
        if isinstance(node, Eq):
            left, right = mapping[node.left], mapping[node.right]
            return conj(*[eq(a, b) for a, b in zip(left, right)])
        if isinstance(node, Atom):
            rho = scheme.rho(node.symbol)
            flat = [name for v in node.args for name in mapping[v]]
            return instantiate(rho, flat)
        if isinstance(node, And):
            return conj(*[tr(x, mapping) for x in node.parts])
        if isinstance(node, Or):
            return disj(*[tr(x, mapping) for x in node.parts])
        if isinstance(node, (Not, Implies, Iff)):
            return _rebuild(node, lambda child: tr(child, mapping))
        if isinstance(node, (Exists, Forall)):
            names = _fresh_tuple_names(node.var, p, used)
            inner = dict(mapping)
            inner[node.var] = names
            body = tr(node.body, inner)
            guard = instantiate(scheme.rho0, names)
            if isinstance(node, Exists):
                wrapped = conj(guard, body)
                for name in reversed(names):
                    wrapped = Exists(name, wrapped)
            else:
                wrapped = Implies(guard, body)
                for name in reversed(names):
                    wrapped = Forall(name, wrapped)
            return wrapped
        raise TypeError(f"unknown node {node!r}")

    body = tr(phi.root, mapping)
    guards = [instantiate(scheme.rho0, mapping[v]) for v in phi.free_vars]
    root = conj(*guards, body)
    declared = tuple(name for v in phi.free_vars for name in mapping[v])
    return build_formula(root, scheme.source, declared)


def compose(outer: InterpretationScheme, inner: InterpretationScheme) -> InterpretationScheme:
    """Scheme computing outer(inner(A)) directly, with exponent p_out * p_in;
    realized by translating each of the outer formulas through the inner
    scheme."""
    if outer.source != inner.target:
        raise SignatureError("outer scheme's source must equal inner scheme's target")
    return InterpretationScheme(
        name=f"{outer.name}.{inner.name}",
        p=outer.p * inner.p,
        source=inner.source,
        target=outer.target,
        rho0=translate_formula(inner, outer.rho0),
        rhos=tuple(translate_formula(inner, rho) for rho in outer.rhos),
    )


def merge_marked_schemes(schemes, marks) -> InterpretationScheme:
    """Combine componentwise schemes into one over the disjoint-union
    signatures, routing by the given unary marks, so that applying the merged
    scheme to a strong sum of marked inputs interprets each block by its own
    scheme."""
    schemes = list(schemes)
    marks = list(marks)
    if len(schemes) != len(marks):
        raise SignatureError("one mark per scheme is required")
    for scheme, mark_name in zip(schemes, marks):
        if not scheme.source.has(mark_name) or scheme.source.arity(mark_name) != 1:
            raise SignatureError(f"scheme {scheme.name!r} lacks unary mark {mark_name!r}")
    source, source_maps = disjoint_union_signature([s.source for s in schemes])
    target, target_maps = disjoint_union_signature([s.target for s in schemes])
    p = max(s.p for s in schemes)
    xs = [f"x{i}" for i in range(1, p + 1)]

    disjuncts = []
    for scheme, mark_name, rename in zip(schemes, marks, source_maps):
        mark_sym = rename[mark_name]
        parts: list[Node] = [atom(mark_sym, x) for x in xs[: scheme.p]]
        parts += [eq(xs[j], xs[p - 1]) for j in range(scheme.p - 1, p - 1)]
        rho0 = rename_symbols(scheme.rho0.root, rename)
        parts.append(substitute(rho0, dict(zip(scheme.rho0.free_vars, xs[: scheme.p]))))
        disjuncts.append(conj(*parts))
    rho0 = build_formula(disj(*disjuncts), source, xs)

    rhos = []
    for scheme, mark_name, rename, t_rename in zip(schemes, marks, source_maps, target_maps):
        mark_sym = rename[mark_name]
        for (sym, arity), rho in zip(scheme.target.symbols, scheme.rhos):
            ys = [f"x{i}" for i in range(1, arity * p + 1)]
            parts = [atom(mark_sym, y) for y in ys]
            positions = [ys[b * p + j] for b in range(arity) for j in range(scheme.p)]
            body = rename_symbols(rho.root, rename)
            parts.append(substitute(body, dict(zip(rho.free_vars, positions))))
            rhos.append((t_rename[sym], build_formula(conj(*parts), source, ys)))
    by_name = dict(rhos)
    ordered = tuple(by_name[name] for name, _ in target.symbols)
    return InterpretationScheme(
        name="merged(" + ",".join(s.name for s in schemes) + ")",
        p=p,
        source=source,
        target=target,
        rho0=rho0,
        rhos=ordered,
    )


# ---------------------------------------------------------------------------
# Built-in schemes

def mark_scheme(source: Signature, mark_name: str, name: str = "mark") -> InterpretationScheme:
    if source.has(mark_name):
        raise SignatureError(f"mark name {mark_name!r} clashes with the source signature")
    target = source.extend([(mark_name, 1)])
    xs = ["x1"]
    rho0 = build_formula(TRUE, source, xs)
    rhos = []
    for sym, arity in source.symbols:
        ys = [f"x{i}" for i in range(1, arity + 1)]
        rhos.append(build_formula(atom(sym, *ys), source, ys))
    rhos.append(build_formula(TRUE, source, xs))
    return InterpretationScheme(name, 1, source, target, rho0, tuple(rhos))


def complement_scheme() -> GraphicalScheme:
    iota = build_formula(TRUE, GRAPH_SIG, ["x1"])
    rho = parse_formula("!E(x1,y1)", GRAPH_SIG, ["x1", "y1"])
    return GraphicalScheme("complement", 1, iota, rho)


def forget_orientation_scheme() -> GraphicalScheme:
    """Graph of a marked linear order: join x and y when either order holds."""
    source = basic_signature(1, 0)
    iota = build_formula(TRUE, source, ["x1"])
    rho = parse_formula("S1(x1,y1) | S1(y1,x1)", source, ["x1", "y1"])
    return GraphicalScheme("underlyingGraph", 1, iota, rho, origin=("underlyingGraph", ()))


PRODUCT_SOURCE_SIG = sig(("E", 2), ("UA", 1), ("E'", 2), ("UB", 1))

PRODUCT_OPS = ("disjointUnion", "direct", "cartesian", "strong", "lex")


def product_scheme(op: str) -> GraphicalScheme:
    """Binary graph products over a strong sum of two marked graphs."""
    src = PRODUCT_SOURCE_SIG
    if op == "disjointUnion":
        iota = build_formula(TRUE, src, ["x1"])
        rho = parse_formula("E(x1,y1) | E'(x1,y1)", src, ["x1", "y1"])
        return GraphicalScheme(op, 1, iota, rho, origin=(op, ()))
    iota = parse_formula("UA(x1) & UB(x2)", src, ["x1", "x2"])
    vars4 = ["x1", "x2", "y1", "y2"]
    if op == "direct":
        rho = parse_formula("E(x1,y1) & E'(x2,y2)", src, vars4)
    elif op == "cartesian":
        rho = parse_formula("E(x1,y1) & x2 = y2 | x1 = y1 & E'(x2,y2)", src, vars4)
    elif op == "strong":
        rho = parse_formula(
            "E(x1,y1) & x2 = y2 | x1 = y1 & E'(x2,y2) | E(x1,y1) & E'(x2,y2)", src, vars4
        )
    elif op == "lex":
        rho = parse_formula("E(x1,y1) | x1 = y1 & E'(x2,y2)", src, vars4)
    else:
        raise SignatureError(f"unknown product operation {op!r}")
    return GraphicalScheme(op, 2, iota, rho, origin=(op, ()))


def _vars(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def crown_scheme() -> GraphicalScheme:
    src = basic_signature(1, 2)
    iota = parse_formula("U1T(x1) & !U1T(x2)", src, ["x1", "x2"])
    rho = parse_formula(
        "!(x1 = y1) & !(U1E(x2) <-> U1E(y2))", src, ["x1", "x2", "y1", "y2"]
    )
    return GraphicalScheme("crown", 2, iota, rho, origin=("crown", ()))


def johnson_scheme(k: int, d_set) -> GraphicalScheme:
    """Vertices are increasing k-tuples of a marked linear order; adjacency
    holds when the two underlying sets share exactly d elements for some d in
    the given set."""
    if k < 1:
        raise SignatureError("k must be positive")
    d_set = tuple(sorted(set(int(d) for d in d_set)))
    if any(d < 0 or d > k for d in d_set):
        raise SignatureError("intersection sizes must lie in 0..k")
    src = basic_signature(1, 0)
    xs, ys = _vars("x", k), _vars("y", k)
    iota = build_formula(
        conj(*[atom("S1", xs[i], xs[i + 1]) for i in range(k - 1)]), src, xs
    )
    rho = build_formula(_share_exactly(xs, ys, d_set), src, xs + ys)
    name = f"johnson(k={k},D={list(d_set)})"
    return GraphicalScheme(name, k, iota, rho, origin=("johnson", (("D", d_set), ("k", k))))


def vertex_blowup_scheme(edges, k: int) -> GraphicalScheme:
    """Independent-set substitution into a fixed graph on vertices 0..k-1."""
    src = basic_signature(k, 0)
    undirected = set()
    for u, v in edges:
        undirected.add((u, v))
        undirected.add((v, u))
    iota = build_formula(TRUE, src, ["x1"])
    rho = build_formula(
        disj(*[conj(atom(f"U{u + 1}T", "x1"), atom(f"U{v + 1}T", "y1"))
               for u, v in sorted(undirected)]),
        src, ["x1", "y1"],
    )
    frozen = tuple(sorted(tuple(e) for e in undirected))
    return GraphicalScheme(
        f"vertexBlowup(k={k})", 1, iota, rho, origin=("vertexBlowup", (("edges", frozen), ("k", k)))
    )


def _normalize_parents(raw) -> dict[int, int]:
    return {int(k): int(v) for k, v in dict(raw).items()}


def _tree_paths(parents: dict[int, int], k: int) -> list[list[int]]:
    children: dict[int, list[int]] = {i: [] for i in range(1, k + 1)}
    for e in range(2, k + 1):
        parent = parents[e]
        children[parent].append(e)
    paths = []

    def walk(path):
        paths.append(list(path))
        for child in sorted(children[path[-1]]):
            walk(path + [child])

    walk([1])
    return paths


def tree_blowup_scheme(parents, k: int) -> GraphicalScheme:
    """Recursive sibling-copy replacement along a rooted tree whose nodes are
    1..k (1 the root, node e attached under parents[e]); parents is a mapping
    or a list of (node, parent) pairs, with keys and values coercible to int."""
    parents = _normalize_parents(parents)
    src = basic_signature(k, 0)
    xs, ys = _vars("x", k), _vars("y", k)
    path_disjuncts = []
    for path in _tree_paths(parents, k):
        t = len(path)
        parts = [atom(f"U{a}T", xs[i]) for i, a in enumerate(path)]
        parts += [eq(xs[i], xs[t - 1]) for i in range(t, k)]
        path_disjuncts.append(conj(*parts))
    iota = build_formula(disj(*path_disjuncts), src, xs)

    def rho_prime(a, b):
        out = []
        for i in range(1, k):
            parts = [eq(a[j], b[j]) for j in range(i)]
            parts.append(eq(a[i - 1], a[k - 1]))
            parts.append(neg(eq(b[i - 1], b[k - 1])))
            parts.append(eq(b[i], b[k - 1]))
            out.append(conj(*parts))
        return disj(*out)

    rho = build_formula(disj(rho_prime(xs, ys), rho_prime(ys, xs)), src, xs + ys)
    frozen = tuple(sorted(parents.items()))
    return GraphicalScheme(
        f"treeBlowup(k={k})", k, iota, rho, origin=("treeBlowup", (("k", k), ("parents", frozen)))
    )


def star_union_scheme(repaired: bool = True) -> GraphicalScheme:
    """Union of stars of orders 1..P(n) over a single marked linear order.

    The literal variant keeps the printed vertex formula, whose orientation
    contradicts the edge formula and yields an edgeless graph; the repaired
    variant lets a vertex pair with itself to encode star centers and flips
    the leaf orientation to match the edge formula."""
    src = basic_signature(1, 0)
    if repaired:
        iota = parse_formula("S1(x1,x2) | x1 = x2", src, ["x1", "x2"])
    else:
        iota = parse_formula("S1(x2,x1)", src, ["x1", "x2"])
    rho = parse_formula(
        "y1 = y2 & (x1 = y1 & S1(x2,y2) | x2 = y2 & S1(x1,y1))",
        src, ["x1", "y1", "x2", "y2"],
    )
    name = "starUnion" if repaired else "starUnionLiteral"
    return GraphicalScheme(name, 2, iota, rho, origin=(name, ()))


def half_graph_scheme() -> GraphicalScheme:
    src = basic_signature(1, 2)
    iota = parse_formula("U1T(x1) & !U1T(x2)", src, ["x1", "x2"])
    rho = parse_formula(
        "S1(x1,y1) & U1E(x2) & U2E(y2) | S1(y1,x1) & U1E(y2) & U2E(x2)",
        src, ["x1", "x2", "y1", "y2"],
    )
    return GraphicalScheme("halfGraph", 2, iota, rho, origin=("halfGraph", ()))


def chord_graph_scheme() -> GraphicalScheme:
    """Crossing chords of a convex polygon; the one-sided interleaving formula
    is symmetrized so the edge formula certifies symmetric."""
    src = basic_signature(1, 0)
    iota = parse_formula("S1(x1,x2)", src, ["x1", "x2"])
    rho = parse_formula(
        "S1(x1,y1) & S1(y1,x2) & S1(x2,y2) | S1(y1,x1) & S1(x1,y2) & S1(y2,x2)",
        src, ["x1", "x2", "y1", "y2"],
    )
    return GraphicalScheme("chordGraph", 2, iota, rho, origin=("chordGraph", ()))


def _share_exactly(xs, ys, d_set):
    """The k-tuples xs and ys, each of distinct elements, share exactly d
    elements for some d in d_set: d positions of xs meet d positions of ys
    and no other position of xs equals another position of ys.  Its
    literals count against the DNF budget before anything is built."""
    k = len(xs)
    literals = sum(math.comb(k, m) ** 2 * ((k - m) ** 2 + m ** 2) for m in d_set)
    limit = budgets.dnf_budget()
    if literals > limit:
        raise BudgetError(
            f"{literals} literals for intersection sizes {list(d_set)} of {k}-tuples "
            f"exceed the DNF budget of {limit}"
        )
    disjuncts = []
    for m in d_set:
        for i_set in combinations(range(k), m):
            for j_set in combinations(range(k), m):
                parts = [
                    neg(eq(xs[i], ys[j]))
                    for i in range(k) if i not in i_set
                    for j in range(k) if j not in j_set
                ]
                parts += [disj(*[eq(xs[i], ys[j]) for j in j_set]) for i in i_set]
                disjuncts.append(conj(*parts))
    return disj(*disjuncts)


def _same_set_formula(xs, ys):
    left = conj(*[disj(*[eq(x, y) for y in ys]) for x in xs])
    right = conj(*[disj(*[eq(x, y) for x in xs]) for y in ys])
    return conj(left, right)


def clique_intersection_scheme(k: int, d_set) -> QuotientScheme:
    """Vertices are k-cliques of a graph (tuples of distinct vertices up to
    reordering, so a loop is no clique); adjacency holds when the cliques
    share exactly d elements for some d in the set."""
    if k < 1:
        raise SignatureError("k must be positive")
    d_set = tuple(sorted(set(int(d) for d in d_set)))
    src = GRAPH_SIG
    xs, ys = _vars("x", k), _vars("y", k)
    rho0 = build_formula(
        conj(*[conj(atom("E", xs[i], xs[j]), neg(eq(xs[i], xs[j])))
               for i in range(k) for j in range(i + 1, k)]),
        src, xs,
    )
    rho = build_formula(
        conj(_share_exactly(xs, ys, d_set), neg(_same_set_formula(xs, ys))), src, xs + ys
    )
    base = InterpretationScheme(
        f"cliqueIntersection(k={k},D={list(d_set)})", k, src, GRAPH_SIG, rho0, (rho,)
    )
    varpi = build_formula(_same_set_formula(xs, ys), src, xs + ys)
    certs = (ClassCertificate("clique", build_formula(TRUE, src, xs),
                              constant(math.factorial(k))),)
    return QuotientScheme(
        base, varpi, certs, origin=("cliqueIntersection", (("D", d_set), ("k", k)))
    )


def line_graph_scheme() -> QuotientScheme:
    """Oriented edges up to reversal, loops excluded; adjacency = sharing an
    endpoint."""
    src = GRAPH_SIG
    rho0 = parse_formula("E(x1,x2) & !(x1 = x2)", src, ["x1", "x2"])
    rho = parse_formula(
        "(x1 = y1 | x1 = y2 | x2 = y1 | x2 = y2) & !(x1 = y1 & x2 = y2) "
        "& !(x1 = y2 & x2 = y1)",
        src, ["x1", "x2", "y1", "y2"],
    )
    base = InterpretationScheme("lineGraph", 2, src, GRAPH_SIG, rho0, (rho,))
    varpi = parse_formula(
        "x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1", src, ["x1", "x2", "y1", "y2"]
    )
    certs = (ClassCertificate(
        "edge", parse_formula("true", src, ["x1", "x2"]), constant(2)),)
    return QuotientScheme(base, varpi, certs, origin=("lineGraph", ()))


def subdivision_scheme() -> QuotientScheme:
    """One vertex per original vertex (diagonal pairs) and one per edge
    (oriented edges up to reversal), joined when incident."""
    src = GRAPH_SIG
    rho0 = parse_formula("x1 = x2 | E(x1,x2)", src, ["x1", "x2"])
    rho = parse_formula(
        "x1 = x2 & !(y1 = y2) & (x1 = y1 | x1 = y2)"
        " | !(x1 = x2) & y1 = y2 & (y1 = x1 | y1 = x2)",
        src, ["x1", "x2", "y1", "y2"],
    )
    base = InterpretationScheme("subdivision", 2, src, GRAPH_SIG, rho0, (rho,))
    varpi = parse_formula(
        "x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1", src, ["x1", "x2", "y1", "y2"]
    )
    certs = (
        ClassCertificate("vertex", parse_formula("x1 = x2", src, ["x1", "x2"]), constant(1)),
        ClassCertificate("edge", parse_formula("!(x1 = x2)", src, ["x1", "x2"]), constant(2)),
    )
    return QuotientScheme(base, varpi, certs, origin=("subdivision", ()))


# Every builtin scheme a JSON spec can name, keyed by the first component of
# the scheme's `origin`; each builder takes that origin's params as a dict.
BUILTIN_SCHEMES: dict[str, Callable[[dict], Scheme]] = {
    "crown": lambda p: crown_scheme(),
    "johnson": lambda p: johnson_scheme(p.get("k", 2), p.get("D", (1,))),
    "vertexBlowup": lambda p: vertex_blowup_scheme(tuple(tuple(e) for e in p["edges"]), p["k"]),
    "treeBlowup": lambda p: tree_blowup_scheme(p["parents"], p["k"]),
    "starUnion": lambda p: star_union_scheme(True),
    "starUnionLiteral": lambda p: star_union_scheme(False),
    "halfGraph": lambda p: half_graph_scheme(),
    "chordGraph": lambda p: chord_graph_scheme(),
    "cliqueIntersection": lambda p: clique_intersection_scheme(p.get("k", 2), p.get("D", (1,))),
    "lineGraph": lambda p: line_graph_scheme(),
    "subdivision": lambda p: subdivision_scheme(),
    "underlyingGraph": lambda p: forget_orientation_scheme(),
    **{op: (lambda p, op=op: product_scheme(op)) for op in PRODUCT_OPS},
}


# ---------------------------------------------------------------------------
# Scheme text format

_HEADER = re.compile(r"\s*interpretation\s+([A-Za-z_][A-Za-z0-9_']*)\s*\{", re.S)
_SIG_ITEM = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_']*)\s*:\s*(\d+)\s*")
_BASIC = re.compile(r"\s*basic\s*\(\s*k\s*=\s*(\d+)\s*,\s*l\s*=\s*(\d+)\s*\)\s*$")


def _parse_sig_text(text: str) -> Signature:
    text = text.strip()
    if text == "graph":
        return GRAPH_SIG
    m = _BASIC.match(text)
    if m:
        return basic_signature(int(m.group(1)), int(m.group(2)))
    if text.startswith("sig{") and text.endswith("}"):
        body = text[4:-1]
        symbols = []
        if body.strip():
            for item in body.split(","):
                m = _SIG_ITEM.match(item)
                if m is None or m.end() != len(item):
                    raise FormulaParseError(f"bad signature item {item!r}", 1)
                symbols.append((m.group(1), int(m.group(2))))
        return Signature(tuple(symbols))
    raise FormulaParseError(f"bad signature spec {text!r}", 1)


def _var_groups(text: str) -> list[list[str]]:
    groups = []
    for chunk in text.split(";"):
        names = [v.strip() for v in chunk.split(",") if v.strip()]
        groups.append(names)
    return groups


def _split_statements(body: str) -> list[str]:
    """Split on ';' at parenthesis/brace depth zero, so variable-group
    separators inside clause heads survive."""
    out = []
    depth = 0
    current = []
    for ch in body:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == ";" and depth == 0:
            out.append("".join(current))
            current = []
        else:
            current.append(ch)
    out.append("".join(current))
    return out


def parse_scheme(text: str) -> InterpretationScheme | QuotientScheme:
    """Parse the textual scheme format; returns a quotient scheme when an
    equiv clause is present."""
    m = _HEADER.match(text)
    if m is None:
        raise FormulaParseError("expected 'interpretation NAME {'", 1)
    name = m.group(1)
    body_start = m.end()
    body_end = text.rfind("}")
    if body_end < body_start:
        raise FormulaParseError("missing closing '}'", len(text) + 1)
    statements = [s.strip() for s in _split_statements(text[body_start:body_end]) if s.strip()]

    source = target = None
    p = None
    domain_clause = None
    rel_clauses: list[tuple[str, str, str]] = []
    equiv_clause = None
    class_clauses: list[tuple[str, str, str]] = []
    for stmt in statements:
        head, _, rest = stmt.partition(":")
        head = head.strip()
        rest = rest.strip()
        if head == "source":
            source = _parse_sig_text(rest)
        elif head == "target":
            target = _parse_sig_text(rest)
        elif head == "p":
            try:
                p = int(rest)
            except ValueError:
                raise FormulaParseError(f"exponent must be an integer, got {rest!r}", 1) from None
        elif head.startswith("class "):
            label = head[len("class "):].strip()
            m_eta = re.match(r"eta\s*=\s*(.*?),\s*size\s*=\s*(.*)$", rest, re.S)
            if m_eta is None:
                raise FormulaParseError(f"bad class clause for {label!r}", 1)
            class_clauses.append((label, m_eta.group(1).strip(), m_eta.group(2).strip()))
        else:
            m_head = re.match(r"([A-Za-z_][A-Za-z0-9_']*)\s*\((.*)\)\s*$", head, re.S)
            if m_head is None:
                raise FormulaParseError(f"bad clause head {head!r}", 1)
            kind, vars_text = m_head.group(1), m_head.group(2)
            if kind == "domain":
                domain_clause = (vars_text, rest)
            elif kind == "equiv":
                equiv_clause = (vars_text, rest)
            else:
                rel_clauses.append((kind, vars_text, rest))

    if source is None or target is None or p is None or domain_clause is None:
        raise FormulaParseError("scheme needs source, target, p, and domain clauses", 1)
    domain_vars = [v for group in _var_groups(domain_clause[0]) for v in group]
    if len(domain_vars) != p:
        raise BindingError(f"domain clause needs {p} variables, got {len(domain_vars)}")
    rho0 = parse_formula(domain_clause[1], source, domain_vars)

    rhos_by_name = {}
    for sym, vars_text, formula_text in rel_clauses:
        if not target.has(sym):
            raise BindingError(f"relation clause for unknown target symbol {sym!r}")
        groups = _var_groups(vars_text)
        arity = target.arity(sym)
        if len(groups) != arity or any(len(g) != p for g in groups):
            raise BindingError(
                f"clause for {sym!r} needs {arity} groups of {p} variables"
            )
        flat = [v for g in groups for v in g]
        rhos_by_name[sym] = parse_formula(formula_text, source, flat)
    missing = [s for s, _ in target.symbols if s not in rhos_by_name]
    if missing:
        raise BindingError(f"missing relation clauses for {missing}")
    base = InterpretationScheme(
        name, p, source, target, rho0,
        tuple(rhos_by_name[s] for s, _ in target.symbols),
    )
    if equiv_clause is None:
        if class_clauses:
            raise BindingError("class clauses require an equiv clause")
        return base
    groups = _var_groups(equiv_clause[0])
    if len(groups) != 2 or any(len(g) != p for g in groups):
        raise BindingError("equiv clause needs two groups of p variables")
    varpi = parse_formula(equiv_clause[1], source, [v for g in groups for v in g])
    certificates = tuple(
        ClassCertificate(label, parse_formula(eta_text, source, domain_vars),
                         parse_polynomial(size_text))
        for label, eta_text, size_text in class_clauses
    )
    return QuotientScheme(base, varpi, certificates)


def _sig_to_text(signature: Signature) -> str:
    if signature == GRAPH_SIG:
        return "graph"
    return "sig{" + ", ".join(f"{n}:{a}" for n, a in signature.symbols) + "}"


def scheme_to_text(scheme: InterpretationScheme | QuotientScheme) -> str:
    """Canonical rendering; parsing it back reproduces the scheme."""
    base = scheme.base if isinstance(scheme, QuotientScheme) else scheme
    lines = [f"interpretation {base.name} {{"]
    lines.append(f"  source: {_sig_to_text(base.source)};")
    lines.append(f"  target: {_sig_to_text(base.target)};")
    lines.append(f"  p: {base.p};")
    lines.append(
        f"  domain({','.join(base.rho0.free_vars)}): {formula_to_text(base.rho0)};"
    )
    for (sym, arity), rho in zip(base.target.symbols, base.rhos):
        vars_ = rho.free_vars
        groups = "; ".join(
            ",".join(vars_[b * base.p:(b + 1) * base.p]) for b in range(arity)
        )
        lines.append(f"  {sym}({groups}): {formula_to_text(rho)};")
    if isinstance(scheme, QuotientScheme):
        vars_ = scheme.varpi.free_vars
        groups = "; ".join(
            ",".join(vars_[b * base.p:(b + 1) * base.p]) for b in range(2)
        )
        lines.append(f"  equiv({groups}): {formula_to_text(scheme.varpi)};")
        for cert in scheme.certificates:
            lines.append(
                f"  class {cert.label}: eta={formula_to_text(cert.eta)}, "
                f"size={cert.size.to_expression()};"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
