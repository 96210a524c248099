"""Structure-sequence recipes, the polynomial-growth detector, ordered sums,
and the telescoped evaluation of injective counts into them."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Callable, Union

from .counting import hom_count, inj_count
from .errors import BindingError, BudgetError, SignatureError, ValidationError
from .interp import (
    GraphicalScheme,
    QuotientScheme,
    Scheme,
    apply_scheme,
    mark_scheme,
    parse_scheme,
    product_scheme,
    scheme_to_text,
    PRODUCT_OPS,
)
from .logic import Formula, satisfying_counter
from .polynomials import IntPolynomial, interpolate, parse_polynomial
from .structures import (
    GRAPH_SIG,
    Signature,
    Structure,
    BasicStructureSpec,
    build_basic,
    basic_signature,
    disjoint_union,
    disjoint_union_signature,
    induced,
    lift,
    make_structure,
    strong_sum,
    structure_from_json,
    structure_to_json,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Sequence specs

@dataclass(frozen=True)
class BasicSeq:
    """Basic structures with l marked vertices and k tournaments of
    polynomial orders; the order polynomials must be non-constant."""

    k: int
    l: int
    orders: tuple[IntPolynomial, ...]

    def __post_init__(self):
        if len(self.orders) != self.k:
            raise SignatureError(f"expected {self.k} order polynomials")
        for q in self.orders:
            if q.is_constant():
                raise SignatureError("tournament order polynomials must be non-constant")


@dataclass(frozen=True)
class OrderedSumSeq:
    inner: "SequenceSpec"
    length: IntPolynomial


@dataclass(frozen=True)
class InterpretedSeq:
    scheme: Scheme
    inner: "SequenceSpec"


@dataclass(frozen=True)
class StrongSumSeq:
    members: tuple["SequenceSpec", ...]


@dataclass(frozen=True)
class CopiesSeq:
    count: IntPolynomial
    inner: "SequenceSpec"


@dataclass(frozen=True)
class ReindexedSeq:
    by: IntPolynomial
    inner: "SequenceSpec"


@dataclass(frozen=True)
class CustomSeq:
    name: str
    params: tuple[tuple[str, object], ...] = ()

    def param_dict(self) -> dict:
        return dict(self.params)


SequenceSpec = Union[
    BasicSeq, OrderedSumSeq, InterpretedSeq, StrongSumSeq, CopiesSeq, ReindexedSeq, CustomSeq
]


def custom_seq(name: str, **params) -> CustomSeq:
    return CustomSeq(name, tuple(sorted(params.items())))


@dataclass(frozen=True)
class CustomGenerator:
    signature: Signature
    degree: int
    make: Callable


def _cycle(params, n: int) -> Structure:
    edges = []
    if n == 1:
        edges = [(0, 0)]
    elif n == 2:
        edges = [(0, 1), (1, 0)]
    elif n >= 3:
        for i in range(n):
            edges += [(i, (i + 1) % n), ((i + 1) % n, i)]
    return make_structure(GRAPH_SIG, n, {"E": edges})


def _path(params, n: int) -> Structure:
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    return make_structure(GRAPH_SIG, n, {"E": edges})


def _complete(params, n: int) -> Structure:
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    return make_structure(GRAPH_SIG, n, {"E": edges})


def _empty_graph(params, n: int) -> Structure:
    return make_structure(GRAPH_SIG, n, {})


def _constant(params, n: int) -> Structure:
    return params["structure"]


CUSTOM_GENERATORS: dict[str, CustomGenerator] = {
    "cycle": CustomGenerator(GRAPH_SIG, 1, _cycle),
    "path": CustomGenerator(GRAPH_SIG, 1, _path),
    "complete": CustomGenerator(GRAPH_SIG, 1, _complete),
    "emptyGraph": CustomGenerator(GRAPH_SIG, 1, _empty_graph),
    "constant": CustomGenerator(GRAPH_SIG, 0, _constant),
}


def constant_seq(structure: Structure) -> CustomSeq:
    return custom_seq("constant", structure=structure)


def _custom_signature(spec: CustomSeq) -> Signature:
    if spec.name == "constant":
        return spec.param_dict()["structure"].signature
    try:
        return CUSTOM_GENERATORS[spec.name].signature
    except KeyError:
        raise SignatureError(f"unknown custom sequence {spec.name!r}") from None


def signature_of(spec: SequenceSpec) -> Signature:
    """Statically derived signature of every term of the sequence."""
    if isinstance(spec, BasicSeq):
        return basic_signature(spec.k, spec.l)
    if isinstance(spec, OrderedSumSeq):
        inner = signature_of(spec.inner)
        combined, _ = disjoint_union_signature([inner, Signature((("S", 2), ("U", 1)))])
        return combined
    if isinstance(spec, InterpretedSeq):
        return spec.scheme.target
    if isinstance(spec, StrongSumSeq):
        combined, _ = disjoint_union_signature([signature_of(m) for m in spec.members])
        return combined
    if isinstance(spec, (CopiesSeq, ReindexedSeq)):
        return signature_of(spec.inner)
    if isinstance(spec, CustomSeq):
        return _custom_signature(spec)
    raise TypeError(f"not a sequence spec: {spec!r}")


def domain_degree(spec: SequenceSpec) -> int:
    """Conservative degree bound for the domain-size polynomial."""
    if isinstance(spec, BasicSeq):
        return max((q.degree for q in spec.orders), default=0)
    if isinstance(spec, OrderedSumSeq):
        return (domain_degree(spec.inner) + 1) * max(spec.length.degree, 0)
    if isinstance(spec, InterpretedSeq):
        factor = spec.scheme.p
        if isinstance(spec.scheme, QuotientScheme):
            cert_deg = max(
                (c.size.degree for c in spec.scheme.certificates), default=0
            )
            factor *= max(1, cert_deg)
        return factor * domain_degree(spec.inner)
    if isinstance(spec, StrongSumSeq):
        return max((domain_degree(m) for m in spec.members), default=0)
    if isinstance(spec, CopiesSeq):
        return max(spec.count.degree, 0) + domain_degree(spec.inner)
    if isinstance(spec, ReindexedSeq):
        return max(spec.by.degree, 0) * domain_degree(spec.inner)
    if isinstance(spec, CustomSeq):
        if spec.name == "constant":
            return 0
        return CUSTOM_GENERATORS[spec.name].degree
    raise TypeError(f"not a sequence spec: {spec!r}")


def _poly_value(poly: IntPolynomial, n: int, what: str) -> int:
    value = poly(n)
    if value < 0:
        raise ValidationError(f"{what} polynomial is negative at n={n} (value {value})")
    return value


def generate_term(spec: SequenceSpec, n: int, budget: int | None = None) -> Structure:
    """Materialize the n-th term of the sequence."""
    if n < 0:
        raise SignatureError("sequence index must be non-negative")
    if isinstance(spec, BasicSeq):
        orders = tuple(_poly_value(q, n, "tournament order") for q in spec.orders)
        return build_basic(BasicStructureSpec(spec.k, spec.l, orders))
    if isinstance(spec, OrderedSumSeq):
        return ordered_sum(spec.inner, _poly_value(spec.length, n, "length"), budget)
    if isinstance(spec, InterpretedSeq):
        return apply_scheme(spec.scheme, generate_term(spec.inner, n, budget), n=n, budget=budget)
    if isinstance(spec, StrongSumSeq):
        return strong_sum(*(generate_term(m, n, budget) for m in spec.members))
    if isinstance(spec, CopiesSeq):
        m = _poly_value(spec.count, n, "copy count")
        term = generate_term(spec.inner, n, budget)
        if m == 0:
            return make_structure(term.signature, 0)
        return disjoint_union(*([term] * m))
    if isinstance(spec, ReindexedSeq):
        return generate_term(spec.inner, _poly_value(spec.by, n, "reindexing"), budget)
    if isinstance(spec, CustomSeq):
        if spec.name not in CUSTOM_GENERATORS:
            raise SignatureError(f"unknown custom sequence {spec.name!r}")
        return CUSTOM_GENERATORS[spec.name].make(spec.param_dict(), n)
    raise TypeError(f"not a sequence spec: {spec!r}")


# ---------------------------------------------------------------------------
# Ordered sums

def ordered_sum_of(blocks, inner_signature: Signature) -> Structure:
    """Disjoint union of the blocks with a universal mark U and an order
    relation S holding between earlier and later blocks."""
    combined, (inner_map, extra_map) = disjoint_union_signature(
        [inner_signature, Signature((("S", 2), ("U", 1)))]
    )
    s_name, u_name = extra_map["S"], extra_map["U"]
    if (s_name, u_name) != ("S", "U"):
        logger.warning(
            "ordered sum renamed its order/mark relations to %r/%r to avoid a clash",
            s_name, u_name,
        )
    relations: dict[str, list] = {name: [] for name in combined.names}
    offsets = []
    offset = 0
    for block in blocks:
        if block.signature != inner_signature:
            raise SignatureError("ordered-sum blocks must share the inner signature")
        offsets.append(offset)
        for name in inner_signature.names:
            relations[inner_map[name]].extend(
                tuple(v + offset for v in t) for t in block.rel(name)
            )
        offset += block.domain
    total = offset
    relations[u_name] = [(v,) for v in range(total)]
    spans = [(off, off + b.domain) for off, b in zip(offsets, blocks)]
    order = []
    for i, (lo_i, hi_i) in enumerate(spans):
        for lo_j, hi_j in spans[i + 1:]:
            order.extend((x, y) for x in range(lo_i, hi_i) for y in range(lo_j, hi_j))
    relations[s_name] = order
    return make_structure(combined, total, relations)


def ordered_sum(inner: SequenceSpec, n: int, budget: int | None = None) -> Structure:
    """Blocks are the inner sequence's terms at indices 1..n."""
    blocks = [generate_term(inner, i, budget) for i in range(1, n + 1)]
    return ordered_sum_of(blocks, signature_of(inner))


def telescoped_inj(component_fits, n: int) -> int:
    """Sum over 1 <= i_1 < ... < i_k <= n of prod_j P_j(i_j), evaluated by the
    nested telescoping recurrence with exact integers.  Each P_j is any
    callable from an index to an integer, such as an `IntPolynomial`."""
    suffix = [1] * (n + 2)
    for poly in reversed(list(component_fits)):
        new = [0] * (n + 2)
        for i in range(n - 1, -1, -1):
            new[i] = new[i + 1] + poly(i + 1) * suffix[i + 1]
        suffix = new
    return suffix[0]


def ordered_splits(pattern: Structure, s_name: str = "S"):
    """Ordered partitions of the pattern consistent with an ordered sum's
    order relation: tuples of every other relation stay inside one part and
    every order tuple runs from a strictly earlier part to a strictly later
    one.  Yields tuples of parts (each a tuple of vertices)."""
    if not pattern.signature.has(s_name):
        raise SignatureError(f"pattern has no order relation {s_name!r}")
    n = pattern.domain
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for name in pattern.signature.names:
        if name == s_name:
            continue
        for t in pattern.rel(name):
            for v in t[1:]:
                parent[find(v)] = find(t[0])
    comp_of = {}
    comps: list[list[int]] = []
    for v in range(n):
        root = find(v)
        if root not in comp_of:
            comp_of[root] = len(comps)
            comps.append([])
        comps[comp_of[root]].append(v)
    comp_index = {v: comp_of[find(v)] for v in range(n)}

    edges: set[tuple[int, int]] = set()
    for (x, y) in pattern.rel(s_name):
        cx, cy = comp_index[x], comp_index[y]
        if cx == cy:
            return  # order tuple trapped inside a component: no valid split
        edges.add((cx, cy))

    m = len(comps)
    if m == 0:
        yield ()
        return
    preds = {i: {a for (a, b) in edges if b == i} for i in range(m)}

    def rec(remaining: frozenset, acc: list[tuple[int, ...]]):
        if not remaining:
            yield tuple(acc)
            return
        # the next part: any non-empty set of components with no incoming
        # order edges from `remaining` and no order edges inside it
        sources = [c for c in remaining if not (preds[c] & remaining)]
        for mask in range(1, 1 << len(sources)):
            chosen = [sources[i] for i in range(len(sources)) if mask >> i & 1]
            if any((a, b) in edges for a in chosen for b in chosen):
                continue
            part = tuple(sorted(v for c in chosen for v in comps[c]))
            acc.append(part)
            yield from rec(remaining - frozenset(chosen), acc)
            acc.pop()

    yield from rec(frozenset(range(m)), [])


def is_nice(pattern: Structure, s_name: str = "S") -> bool:
    """True when the pattern admits at least one split consistent with the
    ordered sum's order relation (the only patterns with nonzero injective
    count into an ordered sum)."""
    for _ in ordered_splits(pattern, s_name):
        return True
    return False


def strict_nice_partition(pattern: Structure, s_name: str = "S",
                          u_name: str = "U") -> tuple[tuple[int, ...], ...] | None:
    """The unique ordered partition with the order relation holding exactly
    between earlier and later parts and the mark on every vertex, when one
    exists.  This is the stricter book-keeping notion; the split-based
    predictor above is the one that matches injective counting."""
    n = pattern.domain
    if pattern.signature.has(u_name) and len(pattern.rel(u_name)) != n:
        return None
    s_rel = set(pattern.rel(s_name))
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in s_rel and (v, u) not in s_rel:
                parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    parts = list(groups.values())
    # order parts by the order relation; verify exactness
    order_between: dict[tuple[int, int], bool] = {}
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            if i == j:
                continue
            all_s = all((x, y) in s_rel for x in a for y in b)
            any_s = any((x, y) in s_rel for x in a for y in b)
            if all_s != any_s:
                return None
            order_between[(i, j)] = all_s
    for i, a in enumerate(parts):
        if any((x, y) in s_rel for x in a for y in a):
            return None
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if order_between[(i, j)] == order_between[(j, i)]:
                return None
    ordered = sorted(
        range(len(parts)),
        key=lambda i: sum(1 for j in range(len(parts)) if j != i and order_between[(j, i)]),
    )
    return tuple(tuple(sorted(parts[i])) for i in ordered)


def predict_inj_into_ordered_sum(pattern: Structure, inner: SequenceSpec, n: int,
                                 s_name: str = "S", u_name: str = "U") -> int:
    """Injective count of the pattern into the ordered sum at index n,
    computed from the inner sequence alone: sum over consistent splits of the
    telescoped product of per-part injective counts into marked blocks."""
    inner_sig = signature_of(inner)
    pattern_sig = pattern.signature

    blocks: dict[int, Structure] = {}

    def block(i: int) -> Structure:
        if i not in blocks:
            raw = generate_term(inner, i)
            lifted = lift(raw, pattern_sig)
            rels = {name: lifted.rel(name) for name in pattern_sig.names}
            rels[u_name] = [(v,) for v in range(lifted.domain)]
            blocks[i] = make_structure(pattern_sig, lifted.domain, rels)
        return blocks[i]

    total = 0
    for parts in ordered_splits(pattern, s_name):
        sub_patterns = [induced(pattern, part) for part in parts]
        fns = [
            (lambda i, sp=sp: inj_count(sp, block(i)).value)
            for sp in sub_patterns
        ]
        total += telescoped_inj(fns, n)
    return total


# ---------------------------------------------------------------------------
# Polynomial detection

@dataclass(frozen=True)
class PolynomialFit:
    fit: IntPolynomial
    degree_bound: int
    sample_points: tuple[tuple[int, int], ...]
    verify_points: tuple[tuple[int, int, bool], ...]
    verdict: str  # Polynomial | NotPolynomial | Inconclusive
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "schemaVersion": 1,
            "verdict": self.verdict,
            "degreeBound": self.degree_bound,
            "binomialCoeffs": list(self.fit.coeffs),
            "fit": self.fit.to_expression(),
            "samplePoints": [[n, v] for n, v in self.sample_points],
            "verifyPoints": [[n, v, m] for n, v, m in self.verify_points],
            "note": self.note,
        }


def _query_degree(query, spec: SequenceSpec) -> int:
    if isinstance(query, Structure):
        return query.domain * domain_degree(spec)
    if isinstance(query, Formula):
        return len(query.free_vars) * domain_degree(spec)
    raise TypeError("query must be a pattern structure or a formula")


def _query_counter(query, budget):
    if isinstance(query, Structure):
        return lambda term: hom_count(query, term).value
    return satisfying_counter(query, budget)


def detect_polynomial(spec: SequenceSpec, query, verify_count: int = 5,
                      budget: int | None = None) -> PolynomialFit:
    """Sample the count at n = 0..degree bound, interpolate in the binomial
    basis, and verify on held-out indices; a mismatch is a counterexample
    witness, and a blown budget yields an Inconclusive verdict with the data
    collected so far."""
    if isinstance(query, Formula) and not query.is_quantifier_free:
        raise BindingError("the detector accepts quantifier-free formula queries only")
    if verify_count < 1:
        raise SignatureError("verify_count must be positive")
    d_bound = _query_degree(query, spec)
    samples: list[tuple[int, int]] = []
    verifies: list[tuple[int, int, bool]] = []
    try:
        count = _query_counter(query, budget)
        for n in range(d_bound + 1):
            samples.append((n, count(generate_term(spec, n, budget))))
        fit = interpolate(samples)
        ok = True
        for n in range(d_bound + 1, d_bound + 1 + verify_count):
            value = count(generate_term(spec, n, budget))
            match = value == fit(n)
            verifies.append((n, value, match))
            ok = ok and match
    except BudgetError as exc:
        fit = interpolate(samples) if len(samples) == d_bound + 1 else interpolate(
            samples or [(0, 0)]
        )
        return PolynomialFit(
            fit, d_bound, tuple(samples), tuple(verifies), "Inconclusive", note=str(exc)
        )
    if ok:
        verdict, note = "Polynomial", ""
    else:
        first_bad = next((n, v) for n, v, m in verifies if not m)
        verdict = "NotPolynomial"
        note = (
            f"witness at n={first_bad[0]}: interpolant predicts {fit(first_bad[0])}, "
            f"observed {first_bad[1]}"
        )
    return PolynomialFit(fit, d_bound, tuple(samples), tuple(verifies), verdict, note)


# ---------------------------------------------------------------------------
# Product sequences

def product_sequences(op: str, a: SequenceSpec, b: SequenceSpec) -> SequenceSpec:
    """Wrap two graph sequences into the built-in product scheme applied to
    the strong sum of their marked terms."""
    if op not in PRODUCT_OPS:
        raise SignatureError(f"unknown product operation {op!r}")
    for spec in (a, b):
        if signature_of(spec) != GRAPH_SIG:
            raise SignatureError("product sequences require graph-producing specs")
    marked_a = InterpretedSeq(mark_scheme(GRAPH_SIG, "UA"), a)
    marked_b = InterpretedSeq(mark_scheme(GRAPH_SIG, "UB"), b)
    return InterpretedSeq(product_scheme(op), StrongSumSeq((marked_a, marked_b)))


# ---------------------------------------------------------------------------
# JSON spec files

SCHEME_BUILDERS: dict[str, Callable[[dict], Scheme]] = {}


def register_scheme_builder(name: str, builder: Callable[[dict], Scheme]):
    SCHEME_BUILDERS[name] = builder


def _scheme_to_obj(scheme: Scheme) -> dict:
    if scheme.origin is not None:
        name, params = scheme.origin
        return {"builtin": name, "params": dict(params)}
    if isinstance(scheme, GraphicalScheme):
        raise SignatureError(
            "graphical schemes serialize only as builtins; "
            f"register {scheme.name!r} or use a plain scheme"
        )
    return {"text": scheme_to_text(scheme)}


def _scheme_from_obj(obj: dict) -> Scheme:
    if "text" in obj:
        return parse_scheme(obj["text"])
    if "builtin" in obj:
        name = obj["builtin"]
        if name in SCHEME_BUILDERS:
            return SCHEME_BUILDERS[name](obj.get("params", {}))
        if name in PRODUCT_OPS:
            return product_scheme(name)
        raise SignatureError(f"unknown builtin scheme {name!r}")
    raise SignatureError("scheme object needs a 'text' or 'builtin' key")


def spec_to_obj(spec: SequenceSpec) -> dict:
    if isinstance(spec, BasicSeq):
        return {
            "variant": "Basic",
            "k": spec.k,
            "l": spec.l,
            "orders": [q.to_expression() for q in spec.orders],
        }
    if isinstance(spec, OrderedSumSeq):
        return {
            "variant": "OrderedSum",
            "length": spec.length.to_expression(),
            "inner": spec_to_obj(spec.inner),
        }
    if isinstance(spec, InterpretedSeq):
        return {
            "variant": "Interpreted",
            "scheme": _scheme_to_obj(spec.scheme),
            "inner": spec_to_obj(spec.inner),
        }
    if isinstance(spec, StrongSumSeq):
        return {"variant": "StrongSum", "members": [spec_to_obj(m) for m in spec.members]}
    if isinstance(spec, CopiesSeq):
        return {
            "variant": "Copies",
            "count": spec.count.to_expression(),
            "inner": spec_to_obj(spec.inner),
        }
    if isinstance(spec, ReindexedSeq):
        return {
            "variant": "Reindexed",
            "by": spec.by.to_expression(),
            "inner": spec_to_obj(spec.inner),
        }
    if isinstance(spec, CustomSeq):
        params = {}
        for key, value in spec.params:
            if isinstance(value, Structure):
                params[key] = json.loads(structure_to_json(value))
            else:
                params[key] = value
        return {"variant": "Custom", "name": spec.name, "params": params}
    raise TypeError(f"not a sequence spec: {spec!r}")


def spec_from_obj(obj: dict) -> SequenceSpec:
    try:
        variant = obj["variant"]
    except (KeyError, TypeError):
        raise SignatureError("sequence spec object needs a 'variant' key") from None
    if variant == "Basic":
        return BasicSeq(
            obj["k"], obj["l"], tuple(parse_polynomial(q) for q in obj["orders"])
        )
    if variant == "OrderedSum":
        return OrderedSumSeq(spec_from_obj(obj["inner"]), parse_polynomial(obj["length"]))
    if variant == "Interpreted":
        return InterpretedSeq(_scheme_from_obj(obj["scheme"]), spec_from_obj(obj["inner"]))
    if variant == "StrongSum":
        return StrongSumSeq(tuple(spec_from_obj(m) for m in obj["members"]))
    if variant == "Copies":
        return CopiesSeq(parse_polynomial(obj["count"]), spec_from_obj(obj["inner"]))
    if variant == "Reindexed":
        return ReindexedSeq(parse_polynomial(obj["by"]), spec_from_obj(obj["inner"]))
    if variant == "Custom":
        params = {}
        for key, value in obj.get("params", {}).items():
            if isinstance(value, dict) and {"signature", "domain"} <= set(value):
                params[key] = structure_from_json(json.dumps(value))
            else:
                params[key] = value
        return custom_seq(obj["name"], **params)
    raise SignatureError(f"unknown sequence variant {variant!r}")


def spec_to_json(spec: SequenceSpec) -> str:
    return json.dumps(spec_to_obj(spec), indent=2, sort_keys=False) + "\n"


def spec_from_json(text: str) -> SequenceSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SignatureError(f"malformed sequence spec JSON: {exc}") from exc
    return spec_from_obj(obj)
