"""Structure-sequence recipes and the small graphs they start from, the
polynomial-growth detector, ordered sums, and the telescoped evaluation of
injective counts into them."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Union

from . import budgets
from .counting import hom_count, inj_count
from .errors import BindingError, BudgetError, SignatureError, ValidationError
from .interp import (
    BUILTIN_SCHEMES,
    GraphicalScheme,
    InterpretationScheme,
    apply_scheme,
    mark_scheme,
    parse_scheme,
    product_scheme,
    scheme_to_text,
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
    copies,
    disjoint_union_signature,
    forget,
    gaifman_components,
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
        if not all(isinstance(x, int) and x >= 0 for x in (self.k, self.l)):
            raise SignatureError("k and l must be non-negative integers")
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
    scheme: InterpretationScheme
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
    """A named generator of CUSTOM_GENERATORS; `constant` takes its
    structure as the `structure` parameter.  Parameter values must be
    hashable, since terms are cached by spec."""

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in CUSTOM_GENERATORS:
            raise SignatureError(f"unknown custom sequence {self.name!r}")
        if self.name == "constant" and not isinstance(self.param_dict().get("structure"), Structure):
            raise SignatureError("the constant sequence needs a 'structure' parameter")
        for key, value in self.params:
            try:
                hash(value)
            except TypeError:
                raise SignatureError(
                    f"custom sequence parameter {key!r} is not hashable: {value!r}"
                ) from None

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


def graph_from_edges(n: int, edges) -> Structure:
    """Graph on n vertices with each listed edge in both directions."""
    sym = []
    for u, v in edges:
        sym.append((u, v))
        sym.append((v, u))
    return make_structure(GRAPH_SIG, n, {"E": sym})


def complete_graph(n: int) -> Structure:
    budgets.charge_tuples(n * (n - 1), "edge tuples")
    return graph_from_edges(n, combinations(range(n), 2))


def empty_graph(n: int) -> Structure:
    return graph_from_edges(n, ())


def path_graph(n: int) -> Structure:
    budgets.charge_tuples(2 * max(n - 1, 0), "edge tuples")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Structure:
    """The n-cycle; C_1 is a loop and C_2 a single edge."""
    budgets.charge_tuples(2 * n, "edge tuples")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


CUSTOM_GENERATORS: dict[str, CustomGenerator] = {
    "cycle": CustomGenerator(GRAPH_SIG, 1, lambda params, n: cycle_graph(n)),
    "path": CustomGenerator(GRAPH_SIG, 1, lambda params, n: path_graph(n)),
    "complete": CustomGenerator(GRAPH_SIG, 1, lambda params, n: complete_graph(n)),
    "emptyGraph": CustomGenerator(GRAPH_SIG, 1, lambda params, n: empty_graph(n)),
    "constant": CustomGenerator(GRAPH_SIG, 0, lambda params, n: params["structure"]),
}


def constant_seq(structure: Structure) -> CustomSeq:
    return custom_seq("constant", structure=structure)


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
        if spec.name == "constant":
            return spec.param_dict()["structure"].signature
        return CUSTOM_GENERATORS[spec.name].signature
    raise TypeError(f"not a sequence spec: {spec!r}")


def domain_degree(spec: SequenceSpec) -> int:
    """Conservative degree bound for the domain-size polynomial."""
    if isinstance(spec, BasicSeq):
        return max((q.degree for q in spec.orders), default=0)
    if isinstance(spec, OrderedSumSeq):
        return (domain_degree(spec.inner) + 1) * max(spec.length.degree, 0)
    if isinstance(spec, InterpretedSeq):
        cert_deg = max((c.size.degree for c in spec.scheme.certificates), default=0)
        return spec.scheme.p * max(1, cert_deg) * domain_degree(spec.inner)
    if isinstance(spec, StrongSumSeq):
        return max((domain_degree(m) for m in spec.members), default=0)
    if isinstance(spec, CopiesSeq):
        return max(spec.count.degree, 0) + domain_degree(spec.inner)
    if isinstance(spec, ReindexedSeq):
        return max(spec.by.degree, 0) * domain_degree(spec.inner)
    if isinstance(spec, CustomSeq):
        return CUSTOM_GENERATORS[spec.name].degree
    raise TypeError(f"not a sequence spec: {spec!r}")


def _poly_value(poly: IntPolynomial, n: int, what: str) -> int:
    value = poly(n)
    if value < 0:
        raise ValidationError(f"{what} polynomial is negative at n={n} (value {value})")
    return value


def generate_term(spec: SequenceSpec, n: int) -> Structure:
    """Materialize the n-th term of the sequence.

    Terms are cached per spec, index and RELPOLY_TUPLE_BUDGET (the one
    budget that building reads), so a sequence probed by many queries, and
    the inner terms and ordered-sum blocks it is built from, are built once;
    specs and structures are immutable, so callers share the cached term.
    """
    if n < 0:
        raise SignatureError("sequence index must be non-negative")
    return _term(spec, n, budgets.tuple_budget())


@lru_cache(maxsize=256)
def _term(spec: SequenceSpec, n: int, tuple_budget: int) -> Structure:
    if isinstance(spec, BasicSeq):
        orders = tuple(_poly_value(q, n, "tournament order") for q in spec.orders)
        return build_basic(BasicStructureSpec(spec.k, spec.l, orders))
    if isinstance(spec, OrderedSumSeq):
        return ordered_sum(spec.inner, _poly_value(spec.length, n, "length"))
    if isinstance(spec, InterpretedSeq):
        return apply_scheme(spec.scheme, generate_term(spec.inner, n), n=n)
    if isinstance(spec, StrongSumSeq):
        return strong_sum(*(generate_term(m, n) for m in spec.members))
    if isinstance(spec, CopiesSeq):
        m = _poly_value(spec.count, n, "copy count")
        return copies(generate_term(spec.inner, n), m)
    if isinstance(spec, ReindexedSeq):
        return generate_term(spec.inner, _poly_value(spec.by, n, "reindexing"))
    if isinstance(spec, CustomSeq):
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
    spans = []
    offset = 0
    for block in blocks:
        if block.signature != inner_signature:
            raise SignatureError("ordered-sum blocks must share the inner signature")
        spans.append((offset, offset + block.domain))
        for name in inner_signature.names:
            relations[inner_map[name]].extend(
                tuple(v + offset for v in t) for t in block.rel(name)
            )
        offset += block.domain
    total = offset
    budgets.charge_tuples((total * total - sum(b.domain ** 2 for b in blocks)) // 2,
                          "ordered-sum order tuples")
    relations[u_name] = [(v,) for v in range(total)]
    # each block's vertices precede every later vertex, one loop per block
    relations[s_name] = [(x, y) for lo, hi in spans for x in range(lo, hi) for y in range(hi, total)]
    return make_structure(combined, total, relations)


def ordered_sum(inner: SequenceSpec, n: int) -> Structure:
    """Blocks are the inner sequence's terms at indices 1..n.  Its n(n-1)/2
    block pairs are charged before any block is built, empty blocks
    included, so that the charge bounds how many blocks are generated."""
    budgets.charge_tuples(n * (n - 1) // 2, "ordered-sum block pairs")
    blocks = [generate_term(inner, i) for i in range(1, n + 1)]
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
    comps = gaifman_components(forget(pattern, [s_name]))
    comp_index = {v: i for i, comp in enumerate(comps) for v in comp}

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


def _query_counter(query):
    if isinstance(query, Structure):
        return lambda term: hom_count(query, term).value
    return satisfying_counter(query)


def detect_polynomial(spec: SequenceSpec, query, verify_count: int = 5) -> PolynomialFit:
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
        count = _query_counter(query)
        for n in range(d_bound + 1):
            samples.append((n, count(generate_term(spec, n))))
        fit = interpolate(samples)
        ok = True
        for n in range(d_bound + 1, d_bound + 1 + verify_count):
            value = count(generate_term(spec, n))
            match = value == fit(n)
            verifies.append((n, value, match))
            ok = ok and match
    except BudgetError as exc:
        fit = interpolate(samples or [(0, 0)])
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
    for spec in (a, b):
        if signature_of(spec) != GRAPH_SIG:
            raise SignatureError("product sequences require graph-producing specs")
    marked_a = InterpretedSeq(mark_scheme(GRAPH_SIG, "UA"), a)
    marked_b = InterpretedSeq(mark_scheme(GRAPH_SIG, "UB"), b)
    return InterpretedSeq(product_scheme(op), StrongSumSeq((marked_a, marked_b)))


# ---------------------------------------------------------------------------
# JSON spec files

def _scheme_to_obj(scheme: InterpretationScheme) -> dict:
    if scheme.origin is not None:
        name, params = scheme.origin
        return {"builtin": name, "params": dict(params)}
    if isinstance(scheme, GraphicalScheme):   # text would read back with no symmetry check
        raise SignatureError(
            f"graphical scheme {scheme.name!r} has no origin in BUILTIN_SCHEMES; "
            "only builtin graphical schemes serialize"
        )
    return {"text": scheme_to_text(scheme)}


def _scheme_from_obj(obj: dict) -> InterpretationScheme:
    if "text" in obj:
        return parse_scheme(obj["text"])
    if "builtin" in obj:
        name = obj["builtin"]
        if name not in BUILTIN_SCHEMES:
            raise SignatureError(f"unknown builtin scheme {name!r}")
        return BUILTIN_SCHEMES[name](obj.get("params", {}))
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
    try:
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
    except KeyError as exc:
        raise SignatureError(f"{variant!r} spec is missing the key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise SignatureError(f"malformed {variant!r} spec: {exc}") from None
    raise SignatureError(f"unknown sequence variant {variant!r}")


def spec_to_json(spec: SequenceSpec) -> str:
    return json.dumps(spec_to_obj(spec), indent=2, sort_keys=False) + "\n"


def spec_from_json(text: str) -> SequenceSpec:
    try:
        obj = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer past the digit limit
        raise SignatureError(f"malformed sequence spec JSON: {exc}") from exc
    return spec_from_obj(obj)
