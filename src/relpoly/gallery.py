"""Named graph-family constructions as (scheme, direct-oracle) pairs, small
named graphs, the bounded-degree decomposition of slowly growing sequences,
and the Paley-graph polynomial experiment."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .budgets import basis_budget
from .canon import canonical_form
from .counting import bell, hom_count, inj_count, quotient, set_partitions
from .errors import BudgetError, SignatureError, UnboundedDegreeError, ValidationError
from .interp import (
    _normalize_parents,
    chord_graph_scheme,
    clique_intersection_scheme,
    crown_scheme,
    forget_orientation_scheme,
    half_graph_scheme,
    johnson_scheme,
    line_graph_scheme,
    star_union_scheme,
    subdivision_scheme,
    tree_blowup_scheme,
    vertex_blowup_scheme,
)
from .polynomials import (
    IntPolynomial,
    eval_fit,
    interpolate,
    lagrange_fit,
    parse_polynomial,
)
from .sequences import (
    BasicSeq,
    InterpretedSeq,
    SequenceSpec,
    complete_graph,
    custom_seq,
    cycle_graph,
    detect_polynomial,
    domain_degree,
    empty_graph,
    generate_term,
    graph_from_edges,
    path_graph,
)
from .structures import (
    GRAPH_SIG,
    Structure,
    component_census,
    disjoint_union,
    isomorphic,
    make_structure,
    structure_to_json,
)


# ---------------------------------------------------------------------------
# Small named graphs

def edge_count(g: Structure) -> int:
    rel = g.rel("E")
    loops = sum(1 for t in rel if t[0] == t[1])
    return (len(rel) - loops) // 2 + loops


def max_degree(g: Structure) -> int:
    neighbors: dict[int, set[int]] = {v: set() for v in range(g.domain)}
    for name, arity in g.signature.symbols:
        if arity != 2:
            continue
        for u, v in g.rel(name):
            if u != v:
                neighbors[u].add(v)
                neighbors[v].add(u)
    return max((len(s) for s in neighbors.values()), default=0)


def star_graph(n: int) -> Structure:
    """Star of order n: one center and n-1 leaves."""
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def octahedron() -> Structure:
    return graph_from_edges(
        6, [(u, v) for u, v in combinations(range(6), 2) if (u, v) not in ((0, 1), (2, 3), (4, 5))]
    )


# ---------------------------------------------------------------------------
# Direct oracles

def crown_oracle(n: int) -> Structure:
    return graph_from_edges(
        2 * n, [(i, n + j) for i in range(n) for j in range(n) if i != j]
    )


def johnson_oracle(n: int, k: int, d_set) -> Structure:
    d_set = set(d_set)
    verts = sorted(combinations(range(n), k))
    edges = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if len(set(verts[i]) & set(verts[j])) in d_set
    ]
    return graph_from_edges(len(verts), edges)


def vertex_blowup_oracle(edges, sizes) -> Structure:
    offsets = []
    total = 0
    for size in sizes:
        offsets.append(total)
        total += size
    out = []
    for u, v in edges:
        for a in range(sizes[u]):
            for b in range(sizes[v]):
                out.append((offsets[u] + a, offsets[v] + b))
    return graph_from_edges(total, out)


def tree_blowup_oracle(parents: dict[int, int], sizes: dict[int, int]) -> Structure:
    children: dict[int, list[int]] = {i: [] for i in sizes}
    for e, parent in parents.items():
        children[parent].append(e)
    edges: list[tuple[int, int]] = []
    counter = [0]

    def new_vertex() -> int:
        counter[0] += 1
        return counter[0] - 1

    def subtree(node: int) -> int:
        root = new_vertex()
        for child in sorted(children[node]):
            for _ in range(sizes[child]):
                sub_root = subtree(child)
                edges.append((root, sub_root))
        return root

    for _ in range(sizes[1]):
        subtree(1)
    return graph_from_edges(counter[0], edges)


def star_union_oracle(p: int) -> Structure:
    if p == 0:
        return empty_graph(0)
    return disjoint_union(*[star_graph(i) for i in range(1, p + 1)])


def half_graph_oracle(n: int) -> Structure:
    return graph_from_edges(
        2 * n, [(i, n + j) for i in range(n) for j in range(n) if i < j]
    )


def chord_graph_oracle(n: int) -> Structure:
    chords = sorted(combinations(range(n), 2))
    index = {c: i for i, c in enumerate(chords)}
    edges = []
    for (a, b), (c, d) in combinations(chords, 2):
        if a < c < b < d or c < a < d < b:
            edges.append((index[(a, b)], index[(c, d)]))
    return graph_from_edges(len(chords), edges)


def clique_intersection_oracle(g: Structure, k: int, d_set) -> Structure:
    d_set = set(d_set)
    adj = set(g.rel("E"))
    cliques = [
        c for c in combinations(range(g.domain), k)
        if all((u, v) in adj for u, v in combinations(c, 2))
    ]
    edges = [
        (i, j)
        for i, j in combinations(range(len(cliques)), 2)
        if len(set(cliques[i]) & set(cliques[j])) in d_set
    ]
    return graph_from_edges(len(cliques), edges)


def line_graph_oracle(g: Structure) -> Structure:
    return clique_intersection_oracle(g, 2, {1})


def subdivision_oracle(g: Structure) -> Structure:
    edges_undirected = sorted({tuple(sorted(t)) for t in g.rel("E") if t[0] != t[1]})
    n = g.domain
    out = []
    for i, (u, v) in enumerate(edges_undirected):
        out.append((u, n + i))
        out.append((v, n + i))
    return graph_from_edges(n + len(edges_undirected), out)


# ---------------------------------------------------------------------------
# Gallery registry

@dataclass(frozen=True)
class GalleryEntry:
    name: str
    description: str
    param_schema: dict
    defaults: dict
    make_spec: Callable[[dict], SequenceSpec]
    make_oracle: Callable[[dict, int], Structure]
    default_range: tuple[int, int]
    canonical_cap: int = 12
    expect_mismatch: bool = False
    exploratory: bool = False

    def params_with_defaults(self, params: dict | None) -> dict:
        merged = dict(self.defaults)
        if params:
            unknown = set(params) - set(self.param_schema)
            if unknown:
                raise SignatureError(
                    f"unknown parameters for {self.name!r}: {sorted(unknown)}"
                )
            merged.update(params)
        return merged

    def _build(self, make, params: dict | None):
        """Call `make` on the merged parameters; a parameter of the wrong
        type or shape is a SignatureError, as in spec_from_obj."""
        merged = self.params_with_defaults(params)
        try:
            return make(merged)
        except (TypeError, ValueError, KeyError) as exc:
            raise SignatureError(f"malformed parameters for {self.name!r}: {exc}") from None

    def spec(self, params: dict | None = None) -> SequenceSpec:
        return self._build(self.make_spec, params)

    def oracle(self, n: int, params: dict | None = None) -> Structure:
        return self._build(lambda p: self.make_oracle(p, n), params)


def _poly(p) -> IntPolynomial:
    return p if isinstance(p, IntPolynomial) else parse_polynomial(str(p))


def _tournament_seq(order="n") -> BasicSeq:
    return BasicSeq(1, 0, (_poly(order),))


def _complete_seq(order="n") -> InterpretedSeq:
    return InterpretedSeq(forget_orientation_scheme(), _tournament_seq(order))


_INNER_GRAPHS = {
    "complete": (_complete_seq, complete_graph),
    "cycle": (lambda: custom_seq("cycle"), cycle_graph),
    "path": (lambda: custom_seq("path"), path_graph),
}


def _inner_spec(name: str) -> SequenceSpec:
    if name not in _INNER_GRAPHS:
        raise SignatureError(f"unknown inner graph sequence {name!r}")
    return _INNER_GRAPHS[name][0]()


def _inner_oracle(name: str, n: int) -> Structure:
    return _INNER_GRAPHS[name][1](n)


def _normalize_polys(raw) -> dict[int, IntPolynomial]:
    return {int(k): _poly(v) for k, v in dict(raw).items()}


ENTRIES: dict[str, GalleryEntry] = {}


def _register(entry: GalleryEntry):
    ENTRIES[entry.name] = entry


_register(GalleryEntry(
    name="crown",
    description="complete bipartite graph on n+n vertices minus a perfect matching",
    param_schema={},
    defaults={},
    make_spec=lambda p: InterpretedSeq(crown_scheme(), BasicSeq(1, 2, (_poly("n"),))),
    make_oracle=lambda p, n: crown_oracle(n),
    default_range=(0, 6),
))

_register(GalleryEntry(
    name="kneser",
    description="k-subsets of an n-set, adjacent when disjoint",
    param_schema={"k": "subset size (default 2)"},
    defaults={"k": 2},
    make_spec=lambda p: InterpretedSeq(johnson_scheme(p["k"], (0,)), _tournament_seq()),
    make_oracle=lambda p, n: johnson_oracle(n, p["k"], {0}),
    default_range=(0, 6),
    canonical_cap=16,
))

_register(GalleryEntry(
    name="johnson",
    description="k-subsets of an n-set, adjacent when the intersection size lies in D",
    param_schema={"k": "subset size (default 2)", "D": "allowed intersection sizes (default [1])"},
    defaults={"k": 2, "D": (1,)},
    make_spec=lambda p: InterpretedSeq(johnson_scheme(p["k"], p["D"]), _tournament_seq()),
    make_oracle=lambda p, n: johnson_oracle(n, p["k"], set(p["D"])),
    default_range=(0, 6),
    canonical_cap=16,
))

_register(GalleryEntry(
    name="vertexBlowup",
    description="each vertex of a fixed graph replaced by a polynomial number of twins",
    param_schema={"edges": "edge list of the fixed graph on 0..k-1",
                  "polys": "one order polynomial per vertex"},
    defaults={"edges": ((0, 1), (1, 2)), "polys": ("n", "n", "n")},
    make_spec=lambda p: InterpretedSeq(
        vertex_blowup_scheme(tuple(tuple(e) for e in p["edges"]), len(p["polys"])),
        BasicSeq(len(p["polys"]), 0, tuple(_poly(q) for q in p["polys"])),
    ),
    make_oracle=lambda p, n: vertex_blowup_oracle(
        tuple(tuple(e) for e in p["edges"]), [_poly(q)(n) for q in p["polys"]]
    ),
    default_range=(0, 4),
))

_register(GalleryEntry(
    name="treeBlowup",
    description="rooted tree with every edge replaced by polynomially many sibling copies",
    param_schema={"parents": "parent node of each edge label 2..k",
                  "polys": "order polynomial per node label 1..k"},
    defaults={"parents": ((2, 1),), "polys": ((1, "n"), (2, "n"))},
    make_spec=lambda p: InterpretedSeq(
        tree_blowup_scheme(p["parents"], len(dict(p["polys"]))),
        BasicSeq(
            len(dict(p["polys"])), 0,
            tuple(_poly(v) for _, v in sorted(_normalize_polys(p["polys"]).items())),
        ),
    ),
    make_oracle=lambda p, n: tree_blowup_oracle(
        _normalize_parents(p["parents"]),
        {k: q(n) for k, q in _normalize_polys(p["polys"]).items()},
    ),
    default_range=(0, 3),
))

_register(GalleryEntry(
    name="starUnion",
    description="disjoint stars of orders 1..P(n) (repaired vertex formula)",
    param_schema={"P": "number of stars (default n)"},
    defaults={"P": "n"},
    make_spec=lambda p: InterpretedSeq(
        star_union_scheme(repaired=True), BasicSeq(1, 0, (_poly(p["P"]),))
    ),
    make_oracle=lambda p, n: star_union_oracle(_poly(p["P"])(n)),
    default_range=(0, 5),
    canonical_cap=16,
))

_register(GalleryEntry(
    name="starUnionLiteral",
    description="the star-union scheme exactly as printed; its vertex and edge "
                "formulas contradict each other, so the output is edgeless and "
                "the oracle comparison is expected to fail from n=2 on",
    param_schema={"P": "number of stars (default n)"},
    defaults={"P": "n"},
    make_spec=lambda p: InterpretedSeq(
        star_union_scheme(repaired=False), BasicSeq(1, 0, (_poly(p["P"]),))
    ),
    make_oracle=lambda p, n: star_union_oracle(_poly(p["P"])(n)),
    default_range=(0, 4),
    expect_mismatch=True,
    exploratory=True,
))

_register(GalleryEntry(
    name="halfGraph",
    description="bipartite half graph: a_i adjacent to b_j exactly when i < j",
    param_schema={},
    defaults={},
    make_spec=lambda p: InterpretedSeq(half_graph_scheme(), BasicSeq(1, 2, (_poly("n"),))),
    make_oracle=lambda p, n: half_graph_oracle(n),
    default_range=(0, 6),
))

_register(GalleryEntry(
    name="chordGraph",
    description="intersection graph of the chords of a convex n-gon",
    param_schema={},
    defaults={},
    make_spec=lambda p: InterpretedSeq(chord_graph_scheme(), _tournament_seq()),
    make_oracle=lambda p, n: chord_graph_oracle(n),
    default_range=(0, 6),
    canonical_cap=16,
))

_register(GalleryEntry(
    name="cliqueIntersection",
    description="k-cliques of a graph sequence, adjacent when the intersection size lies in D",
    param_schema={"k": "clique size (default 2)", "D": "allowed intersection sizes",
                  "inner": "inner graph sequence (complete|cycle|path)"},
    defaults={"k": 2, "D": (1,), "inner": "complete"},
    make_spec=lambda p: InterpretedSeq(
        clique_intersection_scheme(p["k"], p["D"]), _inner_spec(p["inner"])
    ),
    make_oracle=lambda p, n: clique_intersection_oracle(
        _inner_oracle(p["inner"], n), p["k"], set(p["D"])
    ),
    default_range=(0, 5),
))

_register(GalleryEntry(
    name="lineGraph",
    description="line graph of a graph sequence, via the oriented-edge quotient",
    param_schema={"inner": "inner graph sequence (complete|cycle|path)"},
    defaults={"inner": "complete"},
    make_spec=lambda p: InterpretedSeq(line_graph_scheme(), _inner_spec(p["inner"])),
    make_oracle=lambda p, n: line_graph_oracle(_inner_oracle(p["inner"], n)),
    default_range=(0, 5),
))

_register(GalleryEntry(
    name="subdivision",
    description="1-subdivision of a graph sequence (each edge becomes a length-2 path)",
    param_schema={"inner": "inner graph sequence (complete|cycle|path)"},
    defaults={"inner": "complete"},
    make_spec=lambda p: InterpretedSeq(subdivision_scheme(), _inner_spec(p["inner"])),
    make_oracle=lambda p, n: subdivision_oracle(_inner_oracle(p["inner"], n)),
    default_range=(0, 5),
    canonical_cap=16,
))

_register(GalleryEntry(
    name="complete",
    description="complete graphs, as the underlying graph of a marked linear order",
    param_schema={},
    defaults={},
    make_spec=lambda p: _complete_seq(),
    make_oracle=lambda p, n: complete_graph(n),
    default_range=(0, 6),
))


def gallery_list() -> dict:
    return {
        "schemaVersion": 1,
        "entries": [
            {
                "name": e.name,
                "description": e.description,
                "params": e.param_schema,
                "defaults": {k: list(v) if isinstance(v, tuple) else v
                             for k, v in e.defaults.items()},
                "defaultRange": list(e.default_range),
                "canonicalCap": e.canonical_cap,
                "expectMismatch": e.expect_mismatch,
                "exploratory": e.exploratory,
            }
            for e in ENTRIES.values()
        ],
    }


def gallery_build(name: str, params: dict | None, n: int) -> tuple[Structure, Structure]:
    """Materialize the entry both through its scheme and through the direct
    oracle construction."""
    if name not in ENTRIES:
        raise SignatureError(f"unknown gallery entry {name!r}")
    entry = ENTRIES[name]
    via_scheme = generate_term(entry.spec(params), n)
    via_oracle = entry.oracle(n, params)
    return via_scheme, via_oracle


@dataclass(frozen=True)
class GalleryCheckRow:
    n: int
    scheme_size: int
    oracle_size: int
    scheme_edges: int
    oracle_edges: int
    method: str
    match: bool


@dataclass(frozen=True)
class GalleryCheckReport:
    name: str
    params: dict
    rows: tuple[GalleryCheckRow, ...]
    ok: bool
    first_mismatch: tuple[int, str, str] | None
    detector_verdicts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schemaVersion": 1,
            "entry": self.name,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in self.params.items()},
            "ok": self.ok,
            "rows": [
                {
                    "n": r.n,
                    "schemeSize": r.scheme_size,
                    "oracleSize": r.oracle_size,
                    "schemeEdges": r.scheme_edges,
                    "oracleEdges": r.oracle_edges,
                    "method": r.method,
                    "match": r.match,
                }
                for r in self.rows
            ],
            "firstMismatch": (
                None
                if self.first_mismatch is None
                else {
                    "n": self.first_mismatch[0],
                    "scheme": self.first_mismatch[1],
                    "oracle": self.first_mismatch[2],
                }
            ),
            "detector": self.detector_verdicts,
        }


def detector_patterns() -> dict[str, Structure]:
    return {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "P3": path_graph(3),
        "K3": complete_graph(3),
    }


def gallery_check(name: str, params: dict | None = None,
                  n_range: tuple[int, int] | None = None,
                  detect: bool = False) -> GalleryCheckReport:
    """Compare the scheme construction against the direct oracle at every n in
    the range: by canonical key within the entry's cap, by isomorphism search
    beyond it.  With detect=True, also run the polynomial detector on the
    standard small patterns."""
    if name not in ENTRIES:
        raise SignatureError(f"unknown gallery entry {name!r}")
    entry = ENTRIES[name]
    merged = entry.params_with_defaults(params)
    spec = entry.spec(params)
    lo, hi = n_range if n_range is not None else entry.default_range
    rows = []
    first_mismatch = None
    ok = True
    for n in range(lo, hi + 1):
        via_scheme, via_oracle = generate_term(spec, n), entry.oracle(n, params)
        size = max(via_scheme.domain, via_oracle.domain)
        if via_scheme.domain != via_oracle.domain:
            match = False
            method = "size"
        elif size <= entry.canonical_cap:
            method = "canonical"
            match = canonical_form(via_scheme, cap=entry.canonical_cap) == canonical_form(
                via_oracle, cap=entry.canonical_cap
            )
        else:
            method = "isomorphism"
            match = isomorphic(via_scheme, via_oracle)
        rows.append(GalleryCheckRow(
            n, via_scheme.domain, via_oracle.domain,
            edge_count(via_scheme), edge_count(via_oracle), method, match,
        ))
        if not match and first_mismatch is None:
            first_mismatch = (n, structure_to_json(via_scheme), structure_to_json(via_oracle))
        ok = ok and match
    verdicts = {}
    if detect:
        for label, pattern in detector_patterns().items():
            verdicts[label] = detect_polynomial(spec, pattern).verdict
    return GalleryCheckReport(name, merged, tuple(rows), ok, first_mismatch, verdicts)


# ---------------------------------------------------------------------------
# Bounded-degree decomposition

@dataclass(frozen=True)
class Decomposition:
    parts: tuple[tuple[Structure, IntPolynomial], ...]
    sampled: tuple[int, ...]
    verified: tuple[int, ...]

    def reassemble(self, n: int) -> Structure:
        pieces = []
        for component, multiplicity in self.parts:
            pieces.extend([component] * multiplicity(n))
        if not pieces:
            signature = self.parts[0][0].signature if self.parts else GRAPH_SIG
            return make_structure(signature, 0)
        return disjoint_union(*pieces)

    def to_dict(self) -> dict:
        return {
            "schemaVersion": 1,
            "parts": [
                {
                    "component": {
                        "domain": c.domain,
                        "relations": {name: [list(t) for t in c.rel(name)]
                                      for name in c.signature.names},
                    },
                    "binomialCoeffs": list(m.coeffs),
                    "multiplicity": m.to_expression(),
                }
                for c, m in self.parts
            ],
            "sampled": list(self.sampled),
            "verified": list(self.verified),
        }


def bounded_decompose(spec: SequenceSpec, degree_cap: int,
                      d_max: int | None = None, held_out: int = 3) -> Decomposition:
    """Write a bounded-degree sequence as a polynomial combination of finitely
    many connected components: census the components of the terms sampled at
    n = 0..d+1 (d the domain-degree bound), interpolate each multiplicity,
    and verify the census on held-out indices.  A term whose maximum degree
    exceeds the cap aborts with an unbounded-degree error."""
    if held_out < 1:
        raise SignatureError("held_out must be positive")
    d = domain_degree(spec)
    if d_max is not None:
        d = min(d, d_max)
    sample_ns = list(range(d + 2))
    counts: dict[bytes, list[int]] = {}
    reps: dict[bytes, Structure] = {}

    def census_at(n: int) -> dict[bytes, tuple[Structure, int]]:
        term = generate_term(spec, n)
        degree = max_degree(term)
        if degree > degree_cap:
            raise UnboundedDegreeError(
                f"term at n={n} has maximum degree {degree} > cap {degree_cap}; "
                "degree grows past the cap within the sampled terms"
            )
        return component_census(term)

    for n in sample_ns:
        census = census_at(n)
        for key, (sub, count) in census.items():
            reps.setdefault(key, sub)
            counts.setdefault(key, [0] * len(sample_ns))[n] = count
    fits = {key: interpolate(list(enumerate(values))) for key, values in counts.items()}

    verify_ns = list(range(d + 2, d + 2 + held_out))
    for n in verify_ns:
        census = census_at(n)
        new = set(census) - set(counts)
        if new:
            raise ValidationError(
                f"verification failure at n={n}: a connected component outside "
                "the sampled census appeared",
                witness=structure_to_json(census[next(iter(new))][0]),
            )
        for key, fit in fits.items():
            observed = census.get(key, (None, 0))[1]
            if fit(n) != observed:
                raise ValidationError(
                    f"verification failure at n={n}: component multiplicity "
                    f"{observed} != interpolated {fit(n)}"
                )
    parts = tuple((reps[key], fits[key]) for key in sorted(fits))
    return Decomposition(parts, tuple(sample_ns), tuple(verify_ns))


# ---------------------------------------------------------------------------
# Paley experiment

def is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def paley_graph(q: int) -> Structure:
    """Vertices are the integers mod q; x ~ y when x - y is a nonzero square."""
    if not is_prime(q):
        raise SignatureError(f"{q} is not prime")
    if q % 4 != 1:
        raise SignatureError(f"{q} is not congruent to 1 mod 4")
    squares = {(i * i) % q for i in range(1, q)}
    edges = [(i, j) for i in range(q) for j in range(q) if i != j and (i - j) % q in squares]
    return make_structure(GRAPH_SIG, q, {"E": edges})


def automorphism_count(g: Structure) -> int:
    return inj_count(g, g).value


def homomorphic_image_count(pattern: Structure, target: Structure) -> int:
    """Number of subgraphs of the target that arise as the image of some
    homomorphism from the pattern: one subgraph count per loop-free quotient
    of the pattern, quotients deduplicated up to isomorphism.  The Bell(|F|)
    quotients count against `RELPOLY_BASIS_BUDGET`."""
    limit = basis_budget()
    if bell(pattern.domain, cap=limit) > limit:
        raise BudgetError(
            f"Bell({pattern.domain}) quotients of a {pattern.domain}-vertex pattern "
            f"exceed the basis budget of {limit}"
        )
    images: dict[bytes, Structure] = {}
    for theta in set_partitions(pattern.domain):
        q = quotient(pattern, theta)
        if any(t[0] == t[1] for t in q.rel("E")):
            continue
        images.setdefault(canonical_form(q), q)
    total = 0
    for image in images.values():
        total += inj_count(image, target).value // automorphism_count(image)
    return total


@dataclass(frozen=True)
class PaleyReport:
    pattern_size: int
    rows: tuple[tuple[int, int, int], ...]     # (q, hom, image count)
    fit_primes: tuple[int, ...]
    fit_coeffs: tuple[Fraction, ...]
    verify_rows: tuple[tuple[int, int, bool], ...]
    all_match: bool
    note: str

    def to_dict(self) -> dict:
        return {
            "schemaVersion": 1,
            "rows": [{"q": q, "hom": h, "homomorphicImages": im} for q, h, im in self.rows],
            "fitPrimes": list(self.fit_primes),
            "fitCoeffs": [str(c) for c in self.fit_coeffs],
            "verify": [{"q": q, "hom": h, "match": m} for q, h, m in self.verify_rows],
            "allMatch": self.all_match,
            "note": self.note,
        }


def paley_experiment(pattern: Structure, primes, fit_count: int | None = None,
                     image_counts: bool = True) -> PaleyReport:
    """Count pattern homomorphisms into Paley graphs, fit a polynomial in q on
    the first samples, and verify it on the remaining primes.  Exploratory:
    the report also carries the count of homomorphic images, which is the
    quantity the classical polynomiality statement is about, and flags the
    distinction."""
    primes = list(primes)
    if not primes:
        raise SignatureError("at least one prime is required")
    if fit_count is None:
        fit_count = len(primes) - 1 if len(primes) > 1 else 1
    if not 1 <= fit_count <= len(primes):
        raise SignatureError("fit_count out of range")
    rows = []
    for q in primes:
        g = paley_graph(q)
        h = hom_count(pattern, g).value
        im = homomorphic_image_count(pattern, g) if image_counts else -1
        rows.append((q, h, im))
    fit_points = [(q, h) for q, h, _ in rows[:fit_count]]
    coeffs = lagrange_fit(fit_points)
    verify_rows = []
    all_match = True
    for q, h, _ in rows[fit_count:]:
        predicted = eval_fit(coeffs, q)
        match = predicted == h
        verify_rows.append((q, h, match))
        all_match = all_match and match
    note = (
        "counts are homomorphisms; the classical Paley polynomiality statement "
        "concerns homomorphic images, reported alongside"
    )
    return PaleyReport(
        pattern.domain, tuple(rows), tuple(q for q, _ in fit_points),
        coeffs, tuple(verify_rows), all_match, note,
    )
