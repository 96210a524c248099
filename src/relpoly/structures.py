"""Finite relational structures over explicit signatures.

Vertices are dense 0-based indices; every relation is stored as a sorted,
duplicate-free tuple of index tuples, so structures hash and compare by value
and all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from . import budgets
from .canon import canonical_form
from .errors import BudgetError, SignatureError


@dataclass(frozen=True)
class Signature:
    """Ordered list of (name, arity) relation symbols."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise SignatureError(f"duplicate symbol names in signature: {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise SignatureError(f"symbol {name!r} has arity {arity}; arity must be >= 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def has(self, name: str) -> bool:
        return any(name == n for n, _ in self.symbols)

    def arity(self, name: str) -> int:
        for n, a in self.symbols:
            if n == name:
                return a
        raise SignatureError(f"unknown symbol {name!r}")

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.symbols):
            if n == name:
                return i
        raise SignatureError(f"unknown symbol {name!r}")

    def restrict(self, names) -> Signature:
        keep = set(names)
        return Signature(tuple(s for s in self.symbols if s[0] in keep))

    def extend(self, extra) -> Signature:
        return Signature(self.symbols + tuple(extra))


def sig(*symbols: tuple[str, int]) -> Signature:
    return Signature(tuple(symbols))


GRAPH_SIG = sig(("E", 2))


@dataclass(frozen=True)
class Structure:
    """A finite structure: domain size plus one tuple set per signature symbol."""

    signature: Signature
    domain: int
    relations: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.domain < 0:
            raise SignatureError("domain size must be non-negative")
        if len(self.relations) != len(self.signature.symbols):
            raise SignatureError("relation list does not match signature")
        for (name, arity), tuples in zip(self.signature.symbols, self.relations):
            seen = set()
            prev = None
            for t in tuples:
                if len(t) != arity:
                    raise SignatureError(f"tuple {t} has wrong arity for {name!r}")
                if any(v < 0 or v >= self.domain for v in t):
                    raise SignatureError(f"tuple {t} out of range for {name!r}")
                if t in seen:
                    raise SignatureError(f"duplicate tuple {t} in {name!r}")
                if prev is not None and t < prev:
                    raise SignatureError(f"tuples of {name!r} are not sorted")
                seen.add(t)
                prev = t

    def rel(self, name: str) -> tuple[tuple[int, ...], ...]:
        return self.relations[self.signature.index(name)]

    def rel_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(r) for r in self.relations)

    def total_tuples(self) -> int:
        return sum(len(r) for r in self.relations)

    @cached_property
    def hom_reports(self) -> dict:
        """The hom counts into this structure, by pattern, that
        `counting.hom_count` keeps for as long as the structure lives.  Not a
        field, so equality and hashing never see it."""
        return {}


def make_structure(signature: Signature, domain: int, relations=None) -> Structure:
    """Build a structure, normalizing each relation to a sorted duplicate-free tuple set.

    `relations` maps symbol names to iterables of tuples; missing symbols get
    empty relations.
    """
    relations = relations or {}
    unknown = set(relations) - set(signature.names)
    if unknown:
        raise SignatureError(f"relations given for unknown symbols: {sorted(unknown)}")
    normalized = []
    for name, _ in signature.symbols:
        tuples = {tuple(t) for t in relations.get(name, ())}
        normalized.append(tuple(sorted(tuples)))
    return Structure(signature, domain, tuple(normalized))


# ---------------------------------------------------------------------------
# Constructors

def build_marked_vertex() -> Structure:
    """Single vertex carrying a unary mark U."""
    return make_structure(sig(("U", 1)), 1, {"U": [(0,)]})


def build_transitive_tournament(n: int) -> Structure:
    """Marked linear order on n vertices: S(i, j) holds exactly when i < j."""
    if n < 0:
        raise SignatureError("order must be non-negative")
    budgets.charge_tuples(n * (n - 1) // 2, "tournament order tuples")
    return make_structure(
        sig(("U", 1), ("S", 2)),
        n,
        {"U": [(i,) for i in range(n)],
         "S": [(i, j) for i in range(n) for j in range(i + 1, n)]},
    )


def _fresh_name(name: str, taken: set[str]) -> str:
    while name in taken:
        name = name + "'"
    return name


def disjoint_union_signature(signatures) -> tuple[Signature, list[dict[str, str]]]:
    """Concatenate signatures, renaming later collisions by appending ticks.

    Returns the combined signature and one old-name -> new-name map per input.
    """
    symbols: list[tuple[str, int]] = []
    taken: set[str] = set()
    maps: list[dict[str, str]] = []
    for signature in signatures:
        rename: dict[str, str] = {}
        for name, arity in signature.symbols:
            new = _fresh_name(name, taken)
            rename[name] = new
            taken.add(new)
            symbols.append((new, arity))
        maps.append(rename)
    return Signature(tuple(symbols)), maps


def strong_sum(*parts: Structure) -> Structure:
    """Place the operands side by side over the disjoint union of their signatures.

    Each operand's relations hold only on its own block; colliding symbol
    names from later operands are renamed deterministically with ticks.
    """
    if not parts:
        raise SignatureError("strong_sum needs at least one operand")
    combined, maps = disjoint_union_signature([p.signature for p in parts])
    relations: dict[str, list] = {}
    offset = 0
    for part, rename in zip(parts, maps):
        for name, _ in part.signature.symbols:
            shifted = [tuple(v + offset for v in t) for t in part.rel(name)]
            relations[rename[name]] = shifted
        offset += part.domain
    return make_structure(combined, offset, relations)


def disjoint_union(*parts: Structure) -> Structure:
    """Disjoint union of structures over one shared signature."""
    if not parts:
        raise SignatureError("disjoint_union needs at least one operand")
    signature = parts[0].signature
    for p in parts:
        if p.signature != signature:
            raise SignatureError("disjoint_union requires identical signatures")
    relations: dict[str, list] = {name: [] for name in signature.names}
    offset = 0
    for part in parts:
        for name in signature.names:
            relations[name].extend(tuple(v + offset for v in t) for t in part.rel(name))
        offset += part.domain
    return make_structure(signature, offset, relations)


def copies(s: Structure, m: int) -> Structure:
    """m disjoint copies of s over the same signature (empty structure for m=0)."""
    if m < 0:
        raise SignatureError("copy count must be non-negative")
    if m == 0 or s.domain == 0:
        return make_structure(s.signature, 0)
    budgets.charge_tuples(m * (s.domain + s.total_tuples()), "vertices and tuples of copies")
    return disjoint_union(*([s] * m))


# ---------------------------------------------------------------------------
# Signature adaptation

def lift(s: Structure, target: Signature) -> Structure:
    """Reinterpret s over a larger signature; the new symbols get empty relations."""
    if s.signature == target:
        return s
    for name, arity in s.signature.symbols:
        if not target.has(name) or target.arity(name) != arity:
            raise SignatureError(f"target signature does not extend {name!r}/{arity}")
    return make_structure(target, s.domain, {name: s.rel(name) for name in s.signature.names})


def forget(s: Structure, drop) -> Structure:
    """Drop the listed relations from the structure."""
    drop = set(drop)
    for name in drop:
        if not s.signature.has(name):
            raise SignatureError(f"cannot forget unknown symbol {name!r}")
    kept = Signature(tuple(sym for sym in s.signature.symbols if sym[0] not in drop))
    return make_structure(kept, s.domain, {name: s.rel(name) for name in kept.names})


def merge(s: Structure, groups) -> Structure:
    """Union groups of same-arity relations; each group keeps its first name."""
    owner: dict[str, str] = {}
    for group in groups:
        group = list(group)
        if len(group) < 2:
            raise SignatureError("merge groups need at least two symbols")
        arities = {s.signature.arity(name) for name in group}
        if len(arities) != 1:
            raise SignatureError(f"cannot merge symbols of different arities: {group}")
        for name in group:
            if name in owner:
                raise SignatureError(f"symbol {name!r} appears in two merge groups")
            owner[name] = group[0]
    symbols = []
    for name, arity in s.signature.symbols:
        if owner.get(name, name) == name:
            symbols.append((name, arity))
    relations: dict[str, set] = {name: set() for name, _ in symbols}
    for name in s.signature.names:
        relations[owner.get(name, name)].update(s.rel(name))
    return make_structure(Signature(tuple(symbols)), s.domain, relations)


def mark(s: Structure, name: str) -> Structure:
    """Append a fresh unary relation holding on every vertex."""
    if s.signature.has(name):
        raise SignatureError(f"mark name {name!r} clashes with an existing symbol")
    return make_structure(
        s.signature.extend([(name, 1)]),
        s.domain,
        {**{n: s.rel(n) for n in s.signature.names}, name: [(v,) for v in range(s.domain)]},
    )


# ---------------------------------------------------------------------------
# Basic structures

@dataclass(frozen=True)
class BasicStructureSpec:
    """k marked tournaments and l marked vertices, with tournament orders."""

    k: int
    l: int
    orders: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0 or self.l < 0:
            raise SignatureError("k and l must be non-negative")
        if len(self.orders) != self.k:
            raise SignatureError(f"expected {self.k} orders, got {len(self.orders)}")
        if any(n < 0 for n in self.orders):
            raise SignatureError("tournament orders must be non-negative")


def basic_signature(k: int, l: int) -> Signature:
    """Canonical signature with symbols U1E..UlE, U1T..UkT, S1..Sk in this order."""
    symbols = [(f"U{i}E", 1) for i in range(1, l + 1)]
    symbols += [(f"U{i}T", 1) for i in range(1, k + 1)]
    symbols += [(f"S{i}", 2) for i in range(1, k + 1)]
    return Signature(tuple(symbols))


def build_basic(spec: BasicStructureSpec) -> Structure:
    """Strong sum of l marked vertices then k marked tournaments, with the
    canonical symbol names; marked vertices occupy the lowest indices."""
    signature = basic_signature(spec.k, spec.l)
    budgets.charge_tuples(sum(n * (n - 1) // 2 for n in spec.orders), "tournament order tuples")
    relations: dict[str, list] = {}
    for i in range(1, spec.l + 1):
        relations[f"U{i}E"] = [(i - 1,)]
    offset = spec.l
    for i, n in enumerate(spec.orders, start=1):
        relations[f"U{i}T"] = [(offset + v,) for v in range(n)]
        relations[f"S{i}"] = [(offset + a, offset + b) for a in range(n) for b in range(a + 1, n)]
        offset += n
    return make_structure(signature, offset, relations)


# ---------------------------------------------------------------------------
# Induced substructures

def induced(s: Structure, vertices) -> Structure:
    """Substructure induced on the given vertices (their order fixes new indices)."""
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise SignatureError("induced vertex list contains duplicates")
    keep = set(vertices)
    relations = {
        name: [tuple(index[v] for v in t) for t in s.rel(name) if set(t) <= keep]
        for name in s.signature.names
    }
    return make_structure(s.signature, len(vertices), relations)


# ---------------------------------------------------------------------------
# Components and isomorphism

def gaifman_components(s: Structure) -> list[list[int]]:
    """Connected components of the co-occurrence graph over all relations."""
    parent = list(range(s.domain))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for rel in s.relations:
        for t in rel:
            for v in t[1:]:
                parent[find(v)] = find(t[0])
    groups: dict[int, list[int]] = {}
    for v in range(s.domain):
        groups.setdefault(find(v), []).append(v)
    return [sorted(g) for g in sorted(groups.values(), key=min)]


def component_census(s: Structure) -> dict[bytes, tuple[Structure, int]]:
    """Canonical key of each Gaifman component -> (its first component, multiplicity)."""
    census: dict[bytes, tuple[Structure, int]] = {}
    for comp in gaifman_components(s):
        sub = induced(s, comp)
        key = canonical_form(sub, cap=sub.domain)
        first, count = census.get(key, (sub, 0))
        census[key] = (first, count + 1)
    return census


def isomorphic(a: Structure, b: Structure, cap: int = 64) -> bool:
    """Isomorphism under the identity symbol map (signatures must agree): the
    Gaifman components of a and b have equal multisets of canonical keys.  A
    component with a symbol of arity > 2 may have at most 8 vertices."""
    if a.signature != b.signature or a.domain != b.domain:
        return False
    if a.domain > cap:
        raise BudgetError(f"isomorphism search capped at {cap} vertices (got {a.domain})")
    if a.total_tuples() != b.total_tuples():
        return False
    return ({key: count for key, (_, count) in component_census(a).items()}
            == {key: count for key, (_, count) in component_census(b).items()})


# ---------------------------------------------------------------------------
# JSON serialization

def structure_to_json(s: Structure) -> str:
    """Canonical JSON: fixed key order, tuples sorted, compact separators."""
    payload = {
        "signature": [{"name": name, "arity": arity} for name, arity in s.signature.symbols],
        "domain": s.domain,
        "relations": {name: [list(t) for t in s.rel(name)] for name in s.signature.names},
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def structure_from_json(text: str) -> Structure:
    try:
        payload = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer past the digit limit
        raise SignatureError(f"malformed structure JSON: {exc}") from exc
    try:
        signature = Signature(tuple((s["name"], s["arity"]) for s in payload["signature"]))
        domain = payload["domain"]
        relations = {name: [tuple(t) for t in tuples]
                     for name, tuples in payload.get("relations", {}).items()}
    except (KeyError, TypeError) as exc:
        raise SignatureError(f"malformed structure JSON: {exc}") from exc
    for value in (domain, *(v for tuples in relations.values() for t in tuples for v in t)):
        if type(value) is not int:
            raise SignatureError(f"malformed structure JSON: {value!r} is not an integer")
    return make_structure(signature, domain, relations)
