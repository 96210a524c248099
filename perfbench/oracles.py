"""Reference values computed without relpoly's counting, interpolation or
graph code: Paley graphs built from the quadratic residues, closed-walk
counts from exact integer matrix powers, brute-force hom and formula counts,
and exact Lagrange fits over fractions."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb


@lru_cache(maxsize=None)
def paley_arcs(q: int) -> frozenset:
    """Ordered adjacent pairs of the Paley graph on Z_q."""
    squares = {(i * i) % q for i in range(1, q)}
    return frozenset((x, y) for x in range(q) for y in range(q)
                     if x != y and (x - y) % q in squares)


def closed_walks(arcs, n: int, k: int) -> int:
    """trace(A^k) with exact integers, which is hom(C_k, G) for k >= 3."""
    neighbours = [[y for y in range(n) if (x, y) in arcs] for x in range(n)]
    total = 0
    for start in range(n):
        walks = [0] * n
        walks[start] = 1
        for _ in range(k):
            step = [0] * n
            for x, count in enumerate(walks):
                if count:
                    for y in neighbours[x]:
                        step[y] += count
            walks = step
        total += walks[start]
    return total


def c4_image_count(arcs, n: int) -> int:
    """Subgraphs that are homomorphic images of C4: the 4-cycles, the 2-paths
    and the edges.  inj(C4) = tr(A^4) - 2*sum d(d-1) - sum d."""
    degrees = [sum(1 for y in range(n) if (x, y) in arcs) for x in range(n)]
    inj_c4 = (closed_walks(arcs, n, 4)
              - 2 * sum(d * (d - 1) for d in degrees) - sum(degrees))
    return inj_c4 // 8 + sum(comb(d, 2) for d in degrees) + len(arcs) // 2


def lagrange_fit(points) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the interpolant, by Newton divided
    differences; trailing zeros dropped, at least one coefficient kept."""
    xs = [Fraction(x) for x, _ in points]
    table = [Fraction(y) for _, y in points]
    newton = [table[0]]
    for level in range(1, len(xs)):
        table = [(table[i + 1] - table[i]) / (xs[i + level] - xs[i])
                 for i in range(len(table) - 1)]
        newton.append(table[0])
    coeffs = [Fraction(0)]
    for i in reversed(range(len(newton))):
        # coeffs = coeffs * (x - xs[i]) + newton[i]
        shifted = [Fraction(0)] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= xs[i] * c
        shifted[0] += newton[i]
        coeffs = shifted
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def eval_power(coeffs, x) -> Fraction:
    return sum(c * Fraction(x) ** i for i, c in enumerate(coeffs))


def paley_c4_experiment(primes, fit_count: int):
    """What paley_experiment(C4, primes, fit_count) must return, as
    (rows, fit coefficients, verify rows, all match)."""
    rows = tuple((q, closed_walks(paley_arcs(q), q, 4), c4_image_count(paley_arcs(q), q))
                 for q in primes)
    coeffs = lagrange_fit([(q, h) for q, h, _ in rows[:fit_count]])
    verify = tuple((q, h, eval_power(coeffs, q) == h) for q, h, _ in rows[fit_count:])
    return rows, coeffs, verify, all(m for _, _, m in verify)


# ---------------------------------------------------------------------------
# Brute force over small graphs given as (vertex count, arc set)

def hom_brute(pattern_vertices: int, pattern_arcs, n: int, arcs) -> int:
    """Maps V(H) -> V(G) carrying every arc of H onto an arc of G, counted by
    extending partial maps one vertex at a time."""
    check_at = [[(a, b) for a, b in pattern_arcs if max(a, b) == v]
                for v in range(pattern_vertices)]
    image: list[int] = []

    def extend() -> int:
        v = len(image)
        if v == pattern_vertices:
            return 1
        total = 0
        for w in range(n):
            image.append(w)
            if all((image[a], image[b]) in arcs for a, b in check_at[v]):
                total += extend()
            image.pop()
        return total

    return extend()


def count_brute(predicate, arity: int, n: int, arcs) -> int:
    """Assignments in V^arity satisfying the predicate, by full enumeration."""
    return sum(1 for a in product(range(n), repeat=arity) if predicate(arcs, *a))


def forward_differences(values) -> list[int]:
    """Binomial-basis coefficients of the interpolant through values at
    0, 1, 2, ...; trailing zeros dropped."""
    coeffs = []
    row = list(values)
    while row:
        coeffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def binomial_value(coeffs, n: int) -> int:
    return sum(c * comb(n, k) for k, c in enumerate(coeffs))
