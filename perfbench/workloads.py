"""The four benchmark workloads: their inputs, their jobs and the reference
check of every job.

Importing this module imports relpoly; the caller puts the checkout's `src`
directory on `sys.path` first.  Only relpoly's public API is called.

`build(name, seed, small)` is the set-up: it builds every input (specs,
patterns, Paley graphs, formulas, structures) and returns the jobs in the
order the seed gives.  A job's `run` is the timed call into relpoly; its
`reference` is called untimed afterwards and gives the output `run` must
equal, computed without the code path being timed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable

import relpoly
from relpoly import gallery

import oracles

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Per-job deadline in seconds, per workload.  Each is several times the
# slowest job that finishes on the reference machine, so only a hang misses
# it; a job that misses it counts as failed with the deadline as its latency.
DEADLINE_S = {"detect": 30.0, "paley": 120.0, "basis": 10.0, "certify": 3.0}
SMOKE_DEADLINE_S = 2.0


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    reference: Callable[[], object]


# ---------------------------------------------------------------------------
# detect: detect_polynomial over the gallery

# (id, text, free variables, the same formula as a Python predicate over the
# arc set E).  The predicates feed the brute-force reference in make_refs.py.
DETECT_FORMULAS = (
    ("P3ind", "E(x,y) & E(y,z) & !E(x,z) & !(x=z)", ("x", "y", "z"),
     lambda E, x, y, z: (x, y) in E and (y, z) in E and (x, z) not in E and x != z),
    ("edge", "E(x,y) & !(x=y)", ("x", "y"),
     lambda E, x, y: (x, y) in E and x != y),
    ("nonedge", "!E(x,y) & !(x=y)", ("x", "y"),
     lambda E, x, y: (x, y) not in E and x != y),
    ("closed", "x = y | E(x,y)", ("x", "y"),
     lambda E, x, y: x == y or (x, y) in E),
    ("sym", "E(x,y) -> E(y,x)", ("x", "y"),
     lambda E, x, y: (x, y) not in E or (y, x) in E),
)
DETECT_PATTERNS = ("K1", "K2", "P3", "K3")
SMOKE_DETECT_ENTRIES = ("complete", "crown", "halfGraph")
SMOKE_DETECT_FORMULAS = ("edge", "nonedge")


def detect_entries(small: bool) -> list[str]:
    names = [n for n, e in gallery.ENTRIES.items() if not e.expect_mismatch]
    return [n for n in names if n in SMOKE_DETECT_ENTRIES] if small else names


def named_fits():
    """Criterion 5's named fits: K_n against K3, and the cycle/K3 witness."""
    kn = relpoly.InterpretedSeq(
        relpoly.forget_orientation_scheme(),
        relpoly.BasicSeq(1, 0, (relpoly.parse_polynomial("n"),)),
    )
    return {"named/Kn-K3": kn, "named/cycle-K3": relpoly.custom_seq("cycle")}


def fit_summary(fit) -> dict:
    return {
        "degree_bound": fit.degree_bound,
        "samples": [v for _, v in fit.sample_points],
        "verify": [v for _, v, _ in fit.verify_points],
        "coeffs": list(fit.fit.coeffs),
        "verdict": fit.verdict,
    }


@lru_cache(maxsize=None)
def detect_refs() -> dict:
    return json.loads((REFS_DIR / "detect.json").read_text())


def _build_detect(small: bool) -> list[Job]:
    patterns = gallery.detector_patterns()
    formulas = {
        fid: relpoly.parse_formula(text, relpoly.GRAPH_SIG, list(variables))
        for fid, text, variables, _ in DETECT_FORMULAS
        if not small or fid in SMOKE_DETECT_FORMULAS
    }
    queries = {label: patterns[label] for label in DETECT_PATTERNS} | formulas
    jobs = []

    def job(job_id, spec, query):
        return Job(job_id,
                   lambda: fit_summary(relpoly.detect_polynomial(spec, query)),
                   lambda: detect_refs()[job_id])

    for name in detect_entries(small):
        spec = gallery.ENTRIES[name].spec()
        for label, query in queries.items():
            jobs.append(job(f"{name}/{label}", spec, query))
    for job_id, spec in named_fits().items():
        jobs.append(job(job_id, spec, patterns["K3"]))
    return jobs


# ---------------------------------------------------------------------------
# paley: deep hom searches into dense Paley graphs

def _build_paley(small: bool) -> list[Job]:
    if small:
        hom_jobs = ((4, 13), (5, 13))
        primes, fit_count = (5, 13, 17), 2
    else:
        hom_jobs = ((4, 37), (4, 61), (5, 37))
        primes, fit_count = (5, 13, 17, 29, 37), 5
    cycles = {k: gallery.cycle_graph(k) for k in (4, 5)}
    graphs = {q: gallery.paley_graph(q) for _, q in hom_jobs}
    jobs = []
    for k, q in hom_jobs:
        jobs.append(Job(
            f"hom/C{k}/q{q}",
            lambda k=k, q=q: relpoly.hom_count(cycles[k], graphs[q]).value,
            lambda k=k, q=q: oracles.closed_walks(oracles.paley_arcs(q), q, k),
        ))

    def experiment():
        report = gallery.paley_experiment(cycles[4], list(primes), fit_count=fit_count)
        return (report.rows, report.fit_coeffs, report.verify_rows, report.all_match)

    jobs.append(Job("experiment/C4", experiment,
                    lambda: oracles.paley_c4_experiment(primes, fit_count)))
    return jobs


# ---------------------------------------------------------------------------
# basis: quantifier-free formulas through the hom basis

BASIS_SIG = relpoly.sig(("R", 2))
# Formula pairs (phi and its negation) per number of free variables.
BASIS_PAIRS = {1: 30, 2: 30, 3: 10}
SMOKE_BASIS_PAIRS = {1: 3, 2: 3, 3: 1}
BASIS_SIZES = (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)
SMOKE_BASIS_SIZES = (1, 2, 3)


def random_formula_text(rng: random.Random, variables, depth: int = 3,
                        max_atoms: int = 4) -> str:
    """A random quantifier-free formula over R, fully parenthesized."""
    budget = [max_atoms]

    def leaf():
        budget[0] -= 1
        roll = rng.random()
        if roll < 0.55:
            return f"R({rng.choice(variables)},{rng.choice(variables)})"
        if roll < 0.85:
            return f"{rng.choice(variables)} = {rng.choice(variables)}"
        return rng.choice(("true", "false"))

    def node(d):
        if d == 0 or budget[0] <= 1 or rng.random() < 0.3:
            return leaf()
        roll = rng.random()
        if roll < 0.25:
            return f"!({node(d - 1)})"
        op = "&" if roll < 0.55 else "|" if roll < 0.85 else "<->"
        return f"({node(d - 1)}) {op} ({node(d - 1)})"

    return node(depth)


def _build_basis(seed: int, small: bool) -> list[Job]:
    rng = random.Random(f"basis:{seed}")
    pairs = SMOKE_BASIS_PAIRS if small else BASIS_PAIRS
    sizes = SMOKE_BASIS_SIZES if small else BASIS_SIZES
    structures = [
        relpoly.make_structure(BASIS_SIG, n, {
            "R": [t for t in product(range(n), repeat=2) if rng.random() < 0.35]})
        for n in sizes
    ]
    jobs = []
    for p, count in pairs.items():
        variables = [f"x{i}" for i in range(1, p + 1)]
        for i in range(count):
            text = random_formula_text(rng, variables)
            while "R(" not in text:
                text = random_formula_text(rng, variables)
            # The decomposition's cost follows the set of diagrams a formula
            # satisfies; a formula and its negation split every diagram
            # between them, so each pair costs about the same whatever the
            # seed.  That keeps pass_s steady across seeds.
            for suffix, phi_text in (("", text), ("neg", f"!({text})")):
                phi = relpoly.parse_formula(phi_text, BASIS_SIG, variables)
                jobs.append(Job(
                    f"p{p}/{i:02d}{suffix}",
                    lambda phi=phi: _basis_values(phi, structures),
                    lambda phi=phi: [relpoly.count_satisfying(phi, s) for s in structures],
                ))
    return jobs


def _basis_values(phi, structures) -> list[int]:
    basis = relpoly.qf_to_hom_basis(phi)
    return [basis.value(s) for s in structures]


# ---------------------------------------------------------------------------
# certify: gallery_check, spot checks and quotient certificates

SMOKE_CERTIFY_ENTRIES = ("crown", "starUnion", "starUnionLiteral")


def _first_n_beyond_cap(entry) -> int:
    n = entry.default_range[1] + 1
    while entry.oracle(n).domain <= entry.canonical_cap:
        n += 1
    return n


def _gallery_job(name: str, n: int, kind: str) -> Job:
    entry = gallery.ENTRIES[name]

    def expected_match():
        # An expected mismatch can only show where the direct construction
        # is non-empty; at n = 0 both sides are the empty graph.
        return not entry.expect_mismatch or entry.oracle(n).domain == 0

    return Job(f"{kind}/{name}/n{n}",
               lambda: gallery.gallery_check(name, n_range=(n, n)).ok, expected_match)


def _same_graph(built, reference) -> bool:
    return relpoly.canonical_form(built) == relpoly.canonical_form(reference)


def _size(g) -> tuple[int, int]:
    return g.domain, gallery.edge_count(g)


def _spot_jobs(small: bool) -> list[Job]:
    """Criterion 4's named spot checks."""
    c6 = gallery.cycle_graph(6)
    jobs = [Job("spot/crown3-is-C6",
                lambda: _same_graph(gallery.gallery_build("crown", None, 3)[0], c6),
                lambda: True)]
    if small:
        return jobs
    jobs.append(Job("spot/johnson5-size",
                    lambda: _size(gallery.gallery_build("johnson", None, 5)[0]),
                    lambda: (10, 30)))
    chord = gallery.ENTRIES["chordGraph"].spec()
    for n in range(4, 9):
        jobs.append(Job(f"spot/chord{n}-edges",
                        lambda n=n: gallery.edge_count(relpoly.generate_term(chord, n)),
                        lambda n=n: math.comb(n, 4)))
    jobs.append(Job("spot/subdivisionK3-is-C6",
                    lambda: _same_graph(gallery.gallery_build("subdivision", None, 3)[0], c6),
                    lambda: True))
    octahedron = gallery.octahedron()
    jobs.append(Job("spot/lineGraphK4-is-octahedron",
                    lambda: _same_graph(gallery.gallery_build("lineGraph", None, 4)[0],
                                        octahedron),
                    lambda: True))
    return jobs


def _quotient_jobs(small: bool) -> list[Job]:
    """Criterion 8: the line-graph quotient of K_m with its certificates."""
    scheme = gallery.line_graph_scheme()
    jobs = []
    for m in ((3,) if small else (3, 4, 5)):
        km = gallery.complete_graph(m)

        def run(km=km):
            report = relpoly.apply_quotient_with_report(scheme, km)
            return (sorted(set(report.class_sizes)), len(report.classes),
                    _same_graph(report.structure, gallery.line_graph_oracle(km)))

        # (class sizes, class count, same graph as the direct line graph)
        jobs.append(Job(f"quotient/K{m}", run, lambda m=m: ([2], m * (m - 1) // 2, True)))
    return jobs


def _build_certify(small: bool) -> list[Job]:
    jobs = []
    for name, entry in gallery.ENTRIES.items():
        if small and name not in SMOKE_CERTIFY_ENTRIES:
            continue
        lo, hi = entry.default_range
        jobs.extend(_gallery_job(name, n, "range") for n in range(lo, hi + 1))
        # The first n past the canonical-key cap goes through the
        # isomorphism search instead.
        jobs.append(_gallery_job(name, _first_n_beyond_cap(entry), "beyond"))
    return jobs + _spot_jobs(small) + _quotient_jobs(small)


# ---------------------------------------------------------------------------

def build(name: str, seed: int, small: bool = False) -> tuple[list[Job], float]:
    """Build the workload's inputs; return its jobs in seeded order and the
    per-job deadline."""
    if name == "detect":
        jobs = _build_detect(small)
    elif name == "paley":
        jobs = _build_paley(small)
    elif name == "basis":
        jobs = _build_basis(seed, small)
    elif name == "certify":
        jobs = _build_certify(small)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(f"order:{seed}").shuffle(jobs)
    deadline = SMOKE_DEADLINE_S if small else DEADLINE_S[name]
    return jobs, deadline
