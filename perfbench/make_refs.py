"""Regenerate refs/detect.json, the reference fits of the detect workload.

Each job's counts come from a brute-force counter (oracles.py) run over the
gallery's direct oracle constructions, never from relpoly's hom counting,
formula evaluation, schemes or interpolation.  Only the degree bound is taken
from relpoly (`domain_degree`), since it is a parameter of the detector's
procedure: sample n = 0..d, fit, verify on the next five n.

    python3 perfbench/make_refs.py        # takes a few minutes
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import relpoly  # noqa: E402
from relpoly import gallery  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

VERIFY_COUNT = 5


def _sym(edges):
    return frozenset(edges) | frozenset((b, a) for a, b in edges)


PATTERNS = {  # (vertices, arcs)
    "K1": (1, frozenset()),
    "K2": (2, _sym([(0, 1)])),
    "P3": (3, _sym([(0, 1), (1, 2)])),
    "K3": (3, _sym([(0, 1), (1, 2), (0, 2)])),
}


def complete_arcs(n: int):
    return n, frozenset((x, y) for x in range(n) for y in range(n) if x != y)


def cycle_arcs(n: int):
    """The `cycle` custom sequence: a loop at n = 1, one edge at n = 2."""
    if n == 1:
        return 1, frozenset({(0, 0)})
    if n == 2:
        return 2, _sym([(0, 1)])
    return n, _sym([(i, (i + 1) % n) for i in range(n)])


def entry_arcs(name: str):
    entry = gallery.ENTRIES[name]

    def arcs(n: int):
        g = entry.oracle(n)
        return g.domain, frozenset(g.rel("E"))

    return arcs


def reference_fit(degree_bound: int, count_at) -> dict:
    last = degree_bound + VERIFY_COUNT
    values = [count_at(n) for n in range(last + 1)]
    samples, verify = values[:degree_bound + 1], values[degree_bound + 1:]
    coeffs = oracles.forward_differences(samples)
    ok = all(oracles.binomial_value(coeffs, degree_bound + 1 + i) == v
             for i, v in enumerate(verify))
    return {
        "degree_bound": degree_bound,
        "samples": samples,
        "verify": verify,
        "coeffs": coeffs,
        "verdict": "Polynomial" if ok else "NotPolynomial",
    }


def query_counter(label: str, graph_at):
    if label in PATTERNS:
        k, pattern = PATTERNS[label]
        return k, lambda n: oracles.hom_brute(k, pattern, *graph_at(n))
    for fid, _, variables, predicate in workloads.DETECT_FORMULAS:
        if fid == label:
            p = len(variables)
            return p, lambda n: oracles.count_brute(predicate, p, *graph_at(n))
    raise KeyError(label)


def main() -> None:
    labels = list(workloads.DETECT_PATTERNS) + [f[0] for f in workloads.DETECT_FORMULAS]
    refs = {}
    for name in workloads.detect_entries(small=False):
        degree = relpoly.domain_degree(gallery.ENTRIES[name].spec())
        for label in labels:
            size, count_at = query_counter(label, entry_arcs(name))
            refs[f"{name}/{label}"] = reference_fit(size * degree, count_at)
            print(f"{name}/{label}: {refs[f'{name}/{label}']['verdict']}", flush=True)
    named_graphs = {"named/Kn-K3": complete_arcs, "named/cycle-K3": cycle_arcs}
    for job_id, spec in workloads.named_fits().items():
        size, count_at = query_counter("K3", named_graphs[job_id])
        refs[job_id] = reference_fit(size * relpoly.domain_degree(spec), count_at)
        print(f"{job_id}: {refs[job_id]['verdict']}", flush=True)
    out = HERE / "refs" / "detect.json"
    out.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(job)}: {json.dumps(refs[job])}" for job in sorted(refs)]
    out.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
