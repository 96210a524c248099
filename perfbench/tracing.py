"""Span tracer for the traced run.

`Tracer.install()` replaces each function in `TRACED` with a wrapper on every
relpoly module attribute bound to it, which is how its callers reach it
(`relpoly.sequences.hom_count`, `relpoly.logic.super_patterns`, ...).  Each
wrapped call records a span (name, start, end, parent span, job) in memory;
self time is a span's duration minus the time its child spans cover.  Spans
are written out after the pass.  The untraced run never installs anything.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

from relpoly import ToolkitError

# metric prefix -> (module, attribute, kind).  A generator is timed across its
# iteration: one span per step.
TRACED = {
    "counting.hom": ("relpoly.counting", "hom_count", "call"),
    "counting.inj": ("relpoly.counting", "inj_count", "call"),
    "counting.super_patterns": ("relpoly.counting", "super_patterns", "generator"),
    "counting.quotient": ("relpoly.counting", "quotient", "call"),
    "structures.make_structure": ("relpoly.structures", "make_structure", "call"),
    "structures.isomorphic": ("relpoly.structures", "isomorphic", "call"),
    "canon.canonical_form": ("relpoly.canon", "canonical_form", "call"),
    "logic.qf_to_hom_basis": ("relpoly.logic", "qf_to_hom_basis", "call"),
    "logic.count_satisfying": ("relpoly.logic", "count_satisfying", "call"),
    "interp.apply_scheme": ("relpoly.interp", "apply_scheme", "call"),
    # apply_quotient delegates to apply_quotient_with_report, which is also
    # what the quotient-certificate jobs call.
    "interp.apply_quotient": ("relpoly.interp", "apply_quotient_with_report", "call"),
    "sequences.generate_term": ("relpoly.sequences", "generate_term", "call"),
    "gallery.oracle": ("relpoly.gallery", "GalleryEntry.oracle", "call"),
    "polynomials.interpolate": ("relpoly.polynomials", "interpolate", "call"),
    "gallery.lagrange_fit": ("relpoly.gallery", "lagrange_fit", "call"),
}
# Calls into the predicates that logic.evaluator returns are counted, not
# spanned: there are millions of them.
EVALUATOR = ("relpoly.logic", "evaluator")

# Work counters that must repeat exactly across runs of one commit.
EXACT_COUNTERS = (
    "counting.hom.nodes",
    "counting.inj.nodes",
    "counting.super_patterns.yielded",
    "logic.hom_basis.terms",
    "interp.candidate_tuples",
    "logic.count_satisfying.assignments",
    "sequences.term_repeat_ratio",
)

# per-layer metric -> unit; the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {}
for _name in TRACED:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_name}.errors"] = "count"
PER_LAYER_UNITS.update({
    "counting.hom.nodes": "count",
    "counting.inj.nodes": "count",
    "counting.nodes_per_map": "ratio",
    "counting.super_patterns.yielded": "count",
    "logic.hom_basis.terms": "count",
    "logic.count_satisfying.assignments": "count",
    "logic.predicate_calls": "count",
    "interp.candidate_tuples": "count",
    "interp.yield_ratio": "ratio",
    "sequences.term_repeat_ratio": "ratio",
    "trace_overhead_frac": "ratio",
    "count_drift": "count",
})


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    path = attribute.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1], None)


def _sites(owner, attr: str, original):
    """Every (namespace, name) through which callers reach `original`."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "relpoly" or name.startswith("relpoly.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
    return found


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.open_count = [0] * n
        self.counters = dict.fromkeys(
            ("hom_nodes", "inj_nodes", "maps", "yielded", "terms", "assignments",
             "predicate_calls", "candidates", "produced", "top_terms"), 0)
        self.distinct_terms: set = set()
        self.paused = False
        self.job = -1
        self.origin = time.perf_counter()
        # Open spans: [name index, start, time covered by children, span id].
        self.stack: list[list] = []
        # Closed spans, one column per field.
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}

    # -- spans ------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self.stack.clear()   # a deadline can leave a span unclosed

    def _open(self, idx: int) -> list:
        self.open_count[idx] += 1
        frame = [idx, time.perf_counter(), 0.0, len(self.span_name)]
        # Reserve the span's slot now so children can name it as parent.
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1][3] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_start.append(frame[1] - self.origin)
        self.span_end.append(0.0)
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        idx, start, covered, span_id = frame
        self.open_count[idx] -= 1
        duration = end - start
        self.self_s[idx] += duration - covered
        self.span_end[span_id] = end - self.origin
        if self.stack and self.stack[-1] is frame:
            self.stack.pop()
        if self.stack:
            self.stack[-1][2] += duration

    # -- wrappers ---------------------------------------------------------

    def _observe(self, name: str, args, result, nested: bool) -> None:
        c = self.counters
        if name == "counting.hom":
            c["hom_nodes"] += result.nodes_explored
            c["maps"] += result.value
        elif name == "counting.inj":
            c["inj_nodes"] += result.nodes_explored
            c["maps"] += result.value
        elif name == "logic.qf_to_hom_basis":
            c["terms"] += len(result.terms)
        elif name == "logic.count_satisfying":
            phi, s = args[0], args[1]
            c["assignments"] += s.domain ** len(phi.free_vars)
        elif name == "interp.apply_scheme":
            scheme, a = args[0], args[1]
            c["candidates"] += a.domain ** scheme.p + sum(
                result.domain ** arity for _, arity in result.signature.symbols)
            c["produced"] += result.domain + result.total_tuples()
        elif name == "sequences.generate_term" and not nested:
            c["top_terms"] += 1
            self.distinct_terms.add((args[0], args[1]))

    def _wrap_call(self, idx: int, fn):
        name = self.names[idx]
        observed = name in ("counting.hom", "counting.inj", "logic.qf_to_hom_basis",
                            "logic.count_satisfying", "interp.apply_scheme",
                            "sequences.generate_term")

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            nested = self.open_count[idx] > 0
            self.calls[idx] += 1
            frame = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            except ToolkitError:
                self.errors[idx] += 1
                raise
            finally:
                self._close(frame)
            if observed:
                self._observe(name, args, result, nested)
            return result

        return traced

    def _wrap_generator(self, idx: int, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if self.paused:
                return inner
            self.calls[idx] += 1
            return self._steps(idx, inner)

        return traced

    def _steps(self, idx: int, inner):
        while True:
            frame = self._open(idx)
            try:
                item = next(inner)
            except StopIteration:
                return
            except ToolkitError:
                self.errors[idx] += 1
                raise
            finally:
                self._close(frame)
            self.counters["yielded"] += 1
            yield item

    def _wrap_evaluator(self, fn):
        counters = self.counters

        def traced(phi, s):
            predicate = fn(phi, s)
            if self.paused:
                return predicate

            def counted(a):
                counters["predicate_calls"] += 1
                return predicate(a)

            return counted

        return traced

    def install(self) -> None:
        targets = [(name, *TRACED[name]) for name in self.names]
        targets.append(("logic.evaluator", *EVALUATOR, "evaluator"))
        for name, module, attribute, kind in targets:
            owner, attr, original = _resolve(module, attribute)
            if original is None:
                self.missing.append(name)
                continue
            if kind == "evaluator":
                wrapper = self._wrap_evaluator(original)
            elif kind == "generator":
                wrapper = self._wrap_generator(self.names.index(name), original)
            else:
                wrapper = self._wrap_call(self.names.index(name), original)
            sites = _sites(owner, attr, original)
            for namespace, key in sites:
                setattr(namespace, key, wrapper)
            self.sites[name] = [
                f"{ns.__module__}.{ns.__qualname__}.{key}" if isinstance(ns, type)
                else f"{ns.__name__}.{key}"
                for ns, key in sites
            ]

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
            out[f"{name}.errors"] = self.errors[idx]
        c = self.counters
        nodes = c["hom_nodes"] + c["inj_nodes"]
        out.update({
            "counting.hom.nodes": c["hom_nodes"],
            "counting.inj.nodes": c["inj_nodes"],
            "counting.nodes_per_map": nodes / c["maps"] if c["maps"] else 0.0,
            "counting.super_patterns.yielded": c["yielded"],
            "logic.hom_basis.terms": c["terms"],
            "logic.count_satisfying.assignments": c["assignments"],
            "logic.predicate_calls": c["predicate_calls"],
            # candidates per application: |A|^p domain tuples plus
            # m^arity tuples per output relation, m the output's size
            "interp.candidate_tuples": c["candidates"],
            "interp.yield_ratio": c["produced"] / c["candidates"] if c["candidates"] else 0.0,
            "sequences.term_repeat_ratio": (
                c["top_terms"] / len(self.distinct_terms) if self.distinct_terms else 0.0),
        })
        return out

    def write_spans(self, path) -> int:
        """Write the spans as gzipped CSV; times are seconds from tracer start."""
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("span,name,parent,job,start_s,end_s\n")
            for i in range(len(self.span_name)):
                out.write(f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                          f"{self.span_job[i]},{self.span_start[i]:.7f},"
                          f"{self.span_end[i]:.7f}\n")
        return len(self.span_name)
