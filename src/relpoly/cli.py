"""Command-line surface: build and inspect structures, evaluate formulas,
count maps, apply schemes, run the polynomial detector, check the gallery,
decompose bounded-degree sequences, and run the Paley experiment.

Exit codes: 0 success; 1 a verification or check failed (data still printed);
2 usage, parse, or binding errors (nothing on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .counting import hom_count, ind_count, inj_count
from .errors import (
    BudgetError,
    ToolkitError,
    UnboundedDegreeError,
    ValidationError,
)
from .gallery import (
    ENTRIES,
    bounded_decompose,
    cycle_graph,
    gallery_check,
    gallery_list,
    paley_experiment,
)
from .interp import (
    QuotientScheme,
    apply_interpretation_with_map,
    apply_quotient_with_report,
    parse_scheme,
)
from .logic import count_satisfying, eval_formula, parse_formula, satisfying_tuples
from .sequences import detect_polynomial, generate_term, signature_of, spec_from_json
from .structures import (
    BasicStructureSpec,
    Structure,
    build_basic,
    build_marked_vertex,
    build_transitive_tournament,
    structure_from_json,
    structure_to_json,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def load_structure(path: str) -> Structure:
    return structure_from_json(_load_text(path))


def _emit_json(out: list[str], payload):
    out.append(json.dumps(payload, indent=2) + "\n")


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"{option} needs comma-separated integers, got {text!r}") from None


def detect_csv(fit) -> str:
    lines = ["n,value,phase,match"]
    for n, value in fit.sample_points:
        lines.append(f"{n},{value},sample,")
    for n, value, match in fit.verify_points:
        lines.append(f"{n},{value},verify,{'true' if match else 'false'}")
    return "\n".join(lines) + "\n"


def _build_parser() -> _Parser:
    parser = _Parser(prog="relpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", help="build or show structures")
    ssub = p.add_subparsers(dest="action", required=True)
    b = ssub.add_parser("build")
    b.add_argument("--kind", choices=("marked", "tournament", "basic"), required=True)
    b.add_argument("--n", type=int, default=0, help="order for tournaments")
    b.add_argument("--k", type=int, default=0)
    b.add_argument("--l", type=int, default=0)
    b.add_argument("--orders", default="", help="comma-separated tournament orders")
    b.add_argument("--out", help="write JSON here instead of stdout")
    s = ssub.add_parser("show")
    s.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("eval", help="evaluate or count a formula on a structure")
    p.add_argument("--formula", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vars", help="comma-separated declared variable order")
    p.add_argument("--assign", help="comma-separated vertex per declared variable")
    p.add_argument("--list", action="store_true", help="stream satisfying tuples")

    p = sub.add_parser("count", help="count hom/inj/ind maps")
    p.add_argument("--mode", choices=("hom", "inj", "ind"), required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser("interpret", help="apply a scheme file to a structure")
    p.add_argument("--scheme", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--map", dest="mapfile", help="write the vertex-tuple table here")
    p.add_argument("--n", type=int, help="sequence index for class-size certificates")

    p = sub.add_parser("detect", help="fit and verify a counting polynomial")
    p.add_argument("--spec", required=True)
    p.add_argument("--pattern", help="pattern structure JSON file (hom query)")
    p.add_argument("--formula", help="quantifier-free formula text")
    p.add_argument("--vars", help="declared variables for --formula")
    p.add_argument("--verify", type=int, default=5)
    p.add_argument("--csv", help="write the sample/verify table here")

    p = sub.add_parser("gallery", help="list or run the construction gallery")
    gsub = p.add_subparsers(dest="action", required=True)
    gsub.add_parser("list")
    r = gsub.add_parser("run")
    r.add_argument("name")
    r.add_argument("--params", help="JSON object of entry parameters")
    r.add_argument("--n", type=int, help="build a single index instead of a range")
    r.add_argument("--range", help="a:b inclusive check range")
    r.add_argument("--check", action="store_true", help="compare scheme vs oracle")
    r.add_argument("--detect", action="store_true", help="also run the detector")
    r.add_argument("--out", help="write the scheme-built structure here (with --n)")

    p = sub.add_parser("decompose", help="bounded-degree component decomposition")
    p.add_argument("--spec", required=True)
    p.add_argument("--cap", type=int, required=True, help="maximum-degree cap")
    p.add_argument("--held-out", type=int, default=3)
    p.add_argument("--d-max", type=int)

    p = sub.add_parser("paley", help="polynomial fit of pattern counts in Paley graphs")
    p.add_argument("--pattern", help="pattern structure JSON file")
    p.add_argument("--cycle", type=int, help="use a cycle of this length as the pattern")
    p.add_argument("--primes", required=True, help="comma-separated primes = 1 mod 4")
    p.add_argument("--fit-count", type=int)
    p.add_argument("--no-images", action="store_true",
                   help="skip the homomorphic-image counts")
    return parser


def _cmd_structure(args, out) -> int:
    if args.action == "show":
        out.append(structure_to_json(load_structure(args.infile)))
        return 0
    if args.kind == "marked":
        s = build_marked_vertex()
    elif args.kind == "tournament":
        s = build_transitive_tournament(args.n)
    else:
        orders = tuple(_int_list(args.orders, "--orders"))
        s = build_basic(BasicStructureSpec(args.k, args.l, orders))
    text = structure_to_json(s)
    if args.out:
        Path(args.out).write_text(text)
        _emit_json(out, {"written": args.out, "domain": s.domain})
    else:
        out.append(text)
    return 0


def _declared(args):
    return [v.strip() for v in args.vars.split(",")] if args.vars else None


def _cmd_eval(args, out) -> int:
    s = load_structure(args.infile)
    phi = parse_formula(args.formula, s.signature, _declared(args))
    if args.assign is not None:
        values = _int_list(args.assign, "--assign")
        if len(values) != len(phi.free_vars):
            raise UsageError(
                f"--assign needs {len(phi.free_vars)} values, got {len(values)}"
            )
        result = eval_formula(phi, s, dict(zip(phi.free_vars, values)))
        _emit_json(out, {"value": result})
        return 0
    if args.list:
        tuples = [list(t) for t in satisfying_tuples(phi, s)]
        _emit_json(out, {"count": len(tuples), "tuples": tuples})
        return 0
    _emit_json(out, {"count": count_satisfying(phi, s)})
    return 0


def _cmd_count(args, out) -> int:
    pattern = load_structure(args.pattern)
    target = load_structure(args.target)
    fn = {"hom": hom_count, "inj": inj_count, "ind": ind_count}[args.mode]
    report = fn(pattern, target)
    _emit_json(out, {
        "mode": report.mode,
        "value": report.value,
        "nodesExplored": report.nodes_explored,
    })
    return 0


def _cmd_interpret(args, out) -> int:
    scheme = parse_scheme(_load_text(args.scheme))
    source = load_structure(args.infile)
    if isinstance(scheme, QuotientScheme):
        report = apply_quotient_with_report(scheme, source, n=args.n)
        result = report.structure
        table = [list(t) for t in report.tuples]
        extra = {
            "classes": [list(c) for c in report.classes],
            "classSizes": list(report.class_sizes),
            "certificates": list(report.certificate_labels),
        }
    else:
        result, tuples = apply_interpretation_with_map(scheme, source)
        table = [list(t) for t in tuples]
        extra = {}
    text = structure_to_json(result)
    if args.out:
        Path(args.out).write_text(text)
    else:
        out.append(text)
    if args.mapfile:
        Path(args.mapfile).write_text(json.dumps({"tuples": table}, indent=2) + "\n")
    if args.out:
        _emit_json(out, {"written": args.out, "domain": result.domain, **extra})
    elif extra:
        _emit_json(out, extra)
    return 0


def _cmd_detect(args, out) -> int:
    spec = spec_from_json(_load_text(args.spec))
    if (args.pattern is None) == (args.formula is None):
        raise UsageError("exactly one of --pattern / --formula is required")
    if args.pattern:
        query = load_structure(args.pattern)
    else:
        text = args.formula
        if Path(text).is_file():
            text = Path(text).read_text().strip()
        query = parse_formula(text, signature_of(spec), _declared(args))
    fit = detect_polynomial(spec, query, verify_count=args.verify)
    if args.csv:
        Path(args.csv).write_text(detect_csv(fit))
    _emit_json(out, fit.to_dict())
    return 0 if fit.verdict == "Polynomial" else 1


def _cmd_gallery(args, out) -> int:
    if args.action == "list":
        _emit_json(out, gallery_list())
        return 0
    params = json.loads(args.params) if args.params else None
    if params is not None and not isinstance(params, dict):
        raise UsageError(f"--params must be a JSON object, got {args.params!r}")
    if args.name not in ENTRIES:
        raise UsageError(f"unknown gallery entry {args.name!r}")
    if args.n is not None and not args.check:
        entry = ENTRIES[args.name]
        built = generate_term(entry.spec(params), args.n)
        text = structure_to_json(built)
        if args.out:
            Path(args.out).write_text(text)
            _emit_json(out, {"written": args.out, "domain": built.domain})
        else:
            out.append(text)
        return 0
    n_range = None
    if args.range:
        lo, _, hi = args.range.partition(":")
        try:
            n_range = (int(lo), int(hi))
        except ValueError:
            raise UsageError(f"--range needs two integers a:b, got {args.range!r}") from None
        if n_range[0] > n_range[1]:
            raise UsageError(f"--range needs a <= b, got {args.range!r}")
    elif args.n is not None:
        n_range = (args.n, args.n)
    report = gallery_check(args.name, params, n_range, detect=args.detect)
    _emit_json(out, report.to_dict())
    expected_ok = not ENTRIES[args.name].expect_mismatch
    return 0 if report.ok == expected_ok else 1


def _cmd_decompose(args, out) -> int:
    spec = spec_from_json(_load_text(args.spec))
    decomposition = bounded_decompose(
        spec, args.cap, d_max=args.d_max, held_out=args.held_out
    )
    _emit_json(out, decomposition.to_dict())
    return 0


def _cmd_paley(args, out) -> int:
    if (args.pattern is None) == (args.cycle is None):
        raise UsageError("exactly one of --pattern / --cycle is required")
    pattern = load_structure(args.pattern) if args.pattern else cycle_graph(args.cycle)
    primes = _int_list(args.primes, "--primes")
    report = paley_experiment(
        pattern, primes, fit_count=args.fit_count, image_counts=not args.no_images
    )
    _emit_json(out, report.to_dict())
    return 0 if report.all_match else 1


_COMMANDS = {
    "structure": _cmd_structure,
    "eval": _cmd_eval,
    "count": _cmd_count,
    "interpret": _cmd_interpret,
    "detect": _cmd_detect,
    "gallery": _cmd_gallery,
    "decompose": _cmd_decompose,
    "paley": _cmd_paley,
}


def run(argv) -> int:
    """Execute one command; stdout carries data only, diagnostics go to
    stderr, and nothing is printed on usage errors."""
    out: list[str] = []
    try:
        args = _build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args, out)
    except (UsageError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, UnboundedDegreeError, BudgetError) as exc:
        sys.stdout.write("".join(out))
        print(f"check failed: {exc}", file=sys.stderr)
        if getattr(exc, "witness", None) is not None:
            print(f"witness: {json.dumps(exc.witness)}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(out))
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
