"""Scheme application against the reference in oracle_interp.py: equal
structures, tuple maps, classes and certificate labels on the gallery and on
seeded random schemes, with as many formula evaluations (on a quotient, less
the ones the oracle repeats); the same exception type, message and witness
where a scheme is invalid; and the translation duality as a property test."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoly import (
    GRAPH_SIG,
    ClassCertificate,
    GraphicalScheme,
    InterpretationScheme,
    InterpretedSeq,
    build_basic,
    BasicStructureSpec,
    build_formula,
    complement_scheme,
    count_satisfying,
    generate_term,
    make_structure,
    parse_formula,
    sig,
    translate_formula,
)
from relpoly import interp, logic
from relpoly.errors import ToolkitError, ValidationError
from relpoly.gallery import ENTRIES, crown_scheme, line_graph_scheme
from relpoly.logic import TRUE, Exists, Iff, conj, disj, eq, substitute
from relpoly.polynomials import constant

import oracle_interp
from genutil import K3, random_qf_formula, random_qf_node, random_scheme, random_structure

SOURCE = sig(("R", 2), ("W", 1))


def _outcome(module, fn, *args, **kwargs):
    """The result, or the type, message and witness of the toolkit error
    raised, and the number of formula evaluations: calls of the predicates
    the module's evaluator returns plus rows passed to row kernels."""
    calls = 0
    original = module.evaluator
    original_rows = logic._compiled_rows

    def evaluator(phi, s):
        test = original(phi, s)

        def counted(t):
            nonlocal calls
            calls += 1
            return test(t)
        return counted

    def compiled_rows(phi, split):
        kernel = original_rows(phi, split)

        def counted(h, rows, *rest):
            nonlocal calls
            calls += len(rows)
            return kernel(h, rows, *rest)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "evaluator", evaluator)
        mp.setattr(logic, "_compiled_rows", compiled_rows)
        try:
            return fn(*args, **kwargs), calls
        except ToolkitError as exc:
            return (type(exc), str(exc), getattr(exc, "witness", None)), None


def _repeated_choices(scheme, report) -> int:
    """The oracle's extra evaluations on a quotient: it evaluates the
    representative choice a second time on every class tuple that has more
    than one representative choice, summed over the target symbols."""
    singletons = report.class_sizes.count(1)
    return sum(len(report.classes) ** arity - singletons ** arity
               for _, arity in scheme.target.symbols)


def _with_map(scheme, a):
    """The structure and tuple table of a scheme without an equivalence
    formula, whose classes are the singletons of its tuples, in order."""
    report = interp.apply_quotient_with_report(scheme, a)
    assert report.classes == tuple((i,) for i in range(len(report.tuples)))
    assert report.certificate_labels == (None,) * len(report.tuples)
    return report.structure, report.tuples


def _agree(scheme, a, n=None, budget=None):
    """Apply the scheme both ways and assert equal outcomes and, where both
    succeed, equal formula evaluations, less the oracle's repeated ones on a
    quotient, which it checks on every representative choice; return the
    result, or the type of the error raised.  A given budget is the tuple
    budget of both sides."""
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setenv("RELPOLY_TUPLE_BUDGET", str(budget))
        if scheme.varpi is not None:
            new = _outcome(interp, interp.apply_quotient_with_report, scheme, a, n=n)
            old = _outcome(oracle_interp, oracle_interp.apply_quotient_with_report, scheme, a,
                           n=n, compat_samples=math.inf)
            if old[1] is not None:
                old = old[0], old[1] - _repeated_choices(scheme, old[0])
        elif isinstance(scheme, GraphicalScheme):
            new = _outcome(interp, interp.apply_scheme, scheme, a)
            old = _outcome(oracle_interp, oracle_interp.apply_graphical, scheme, a)
        else:
            new = _outcome(interp, _with_map, scheme, a)
            old = _outcome(oracle_interp, oracle_interp.apply_interpretation_with_map, scheme, a)
    # QuotientReport compares structure, tuples, classes, sizes and labels.
    assert new == old, (scheme.name, a)
    return new[0] if new[1] is not None else new[0][0]


def test_gallery_schemes_agree_with_oracle():
    applied = 0
    for entry in ENTRIES.values():
        spec = entry.spec()
        if not isinstance(spec, InterpretedSeq):
            continue
        lo, hi = entry.default_range
        for n in range(lo, hi + 1):
            _agree(spec.scheme, generate_term(spec.inner, n), n=n)
            applied += 1
    assert applied > 50


def _equivalence(rng, p: int):
    """A random equivalence on p-tuples: equal on a random set of coordinates
    and agreeing on a random formula.  Returns it with the kept coordinates."""
    xs = [f"x{i}" for i in range(1, p + 1)]
    ys = [f"y{i}" for i in range(1, p + 1)]
    kept = [j for j in range(p) if rng.random() < 0.3]
    phi = random_qf_node(rng, SOURCE, xs, depth=2, max_atoms=2)
    same = Iff(phi, substitute(phi, dict(zip(xs, ys))))
    varpi = build_formula(conj(same, *[eq(xs[j], ys[j]) for j in kept]), SOURCE, xs + ys)
    return varpi, kept


def _random_quotient(rng, target, p: int) -> InterpretationScheme:
    """Mostly a valid equivalence, and half the time relation formulas that
    read only coordinates it keeps, so they are compatible; otherwise random
    formulas."""
    varpi, kept = _equivalence(rng, p)
    if rng.random() < 0.2:
        varpi = random_qf_formula(rng, SOURCE, 2 * p, depth=2, max_atoms=3)
    xs = [f"x{i}" for i in range(1, p + 1)]
    rho0 = (build_formula(TRUE, SOURCE, xs) if rng.random() < 0.5
            else random_qf_formula(rng, SOURCE, p, depth=2, max_atoms=2))
    compatible = rng.random() < 0.5 and kept
    rhos = []
    for _, arity in target.symbols:
        names = [f"v{b}_{j}" for b in range(arity) for j in range(p)]
        used = [f"v{b}_{j}" for b in range(arity) for j in kept] if compatible else names
        rhos.append(build_formula(random_qf_node(rng, SOURCE, used, depth=2, max_atoms=3),
                                  SOURCE, names))
    certificates = ()
    if rng.random() < 0.3:
        eta = build_formula(TRUE, SOURCE, xs)
        certificates = (ClassCertificate("all", eta, constant(rng.choice([1, 2]))),)
    return InterpretationScheme("randomQuotient", p, SOURCE, target, rho0, tuple(rhos),
                                varpi=varpi, certificates=certificates)


def test_random_plain_schemes_agree_with_oracle():
    rng = random.Random(23)
    outcomes = set()
    for _ in range(120):
        p = rng.randrange(1, 3)
        target = rng.choice([sig(("E", 2)), sig(("E", 2), ("M", 1)), sig(("T", 3))])
        scheme = random_scheme(rng, SOURCE, target, p)
        a = random_structure(rng, SOURCE, rng.randrange(0, 5))
        outcomes.add(type(_agree(scheme, a, budget=rng.choice([None, 200]))))
    assert len(outcomes) == 2   # some applications exceed the small budget


def test_random_quotient_schemes_agree_with_oracle():
    rng = random.Random(31)
    outcomes = []
    for _ in range(400):
        p = rng.randrange(1, 3)
        target = rng.choice([sig(("E", 2)), sig(("E", 2), ("M", 1))])
        scheme = _random_quotient(rng, target, p)
        a = random_structure(rng, SOURCE, rng.randrange(1, 6))
        outcomes.append(_agree(scheme, a))
    reports = [o for o in outcomes if not isinstance(o, type)]
    assert len(reports) > 40
    # Some class pairs have more than 32 representative choices.
    assert sum(max(r.class_sizes, default=0) ** 2 > 32 for r in reports) >= 3
    assert any(r.certificate_labels and r.certificate_labels[0] == "all" for r in reports)
    assert any(isinstance(o, type) for o in outcomes)


def test_random_graphical_schemes_agree_with_oracle():
    """Where a random graphical scheme applies, the edge formula translated
    through it counts the graph's directed edges, loops excluded."""
    rng = random.Random(37)
    adjacency = parse_formula("E(x,y)", GRAPH_SIG, ["x", "y"])
    outcomes = set()
    for _ in range(80):
        p = rng.randrange(1, 3)
        xs = [f"x{i}" for i in range(1, p + 1)]
        ys = [f"y{i}" for i in range(1, p + 1)]
        iota = random_qf_formula(rng, SOURCE, p, depth=2, max_atoms=2)
        body = random_qf_node(rng, SOURCE, xs + ys, depth=2, max_atoms=3)
        if rng.random() < 0.5:   # symmetrised, so the scheme is valid
            body = disj(body, substitute(body, dict(zip(xs + ys, ys + xs))))
        rho = build_formula(body, SOURCE, xs + ys)
        scheme = GraphicalScheme("randomGraphical", p, iota, rho)
        a = random_structure(rng, SOURCE, rng.randrange(0, 5))
        result = _agree(scheme, a)
        outcomes.add(type(result))
        if not isinstance(result, type):
            translated = translate_formula(scheme, adjacency)
            assert count_satisfying(translated, a) == len(result.rel("E"))
    assert len(outcomes) == 2


def test_invalid_schemes_raise_as_the_oracle_does():
    t3 = build_basic(BasicStructureSpec(1, 0, (3,)))
    asymmetric = GraphicalScheme(
        "bad", 1, build_formula(TRUE, t3.signature, ["x1"]),
        parse_formula("S1(x1,y1)", t3.signature, ["x1", "y1"]),
    )
    assert isinstance(_agree(asymmetric, t3), type)
    # The witness is the same lex-least one-way pair on every path.
    witnesses = []
    for apply in (interp.apply_scheme, interp.apply_quotient_with_report,
                  oracle_interp.apply_graphical):
        with pytest.raises(ToolkitError) as err:
            apply(asymmetric, t3)
        witnesses.append(err.value.witness)
    assert witnesses == [((0,), (1,))] * 3

    assert isinstance(_agree(complement_scheme(), t3), type)
    crown_base = build_basic(BasicStructureSpec(1, 2, (200,)))
    assert isinstance(_agree(crown_scheme(), crown_base, budget=100), type)

    base = line_graph_scheme()
    swap = "x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1"
    invalid = [
        replace(base, varpi=parse_formula("x1 = y2 & x2 = y1", GRAPH_SIG,
                                          ["x1", "x2", "y1", "y2"]), certificates=()),
        replace(base, varpi=parse_formula(swap, GRAPH_SIG, ["x1", "x2", "y1", "y2"]),
                certificates=(ClassCertificate(
                    "edge", parse_formula("true", GRAPH_SIG, ["x1", "x2"]), constant(3)),)),
        replace(base, varpi=parse_formula(swap, GRAPH_SIG, ["x1", "x2", "y1", "y2"]),
                certificates=(ClassCertificate(
                    "none", parse_formula("false", GRAPH_SIG, ["x1", "x2"]), constant(2)),)),
        InterpretationScheme(
            "rep-dependent", 2, GRAPH_SIG, GRAPH_SIG,
            parse_formula("E(x1,x2)", GRAPH_SIG, ["x1", "x2"]),
            (parse_formula("E(x1,y2) & E(x2,y1) & !(x1 = y1)", GRAPH_SIG,
                           ["x1", "x2", "y1", "y2"]),),
            varpi=parse_formula(swap, GRAPH_SIG, ["x1", "x2", "y1", "y2"]),
        ),
    ]
    for scheme in invalid:
        assert isinstance(_agree(scheme, K3), type)
    # Not transitive: related when the first coordinates are equal or adjacent.
    path = make_structure(GRAPH_SIG, 3, {"E": [(0, 1), (1, 0), (1, 2), (2, 1)]})
    near = InterpretationScheme(
        "near", 1, GRAPH_SIG, GRAPH_SIG, build_formula(TRUE, GRAPH_SIG, ["x1"]),
        (parse_formula("E(x1,y1)", GRAPH_SIG, ["x1", "y1"]),),
        varpi=parse_formula("x1 = y1 | E(x1,y1)", GRAPH_SIG, ["x1", "y1"]),
    )
    assert isinstance(_agree(near, path), type)


def test_compatibility_is_checked_on_every_member():
    """A relation that differs on one member of a class fails there, however
    large the class: the last of 32 members, and the second of 40."""
    varpi = parse_formula("W(x1) <-> W(y1)", SOURCE, ["x1", "y1"])
    w32 = make_structure(SOURCE, 65, {"W": [(v,) for v in range(32)], "R": [(31, 31)]})
    w40 = make_structure(SOURCE, 41, {"W": [(v,) for v in range(40)], "R": [(1, 1)]})
    cases = [
        (w32, "W(x1)", None),
        (w32, "R(x1,x1)", (((0,),), ((31,),))),
        (w40, "W(x1) & !R(x1,x1)", (((0,),), ((1,),))),
    ]
    for a, rho, witness in cases:
        scheme = InterpretationScheme("members", 1, SOURCE, sig(("M", 1)),
                                      build_formula(TRUE, SOURCE, ["x1"]),
                                      (parse_formula(rho, SOURCE, ["x1"]),), varpi=varpi)
        outcome = _agree(scheme, a)
        assert isinstance(outcome, type) == (witness is not None)
        if witness is not None:
            with pytest.raises(ValidationError) as err:
                interp.apply_quotient_with_report(scheme, a)
            assert err.value.witness == witness


@st.composite
def _scheme_and_source(draw):
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.integers(1, 2))
    scheme = random_scheme(rng, SOURCE, GRAPH_SIG, p)
    n = draw(st.integers(0, 4))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    a = make_structure(SOURCE, n, {
        "R": draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else [],
        "W": [(v,) for v in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))],
    })
    num_vars = draw(st.integers(1, 2))
    phi = random_qf_formula(rng, GRAPH_SIG, num_vars + 1)
    if draw(st.booleans()):   # bind the last variable
        root = Exists(phi.free_vars[-1], phi.root)
        phi = build_formula(root, GRAPH_SIG, phi.free_vars[:-1])
    return scheme, a, phi


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_scheme_and_source())
def test_translation_preserves_counts(case):
    scheme, a, phi = case
    image = interp.apply_scheme(scheme, a)
    assert count_satisfying(phi, image) == count_satisfying(translate_formula(scheme, phi), a)
