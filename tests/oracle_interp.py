"""Reference scheme application, kept as the oracle for the shared relation
loop in relpoly.interp.

The three functions below are plain, graphical and quotient application as
relpoly implemented them before they shared one loop: each evaluates its own
relations, and the quotient fills a dense equivalence matrix, unions its
connected components and then checks that every component is a clique.
"""

import random
from itertools import product

from relpoly import budgets
from relpoly.errors import BudgetError, SignatureError, ValidationError
from relpoly.interp import GraphicalScheme, InterpretationScheme, QuotientReport, QuotientScheme
from relpoly.logic import Formula, evaluator
from relpoly.structures import GRAPH_SIG, Structure, make_structure


def _domain_tuples(rho0: Formula, a: Structure, p: int, budget: int | None):
    limit = budget if budget is not None else budgets.tuple_budget()
    if a.domain ** p > limit:
        raise BudgetError(f"{a.domain}^{p} candidate tuples exceed the budget of {limit}")
    test = evaluator(rho0, a)
    return [t for t in product(range(a.domain), repeat=p) if test(t)]


def _check_source(scheme, a: Structure):
    if a.signature != scheme.source:
        raise SignatureError(
            f"structure signature {a.signature.symbols} does not match the "
            f"scheme source {scheme.source.symbols}"
        )


def apply_interpretation_with_map(
    scheme: InterpretationScheme, a: Structure, budget: int | None = None
) -> tuple[Structure, tuple[tuple[int, ...], ...]]:
    """Interpret and also return the vertex-index -> source-tuple table."""
    _check_source(scheme, a)
    tuples = _domain_tuples(scheme.rho0, a, scheme.p, budget)
    limit = budget if budget is not None else budgets.tuple_budget()
    relations = {}
    for (name, arity), rho in zip(scheme.target.symbols, scheme.rhos):
        if len(tuples) ** arity > limit:
            raise BudgetError(
                f"{len(tuples)}^{arity} candidates for {name!r} exceed the budget of {limit}"
            )
        test = evaluator(rho, a)
        rel = []
        for combo in product(range(len(tuples)), repeat=arity):
            flat = tuple(v for idx in combo for v in tuples[idx])
            if test(flat):
                rel.append(combo)
        relations[name] = rel
    return make_structure(scheme.target, len(tuples), relations), tuple(tuples)


def apply_interpretation(scheme: InterpretationScheme, a: Structure,
                         budget: int | None = None) -> Structure:
    """Domain = satisfying p-tuples of the domain formula in lexicographic
    order; each target relation holds where its formula holds on the
    concatenated tuples."""
    return apply_interpretation_with_map(scheme, a, budget)[0]


def apply_graphical(scheme: GraphicalScheme, a: Structure,
                    budget: int | None = None) -> Structure:
    """Undirected graph on the vertex tuples; the edge formula is certified
    symmetric on this input, with a witness reported on violation."""
    _check_source(scheme, a)
    tuples = _domain_tuples(scheme.iota, a, scheme.p, budget)
    test = evaluator(scheme.rho, a)
    m = len(tuples)
    limit = budget if budget is not None else budgets.tuple_budget()
    if m * m > limit:
        raise BudgetError(f"{m}^2 candidates for 'E' exceed the budget of {limit}")
    edges = []
    for i in range(m):
        for j in range(i, m):
            forward = test(tuples[i] + tuples[j])
            if i == j:
                if scheme.loop_policy == "keep" and forward:
                    edges.append((i, i))
                continue
            backward = test(tuples[j] + tuples[i])
            if forward != backward:
                raise ValidationError(
                    f"edge formula of {scheme.name!r} is not symmetric",
                    witness=(tuples[i], tuples[j]),
                )
            if forward:
                edges.append((i, j))
                edges.append((j, i))
    return make_structure(GRAPH_SIG, m, {"E": edges})



def apply_quotient_with_report(
    qs: QuotientScheme,
    a: Structure,
    n: int | None = None,
    budget: int | None = None,
    compat_samples: int = 32,
    seed: int = 0,
) -> QuotientReport:
    """Interpret with one vertex per equivalence class of the tuple relation.

    The equivalence formula is validated exhaustively on this input's domain
    tuples, relation formulas are evaluated on lexicographically least
    representatives, well-definedness is spot-checked on other representative
    choices, and declared class-size certificates are checked where they
    apply (a non-constant size needs the sequence index n).
    """
    base = qs.base
    _check_source(base, a)
    tuples = _domain_tuples(base.rho0, a, base.p, budget)
    m = len(tuples)
    limit = budget if budget is not None else budgets.tuple_budget()
    if m * m > limit:
        raise BudgetError(f"{m}^2 candidates for 'equiv' exceed the budget of {limit}")
    related = evaluator(qs.varpi, a)

    matrix = [[related(tuples[i] + tuples[j]) for j in range(m)] for i in range(m)]
    for i in range(m):
        if not matrix[i][i]:
            raise ValidationError("equivalence formula is not reflexive", witness=tuples[i])
        for j in range(i + 1, m):
            if matrix[i][j] != matrix[j][i]:
                raise ValidationError(
                    "equivalence formula is not symmetric", witness=(tuples[i], tuples[j])
                )
    # Union connected components, then insist every component is a clique;
    # that is exactly transitivity given reflexivity and symmetry.
    assignment = [-1] * m
    classes: list[list[int]] = []
    for i in range(m):
        if assignment[i] >= 0:
            continue
        stack = [i]
        members = []
        assignment[i] = len(classes)
        while stack:
            v = stack.pop()
            members.append(v)
            for w in range(m):
                if assignment[w] < 0 and matrix[v][w]:
                    assignment[w] = len(classes)
                    stack.append(w)
        classes.append(sorted(members))
    for members in classes:
        for i in members:
            for j in members:
                if not matrix[i][j]:
                    raise ValidationError(
                        "equivalence formula is not transitive",
                        witness=(tuples[i], tuples[j]),
                    )

    labels: list[str | None] = []
    if qs.certificates:
        eta_tests = [(cert, evaluator(cert.eta, a)) for cert in qs.certificates]
        for members in classes:
            rep = tuples[members[0]]
            label = None
            for cert, test in eta_tests:
                if test(rep):
                    label = cert.label
                    expected = None
                    if cert.size.is_constant():
                        expected = cert.size(0)
                    elif n is not None:
                        expected = cert.size(n)
                    if expected is not None and expected != len(members):
                        raise ValidationError(
                            f"class size {len(members)} contradicts certificate "
                            f"{cert.label!r} = {expected}",
                            witness=rep,
                        )
                    break
            if label is None:
                raise ValidationError(
                    "certificates do not cover a domain tuple", witness=rep
                )
            labels.append(label)
    else:
        labels = [None] * len(classes)

    rng = random.Random(seed)
    relations = {}
    for (name, arity), rho in zip(base.target.symbols, base.rhos):
        test = evaluator(rho, a)
        rel = []
        for combo in product(range(len(classes)), repeat=arity):
            reps = tuple(tuples[classes[c][0]] for c in combo)
            value = test(tuple(v for t in reps for v in t))
            # Compatibility spot-check: other representatives must agree.
            alternatives = 1
            for c in combo:
                alternatives *= len(classes[c])
            if alternatives > 1:
                if alternatives <= compat_samples:
                    picks = product(*(classes[c] for c in combo))
                else:
                    picks = (
                        tuple(rng.choice(classes[c]) for c in combo)
                        for _ in range(compat_samples)
                    )
                for pick in picks:
                    alt = tuple(v for idx in pick for v in tuples[idx])
                    if test(alt) != value:
                        raise ValidationError(
                            f"relation {name!r} is not compatible with the equivalence",
                            witness=(reps, tuple(tuples[idx] for idx in pick)),
                        )
            if value:
                rel.append(combo)
        relations[name] = rel
    structure = make_structure(base.target, len(classes), relations)
    return QuotientReport(
        structure,
        tuple(tuples),
        tuple(tuple(c) for c in classes),
        tuple(len(c) for c in classes),
        tuple(labels),
    )
