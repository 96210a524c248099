import json
import time

import pytest

from relpoly.cli import run
from relpoly.structures import structure_to_json

from genutil import K2, K3, graph


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, s in (("k2", K2), ("k3", K3), ("e2", graph(2, []))):
        p = tmp_path / f"{name}.json"
        p.write_text(structure_to_json(s))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def _cli(capsys, args, expect=0):
    code = run(args)
    captured = capsys.readouterr()
    assert code == expect, (args, code, captured.out, captured.err)
    return captured


def test_count_hom(files, capsys):
    out = _cli(capsys, ["count", "--mode", "hom",
                        "--pattern", files["k2"], "--target", files["k3"]])
    payload = json.loads(out.out)
    assert payload["value"] == 6 and payload["mode"] == "hom"


def test_count_modes(files, capsys):
    for mode, value in (("inj", 6), ("ind", 6)):
        out = _cli(capsys, ["count", "--mode", mode,
                            "--pattern", files["k2"], "--target", files["k3"]])
        assert json.loads(out.out)["value"] == value


def test_structure_build_and_show(tmp_path, capsys):
    out_path = tmp_path / "b.json"
    _cli(capsys, ["structure", "build", "--kind", "basic", "--k", "1", "--l", "2",
                  "--orders", "3", "--out", str(out_path)])
    shown = _cli(capsys, ["structure", "show", "--in", str(out_path)])
    payload = json.loads(shown.out)
    assert payload["domain"] == 5
    # round trip is byte identical
    (tmp_path / "copy.json").write_text(shown.out)
    again = _cli(capsys, ["structure", "show", "--in", str(tmp_path / "copy.json")])
    assert again.out == shown.out


def test_eval_command(files, capsys):
    out = _cli(capsys, ["eval", "--formula", "E(x,y)", "--in", files["k3"]])
    assert json.loads(out.out)["count"] == 6
    out = _cli(capsys, ["eval", "--formula", "E(x,y)", "--in", files["k3"],
                        "--assign", "0,1"])
    assert json.loads(out.out)["value"] is True
    out = _cli(capsys, ["eval", "--formula", "E(x,y)", "--in", files["k2"], "--list"])
    assert json.loads(out.out)["tuples"] == [[0, 1], [1, 0]]
    _cli(capsys, ["eval", "--formula", "E(x,", "--in", files["k3"]], expect=2)
    _cli(capsys, ["eval", "--formula", "Q(x)", "--in", files["k3"]], expect=2)


def test_interpret_command(files, tmp_path, capsys):
    scheme = (
        "interpretation comp {\n  source: graph;\n  target: graph;\n  p: 1;\n"
        "  domain(x1): true;\n  E(x1; y1): !E(x1,y1) & !(x1 = y1);\n}\n"
    )
    scheme_path = tmp_path / "comp.int"
    scheme_path.write_text(scheme)
    out_path = tmp_path / "out.json"
    map_path = tmp_path / "map.json"
    _cli(capsys, ["interpret", "--scheme", str(scheme_path), "--in", files["k3"],
                  "--out", str(out_path), "--map", str(map_path)])
    result = json.loads(out_path.read_text())
    assert result["relations"]["E"] == []
    assert json.loads(map_path.read_text())["tuples"] == [[0], [1], [2]]

    bad = scheme.replace("!E(x1,y1)", "!E(x1)")
    bad_path = tmp_path / "bad.int"
    bad_path.write_text(bad)
    captured = _cli(capsys, ["interpret", "--scheme", str(bad_path),
                             "--in", files["k3"]], expect=2)
    assert "E" in captured.err
    assert captured.out == ""


def test_interpret_quotient_reports_classes(files, tmp_path, capsys):
    scheme = (
        "interpretation lg {\n  source: graph;\n  target: graph;\n  p: 2;\n"
        "  domain(x1,x2): E(x1,x2);\n"
        "  E(x1,x2; y1,y2): (x1 = y1 | x1 = y2 | x2 = y1 | x2 = y2)"
        " & !(x1 = y1 & x2 = y2) & !(x1 = y2 & x2 = y1);\n"
        "  equiv(x1,x2; y1,y2): x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1;\n"
        "  class edge: eta=true, size=2;\n}\n"
    )
    path = tmp_path / "lg.int"
    path.write_text(scheme)
    out = _cli(capsys, ["interpret", "--scheme", str(path), "--in", files["k3"]])
    head, _, tail = out.out.partition("\n{")
    payload = json.loads("{" + tail)
    assert payload["classSizes"] == [2, 2, 2]


def test_interpret_prints_the_witness_of_a_failed_check(tmp_path, capsys):
    scheme = (
        "interpretation lgBad {\n  source: graph;\n  target: graph;\n  p: 2;\n"
        "  domain(x1,x2): E(x1,x2) & !(x1 = x2);\n"
        "  E(x1,x2; y1,y2): x1 = y1 & !(x2 = y2);\n"
        "  equiv(x1,x2; y1,y2): x1 = y1 & x2 = y2 | x1 = y2 & x2 = y1;\n}\n"
    )
    path = tmp_path / "bad.int"
    path.write_text(scheme)
    k4 = tmp_path / "k4.json"
    k4.write_text(structure_to_json(graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
    captured = _cli(capsys, ["interpret", "--scheme", str(path), "--in", str(k4)], expect=1)
    assert captured.out == ""
    assert captured.err == (
        "check failed: relation 'E' is not compatible with the equivalence\n"
        "witness: [[[0, 1], [0, 2]], [[0, 1], [2, 0]]]\n"
    )


def test_detect_command(files, tmp_path, capsys):
    spec = {
        "variant": "Interpreted",
        "scheme": {"builtin": "underlyingGraph"},
        "inner": {"variant": "Basic", "k": 1, "l": 0, "orders": ["n"]},
    }
    spec_path = tmp_path / "kn.json"
    spec_path.write_text(json.dumps(spec))
    csv_path = tmp_path / "out.csv"
    out = _cli(capsys, ["detect", "--spec", str(spec_path),
                        "--pattern", files["k3"], "--csv", str(csv_path)])
    payload = json.loads(out.out)
    assert payload["verdict"] == "Polynomial"
    assert payload["binomialCoeffs"] == [0, 0, 0, 6]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,value,phase,match"
    assert lines[1] == "0,0,sample,"
    assert lines[5].endswith("verify,true")

    cyc_path = tmp_path / "cyc.json"
    cyc_path.write_text(json.dumps({"variant": "Custom", "name": "cycle", "params": {}}))
    out = _cli(capsys, ["detect", "--spec", str(cyc_path),
                        "--pattern", files["k3"]], expect=1)
    assert json.loads(out.out)["verdict"] == "NotPolynomial"

    out = _cli(capsys, ["detect", "--spec", str(spec_path),
                        "--formula", "E(x,y)"])
    assert json.loads(out.out)["verdict"] == "Polynomial"
    _cli(capsys, ["detect", "--spec", str(spec_path)], expect=2)


def test_gallery_commands(tmp_path, capsys):
    out = _cli(capsys, ["gallery", "list"])
    names = [e["name"] for e in json.loads(out.out)["entries"]]
    assert "crown" in names
    out = _cli(capsys, ["gallery", "run", "crown", "--range", "0:3", "--check"])
    assert json.loads(out.out)["ok"] is True
    out = _cli(capsys, ["gallery", "run", "crown", "--n", "3"])
    assert json.loads(out.out)["domain"] == 6
    # the literal star union is expected to mismatch; exit stays 0
    out = _cli(capsys, ["gallery", "run", "starUnionLiteral", "--range", "0:3",
                        "--check"])
    assert json.loads(out.out)["ok"] is False
    _cli(capsys, ["gallery", "run", "bogus"], expect=2)


def test_gallery_determinism(tmp_path, capsys):
    first = _cli(capsys, ["gallery", "run", "johnson", "--range", "0:4", "--check"])
    second = _cli(capsys, ["gallery", "run", "johnson", "--range", "0:4", "--check"])
    assert first.out == second.out


def test_decompose_command(tmp_path, capsys):
    k1_json = {"signature": [{"name": "E", "arity": 2}], "domain": 1,
               "relations": {"E": []}}
    k2_json = {"signature": [{"name": "E", "arity": 2}], "domain": 2,
               "relations": {"E": [[0, 1], [1, 0]]}}
    mark_a = ("interpretation markA {\n  source: graph;\n  target: sig{E:2, UA:1};\n"
              "  p: 1;\n  domain(x1): true;\n  E(x1; y1): E(x1,y1);\n"
              "  UA(x1): true;\n}\n")
    mark_b = mark_a.replace("UA", "UB").replace("markA", "markB")
    spec = {
        "variant": "Interpreted",
        "scheme": {"builtin": "disjointUnion"},
        "inner": {"variant": "StrongSum", "members": [
            {"variant": "Interpreted", "scheme": {"text": mark_a},
             "inner": {"variant": "Copies", "count": "n+1",
                       "inner": {"variant": "Custom", "name": "constant",
                                 "params": {"structure": k1_json}}}},
            {"variant": "Interpreted", "scheme": {"text": mark_b},
             "inner": {"variant": "Copies", "count": "n^2",
                       "inner": {"variant": "Custom", "name": "constant",
                                 "params": {"structure": k2_json}}}},
        ]},
    }
    spec_path = tmp_path / "dec.json"
    spec_path.write_text(json.dumps(spec))
    out = _cli(capsys, ["decompose", "--spec", str(spec_path), "--cap", "1"])
    parts = json.loads(out.out)["parts"]
    assert sorted(p["multiplicity"] for p in parts) == ["n + 1", "n^2"]

    crown_spec = {"variant": "Interpreted", "scheme": {"builtin": "crown"},
                  "inner": {"variant": "Basic", "k": 1, "l": 2, "orders": ["n"]}}
    crown_path = tmp_path / "crown.json"
    crown_path.write_text(json.dumps(crown_spec))
    captured = _cli(capsys, ["decompose", "--spec", str(crown_path), "--cap", "2"],
                    expect=1)
    assert "degree" in captured.err


def test_paley_command(files, capsys):
    out = _cli(capsys, ["paley", "--cycle", "4", "--primes", "5,13,17,29,37,41",
                        "--fit-count", "5", "--no-images"])
    payload = json.loads(out.out)
    assert payload["allMatch"] is True
    assert payload["rows"][0]["hom"] == 30
    # the cubic through four samples misses the quartic count at q=37: exit 1,
    # and the report is still on stdout
    out = _cli(capsys, ["paley", "--cycle", "4", "--primes", "5,13,17,29,37",
                        "--fit-count", "4", "--no-images"], expect=1)
    payload = json.loads(out.out)
    assert payload["allMatch"] is False
    assert payload["verify"] == [{"q": 37, "hom": 108558, "match": False}]
    _cli(capsys, ["paley", "--cycle", "4", "--primes", "6"], expect=2)
    _cli(capsys, ["paley", "--primes", "5"], expect=2)


def test_paley_image_count_over_budget_fails(capsys):
    # Bell(13) = 27644437 quotients of C13 exceed the basis budget at once
    # instead of hanging
    captured = _cli(capsys, ["paley", "--cycle", "13", "--primes", "5", "--fit-count", "1"],
                    expect=1)
    assert captured.out == ""
    assert "check failed" in captured.err and "Bell(13) quotients" in captured.err
    _cli(capsys, ["paley", "--cycle", "13", "--primes", "5", "--fit-count", "1", "--no-images"])


def test_hostile_patterns_fail_the_paley_check_at_once(tmp_path, capsys):
    # Bell(3000) is refused before the triangle reaches it, and the message
    # does not spell it out; a 4000-cycle is refused before the search
    # recurses once per vertex
    edgeless = tmp_path / "edgeless.json"
    edgeless.write_text(json.dumps(
        {"signature": [{"name": "E", "arity": 2}], "domain": 3000, "relations": {"E": []}}))
    for args, message in ((["--pattern", str(edgeless)], "Bell(3000) quotients"),
                          (["--cycle", "4000"], "search over 4000 pattern vertices")):
        start = time.perf_counter()
        captured = _cli(capsys, ["paley", *args, "--primes", "5"], expect=1)
        assert time.perf_counter() - start < 5.0
        assert captured.out == ""
        assert captured.err.startswith("check failed: ") and message in captured.err


def test_oversized_terms_fail_on_the_tuple_budget(tmp_path, capsys):
    # each of these would hold billions of tuples; they are refused before
    # any is built, instead of growing until memory runs out
    start = time.perf_counter()
    captured = _cli(capsys, ["structure", "build", "--kind", "tournament", "--n", "100000"],
                    expect=1)
    assert captured.out == ""
    assert captured.err.startswith(
        "check failed: 4999950000 tournament order tuples exceed the tuple budget of")
    specs = (({"variant": "Basic", "k": 1, "l": 0, "orders": ["100000*n"]}, "S1(x,y)", "x,y",
              "4999950000 tournament order tuples exceed the tuple budget of"),
             ({"variant": "Copies", "count": "1000000000",
               "inner": {"variant": "Basic", "k": 0, "l": 1, "orders": []}}, "U1E(x)", "x",
              "2000000000 vertices and tuples of copies exceed the tuple budget of"))
    for spec, formula, variables, message in specs:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        captured = _cli(capsys, ["detect", "--spec", str(path), "--formula", formula,
                                 "--vars", variables], expect=1)
        fit = json.loads(captured.out)
        assert fit["verdict"] == "Inconclusive" and fit["note"].startswith(message)
        assert "Traceback" not in captured.err
    assert time.perf_counter() - start < 5.0


def test_counts_past_the_integer_digit_limit_fail_the_check(tmp_path, capsys):
    # hom(5000 isolated vertices, Paley_101) = 101^5000 has 10,022 digits and
    # the count into 10 isolated vertices 5001, past Python's 4300-digit limit
    # on writing an integer as text
    edgeless, ten = tmp_path / "edgeless.json", tmp_path / "ten.json"
    edgeless.write_text(json.dumps(
        {"signature": [{"name": "E", "arity": 2}], "domain": 5000, "relations": {"E": []}}))
    ten.write_text(structure_to_json(graph(10, [])))
    message = "more than 4300 digits, Python's limit for writing an integer as text"
    for args in (["paley", "--pattern", str(edgeless), "--primes", "101", "--no-images"],
                 ["count", "--mode", "hom", "--pattern", str(edgeless),
                  "--target", str(ten)]):
        captured = _cli(capsys, args, expect=1)
        assert captured.out == ""
        assert captured.err.startswith("check failed: ") and message in captured.err
        assert "Traceback" not in captured.err


def test_usage_errors_keep_stdout_empty(files, tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{nope")
    captured = _cli(capsys, ["count", "--mode", "hom", "--pattern", str(junk),
                             "--target", files["k3"]], expect=2)
    assert captured.out == ""
    captured = _cli(capsys, ["nonsense"], expect=2)
    assert captured.out == ""
    # nothing is sampled, so there is no --seed option
    captured = _cli(capsys, ["--seed", "0", "gallery", "list"], expect=2)
    assert captured.out == ""


def test_budget_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("RELPOLY_ASSIGNMENT_BUDGET", "2")
    captured = _cli(capsys, ["eval", "--formula", "E(x,y)", "--in", files["k3"]],
                    expect=1)
    assert "budget" in captured.err
    monkeypatch.delenv("RELPOLY_ASSIGNMENT_BUDGET")
    _cli(capsys, ["eval", "--formula", "E(x,y)", "--in", files["k3"]])


def test_search_budget_fails_count(files, capsys, monkeypatch):
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "5")
    captured = _cli(capsys, ["count", "--mode", "hom",
                             "--pattern", files["k3"], "--target", files["k3"]], expect=1)
    assert captured.out == ""
    assert "check failed" in captured.err and "hom search explored" in captured.err


def test_deeply_nested_formula_is_a_parse_error(files, capsys):
    deep = "(" * 400 + "E(x,y)" + ")" * 400
    captured = _cli(capsys, ["eval", "--formula", deep, "--in", files["k3"]], expect=2)
    assert captured.out == ""
    assert "nested deeper" in captured.err


def test_deeply_nested_polynomial_in_spec_is_a_parse_error(tmp_path, capsys):
    spec = {"variant": "Basic", "k": 1, "l": 0, "orders": ["(" * 400 + "n" + ")" * 400]}
    spec_path = tmp_path / "deep.json"
    spec_path.write_text(json.dumps(spec))
    captured = _cli(capsys, ["detect", "--spec", str(spec_path), "--formula", "S1(x,y)"],
                    expect=2)
    assert captured.out == ""
    assert "nested deeper" in captured.err


def test_deep_quantifiers_fail_the_assignment_budget(files, capsys):
    deep = "exists z (" * 99 + "E(x,y)" + ")" * 99
    for extra in ([], ["--list"], ["--assign", "0,1"]):
        captured = _cli(capsys, ["eval", "--formula", deep, "--in", files["k3"], *extra],
                        expect=1)
        assert captured.out == ""
        assert "check failed" in captured.err and "budget" in captured.err


def test_detect_formula_from_file(tmp_path, capsys):
    spec = {
        "variant": "Interpreted",
        "scheme": {"builtin": "underlyingGraph"},
        "inner": {"variant": "Basic", "k": 1, "l": 0, "orders": ["n"]},
    }
    spec_path = tmp_path / "kn.json"
    spec_path.write_text(json.dumps(spec))
    formula_path = tmp_path / "adjacent.qf"
    formula_path.write_text("E(x,y)\n")
    out = _cli(capsys, ["detect", "--spec", str(spec_path),
                        "--formula", str(formula_path)])
    assert json.loads(out.out)["verdict"] == "Polynomial"


def test_malformed_budget_is_a_usage_error(files, capsys, monkeypatch):
    monkeypatch.setenv("RELPOLY_SEARCH_BUDGET", "abc")
    captured = _cli(capsys, ["count", "--mode", "hom",
                             "--pattern", files["k2"], "--target", files["k3"]], expect=2)
    assert captured.out == ""
    assert "error:" in captured.err and "RELPOLY_SEARCH_BUDGET" in captured.err
    assert "Traceback" not in captured.err


HOSTILE_SPECS = {
    "basic-without-l": {"variant": "Basic", "k": 1},
    "copies-count-not-text": {"variant": "Copies", "count": 3,
                              "inner": {"variant": "Custom", "name": "cycle"}},
    "custom-params-not-object": {"variant": "Custom", "name": "cycle", "params": []},
}


# case -> the exponent line of a scheme file
HOSTILE_EXPONENTS = {
    "exponent-name": "p: x;",
    "exponent-fraction": "p: 1.5;",
    "exponent-empty": "p: ;",
    "exponent-two-numbers": "p: 2 3;",
}


@pytest.mark.parametrize("case", [*HOSTILE_SPECS, *HOSTILE_EXPONENTS, "domain-not-integer",
                                  "range-without-colon"])
def test_hostile_inputs_exit_2(case, files, tmp_path, capsys):
    if case in HOSTILE_EXPONENTS:
        scheme_path = tmp_path / "scheme.int"
        scheme_path.write_text(
            "interpretation comp {\n  source: graph;\n  target: graph;\n"
            f"  {HOSTILE_EXPONENTS[case]}\n"
            "  domain(x1): true;\n  E(x1; y1): E(x1,y1);\n}\n"
        )
        args = ["interpret", "--scheme", str(scheme_path), "--in", files["k3"]]
    elif case in HOSTILE_SPECS:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(HOSTILE_SPECS[case]))
        args = ["detect", "--spec", str(spec_path), "--pattern", files["k2"]]
    elif case == "domain-not-integer":
        bad = json.loads(structure_to_json(K2))
        bad["domain"] = "x"
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        args = ["count", "--mode", "hom", "--pattern", files["k2"], "--target", str(bad_path)]
    else:
        args = ["gallery", "run", "crown", "--range", "3"]
    captured = _cli(capsys, args, expect=2)
    assert captured.out == ""
    assert captured.err.startswith("error:")


# case -> command line, with K3 standing for a structure file and LINE for a
# file holding a Basic spec of one tournament of order n
MALFORMED_NUMBERS = {
    "assign-not-integers": ["eval", "--formula", "E(x,y)", "--in", "K3", "--assign", "a,b"],
    "orders-not-integers": ["structure", "build", "--kind", "basic", "--k", "1",
                            "--orders", "x"],
    "primes-not-integers": ["paley", "--cycle", "4", "--primes", "5,x"],
    "range-reversed": ["gallery", "run", "crown", "--range", "5:2", "--check"],
    "held-out-zero": ["decompose", "--spec", "LINE", "--cap", "2", "--held-out", "0"],
}


@pytest.mark.parametrize("case", MALFORMED_NUMBERS)
def test_malformed_numbers_exit_2(case, files, tmp_path, capsys):
    spec_path = tmp_path / "line.json"
    spec_path.write_text(json.dumps({"variant": "Basic", "k": 1, "l": 0, "orders": ["n"]}))
    args = [files["k3"] if a == "K3" else str(spec_path) if a == "LINE" else a
            for a in MALFORMED_NUMBERS[case]]
    captured = _cli(capsys, args, expect=2)
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


# An integer literal past Python's default limit of 4300 digits for text
# conversion: each case -> (command line, with FILE standing for a file holding
# the text), the text
HUGE = "9" * 5000
_CLASS_SCHEME = ("interpretation big {\n  source: graph;\n  target: graph;\n  p: 1;\n"
                 "  domain(x1): true;\n  E(x1; y1): E(x1,y1);\n  equiv(x1; y1): x1 = y1;\n"
                 f"  class c: eta=true, size={HUGE};\n}}\n")
_BASIC_SCHEME = (f"interpretation big {{\n  source: basic(k={HUGE}, l=0);\n  target: graph;\n"
                 "  p: 1;\n  domain(x1): true;\n  E(x1; y1): false;\n}\n")
HUGE_LITERALS = {
    "structure-domain": (["structure", "show", "--in", "FILE"],
                         '{"signature": [{"name": "E", "arity": 2}], "domain": %s}' % HUGE),
    "spec-k": (["detect", "--spec", "FILE", "--formula", "S1(x,y)", "--vars", "x,y"],
               '{"variant": "Basic", "k": %s, "l": 0, "orders": ["n"]}' % HUGE),
    "gallery-params": (["gallery", "run", "crown", "--params", '{"x": %s}' % HUGE], None),
    "scheme-class-size": (["interpret", "--scheme", "FILE", "--in", "K3"], _CLASS_SCHEME),
    "scheme-basic-k": (["interpret", "--scheme", "FILE", "--in", "K3"], _BASIC_SCHEME),
}


@pytest.mark.parametrize("case", HUGE_LITERALS)
def test_huge_integer_literals_exit_2(case, files, tmp_path, capsys):
    args, text = HUGE_LITERALS[case]
    path = tmp_path / "input"
    path.write_text(text or "")
    args = [str(path) if a == "FILE" else files["k3"] if a == "K3" else a for a in args]
    captured = _cli(capsys, args, expect=2)
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


_TREE = {"variant": "Interpreted",
         "scheme": {"builtin": "treeBlowup", "params": {"k": 2, "parents": {"2": "x"}}},
         "inner": {"variant": "Basic", "k": 2, "l": 0, "orders": ["n", "n"]}}

# case -> (command line, with SPEC standing for a file holding the spec), spec
HOSTILE_PARAMETERS = {
    "johnson-k-not-int": (["gallery", "run", "johnson", "--params", '{"k":"x"}', "--check"], None),
    "johnson-D-not-list": (["gallery", "run", "johnson", "--params", '{"D":5}', "--check"], None),
    "params-not-object": (["gallery", "run", "johnson", "--params", "5", "--check"], None),
    "params-list": (["gallery", "run", "crown", "--params", "[]", "--n", "1"], None),
    "tree-parent-not-int": (["gallery", "run", "treeBlowup", "--params",
                             '{"parents":{"2":"x"}}', "--check"], None),
    "tree-spec-parent-not-int": (["detect", "--spec", "SPEC", "--pattern", "K2"], _TREE),
    "custom-unknown-detect": (["detect", "--spec", "SPEC", "--pattern", "K2"],
                              {"variant": "Custom", "name": "nope"}),
    "custom-unknown-decompose": (["decompose", "--spec", "SPEC", "--cap", "2"],
                                 {"variant": "Custom", "name": "nope"}),
    "custom-name-list-detect": (["detect", "--spec", "SPEC", "--pattern", "K2"],
                                {"variant": "Custom", "name": ["x"]}),
    "custom-name-list-decompose": (["decompose", "--spec", "SPEC", "--cap", "2"],
                                   {"variant": "Custom", "name": ["x"]}),
    "constant-without-structure": (["detect", "--spec", "SPEC", "--pattern", "K2"],
                                   {"variant": "Custom", "name": "constant"}),
    "basic-l-list": (["detect", "--spec", "SPEC", "--pattern", "K2"],
                     {"variant": "Basic", "k": 1, "l": [0], "orders": ["n"]}),
    "basic-l-float": (["detect", "--spec", "SPEC", "--pattern", "K2"],
                      {"variant": "Basic", "k": 1, "l": 0.5, "orders": ["n"]}),
    "custom-param-list": (["detect", "--spec", "SPEC", "--pattern", "K2"],
                          {"variant": "Custom", "name": "cycle", "params": {"x": [1]}}),
    "custom-param-dict": (["detect", "--spec", "SPEC", "--pattern", "K2"],
                          {"variant": "Custom", "name": "cycle", "params": {"x": {"a": 1}}}),
    "formula-size": (["gallery", "run", "johnson", "--params",
                      json.dumps({"k": 8, "D": list(range(9))}), "--n", "0"], None),
}


@pytest.mark.parametrize("case", HOSTILE_PARAMETERS)
def test_hostile_parameters_and_custom_names(case, files, tmp_path, capsys):
    """Malformed gallery parameters and custom names exit 2 with nothing on
    stdout; a shared-elements formula too large for the DNF budget is refused
    before it is built and exits 1."""
    args, spec = HOSTILE_PARAMETERS[case]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    args = [str(spec_path) if a == "SPEC" else files["k2"] if a == "K2" else a for a in args]
    expect = 1 if case == "formula-size" else 2
    captured = _cli(capsys, args, expect=expect)
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("check failed:" if expect == 1 else "error:")
