"""Every `raise DocumentError` in `cli.py` is reached by a named case.

`CASES` lists each site by its enclosing function and the template of its
message (the message with every formatted field written ``{}``), next to
the argv and stdin that reach it and the message it prints.  The pin scans
the source with `ast`, so a new site with no case, a changed message or a
deleted site fails here.  Each case runs `cli.main` and expects exit 1,
empty stdout and exactly ``error: <message>`` on stderr.

Two cases read a file: ``{missing}`` in the argv and the message stands
for a path that does not exist, ``{latin1}`` for a file holding one byte
that is not UTF-8.
"""

import ast
import errno
import io
import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

from normalforms import cli

SOURCE = Path(__file__).resolve().parent.parent / "src" / "normalforms" / "cli.py"

TERM = {"degree": 2, "component": 1, "exponents": [1, 1], "coeff": "1"}
ODE = {"kind": "ode", "n": 2, "m": 0, "A": [["0", "1"], ["0", "0"]], "terms": [TERM]}
CONTROL = cli._EXAMPLE_DOCS["brunovsky-quadratic"]
JORDAN = {**ODE, "A": [["1", "1"], ["0", "1"]], "semisimple_part": [["1", "1"], ["0", "1"]], "nilpotent_part": [["0", "0"], ["0", "0"]]}
# a report that parses: every verify case below breaks one field of it
REPORT = {
    "order": 3,
    "normal_form": [],
    "generators": [],
    "certificates": {"kernel_residual_zero": True, "conjugacy_residual_zero": True, "equivariance_zero": True},
    "dimensions": {},
}
NORMALIZE = ["normalize"]
VERIFY = ["verify"]


def without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def ode(**fields) -> str:
    return json.dumps({**ODE, **fields})


def a_entry(value) -> str:
    return ode(A=[[value, "1"], ["0", "0"]])


def term(**fields) -> str:
    return ode(terms=[{**TERM, **fields}])


def report(**fields) -> str:
    return json.dumps({"system": ODE, "report": {**REPORT, **fields}})


def json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"input is not valid JSON: {exc}"
    raise AssertionError(f"{text!r} is valid JSON")


CERT_FIELDS = "['conjugacy_residual_zero', 'equivariance_zero', 'kernel_residual_zero']"

CASES = {
    # rationals, integers and matrices
    ("_parse_rational", "{}: expected a rational string, got a boolean"): (
        NORMALIZE, a_entry(True), "document.A[0][0]: expected a rational string, got a boolean"
    ),
    ("_parse_rational", "{}: floating-point literals are not accepted; write the value as a rational string"): (
        NORMALIZE,
        a_entry(0.5),
        "document.A[0][0]: floating-point literals are not accepted; write the value as a rational string",
    ),
    ("_parse_rational", "{}: expected a rational string"): (
        NORMALIZE, a_entry(None), "document.A[0][0]: expected a rational string"
    ),
    ("_parse_rational", "{}: malformed rational {}"): (
        NORMALIZE, a_entry("1.5"), "document.A[0][0]: malformed rational '1.5'"
    ),
    ("_parse_rational", "{}: malformed rational {} (zero denominator)"): (
        NORMALIZE, a_entry("1/0"), "document.A[0][0]: malformed rational '1/0' (zero denominator)"
    ),
    ("_parse_int", "{}: expected an integer"): (NORMALIZE, ode(n="2"), "document.n: expected an integer"),
    ("_parse_int", "{}: must be at least {}"): (NORMALIZE, ode(n=0), "document.n: must be at least 1"),
    ("_parse_matrix", "{}: expected a matrix with {} rows"): (
        NORMALIZE, ode(A=[["0", "1"]]), "document.A: expected a matrix with 2 rows"
    ),
    ("_parse_matrix", "{}[{}]: expected a row of {} entries"): (
        NORMALIZE, ode(A=[["0"], ["0", "0"]]), "document.A[0]: expected a row of 2 entries"
    ),
    # terms
    ("_parse_term", "{}: expected an object"): (NORMALIZE, ode(terms=[1]), "document.terms[0]: expected an object"),
    ("_parse_term", "{}: unexpected field {}"): (
        NORMALIZE, term(note="x"), "document.terms[0]: unexpected field 'note'"
    ),
    ("_parse_term", "{}: missing field {}"): (
        NORMALIZE, ode(terms=[without(TERM, "coeff")]), "document.terms[0]: missing field 'coeff'"
    ),
    ("_parse_term", "{}.component: out of range 1..{}"): (
        NORMALIZE, term(component=3), "document.terms[0].component: out of range 1..2"
    ),
    ("_parse_term", "{}.exponents: expected a list of {} exponents"): (
        NORMALIZE, term(exponents=[2]), "document.terms[0].exponents: expected a list of 2 exponents"
    ),
    ("_parse_term", "{}.exponents: degree mismatch (sum {}, declared degree {})"): (
        NORMALIZE,
        term(exponents=[2, 1]),
        "document.terms[0].exponents: degree mismatch (sum 3, declared degree 2)",
    ),
    ("_parse_terms_list", "{}: expected a list of terms"): (
        NORMALIZE, ode(terms={}), "document.terms: expected a list of terms"
    ),
    ("_parse_terms_list", "{}[{}]: duplicate term for component {} at degree {}"): (
        NORMALIZE, ode(terms=[TERM, TERM]), "document.terms[1]: duplicate term for component 1 at degree 2"
    ),
    # system documents
    ("parse_system_object", "{}: expected a JSON object"): (NORMALIZE, "[]", "document: expected a JSON object"),
    ("parse_system_object", "{}: unexpected field {}"): (NORMALIZE, ode(C=[]), "document: unexpected field 'C'"),
    ("parse_system_object", '{}.kind: must be "ode" or "control"'): (
        NORMALIZE, ode(kind="pde"), 'document.kind: must be "ode" or "control"'
    ),
    ("parse_system_object", "{}.n: missing"): (NORMALIZE, json.dumps(without(ODE, "n")), "document.n: missing"),
    ("parse_system_object", "{}.m: missing"): (NORMALIZE, json.dumps(without(ODE, "m")), "document.m: missing"),
    ("parse_system_object", "{}.m: must be 0 for an ode system"): (
        NORMALIZE, ode(m=1), "document.m: must be 0 for an ode system"
    ),
    ("parse_system_object", "{}.m: must be at least 1 for a control system"): (
        NORMALIZE, json.dumps({**CONTROL, "m": 0}), "document.m: must be at least 1 for a control system"
    ),
    ("parse_system_object", "{}.A: missing"): (NORMALIZE, json.dumps(without(ODE, "A")), "document.A: missing"),
    ("parse_system_object", "{}.B: missing (required for control systems)"): (
        NORMALIZE, json.dumps(without(CONTROL, "B")), "document.B: missing (required for control systems)"
    ),
    ("parse_system_object", "{}.B: only allowed for control systems"): (
        NORMALIZE, ode(B=[["1"], ["0"]]), "document.B: only allowed for control systems"
    ),
    ("parse_system_object", "{}.semisimple_part: only allowed for ode systems"): (
        NORMALIZE,
        json.dumps({**CONTROL, "semisimple_part": CONTROL["A"]}),
        "document.semisimple_part: only allowed for ode systems",
    ),
    ("parse_system_object", "{}: semisimple_part and nilpotent_part must be supplied together"): (
        NORMALIZE,
        ode(semisimple_part=ODE["A"]),
        "document: semisimple_part and nilpotent_part must be supplied together",
    ),
    ("parse_system_object", "{}: invalid semisimple/nilpotent split: {}"): (
        NORMALIZE, json.dumps(JORDAN), "document: invalid semisimple/nilpotent split: A_s is not semisimple"
    ),
    ("parse_system_object", "{}.terms: missing"): (
        NORMALIZE, json.dumps(without(ODE, "terms")), "document.terms: missing"
    ),
    # JSON text
    ("_unique_keys", "input: key {} appears twice in one object"): (
        NORMALIZE, '{"kind": "ode", "kind": "ode"}', "input: key 'kind' appears twice in one object"
    ),
    ("_load_json", "input is not valid JSON: {}"): (NORMALIZE, "{", json_error("{")),
    # report documents
    ("parse_report_object", "{}: expected a JSON object"): (
        VERIFY, json.dumps({"system": ODE, "report": []}), "report: expected a JSON object"
    ),
    ("parse_report_object", "{}: unexpected field {}"): (VERIFY, report(extra=1), "report: unexpected field 'extra'"),
    ("parse_report_object", "{}: missing field {}"): (
        VERIFY, json.dumps({"system": ODE, "report": without(REPORT, "dimensions")}), "report: missing field 'dimensions'"
    ),
    ("parse_report_object", "{}.normal_form: term degree exceeds the report order"): (
        VERIFY,
        report(normal_form=[{**TERM, "degree": 4, "exponents": [4, 0]}]),
        "report.normal_form: term degree exceeds the report order",
    ),
    ("parse_report_object", "{}.generators: expected a list"): (
        VERIFY, report(generators={}), "report.generators: expected a list"
    ),
    ("parse_report_object", "{}: expected an object"): (
        VERIFY, report(generators=[1]), "report.generators[0]: expected an object"
    ),
    ("parse_report_object", "{}: expected exactly the fields {}"): (
        VERIFY, report(generators=[{"degree": 2}]), "report.generators[0]: expected exactly the fields ['degree', 'terms']"
    ),
    ("parse_report_object", "{}.degree: exceeds the report order"): (
        VERIFY, report(generators=[{"degree": 4, "terms": []}]), "report.generators[0].degree: exceeds the report order"
    ),
    ("parse_report_object", "{}.generators: degrees must be strictly increasing"): (
        VERIFY,
        report(generators=[{"degree": 2, "terms": []}, {"degree": 2, "terms": []}]),
        "report.generators: degrees must be strictly increasing",
    ),
    ("parse_report_object", "{}.{}: terms must match the declared degree"): (
        VERIFY,
        report(generators=[{"degree": 3, "terms": [TERM]}]),
        "report.generators[0].terms: terms must match the declared degree",
    ),
    ("parse_report_object", "{}.certificates: expected exactly the fields {}"): (
        VERIFY, report(certificates={}), f"report.certificates: expected exactly the fields {CERT_FIELDS}"
    ),
    ("parse_report_object", "{}.certificates.{}: expected a boolean or null"): (
        VERIFY,
        report(certificates={**REPORT["certificates"], "kernel_residual_zero": 1}),
        "report.certificates.kernel_residual_zero: expected a boolean or null",
    ),
    ("parse_report_object", "{}.dimensions: expected an object"): (
        VERIFY, report(dimensions=[]), "report.dimensions: expected an object"
    ),
    ("parse_report_object", "{}.dimensions: key {} is not a degree"): (
        VERIFY, report(dimensions={"two": {}}), "report.dimensions: key 'two' is not a degree"
    ),
    ("parse_report_object", "{}.dimensions: key {} is not written as the degree {}"): (
        VERIFY, report(dimensions={"02": {}}), "report.dimensions: key '02' is not written as the degree 2"
    ),
    ("parse_report_object", "{}.dimensions: key {} is not a degree in 2..{}"): (
        VERIFY, report(dimensions={"5": {}}), "report.dimensions: key '5' is not a degree in 2..3"
    ),
    ("parse_report_object", "{}.dimensions[{}]: expected exactly the fields {}"): (
        VERIFY,
        report(dimensions={"2": {}}),
        "report.dimensions[2]: expected exactly the fields ['complement', 'range', 'space']",
    ),
    # input text and verb arguments
    ("_load_text", "cannot read {}: {}"): (
        ["normalize", "--input", "{missing}"], "", f"cannot read {{missing}}: {os.strerror(errno.ENOENT)}"
    ),
    ("_load_text", "input: not UTF-8 text ({} at byte {})"): (
        ["normalize", "--input", "{latin1}"], "", "input: not UTF-8 text (invalid start byte at byte 0)"
    ),
    ("cmd_kernel", "--degree: must be at least 2"): (["kernel", "--degree", "1"], ode(), "--degree: must be at least 2"),
    ("cmd_normalize", "--order: must be at least 1"): (["normalize", "--order", "0"], ode(), "--order: must be at least 1"),
    ("cmd_verify", "document: expected exactly the fields ['report', 'system']"): (
        VERIFY, "{}", "document: expected exactly the fields ['report', 'system']"
    ),
    ("cmd_first_integrals", "--n: must be at least 1"): (["first-integrals", "--n", "0"], "", "--n: must be at least 1"),
    ("cmd_first_integrals", "--n: applies only to the brunovsky target"): (
        ["first-integrals", "uncontrollable", "--n", "7"], "", "--n: applies only to the brunovsky target"
    ),
    # bounded work: one budget for every order and degree
    ("_check_space", "{}: too large, the work would span more than {} coordinates"): (
        ["normalize", "--order", "400"],
        ode(terms=[]),
        f"--order: too large, the work would span more than {cli.MAX_SPACE} coordinates",
    ),
}


def _template(node: ast.expr) -> str:
    """A message expression with every formatted field written ``{}``."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_template(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
    if isinstance(node, ast.BinOp):
        return _template(node.left) + _template(node.right)
    return "{}"


def document_error_sites():
    """(function, message template) of every `raise DocumentError(...)`."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                func = child.exc.func
                if isinstance(func, ast.Name) and func.id == "DocumentError":
                    sites.append((".".join(scope), _template(child.exc.args[0])))
            visit(child, scope)

    visit(ast.parse(SOURCE.read_text(encoding="utf-8")), [])
    return sites


def test_every_document_error_site_has_a_case():
    sites = document_error_sites()
    assert len(sites) == len(set(sites)), "two raise sites share a function and message"
    assert sorted(sites) == sorted(CASES)


@pytest.mark.parametrize("site", sorted(CASES), ids=lambda site: f"{site[0]}: {site[1]}")
def test_each_site_exits_one_with_its_message(site, tmp_path, monkeypatch, capsys):
    argv, stdin, message = CASES[site]
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff")
    paths = {"{missing}": str(tmp_path / "missing.json"), "{latin1}": str(latin1)}

    def fill(text: str) -> str:
        for marker, path in paths.items():
            text = text.replace(marker, path)
        return text

    argv, message = [fill(a) for a in argv], fill(message)
    pattern = ".*".join(re.escape(part) for part in site[1].split("{}"))
    assert re.fullmatch(pattern, message, flags=re.DOTALL)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# the budget: every field it guards is checked before any work
# ---------------------------------------------------------------------------

HUGE = str(10**30)
# argv, stdin, and the field the error names; for verify, the second entry
# is the order written into the report
BUDGET_CASES = {
    # 2 (C(402, 400) - 3) = 161,196 coordinates
    "normalize-400": (["normalize", "--order", "400"], ode(terms=[]), "--order"),
    "normalize-huge": (["normalize", "--order", HUGE], ode(), "--order"),
    # the brunovsky-quadratic order-2 report, 584 bytes as json.dumps
    # writes it, at order 400: 2 (C(403, 400) - 4), about 2.2e7 coordinates
    "verify-400": (VERIFY, 400, "report.order"),
    "verify-huge": (VERIFY, 10**30, "report.order"),
    "kernel-huge": (["kernel", "--degree", HUGE], json.dumps(CONTROL), "--degree"),
    "first-integrals-huge": (["first-integrals", "--n", HUGE], "", "--n"),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_the_budget_rejects_each_field_before_any_work(case, monkeypatch, capsys):
    argv, stdin, field = BUDGET_CASES[case]
    if argv == VERIFY:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CONTROL)))
        assert cli.main(["normalize", "--order", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["report"]["order"] = order = stdin
        stdin = json.dumps(doc)
        assert order != 400 or len(stdin.encode()) == 584
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    message = f"error: {field}: too large, the work would span more than {cli.MAX_SPACE} coordinates\n"
    assert (code, captured.out, captured.err) == (1, "", message)
    assert elapsed < 1.0


def test_the_budget_admits_three_states_up_to_order_19():
    # 3 (C(22, 19) - 4) = 4,608 and 3 (C(23, 20) - 4) = 5,301 coordinates
    cli._check_space("--order", 3, 0, 19)
    with pytest.raises(cli.DocumentError):
        cli._check_space("--order", 3, 0, 20)
