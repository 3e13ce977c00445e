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

Every run but the ``{missing}`` one, and every run of the space budget,
also has a golden sha256 of its whole output: exit code, stdout and
stderr.  So do the small hostile documents at the end: nesting deeper
than ``json.loads`` can read, and a result with more digits than the
interpreter writes.
"""

import ast
import errno
import hashlib
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
# 100,000 nested arrays or objects, as a shell writes them with a newline:
# json.loads runs out of recursion depth before it reads the last level,
# on Python 3.10 and 3.11 at the interpreter's recursion limit and from 3.12
# at the C scanner's own limit, which reads 1,000 levels without an error
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000 + "\n"
DEEP_OBJECT = '{"a": ' * 100_000 + "1" + "}" * 100_000 + "\n"
NESTED = "input: nested too deeply to read"
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
    ("_load_json", NESTED): (["normalize", "--order", "3"], DEEP_ARRAY, NESTED),
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


def run_site(site, tmp_path, monkeypatch, capsys):
    """The message of a site's case, and (exit code, stdout, stderr) of its run."""
    argv, stdin, message = CASES[site]
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff")
    paths = {"{missing}": str(tmp_path / "missing.json"), "{latin1}": str(latin1)}

    def fill(text: str) -> str:
        for marker, path in paths.items():
            text = text.replace(marker, path)
        return text

    argv, message = [fill(a) for a in argv], fill(message)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return message, (code, captured.out, captured.err)


@pytest.mark.parametrize("site", sorted(CASES), ids=lambda site: f"{site[0]}: {site[1]}")
def test_each_site_exits_one_with_its_message(site, tmp_path, monkeypatch, capsys):
    message, output = run_site(site, tmp_path, monkeypatch, capsys)
    pattern = ".*".join(re.escape(part) for part in site[1].split("{}"))
    assert re.fullmatch(pattern, message, flags=re.DOTALL)
    assert output == (1, "", f"error: {message}\n")


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


def run_budget_case(case, monkeypatch, capsys):
    """(exit code, stdout, stderr) of a budget case's run, and its seconds."""
    argv, stdin, _ = BUDGET_CASES[case]
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
    return (code, captured.out, captured.err), elapsed


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_the_budget_rejects_each_field_before_any_work(case, monkeypatch, capsys):
    output, elapsed = run_budget_case(case, monkeypatch, capsys)
    field = BUDGET_CASES[case][2]
    message = f"error: {field}: too large, the work would span more than {cli.MAX_SPACE} coordinates\n"
    assert output == (1, "", message)
    assert elapsed < 1.0


def test_the_budget_admits_three_states_up_to_order_19():
    # 3 (C(22, 19) - 4) = 4,608 and 3 (C(23, 20) - 4) = 5,301 coordinates
    cli._check_space("--order", 3, 0, 19)
    with pytest.raises(cli.DocumentError):
        cli._check_space("--order", 3, 0, 20)


# ---------------------------------------------------------------------------
# golden bytes: the whole output of every error run
# ---------------------------------------------------------------------------

# sha256 of json.dumps([exit code, stdout, stderr]) of each case's run,
# recorded before the defect operator became one packed step.  The
# unreadable-file case is left out: its message holds a temporary path and
# the platform's text for the error.
SITE_GOLDEN = {
    ("_check_space", "{}: too large, the work would span more than {} coordinates"): "87e0cca00ca62703ba43cc3997b2b4a14d23387e5b51bc8935f2eb7c108a8b2e",
    ("_load_json", "input is not valid JSON: {}"): "ea8dd522c90718454e3c34c37f18e8420c1f6ca3200b929a95b35865ca13177b",
    ("_load_json", "input: nested too deeply to read"): "41b25d91b0eb5b7352d027e359ad58c0eb0035c6b658756ecd4822d27319ccba",
    ("_load_text", "input: not UTF-8 text ({} at byte {})"): "0eec76df971f43cc1d522f85e30a21fdc8eb9a9423e1d9b878c1624c3106591a",
    ("_parse_int", "{}: expected an integer"): "cfef7a4f963670a8be1ff94777cf2e19f8e95529a043ba7468373b4afc67a8c4",
    ("_parse_int", "{}: must be at least {}"): "38817f5e4ed72371ed732f6bac3222990f027f7cfec5d5056c9b1e7721883d21",
    ("_parse_matrix", "{}: expected a matrix with {} rows"): "979f940713bf902e73171e6c81fe9740d1a0953b01d31c5a23665f90b31ef5a7",
    ("_parse_matrix", "{}[{}]: expected a row of {} entries"): "4bbe813febd877bb377945467d8a3e4ba7e4402f4127497b829323fd0cc48020",
    ("_parse_rational", "{}: expected a rational string"): "bdcf5ae2e42c87cf161aa7d6def3e4d88cb08208cb11cbd921ac23e20b47bf46",
    ("_parse_rational", "{}: expected a rational string, got a boolean"): "a11c6a280b7c46a23dacac1879946a87cafdc619e719ddb963099d315689528d",
    ("_parse_rational", "{}: floating-point literals are not accepted; write the value as a rational string"): "1044c53d896c56330f8da4703532ae65da75426ac3e1f96f18b31183dba242b1",
    ("_parse_rational", "{}: malformed rational {}"): "d91514cba13732c3db797f480516c460b9291ed5e8e4cfd9cda3a0f12bfa846e",
    ("_parse_rational", "{}: malformed rational {} (zero denominator)"): "c12a8defce349535b92bfd40506535c9cd64acda94a039441535020f83bf1474",
    ("_parse_term", "{}.component: out of range 1..{}"): "6dd264b9b39250e8f2256d5bb61b225cbd0d78ae6b28257c1908007f2b077431",
    ("_parse_term", "{}.exponents: degree mismatch (sum {}, declared degree {})"): "a6b8a57e62b869b9cea08a0c6d88e4df8a256bcb03a516e97250396702936049",
    ("_parse_term", "{}.exponents: expected a list of {} exponents"): "57c75fbbb9edc007b7a1607731bce9e120c6429ac489abd9ac36e6e6c8e07036",
    ("_parse_term", "{}: expected an object"): "6782ef39afd55093a39a57c5f8aeddd8286dc55571b0b7598a47796301db40ea",
    ("_parse_term", "{}: missing field {}"): "d8d1cfc6226d5130059f76902b4793ab014a07a496f6ee3973b5936d0987217c",
    ("_parse_term", "{}: unexpected field {}"): "06224e5aa238d66cda67b376105fa26ea94eadd0025117173c2819be62b11d39",
    ("_parse_terms_list", "{}: expected a list of terms"): "015902c25c7308833b6cf621f2ace4369f0bd7149937a9208e706d0dc1e1aaf0",
    ("_parse_terms_list", "{}[{}]: duplicate term for component {} at degree {}"): "32ab8e51dd620949f26e39ca3137849cc5d2d19b101d101cc59a59c0ebb2c7d8",
    ("_unique_keys", "input: key {} appears twice in one object"): "1e90bf89b74662738d43d1c3bf158d3f60dad556461161f13f35a15d6409b9f6",
    ("cmd_first_integrals", "--n: applies only to the brunovsky target"): "c5889af7973306cde4bde6db66e6d7898c15a2ef29db484e7eb52b053a27895c",
    ("cmd_first_integrals", "--n: must be at least 1"): "9a5e9c0c0bc784a3a5971a97333dd7c8a707520d34be00b30374f3806d2c3cf0",
    ("cmd_kernel", "--degree: must be at least 2"): "d19563fad30a1c20b6ca4ad87770e6a311c0dec22774312a2f88ec083e6327d4",
    ("cmd_normalize", "--order: must be at least 1"): "d227a55300ebfdfc8c673174893d1ca64aa1a74fe735dc9f43141bd9b100e53c",
    ("cmd_verify", "document: expected exactly the fields ['report', 'system']"): "271dd487de50752fe56e2f78c49df7d0607ed70fcbc6c046cbbcee69f98a8b84",
    ("parse_report_object", "{}.certificates.{}: expected a boolean or null"): "90531d2f2a7833173ee06d86df0d3f65b6561680d22f650242144f68a281892f",
    ("parse_report_object", "{}.certificates: expected exactly the fields {}"): "c211f4a1c748407f5907a7eec6a399cd8c3c72d8426275be9afc14b3ca9dc000",
    ("parse_report_object", "{}.degree: exceeds the report order"): "ef65b9f33e88542285e4960abf436fc1cacb4cdab697edd3242f463dd7ac0210",
    ("parse_report_object", "{}.dimensions: expected an object"): "ac843eb3067dedc12ad2ca6284428ae296bfb0de714a1751d97cfebc0c504975",
    ("parse_report_object", "{}.dimensions: key {} is not a degree"): "3bc347a41f0563f3898f5e06f408a88665665272ae8bb974cf0e2046a86d9eec",
    ("parse_report_object", "{}.dimensions: key {} is not a degree in 2..{}"): "f8d4593fa592954c4f9a1bb0977afc096e074f3a55e39297f8cbaecbb79ef5da",
    ("parse_report_object", "{}.dimensions: key {} is not written as the degree {}"): "f787430d29663d48760a489b61e4d21ea8207ec43062532fd261ecf7a2dcedf9",
    ("parse_report_object", "{}.dimensions[{}]: expected exactly the fields {}"): "d3debeb2897968007c1664b9f7f2b25663e4bfdccaf49702ccf1c738e550de83",
    ("parse_report_object", "{}.generators: degrees must be strictly increasing"): "f21a27bb5d1f9808a9bf4da98036bffd4250da085dedf9da4bedc19cf090fea3",
    ("parse_report_object", "{}.generators: expected a list"): "8b26563e0574f3f40c5655e68d1f2b41169861616a7938c48874afe3e2eebd5c",
    ("parse_report_object", "{}.normal_form: term degree exceeds the report order"): "dc80ebe4d781d6ed0fcc5d157e670d6382394b7acfef9c33d95dd800d0f34f11",
    ("parse_report_object", "{}.{}: terms must match the declared degree"): "c4f7c8744a80203ef2edb282a0caadc29001727e59cb2c53aa7bc8b95af50d95",
    ("parse_report_object", "{}: expected a JSON object"): "2172a02fa5826bad460d959e1544110e66928f93ecbc90a2291684166963ef72",
    ("parse_report_object", "{}: expected an object"): "6ee06f04e323a225b1e7bd6c06c7b5a18b1cc36eca73eb1f28ac732ac7a40533",
    ("parse_report_object", "{}: expected exactly the fields {}"): "c8abc0a19e6e55210208ac29aedcd11b07b966167d7dbea950a302d06fc93785",
    ("parse_report_object", "{}: missing field {}"): "7296ddc51448a30199536f3408e54f4a0ab00642e982494c19e42f2dc1040482",
    ("parse_report_object", "{}: unexpected field {}"): "ee2ae5eeadf889022b026483021cc23fecfa641ed32bd80e218c1e1a964807a2",
    ("parse_system_object", "{}.A: missing"): "1ed04db43b1ef18724b96b4bad5552c914fe3573924d99a7491d9c3aab9b0653",
    ("parse_system_object", "{}.B: missing (required for control systems)"): "a02a47c456d74c435baa6d9af2c742133b53dc52e0ffdf9fcb7048da26efce42",
    ("parse_system_object", "{}.B: only allowed for control systems"): "2e84afafcea18bb9cb0ef5db711f4b69a7887cd55a5ea74e3a8bdb62258a9688",
    ("parse_system_object", '{}.kind: must be "ode" or "control"'): "9976d17833b267a7cbe99f3c71d3257a9d3ea2a1b1b55ca78c6e3dfd8b8de408",
    ("parse_system_object", "{}.m: missing"): "f48216f0d6fb4b97830772af182d3c494ed538f80ae8b6ee978417809739780b",
    ("parse_system_object", "{}.m: must be 0 for an ode system"): "3b8529fade7325c5d579e0218c263b7665c9f4e16b840acd2181f882e67b05b8",
    ("parse_system_object", "{}.m: must be at least 1 for a control system"): "e05db7845f367ff2996634e2d59314d5a81129382f59be21f7035bf50dd072c2",
    ("parse_system_object", "{}.n: missing"): "bed8fb4a4129cd62efe5660dc649277f1ca92b7e225ddab226c079254aadfc11",
    ("parse_system_object", "{}.semisimple_part: only allowed for ode systems"): "b549bd8c44111d5c010579714cb35ba146424d4075de48bd6c8ad5195526e49d",
    ("parse_system_object", "{}.terms: missing"): "6be46d3aa1eae91b62e1fd06cc48afb654ac2e352d2da3c0a38ba4badb3e75e7",
    ("parse_system_object", "{}: expected a JSON object"): "03e47293fa28892e56607aaf58b904d995d44aa9634309e0cdeac94439941067",
    ("parse_system_object", "{}: invalid semisimple/nilpotent split: {}"): "cac97cdef67c449c3779b253b8d808400e0514abea52b142bd4504c2520b9fef",
    ("parse_system_object", "{}: semisimple_part and nilpotent_part must be supplied together"): "efcd276a6553e9a19d2209fadb0f460089472734d014feb566d7a17ad432e95b",
    ("parse_system_object", "{}: unexpected field {}"): "182cef1d2ed85cd16928c3daf687595e226fd2e819c9865ae923c7bb4c802f14",
}
BUDGET_GOLDEN = {
    "first-integrals-huge": "1f317d5c94f0ae335bbf51ac0dbadc47a4e75ee985ba6bca59a70ad05ff9edee",
    "kernel-huge": "69005fbe92dede96ab95ceadfbc73f7ed6847a147dc250c30e8ffefd444e3604",
    "normalize-400": "87e0cca00ca62703ba43cc3997b2b4a14d23387e5b51bc8935f2eb7c108a8b2e",
    "normalize-huge": "87e0cca00ca62703ba43cc3997b2b4a14d23387e5b51bc8935f2eb7c108a8b2e",
    "verify-400": "47a25ab657c45c85624eb0488649a4220201307d5118ddc7e3d7695b66dd0135",
    "verify-huge": "47a25ab657c45c85624eb0488649a4220201307d5118ddc7e3d7695b66dd0135",
}


def digest(output) -> str:
    """sha256 of one run's whole output: exit code, stdout and stderr."""
    return hashlib.sha256(json.dumps(list(output)).encode("utf-8")).hexdigest()


def test_every_error_run_is_pinned():
    unreadable = {site for site, case in CASES.items() if "{missing}" in case[2]}
    assert len(unreadable) == 1
    assert sorted(SITE_GOLDEN) == sorted(set(CASES) - unreadable)
    assert sorted(BUDGET_GOLDEN) == sorted(BUDGET_CASES)


@pytest.mark.parametrize("site", sorted(SITE_GOLDEN), ids=lambda site: f"{site[0]}: {site[1]}")
def test_each_site_run_is_golden(site, tmp_path, monkeypatch, capsys):
    _, output = run_site(site, tmp_path, monkeypatch, capsys)
    assert digest(output) == SITE_GOLDEN[site]


@pytest.mark.parametrize("case", sorted(BUDGET_GOLDEN))
def test_each_budget_run_is_golden(case, monkeypatch, capsys):
    output, _ = run_budget_case(case, monkeypatch, capsys)
    assert digest(output) == BUDGET_GOLDEN[case]


# ---------------------------------------------------------------------------
# small hostile documents: deep nesting, and a result past the digit limit
# ---------------------------------------------------------------------------

# A = diag(1, 3) with x1 x2 e1, x1^2 e2 and x2^2 e1, each over a 1,500-digit
# numerator and denominator: the order-3 report can be written, but the
# order-4 one holds a number of more than 4,300 digits
WIDE = "7" * 1500 + "/" + "3" * 1499 + "1"
DIGITS = json.dumps(
    {
        "kind": "ode",
        "n": 2,
        "m": 0,
        "A": [["1", "0"], ["0", "3"]],
        "terms": [
            {"degree": 2, "component": 1, "exponents": [1, 1], "coeff": WIDE},
            {"degree": 2, "component": 2, "exponents": [2, 0], "coeff": WIDE},
            {"degree": 2, "component": 1, "exponents": [0, 2], "coeff": WIDE},
        ],
    }
)
DIGIT_MESSAGE = "output: a number has more than 4300 digits (the PYTHONINTMAXSTRDIGITS environment variable raises the limit)"
NESTED_GOLDEN = SITE_GOLDEN["_load_json", NESTED]
DIGITS_GOLDEN = "9509e1f486d7f9a03f1cdbe6339b552c75314cad91918d6425eb8c207588ed66"
# argv, stdin, the one line on stderr, and the golden sha256 of the run;
# the site case of the nesting message runs DEEP_ARRAY through normalize
HOSTILE_CASES = {
    "deep-array-verify": (VERIFY, DEEP_ARRAY, NESTED, NESTED_GOLDEN),
    "deep-array-kernel": (["kernel", "--degree", "2"], DEEP_ARRAY, NESTED, NESTED_GOLDEN),
    "deep-object-normalize": (["normalize", "--order", "3"], DEEP_OBJECT, NESTED, NESTED_GOLDEN),
    "deep-object-verify": (VERIFY, DEEP_OBJECT, NESTED, NESTED_GOLDEN),
    "digits-json": (["normalize", "--order", "4", "--format", "json"], DIGITS, DIGIT_MESSAGE, DIGITS_GOLDEN),
    "digits-pretty": (["normalize", "--order", "4", "--format", "pretty"], DIGITS, DIGIT_MESSAGE, DIGITS_GOLDEN),
}


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on int-to-string digits, 4,300."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("case", sorted(HOSTILE_CASES))
def test_each_hostile_document_exits_one_with_one_line(case, default_digit_limit, monkeypatch, capsys):
    argv, stdin, message, golden = HOSTILE_CASES[case]
    assert len(DEEP_ARRAY.encode()) == 200_001 and len(DIGITS.encode()) == 9271
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    output = (cli.main(argv), *capsys.readouterr())
    assert output == (1, "", f"error: {message}\n")
    assert digest(output) == golden


def test_the_digit_document_is_written_below_the_limit(default_digit_limit, monkeypatch, capsys):
    # the writer's guard rejects the number, not the document
    monkeypatch.setattr(sys, "stdin", io.StringIO(DIGITS))
    assert cli.main(["normalize", "--order", "3", "--format", "json"]) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(report))
    assert cli.main(["verify", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
