"""Command-line interface: documents, exit codes, rendering, verify loop."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalforms import CertificateError, cli, control, ode
from normalforms.cli import canonical_json, main, parse_system
from test_golden_cli import GOLDEN

DIAG_ODE = {
    "kind": "ode",
    "n": 2,
    "m": 0,
    "A": [["1", "0"], ["0", "2"]],
    "terms": [
        {"degree": 2, "component": 2, "exponents": [2, 0], "coeff": "1"},
        {"degree": 2, "component": 2, "exponents": [1, 1], "coeff": "1"},
    ],
}

BRUNOVSKY = {
    "kind": "control",
    "n": 2,
    "m": 1,
    "A": [["0", "1"], ["0", "0"]],
    "B": [["0"], ["1"]],
    "terms": [{"degree": 2, "component": 1, "exponents": [0, 2, 0], "coeff": "1"}],
}


def run(argv, stdin_text, monkeypatch, capsys):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc(obj):
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# input validation: every failure names the offending field and exits 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d: d["terms"][0].__setitem__("coeff", "1/0"),
            "document.terms[0].coeff: malformed rational '1/0' (zero denominator)",
        ),
        (
            lambda d: d["terms"][0].__setitem__("coeff", 0.5),
            "floating-point literals are not accepted",
        ),
        (
            lambda d: d["terms"][0].__setitem__("coeff", "1\n"),
            "document.terms[0].coeff: malformed rational '1\\n'",
        ),
        (
            lambda d: d["terms"][0].__setitem__("coeff", "\u0661"),  # Arabic-Indic digit one
            "document.terms[0].coeff: malformed rational '\u0661'",
        ),
        (
            lambda d: d["terms"][0].__setitem__("exponents", [1, 0]),
            "document.terms[0].exponents: degree mismatch (sum 1, declared degree 2)",
        ),
        (
            lambda d: d["terms"][0].__setitem__("component", 3),
            "document.terms[0].component: out of range 1..2",
        ),
        (
            lambda d: d["A"].__setitem__(0, ["1", "0", "0"]),
            "document.A[0]: expected a row of 2 entries",
        ),
        (
            lambda d: d.__setitem__("extra", 1),
            "document: unexpected field 'extra'",
        ),
        (
            lambda d: d.__setitem__("B", [["1"], ["0"]]),
            "document.B: only allowed for control systems",
        ),
        (
            lambda d: d.__setitem__("kind", "dae"),
            'document.kind: must be "ode" or "control"',
        ),
    ],
)
def test_ode_document_errors(mutate, message, monkeypatch, capsys):
    bad = json.loads(doc(DIAG_ODE))
    mutate(bad)
    code, out, err = run(["normalize"], doc(bad), monkeypatch, capsys)
    assert code == 1
    assert message in err
    assert out == ""


def test_control_document_rejects_split(monkeypatch, capsys):
    bad = json.loads(doc(BRUNOVSKY))
    bad["semisimple_part"] = bad["A"]
    bad["nilpotent_part"] = [["0", "0"], ["0", "0"]]
    code, _, err = run(["normalize"], doc(bad), monkeypatch, capsys)
    assert code == 1
    assert "only allowed for ode systems" in err


def test_duplicate_term_rejected(monkeypatch, capsys):
    bad = json.loads(doc(DIAG_ODE))
    bad["terms"].append(dict(bad["terms"][0]))
    code, _, err = run(["normalize"], doc(bad), monkeypatch, capsys)
    assert code == 1
    assert "duplicate term" in err


def test_repeated_key_rejected(monkeypatch, capsys):
    code, _, err = run(["normalize"], doc(DIAG_ODE)[:-1] + ', "n": 2}', monkeypatch, capsys)
    assert code == 1
    assert "input: key 'n' appears twice in one object" in err


def test_invalid_json_rejected(monkeypatch, capsys):
    code, _, err = run(["normalize"], "{not json", monkeypatch, capsys)
    assert code == 1
    assert "input is not valid JSON" in err


def test_invalid_split_rejected(monkeypatch, capsys):
    bad = json.loads(doc(DIAG_ODE))
    bad["A"] = [["0", "1"], ["0", "0"]]
    bad["semisimple_part"] = bad["A"]
    bad["nilpotent_part"] = [["0", "0"], ["0", "0"]]
    code, _, err = run(["normalize"], doc(bad), monkeypatch, capsys)
    assert code == 1
    assert "invalid semisimple/nilpotent split" in err
    assert "A_s is not semisimple" in err


def test_missing_input_file(monkeypatch, capsys, tmp_path):
    code, _, err = run(
        ["kernel", "--input", str(tmp_path / "absent.json")], None, monkeypatch, capsys
    )
    assert code == 1
    assert "cannot read" in err


# the interpreter's limit on the digits of an int conversion (0: no limit)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts ints of any length")


@needs_digit_limit
def test_json_integer_over_the_digit_limit_names_the_input(monkeypatch, capsys):
    big = "1" + "0" * DIGIT_LIMIT
    text = doc(DIAG_ODE).replace('"coeff": "1"', '"coeff": ' + big, 1)
    code, out, err = run(["normalize"], text, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: input: ")
    assert big not in err


@needs_digit_limit
def test_rational_over_the_digit_limit_names_its_field(monkeypatch, capsys):
    big = "1" + "0" * DIGIT_LIMIT
    for coeff in (big, "1/" + big, "-" + big + "/3"):
        bad = json.loads(doc(DIAG_ODE))
        bad["terms"][0]["coeff"] = coeff
        code, out, err = run(["normalize"], doc(bad), monkeypatch, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: document.terms[0].coeff: ")
        assert big not in err


@needs_digit_limit
@pytest.mark.parametrize("as_string, field", [(True, "document.terms[0].coeff"), (False, "input")], ids=["string", "integer"])
def test_digit_limit_message_names_what_a_user_can_change(as_string, field, monkeypatch, capsys):
    big = "1" + "0" * DIGIT_LIMIT
    text = doc(DIAG_ODE).replace('"coeff": "1"', '"coeff": ' + (json.dumps(big) if as_string else big), 1)
    code, out, err = run(["normalize"], text, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field}: a number has more than {DIGIT_LIMIT} digits")
    assert "PYTHONINTMAXSTRDIGITS" in err
    assert "set_int_max_str_digits" not in err


def test_input_that_is_not_utf8_names_the_input(monkeypatch, capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "\xe9"}')
    code, out, err = run(["kernel", "--input", str(path)], None, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: input: not UTF-8 text")


def test_internal_value_error_escapes_main(monkeypatch, capsys):
    # exit 1 means bad input: a ValueError raised inside the engine is a bug
    # and propagates with its traceback instead of printing "error:"
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(ode, "normalize_ode", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc(DIAG_ODE)))
    with pytest.raises(ValueError, match="internal fault") as exc:
        main(["normalize"])
    assert not isinstance(exc.value, cli.DocumentError)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" not in captured.err


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_control_quadratic(monkeypatch, capsys):
    code, out, _ = run(
        ["kernel", "--degree", "2", "--format", "json"], doc(BRUNOVSKY), monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "kernel"
    assert payload["dimensions"] == {"space": 12, "range": 11, "complement": 3}
    assert len(payload["basis"]) == 3


def test_kernel_ode_resonant_direction(monkeypatch, capsys):
    code, out, _ = run(
        ["kernel", "--format", "json"], doc(DIAG_ODE), monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimensions"] == {"space": 6, "range": 5, "complement": 1}
    (only,) = payload["basis"]
    assert only == [
        {"component": 2, "coeff": "1", "degree": 2, "exponents": [2, 0]}
    ]


def test_kernel_zero_matrix_everything_resonant(monkeypatch, capsys):
    zero_ode = {"kind": "ode", "n": 2, "m": 0, "A": [["0", "0"], ["0", "0"]], "terms": []}
    code, out, _ = run(["kernel", "--format", "json"], doc(zero_ode), monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["dimensions"]["complement"] == 6


def test_kernel_degree_below_two(monkeypatch, capsys):
    code, _, err = run(["kernel", "--degree", "1"], doc(DIAG_ODE), monkeypatch, capsys)
    assert code == 1
    assert "--degree: must be at least 2" in err


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_ode_json(monkeypatch, capsys):
    code, out, _ = run(
        ["normalize", "--order", "2", "--format", "json"], doc(DIAG_ODE), monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    report = payload["report"]
    assert payload["system"]["kind"] == "ode"
    assert report["certificates"] == {
        "kernel_residual_zero": True,
        "conjugacy_residual_zero": True,
        "equivariance_zero": True,  # the diagonal split is derived automatically
    }
    assert report["normal_form"] == [
        {"component": 2, "coeff": "1", "degree": 2, "exponents": [2, 0]}
    ]
    assert report["generators"] == [
        {
            "degree": 2,
            "terms": [{"component": 2, "coeff": "1", "degree": 2, "exponents": [1, 1]}],
        }
    ]
    assert report["dimensions"] == {"2": {"space": 6, "range": 5, "complement": 1}}


def test_normalize_ode_non_jordan_equivariance_null(monkeypatch, capsys):
    rotation = {
        "kind": "ode",
        "n": 2,
        "m": 0,
        "A": [["0", "-1"], ["1", "0"]],
        "terms": [{"degree": 2, "component": 1, "exponents": [2, 0], "coeff": "1"}],
    }
    code, out, _ = run(
        ["normalize", "--order", "2", "--format", "json"], doc(rotation), monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["report"]["certificates"]["equivariance_zero"] is None


def test_normalize_control_json(monkeypatch, capsys):
    code, out, _ = run(
        ["normalize", "--order", "3", "--format", "json"], doc(BRUNOVSKY), monkeypatch, capsys
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["normal_form"] == []
    assert report["certificates"]["kernel_residual_zero"] is True
    assert report["certificates"]["conjugacy_residual_zero"] is True
    assert report["certificates"]["equivariance_zero"] is None
    assert report["dimensions"]["2"] == {"space": 12, "range": 11, "complement": 1}
    assert report["dimensions"]["3"] == {"space": 20, "range": 17, "complement": 3}
    gen = report["generators"][0]
    assert gen["degree"] == 2 and set(gen) == {"degree", "p_x", "p_u"}


@pytest.mark.parametrize("order", ["0", "-5"])
def test_normalize_order_below_one(order, monkeypatch, capsys):
    code, out, err = run(["normalize", "--order", order], doc(DIAG_ODE), monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert "--order: must be at least 1" in err


def test_normalize_order_one_is_degenerate(monkeypatch, capsys):
    code, out, _ = run(
        ["normalize", "--order", "1", "--format", "json"], doc(DIAG_ODE), monkeypatch, capsys
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["order"] == 1
    assert report["normal_form"] == []
    assert report["generators"] == []
    assert report["dimensions"] == {}


def test_normalize_pretty_rendering(monkeypatch, capsys):
    code, out, _ = run(["normalize", "--order", "2"], doc(DIAG_ODE), monkeypatch, capsys)
    assert code == 0
    assert "normal form of the ode (n=2, m=0), order 2:" in out
    assert "  dx1/dt = x1\n" in out
    assert "  dx2/dt = 2·x2 + x1^2\n" in out
    assert "  degree 2: xi = (0, x1·x2)" in out
    assert "  degree 2: 6 / 5 / 1" in out


def test_normalize_deterministic(monkeypatch, capsys):
    first = run(
        ["normalize", "--order", "3", "--format", "json"], doc(BRUNOVSKY), monkeypatch, capsys
    )
    second = run(
        ["normalize", "--order", "3", "--format", "json"], doc(BRUNOVSKY), monkeypatch, capsys
    )
    assert first == second


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def normalize_json(system, order, monkeypatch, capsys):
    code, out, _ = run(
        ["normalize", "--order", str(order), "--format", "json"],
        doc(system),
        monkeypatch,
        capsys,
    )
    assert code == 0
    return json.loads(out)


def test_verify_accepts_fresh_report(monkeypatch, capsys):
    payload = normalize_json(DIAG_ODE, 3, monkeypatch, capsys)
    code, out, _ = run(
        ["verify", "--format", "json"], json.dumps(payload), monkeypatch, capsys
    )
    assert code == 0
    result = json.loads(out)
    assert result["verified"] is True
    assert all(result["checks"].values())


@pytest.mark.parametrize("n", [1, 2])
def test_zero_linear_part_round_trip(n, monkeypatch, capsys):
    system = {
        "kind": "ode",
        "n": n,
        "m": 0,
        "A": [["0"] * n for _ in range(n)],
        "terms": [{"degree": 2, "component": 1, "exponents": [2] + [0] * (n - 1), "coeff": "1"}],
    }
    payload = normalize_json(system, 3, monkeypatch, capsys)
    code, out, _ = run(
        ["verify", "--format", "json"], json.dumps(payload), monkeypatch, capsys
    )
    assert code == 0
    result = json.loads(out)
    assert result["verified"] is True
    assert all(result["checks"].values())


def test_verify_accepts_fresh_control_report(monkeypatch, capsys):
    payload = normalize_json(BRUNOVSKY, 3, monkeypatch, capsys)
    code, out, _ = run(
        ["verify", "--format", "json"], json.dumps(payload), monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_rejects_corrupted_normal_form(monkeypatch, capsys):
    payload = normalize_json(DIAG_ODE, 2, monkeypatch, capsys)
    payload["report"]["normal_form"].append(
        {"component": 1, "coeff": "1", "degree": 2, "exponents": [1, 1]}
    )
    code, out, _ = run(
        ["verify", "--format", "json"], json.dumps(payload), monkeypatch, capsys
    )
    assert code == 2
    result = json.loads(out)
    assert result["verified"] is False
    assert result["checks"]["conjugacy_residual_zero"] is False


def test_verify_rejects_corrupted_certificate_claim(monkeypatch, capsys):
    payload = normalize_json(DIAG_ODE, 2, monkeypatch, capsys)
    payload["report"]["dimensions"]["2"]["complement"] = 2
    code, out, _ = run(
        ["verify", "--format", "json"], json.dumps(payload), monkeypatch, capsys
    )
    assert code == 2
    assert json.loads(out)["checks"]["dimensions_match"] is False


@pytest.mark.parametrize("spelling", [" 02", "+2", "02"])
@pytest.mark.parametrize("keep_canonical", [False, True], ids=["renamed", "duplicate"])
def test_verify_rejects_dimension_keys_not_written_as_the_degree(
    spelling, keep_canonical, monkeypatch, capsys
):
    payload = normalize_json(BRUNOVSKY, 3, monkeypatch, capsys)
    dims = payload["report"]["dimensions"]
    dims[spelling] = dims["2"] if keep_canonical else dims.pop("2")
    code, out, err = run(["verify", "--format", "json"], json.dumps(payload), monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert f"report.dimensions: key {spelling!r} is not written as the degree 2" in err


def test_verify_rejects_a_repeated_dimension_key(monkeypatch, capsys):
    payload = normalize_json(BRUNOVSKY, 3, monkeypatch, capsys)
    text = json.dumps(payload).replace(
        '"dimensions": {"2":', '"dimensions": {"2": {"complement": 9, "range": 9, "space": 9}, "2":'
    )
    code, out, err = run(["verify", "--format", "json"], text, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert "input: key '2' appears twice in one object" in err


@pytest.mark.parametrize("key", ["0", "1", "-2", "4"])
@pytest.mark.parametrize("system", [DIAG_ODE, BRUNOVSKY], ids=["ode", "control"])
def test_verify_rejects_a_dimension_key_outside_the_degrees(key, system, monkeypatch, capsys):
    # a degree the report cannot have is bad input, not a false claim
    payload = normalize_json(system, 3, monkeypatch, capsys)
    dims = payload["report"]["dimensions"]
    dims[key] = dims["2"]
    code, out, err = run(["verify", "--format", "json"], json.dumps(payload), monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert f"report.dimensions: key {key!r} is not a degree in 2..3" in err


def test_verify_pretty_names_failures(monkeypatch, capsys):
    payload = normalize_json(DIAG_ODE, 2, monkeypatch, capsys)
    payload["report"]["normal_form"] = []
    code, out, _ = run(["verify"], json.dumps(payload), monkeypatch, capsys)
    assert code == 2
    assert "FAIL" in out
    assert "verified: no" in out


def test_verify_requires_exact_top_level_shape(monkeypatch, capsys):
    payload = normalize_json(DIAG_ODE, 2, monkeypatch, capsys)
    payload["note"] = "hello"
    code, _, err = run(["verify"], json.dumps(payload), monkeypatch, capsys)
    assert code == 1
    assert "expected exactly the fields" in err


# ---------------------------------------------------------------------------
# first-integrals and examples
# ---------------------------------------------------------------------------


def test_first_integrals_pretty(monkeypatch, capsys):
    code, out, _ = run(["first-integrals", "--n", "2"], None, monkeypatch, capsys)
    assert code == 0
    assert "l1 = x1\n" in out
    assert "l2 = -x1·u + 1/2·x2^2\n" in out
    assert "all integrals certified" in out


def test_first_integrals_uncontrollable(monkeypatch, capsys):
    code, out, _ = run(["first-integrals", "uncontrollable"], None, monkeypatch, capsys)
    assert code == 0
    assert "l1 = z\n" in out
    assert "l3 = -2·z·u + x2^2\n" in out


def test_first_integrals_json(monkeypatch, capsys):
    code, out, _ = run(
        ["first-integrals", "--n", "4", "--format", "json"], None, monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["x1", "x2", "x3", "x4", "u"]
    assert [i["index"] for i in payload["integrals"]] == [1, 2, 3]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_first_integrals_n_below_one(n, monkeypatch, capsys):
    code, out, err = run(["first-integrals", "--n", n], None, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --n: must be at least 1\n"


def test_examples_roundtrip_byte_identical(monkeypatch, capsys):
    code, out, _ = run(["examples", "brunovsky-quadratic"], None, monkeypatch, capsys)
    assert code == 0
    ps = parse_system(out)
    assert canonical_json(ps.document()) == out


def test_examples_feed_normalize(monkeypatch, capsys, tmp_path):
    code, out, _ = run(["examples", "uncontrollable"], None, monkeypatch, capsys)
    assert code == 0
    path = tmp_path / "system.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(
        ["normalize", "--order", "2", "--format", "json", "--input", str(path)],
        None,
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert json.loads(out)["report"]["normal_form"] == []


# ---------------------------------------------------------------------------
# argument handling and the module entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("error", [RuntimeError("internal fault"), RecursionError("too deep")], ids=["runtime", "recursion"])
@pytest.mark.parametrize("verb", ["normalize", "verify"])
def test_internal_errors_do_not_read_as_certificate_failures(verb, error, monkeypatch, capsys):
    # only a CertificateError means a refuted result; any other RuntimeError
    # is a bug and must not exit 2 or turn into conjugacy_residual_zero: false
    stdin = doc(DIAG_ODE) if verb == "normalize" else json.dumps(normalize_json(DIAG_ODE, 2, monkeypatch, capsys))

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(ode, "verify_conjugacy", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    with pytest.raises(type(error)) as exc:
        main([verb, "--format", "json", "--order", "2"] if verb == "normalize" else [verb, "--format", "json"])
    assert not isinstance(exc.value, CertificateError)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("verb", ["normalize", "verify"])
def test_certificate_errors_still_exit_two(verb, monkeypatch, capsys):
    stdin = doc(BRUNOVSKY) if verb == "normalize" else json.dumps(normalize_json(BRUNOVSKY, 2, monkeypatch, capsys))

    def refuted(*args, **kwargs):
        raise CertificateError("augmented pushforward disagrees")

    monkeypatch.setattr(cli, "verify_control_conjugacy", refuted)
    monkeypatch.setattr(control, "verify_control_conjugacy", refuted)
    argv = [verb, "--format", "json", "--order", "2"] if verb == "normalize" else [verb, "--format", "json"]
    code, out, err = run(argv, stdin, monkeypatch, capsys)
    assert code == 2
    if verb == "normalize":
        assert "certificate failure: augmented pushforward disagrees" in err
    else:
        assert json.loads(out)["checks"]["conjugacy_residual_zero"] is False


def test_run_exits_three_on_an_internal_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(ode, "normalize_ode", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc(DIAG_ODE)))
    assert cli.run(["normalize"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "ValueError: internal fault" in captured.err


def test_run_keeps_exit_codes_zero_one_and_two(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc(DIAG_ODE)))
    assert cli.run(["normalize", "--order", "2"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    assert cli.run(["normalize"]) == 1

    def refuted(*args, **kwargs):
        raise CertificateError("augmented pushforward disagrees")

    monkeypatch.setattr(control, "verify_control_conjugacy", refuted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc(BRUNOVSKY)))
    assert cli.run(["normalize", "--order", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_bad_flag_value_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--degree", "two"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_module_entry_point_subprocess():
    examples = subprocess.run(
        [sys.executable, "-m", "normalforms", "examples"],
        capture_output=True,
        text=True,
        check=True,
    )
    verify_input = subprocess.run(
        [sys.executable, "-m", "normalforms", "normalize", "--format", "json"],
        input=examples.stdout,
        capture_output=True,
        text=True,
    )
    assert verify_input.returncode == 0
    # the default order is 3: the process reproduces the in-process golden bytes
    assert hashlib.sha256(verify_input.stdout.encode("utf-8")).hexdigest() == GOLDEN["brunovsky-quadratic", 3]
    verified = subprocess.run(
        [sys.executable, "-m", "normalforms", "verify", "--format", "json"],
        input=verify_input.stdout,
        capture_output=True,
        text=True,
    )
    assert verified.returncode == 0
    assert json.loads(verified.stdout)["verified"] is True


# ---------------------------------------------------------------------------
# normalize | verify over small random systems
# ---------------------------------------------------------------------------

ODE_LINEAR_PARTS = {
    1: [[["0"]], [["3"]]],
    2: [
        [["1", "0"], ["0", "2"]],  # resonant diagonal
        [["1", "0"], ["0", "-1"]],  # saddle
        [["0", "1"], ["0", "0"]],  # nilpotent
        [["2", "1"], ["0", "2"]],  # Jordan block
        [["0", "0"], ["0", "0"]],
    ],
}

coeff_strings = st.builds(
    lambda p, q: str(Fraction(p, q)), st.integers(-4, 4).filter(bool), st.integers(1, 3)
)


@st.composite
def random_systems(draw):
    """An ODE with n <= 2 or a control system with n = 2, m = 1, and an order."""
    if draw(st.booleans()):
        n, m = draw(st.integers(1, 2)), 0
        system = {"kind": "ode", "n": n, "m": 0, "A": draw(st.sampled_from(ODE_LINEAR_PARTS[n]))}
    else:
        n, m = 2, 1
        small = st.sampled_from(["0", "0", "1", "-1", "2"])
        system = {
            "kind": "control",
            "n": 2,
            "m": 1,
            "A": [[draw(small) for _ in range(2)] for _ in range(2)],
            "B": [[draw(small)] for _ in range(2)],
        }
    order = draw(st.integers(2, 3))
    slots = [
        (k, i, tuple(e))
        for k in range(2, order + 1)
        for i in range(1, n + 1)
        for e in product(range(k + 1), repeat=n + m)
        if sum(e) == k
    ]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=4, unique=True))
    system["terms"] = [
        {"degree": k, "component": i, "exponents": list(e), "coeff": draw(coeff_strings)} for k, i, e in chosen
    ]
    return system, order


def run_quietly(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@given(random_systems())
@settings(max_examples=60, deadline=None)
def test_normalize_verify_round_trip(case):
    system, order = case
    code, text = run_quietly(["normalize", "--order", str(order), "--format", "json"], json.dumps(system))
    assert code == 0
    code, out = run_quietly(["verify", "--format", "json"], text)
    assert code == 0
    assert json.loads(out)["verified"] is True

    # one changed normal-form coefficient (or one added term) is refuted
    payload = json.loads(text)
    terms = payload["report"]["normal_form"]
    if terms:
        old = Fraction(terms[0]["coeff"])
        terms[0]["coeff"] = str(old + 1 if old != -1 else old + 2)
    else:
        exponents = [2] + [0] * (system["n"] + system["m"] - 1)
        terms.append({"component": 1, "coeff": "1", "degree": 2, "exponents": exponents})
    code, out = run_quietly(["verify", "--format", "json"], json.dumps(payload))
    assert code == 2
    assert json.loads(out)["verified"] is False
