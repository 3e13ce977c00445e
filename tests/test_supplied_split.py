"""A supplied Jordan-Chevalley split, in process.

The two split documents the CI round trips feed to the console script
(A_s = A with distinct eigenvalues 1 and 2, and the rotation, semisimple
over C only; A_n = 0 in both) run here through `cli.main`.  `normalize`
accepts the split and echoes both parts unchanged in its system document,
`verify` of the result passes, and `kernel` accepts the document.  Each of
the four checks of `validate_split`, failing alone, exits 1 with its
message.
"""

import io
import json
import sys

import pytest

from normalforms import cli
from normalforms.spectral import validate_split
from normalforms.ratmat import mat

ZERO = [["0", "0"], ["0", "0"]]
TERMS = [
    {"degree": 2, "component": 1, "exponents": [2, 0], "coeff": "1"},
    {"degree": 3, "component": 2, "exponents": [2, 1], "coeff": "1/2"},
]
SEMISIMPLE = {
    "distinct": [["1", "1"], ["0", "2"]],
    "rotation": [["0", "-1"], ["1", "0"]],
}


def split_doc(a, a_s, a_n) -> str:
    return json.dumps(
        {"kind": "ode", "n": 2, "m": 0, "A": a, "semisimple_part": a_s, "nilpotent_part": a_n, "terms": TERMS}
    )


def run(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(SEMISIMPLE))
def test_normalize_echoes_the_split_and_verify_passes(name, monkeypatch, capsys):
    a = SEMISIMPLE[name]
    code, out, err = run(["normalize", "--format", "json", "--order", "4"], split_doc(a, a, ZERO), monkeypatch, capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["system"]["semisimple_part"] == a
    assert doc["system"]["nilpotent_part"] == ZERO
    assert doc["report"]["certificates"]["equivariance_zero"] is True
    code, out, err = run(["verify", "--format", "json"], out, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize("name", sorted(SEMISIMPLE))
def test_kernel_accepts_a_supplied_split(name, monkeypatch, capsys):
    a = SEMISIMPLE[name]
    code, out, err = run(["kernel", "--format", "json", "--degree", "3"], split_doc(a, a, ZERO), monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["kind"] == "kernel"


# (A, A_s, A_n) with exactly the named check failing
FAILED = {
    "A_s + A_n != A": ([["1", "0"], ["0", "2"]], [["1", "0"], ["0", "1"]], ZERO),
    "A_s and A_n do not commute": ([["1", "1"], ["0", "2"]], [["1", "0"], ["0", "2"]], [["0", "1"], ["0", "0"]]),
    "A_n is not nilpotent": ([["1", "0"], ["0", "1"]], ZERO, [["1", "0"], ["0", "1"]]),
    "A_s is not semisimple": ([["1", "1"], ["0", "1"]], [["1", "1"], ["0", "1"]], ZERO),
}


@pytest.mark.parametrize("message", sorted(FAILED))
def test_each_failed_check_exits_one_with_its_message(message, monkeypatch, capsys):
    a, a_s, a_n = FAILED[message]
    assert validate_split(mat(a), mat(a_s), mat(a_n)).failures() == [message]
    code, out, err = run(["normalize", "--format", "json"], split_doc(a, a_s, a_n), monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: document: invalid semisimple/nilpotent split: {message}\n"
