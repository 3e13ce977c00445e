"""Small hostile documents through `cli.main`: deep nesting and numbers at
the interpreter's digit limit.

Exit codes mean what they say: 1 for bad input, 2 for a refuted claim,
and 3 only for a bug.  Two inputs once exited 3 with a traceback: a
document nested past the JSON reader's recursion limit, and a result with
more digits than ``str(int)`` writes.  ``test_document_errors.py`` pins
one document of each with a golden; the strategies here draw around them.

* Nesting: arrays, objects, or both in turn, at drawn depths up to and
  past 100,000 levels, under every verb that reads a document.  Below the
  reader's limit the document parses and is rejected for its shape; past
  it, the reader's error is.  Either way the run exits 1 with one line on
  stderr and no traceback.
* Digits: a numerator and a denominator of 4,290 to 4,310 digits, in an
  entry of ``A`` or in a term's ``coeff``, with the limit at its default
  of 4,300.  A number past it exits 1 with the line that names
  ``PYTHONINTMAXSTRDIGITS``; a number within it is read, and
  ``normalize --order 2`` exits 0, or 1 with that line from the writer.

The examples are drawn with a fixed seed (``derandomize``), so every run
of the suite checks the same documents.
"""

import io
import json
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normalforms.cli import main

LIMIT = 4300
DIGIT_LINE = f"a number has more than {LIMIT} digits (the PYTHONINTMAXSTRDIGITS environment variable raises the limit)\n"
VERBS = [["normalize", "--order", "3"], ["verify"], ["kernel", "--degree", "2"]]


def call(argv, text):
    """(exit code, stdout, stderr) of one `cli.main` run on ``text`` as stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# nesting depth
# ---------------------------------------------------------------------------

depths = st.one_of(st.integers(1, 2_000), st.integers(2_000, 100_000), st.integers(100_000, 150_000))


def nested(kind: str, depth: int) -> str:
    """A JSON text ``depth`` levels deep: arrays, objects, or both in turn."""
    opens = {"array": ["["], "object": ['{"a": '], "mixed": ["[", '{"a": ']}[kind]
    closes = {"[": "]", '{"a": ': "}"}
    levels = [opens[i % len(opens)] for i in range(depth)]
    return "".join(levels) + "1" + "".join(closes[o] for o in reversed(levels))


@given(st.sampled_from(["array", "object", "mixed"]), depths, st.sampled_from(VERBS))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_any_nesting_depth_exits_one_with_one_line(kind, depth, argv):
    code, out, err = call(argv, nested(kind, depth))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_the_deepest_drawn_documents_are_past_every_reader():
    # the top of the range is past the 100,000 levels the CI document uses
    assert len(nested("array", 100_000)) == 200_001
    assert len(nested("object", 150_000)) > 1_000_000


# ---------------------------------------------------------------------------
# numbers at the digit limit
# ---------------------------------------------------------------------------


@contextmanager
def default_digit_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LIMIT)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


widths = st.integers(LIMIT - 10, LIMIT + 10)
digit_strings = st.builds(
    lambda lead, rest, width: lead + rest * (width - 1), st.sampled_from("123456789"), st.sampled_from("0123456789"), widths
)


def wide_document(site: str, value: str) -> str:
    """A = diag(1, 3) with two quadratic terms, ``value`` at ``site``."""
    a = [["1", "0"], ["0", "3"]]
    terms = [
        {"degree": 2, "component": 1, "exponents": [1, 1], "coeff": "1/2"},
        {"degree": 2, "component": 2, "exponents": [2, 0], "coeff": "-3"},
    ]
    if site == "coeff":
        terms[0]["coeff"] = value
    else:
        i, j = int(site[1]), int(site[2])
        a[i][j] = value
    return json.dumps({"kind": "ode", "n": 2, "m": 0, "A": a, "terms": terms})


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python converts ints of any length")
@given(st.sampled_from(["coeff", "A00", "A01", "A11"]), digit_strings, digit_strings)
# an off-diagonal A01 = 9...9 / 1...1 is read, but the report holds a
# number of more digits, which the writer refuses
@example("A01", "9" * LIMIT, "1" * (LIMIT - 10))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_numbers_at_the_digit_limit_exit_zero_or_one(site, numerator, denominator):
    document = wide_document(site, f"{numerator}/{denominator}")
    with default_digit_limit():
        code, out, err = call(["normalize", "--order", "2"], document)
    if max(len(numerator), len(denominator)) > LIMIT:
        # the reader rejects the number and names its field
        assert (code, out) == (1, "")
        assert err.startswith("error: document.") and err.endswith(DIGIT_LINE) and err.count("\n") == 1
    elif code:
        # read, but the result holds a number the writer cannot write
        assert (code, out, err) == (1, "", "error: output: " + DIGIT_LINE)
    else:
        assert code == 0 and out and not err
