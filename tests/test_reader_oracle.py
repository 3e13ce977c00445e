"""The one-pass document reader against the reader it replaced.

`cli._parse_terms_list` checks each field of a term once, writes a
location only into an error, builds each rational from the digits the
regex matched, and builds each component through `HomPoly._trusted`.
`slow_reader` keeps the reader it replaced, unchanged.  Every input here is
read twice, once by `cli` as it is and once with the slow
`_parse_terms_list` and `_parse_rational` in their place, and both reads
must give the same objects, down to the order of every term and the type
of every coefficient, or the same `DocumentError` message.

The inputs are 600 malformed and 400 well-formed documents drawn by the
strategies of the two document fuzzers, with a fixed seed, the seed 0-2
documents of the bench workloads with their reports, and a table of
rational spellings.
"""

import io
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

import slow_reader
import test_document_mutations
import test_document_value_mutations
from normalforms import cli
from normalforms.polyalg import HomPolyMap, PolySeries

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def slow_reader_in_place():
    fast = cli._parse_terms_list, cli._parse_rational
    cli._parse_terms_list, cli._parse_rational = slow_reader._parse_terms_list, slow_reader._parse_rational
    try:
        yield
    finally:
        cli._parse_terms_list, cli._parse_rational = fast


def _exact(value):
    """A parsed value as plain data that keeps what `==` forgets: the order
    of every dict and the type of every number."""
    if isinstance(value, PolySeries):
        return ("series", value.dim_in, value.dim_out, value.max_degree, _exact(value.terms))
    if isinstance(value, HomPolyMap):
        return ("map", [(c.n_vars, c.degree, _exact(c.terms)) for c in value.components])
    if isinstance(value, dict):
        return ("dict", [(_exact(k), _exact(v)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_exact(v) for v in value])
    return (type(value).__name__, value)


def read(text):
    """What `verify` or `normalize` reads from the text: the parsed system,
    and the parsed report of a {system, report} document, or the error."""
    try:
        raw = cli._load_json(text)
        if isinstance(raw, dict) and set(raw) == {"system", "report"}:
            ps = cli.parse_system_object(raw["system"], "system")
            return _exact((ps, cli.parse_report_object(raw["report"], ps, "report")))
        return _exact(cli.parse_system_object(raw, "document"))
    except cli.DocumentError as exc:
        return ("error", str(exc))


def both_reads(document):
    text = json.dumps(document)
    fast = read(text)
    with slow_reader_in_place():
        slow = read(text)
    return fast, slow


FUZZ_SETTINGS = dict(derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(test_document_mutations.mutated())
@settings(max_examples=600, **FUZZ_SETTINGS)
def test_both_readers_agree_on_the_malformed_fuzz_cases(case):
    fast, slow = both_reads(case[1])
    assert fast == slow


@given(test_document_value_mutations.mutated())
@settings(max_examples=400, **FUZZ_SETTINGS)
def test_both_readers_agree_on_the_well_formed_fuzz_cases(case):
    fast, slow = both_reads(case[1])
    assert fast == slow
    assert fast[0] != "error"


def _bench_documents():
    sys.path.insert(0, str(ROOT / "bench"))  # the bench is not a package
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return {
        f"{name}-{seed}": (workloads.system_document(w, seed), w.order)
        for name, w in workloads.WORKLOADS.items()
        for seed in (0, 1, 2)
    }


BENCH_DOCUMENTS = _bench_documents()


@pytest.mark.parametrize("name", sorted(BENCH_DOCUMENTS))
def test_both_readers_agree_on_the_bench_documents_and_their_reports(name, monkeypatch, capsys):
    system, order = BENCH_DOCUMENTS[name]
    fast, slow = both_reads(system)
    assert fast == slow and fast[0] != "error"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(system)))
    assert cli.main(["normalize", "--format", "json", "--order", str(order)]) == 0
    report = json.loads(capsys.readouterr().out)
    fast, slow = both_reads(report)
    assert fast == slow and fast[0] != "error"


SPELLINGS = ["0", "-0", "007", "3/6", "-3/6", "1/0", "+1", "1/-2", " 1", "1.5", "١", True, 1.5, 7, "1" * 4301]


@pytest.mark.parametrize("value", SPELLINGS, ids=[repr(v)[:12] for v in SPELLINGS])
def test_both_readers_agree_on_a_rational_spelling(value):
    def outcome(parse):
        try:
            return _exact(parse(value, "where"))
        except cli.DocumentError as exc:
            return ("error", str(exc))

    assert outcome(cli._parse_rational) == outcome(slow_reader._parse_rational)
    # the same value as the coefficient of a term and as an entry of A
    system = {
        "kind": "ode",
        "n": 1,
        "m": 0,
        "A": [[value]],
        "terms": [{"degree": 2, "component": 1, "exponents": [2], "coeff": value}],
    }
    fast, slow = both_reads(system)
    assert fast == slow


def test_the_spellings_reach_every_outcome():
    # a value, or the start of the reason after the location
    expected = {
        "0": Fraction(0),
        "-0": Fraction(0),
        "007": Fraction(7),
        "3/6": Fraction(1, 2),
        "-3/6": Fraction(-1, 2),
        7: Fraction(7),
        "1/0": "malformed rational '1/0' (zero denominator)",
        True: "expected a rational string, got a boolean",
        1.5: "floating-point literals are not accepted",
        "1" * 4301: "a number has more than",
    }
    expected.update({v: f"malformed rational {v!r}" for v in ("+1", "1/-2", " 1", "1.5", "١")})
    assert len(expected) == len(SPELLINGS)
    for value in SPELLINGS:
        want = expected[value]
        if isinstance(want, Fraction):
            got = cli._parse_rational(value, "c")
            assert (got, type(got)) == (want, Fraction), value
        else:
            with pytest.raises(cli.DocumentError) as caught:
                cli._parse_rational(value, "c")
            assert str(caught.value).startswith(f"c: {want}"), value


TERM = {"degree": 2, "component": 2, "exponents": [1, 1, 0], "coeff": "3/4"}
# one term of a 2-state, 1-input system changed at one field, or repeated
TERMS = {
    "valid": [TERM],
    "repeated": [TERM, {**TERM, "coeff": "1"}],
    "other component": [TERM, {**TERM, "component": 1}],
    "zero coefficient": [{**TERM, "coeff": "0"}],
    "not an object": [TERM, ["degree"]],
    "extra field": [{**TERM, "order": 2}],
    "extra and missing": [{**{k: v for k, v in TERM.items() if k != "coeff"}, "coef": "1"}],
    "missing field": [{k: v for k, v in TERM.items() if k != "degree"}],
    "degree a boolean": [{**TERM, "degree": True}],
    "degree a string": [{**TERM, "degree": "2"}],
    "degree 1": [{**TERM, "degree": 1}],
    "component 0": [{**TERM, "component": 0}],
    "component 3": [{**TERM, "component": 3}],
    "component a boolean": [{**TERM, "component": True}],
    "exponents an object": [{**TERM, "exponents": {"0": 1}}],
    "two exponents": [{**TERM, "exponents": [1, 1]}],
    "negative exponent": [{**TERM, "exponents": [3, -1, 0]}],
    "boolean exponent": [{**TERM, "exponents": [1, True, 0]}],
    "float exponent": [{**TERM, "exponents": [1, 0, 1.0]}],
    "degree mismatch": [{**TERM, "exponents": [2, 1, 0]}],
    "coefficient a float": [{**TERM, "coeff": 0.75}],
    "not a list": {"0": TERM},
}


@pytest.mark.parametrize("case", sorted(TERMS))
def test_both_readers_agree_on_a_changed_term(case):
    system = {"kind": "control", "n": 2, "m": 1, "A": [["0", "1"], ["0", "0"]], "B": [["0"], ["1"]], "terms": TERMS[case]}
    fast, slow = both_reads(system)
    assert fast == slow
    assert (fast[0] != "error") == (case in ("valid", "other component", "zero coefficient"))
