"""`cli.canonical_json` writes what ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` writes, byte for byte.

The writer is one direct recursion; the standard library's pure-Python
indented encoder is the oracle.  The documents drawn are what a report can
hold and more: nested dicts, lists and tuples, strings with non-ASCII and
control characters, big and negative ints, bools (which are ints, but are
written as ``true``/``false``, also inside a list of ints) and None, and
dict keys that are degrees of 10 or more, which sort as strings ("10"
before "2").
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from normalforms.cli import canonical_json


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


ints = st.one_of(st.integers(-5, 5), st.integers(-(2**200), 2**200))
texts = st.text(st.characters(), max_size=8)
keys = st.one_of(texts, st.integers(0, 30).map(str))
leaves = st.one_of(st.none(), st.booleans(), ints, texts)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(ints, max_size=5),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(documents)
@example({})
@example([])
@example([1, True, -2])
@example((0, 0, 2))
@example({"10": 1, "2": {"é\x00 ": [None, False]}, "": []})
def test_the_writer_matches_json_dumps(obj):
    assert canonical_json(obj) == oracle(obj)


def test_a_report_with_degrees_past_nine_matches_json_dumps():
    doc = {
        "report": {
            "order": 12,
            "dimensions": {str(k): {"space": 2 * (k + 1), "range": k, "complement": k + 2} for k in range(2, 13)},
            "normal_form": [{"degree": 2, "component": 1, "exponents": [2, 0], "coeff": "-1/3"}],
            "certificates": {"equivariance_zero": None, "kernel_residual_zero": True},
        }
    }
    text = canonical_json(doc)
    assert text == oracle(doc)
    assert text.index('"10"') < text.index('"2"')
