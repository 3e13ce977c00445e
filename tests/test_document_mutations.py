"""Mutated documents through `cli.main`: exit 0, 1 or 2, and nothing else.

Each case starts from a valid document: a built-in example, the Jordan
document of the golden tests, or a fresh `{system, report}` document of one
of them.  It then applies one or two mutations at nodes of the JSON tree:
a value replaced by one of the wrong type, a huge integer or a degree or
order out of range, a value bumped (an integer by one, a rational string
by one, a claim flipped), a key dropped, or an extra key added.  Every run must
return 0, 1 or 2 without raising; an exit 1 writes exactly one ``error:``
line on stderr; and every run ends well under five seconds, which the
space budget `cli.MAX_SPACE` keeps true for any order a document can name.
The examples are drawn with a fixed seed (``derandomize``), so every run of
the suite checks the same documents.
"""

import copy
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normalforms.cli import _EXAMPLE_DOCS, main
from test_golden_cli import ODE_DOCUMENTS

SYSTEMS = {
    "brunovsky-quadratic": _EXAMPLE_DOCS["brunovsky-quadratic"],
    "uncontrollable": _EXAMPLE_DOCS["uncontrollable"],
    "ode-jordan-3": ODE_DOCUMENTS["ode-jordan-3"],
}
BOUND_S = 5.0

# wrong JSON types, huge integers, and integers out of range for a count, a
# degree, an order, a component or an exponent
REPLACEMENTS = [None, True, False, 1.5, "x", "1/0", [], {}, [[]], 10**30, -(10**30), -1, 0, 1, 7, 400, "2"]


def call(argv, document):
    """(exit code, stdout, stderr, seconds) of one `cli.main` run."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(document))
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _report_document(name):
    code, out, _, _ = call(["normalize", "--order", "3", "--format", "json"], SYSTEMS[name])
    assert code == 0
    return json.loads(out)


BASES = {("system", name): doc for name, doc in SYSTEMS.items()}
BASES.update({("report", name): _report_document(name) for name in SYSTEMS})


def paths(node, prefix=()):
    """The path (keys and indices) of every node of a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, prefix + (i,))


def _bumped(node, value):
    """A claim flipped, an integer plus one, a rational string plus one;
    any other node becomes ``value``."""
    if isinstance(node, bool):
        return not node
    if isinstance(node, int):
        return node + 1
    if isinstance(node, str):
        try:
            return str(Fraction(node) + 1)
        except (ValueError, ZeroDivisionError):
            return value
    return value


def mutate(document, path, action, value):
    """Apply one mutation at `path`; the root can only gain a key."""
    if not path:
        if isinstance(document, dict):
            document["extra"] = value
        return document
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if action == "replace":
        parent[last] = value
    elif action == "bump":
        parent[last] = _bumped(parent[last], value)
    elif action == "drop":
        del parent[last]
    elif isinstance(parent[last], dict):
        parent[last]["extra"] = value
    elif isinstance(parent[last], list):
        parent[last].append(value)
    else:
        parent[last] = value
    return document


@st.composite
def mutated(draw):
    kind, name = draw(st.sampled_from(sorted(BASES)))
    document = copy.deepcopy(BASES[kind, name])
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(document))))
        action = draw(st.sampled_from(["replace", "bump", "drop", "add"]))
        document = mutate(document, path, action, copy.deepcopy(draw(st.sampled_from(REPLACEMENTS))))
    if kind == "report":
        argv = ["verify"]
    else:
        argv = draw(
            st.sampled_from(
                [["normalize", "--order", "2"], ["normalize", "--order", "3"], ["kernel", "--degree", "2"]]
            )
        )
    return argv + ["--format", draw(st.sampled_from(["json", "pretty"]))], document


@given(mutated())
@settings(
    derandomize=True,
    database=None,
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_a_mutated_document_exits_0_1_or_2_in_bounded_time(case):
    argv, document = case
    code, out, err, seconds = call(argv, document)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert seconds < BOUND_S


def test_every_base_document_is_valid():
    for (kind, name), document in BASES.items():
        argv = ["verify"] if kind == "report" else ["normalize", "--order", "3"]
        assert call(argv, document)[0] == 0, name
