"""Mutated values in well-formed documents through `cli.main`.

`test_document_mutations.py` breaks the shape of a document, so about nine
in ten of its runs stop at the parser with exit 1.  Here every mutation
keeps the document well-formed and changes only what the certificates
judge: a rational string becomes another rational, a certificate claim is
flipped, or a dimension of a degree is raised by one.  The bases are the
same three system documents and a fresh order-3 report of each.  A system
then normalizes (exit 0), and a report whose value changed is refuted
(exit 2), unless the change leaves its claims true; no run exits 1, and
each ends under five seconds.  The test asserts that both exits are
reached at least a pinned number of times.  The examples are drawn with a fixed
seed (``derandomize``), so every run of the suite checks the same documents.
"""

import copy
from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_document_mutations import BASES, BOUND_S, call, paths

RATIONALS = ["1", "-1", "2", "1/2", "-3/4", "5/3", "-7"]
EXAMPLES = 400
# exit 0 and exit 2 reached at least this often in the EXAMPLES runs
# (recorded: 0 in 227 runs and 2 in 173, with no exit 1)
AT_LEAST = {0: 150, 2: 115}


def _rational(node) -> bool:
    if not isinstance(node, str):
        return False
    try:
        Fraction(node)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def value_sites(document):
    """(path, kind) of every value a mutation may change: a rational
    string, a certificate claim, or a dimension of a degree."""
    for path in paths(document):
        node = document
        for step in path:
            node = node[step]
        if _rational(node):
            yield path, "rational"
        elif isinstance(node, bool) and "certificates" in path:
            yield path, "claim"
        elif isinstance(node, int) and not isinstance(node, bool) and "dimensions" in path:
            yield path, "dimension"


@st.composite
def mutated(draw):
    kind, name = draw(st.sampled_from(sorted(BASES)))
    document = copy.deepcopy(BASES[kind, name])
    for _ in range(draw(st.integers(1, 2))):
        path, what = draw(st.sampled_from(list(value_sites(document))))
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if what == "rational":
            parent[last] = draw(st.sampled_from([r for r in RATIONALS if Fraction(r) != Fraction(parent[last])]))
        elif what == "claim":
            parent[last] = not parent[last]
        else:
            parent[last] += 1
    if kind == "report":
        argv = ["verify"]
    else:
        argv = draw(
            st.sampled_from(
                [["normalize", "--order", "2"], ["normalize", "--order", "3"], ["kernel", "--degree", "2"]]
            )
        )
    return argv + ["--format", draw(st.sampled_from(["json", "pretty"]))], document


def test_every_base_has_values_of_each_kind_to_change():
    for (kind, name), document in BASES.items():
        kinds = {what for _, what in value_sites(document)}
        assert kinds == ({"rational"} if kind == "system" else {"rational", "claim", "dimension"}), name


def test_well_formed_mutations_reach_exit_0_and_exit_2():
    codes = Counter()

    @given(mutated())
    @settings(
        derandomize=True,
        database=None,
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(case):
        argv, document = case
        code, _, err, seconds = call(argv, document)
        # a well-formed document is never stopped by the parser
        assert code in (0, 2), err
        assert seconds < BOUND_S
        codes[code] += 1

    run()
    assert all(codes[code] >= least for code, least in AT_LEAST.items()), codes
