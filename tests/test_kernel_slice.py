"""The `kernel` verb on one graded slice.

`cli.cmd_kernel` reads space, range and the complement off the slice that
`normalize` and `verify` use (`ParsedSystem.graded_slice`).  For an ODE the
basis is ker L_{A^t} from the slice, each map certified in polynomial form;
the documents must equal the ones built from the former three-check
splitting, kept as the oracle `slow_operators.split`.  For a control system
`range` is rank M* = rank M, so it must equal the rank of the control
operator.
"""

import io
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normalforms import cli, ratmat
from normalforms.control import ControlLinearPart, control_matrix
from normalforms.integrals import brunovsky_pair, control_complement
from normalforms.polyalg import monomial_basis
from normalforms.ratmat import mat, zeros
from slow_operators import split

DENSE = mat([["-5/4", "-3/2", "-2/3"], ["1/2", "1/3", "-1/3"], [3, -1, "-1/2"]])

ODE_PARTS = {
    "dense": DENSE,
    "dense-2": mat([["1/2", -3], ["2/3", "5/4"]]),
    "resonant": mat([["3/2", "1/2"], ["1/2", "3/2"]]),  # eigenvalues 1 and 2
    "takens-bogdanov": mat([[0, 1], [0, 0]]),
    "jordan": mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
    "lower": mat([[1, 0], [5, "-1/2"]]),
    "zero": zeros(2, 2),
}

DENSE_CONTROL = ControlLinearPart(mat([["1/2", -2], ["3/5", 1]]), mat([[1, "-1/3"], ["2/7", "3/2"]]))


def kernel_json(system: dict, degree: int, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(system)))
    code = cli.main(["kernel", "--degree", str(degree), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def ode_system(a) -> dict:
    n = len(a)
    return {"kind": "ode", "n": n, "m": 0, "A": [[str(x) for x in row] for row in a], "terms": []}


def control_system(lin: ControlLinearPart) -> dict:
    doc = ode_system(lin.a)
    return {**doc, "kind": "control", "m": lin.m, "B": [[str(x) for x in row] for row in lin.b]}


def oracle_document(a, degree: int) -> dict:
    s = split(a, degree)
    rng, complement = len(s.range_basis), len(s.complement_basis)
    return {
        "kind": "kernel",
        "degree": degree,
        "dimensions": {"space": rng + complement, "range": rng, "complement": complement},
        "basis": [cli._map_terms_json(q) for q in s.complement_basis],
    }


@pytest.mark.parametrize("name, k", [(name, k) for name in sorted(ODE_PARTS) for k in (2, 3, 4)])
def test_ode_kernel_equals_the_oracle_split(name, k, monkeypatch, capsys):
    a = ODE_PARTS[name]
    assert kernel_json(ode_system(a), k, monkeypatch, capsys) == oracle_document(a, k)


def rationals():
    return st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def linear_parts(draw):
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["dense", "upper", "lower", "zero"]))
    keep = {"dense": lambda i, j: True, "upper": lambda i, j: j >= i, "lower": lambda i, j: j <= i}
    if shape == "zero":
        return zeros(n, n)
    return mat([[draw(rationals()) if keep[shape](i, j) else 0 for j in range(n)] for i in range(n)])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(a=linear_parts(), k=st.integers(2, 4))
def test_random_ode_kernel_equals_the_oracle_split(a, k, monkeypatch, capsys):
    assert kernel_json(ode_system(a), k, monkeypatch, capsys) == oracle_document(a, k)


@pytest.mark.parametrize(
    "lin, k",
    [(brunovsky_pair(2), 2), (brunovsky_pair(2), 3), (brunovsky_pair(3), 2), (brunovsky_pair(3), 3), (DENSE_CONTROL, 2)],
    ids=["brunovsky-2/2", "brunovsky-2/3", "brunovsky-3/2", "brunovsky-3/3", "dense-2x2/2"],
)
def test_control_range_is_the_rank_of_the_control_operator(lin, k, monkeypatch, capsys):
    payload = kernel_json(control_system(lin), k, monkeypatch, capsys)
    basis = control_complement(lin, k)
    assert payload["dimensions"] == {
        "space": lin.n * len(monomial_basis(lin.n + lin.m, k)),
        "range": ratmat.rank(control_matrix(lin, k)),
        "complement": len(basis),
    }
    assert payload["basis"] == [cli._map_terms_json(q) for q in basis]


def rref_shapes(monkeypatch):
    """Record the shape of every matrix ``ratmat.rref`` eliminates, through
    every binding a normalforms module holds."""
    shapes = []
    real = ratmat.rref

    def spy(m, *args, **kwargs):
        shapes.append((len(m), len(m[0]) if m else 0))
        return real(m, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "normalforms" or name.startswith("normalforms."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, spy)
    return shapes


@pytest.mark.parametrize("k", [2, 3, 4])
def test_non_resonant_dense_kernel_is_one_sylvester_elimination(k, monkeypatch, capsys):
    shapes = rref_shapes(monkeypatch)
    payload = kernel_json(ode_system(DENSE), k, monkeypatch, capsys)
    size = len(monomial_basis(3, k))
    assert payload["dimensions"] == {"space": 3 * size, "range": 3 * size, "complement": 0}
    # one N x (N + n) system shows L_A invertible; L_A (3N x 3N) is never eliminated
    assert shapes == [(size, size + 3)]


def test_control_kernel_eliminates_the_adjoint_not_the_operator(monkeypatch, capsys):
    shapes = rref_shapes(monkeypatch)
    kernel_json(control_system(DENSE_CONTROL), 2, monkeypatch, capsys)
    # dim S^2 = 26 and dim H^2 = 20: ker M* (26 x 20) and the PDE classification space (20 x 20)
    assert sorted(shapes) == [(20, 20), (26, 20)]


def test_bogus_cokernel_vector_fails_the_membership_check_and_exits_two(monkeypatch, capsys):
    real = cli.homological_slice
    bogus = tuple(F(1, i + 1) for i in range(3 * len(monomial_basis(3, 2))))

    def corrupted(a, degree):
        graded = real(a, degree)
        graded.cokernel = (bogus,)  # ker L_{A^t} is {0} at this degree
        return graded

    monkeypatch.setattr(cli, "homological_slice", corrupted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(ode_system(DENSE))))
    assert cli.main(["kernel", "--degree", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certificate failure: complement element is not killed by L_{A^t}" in captured.err

