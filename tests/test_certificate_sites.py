"""Every `raise CertificateError` in `src/` is reached by a named test.

`SITES` lists each site by module, enclosing function and the literal start
of its message, next to the test that makes it raise.  The pin scans the
source with `ast`, so a new site with no test, a changed message or a
deleted site fails here.  The tests below reach the sites no other test
does; each corrupts exactly one lower-layer result through `monkeypatch`.
"""

import ast
import io
import json
import re
import sys
from pathlib import Path

import pytest

from normalforms import CertificateError, cli, integrals, ode
from normalforms.control import ControlSystem, normalize_control
from normalforms.integrals import brunovsky_first_integrals, brunovsky_pair
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries
from normalforms.ratmat import mat
from map_helpers import map_add, monomial, poly_add

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "normalforms"

SITES = {
    ("cli", "cmd_kernel", "complement element is not killed by L_{A^t}"): (
        "tests/test_kernel_slice.py::test_bogus_cokernel_vector_fails_the_membership_check_and_exits_two"
    ),
    ("integrals", "brunovsky_first_integrals", "first integral l_"): (
        "tests/test_certificate_sites.py::test_nonzero_integral_defect_fails_the_brunovsky_integrals"
    ),
    ("integrals", "uncontrollable_example", "uncontrollable-example integral "): (
        "tests/test_certificate_sites.py::test_nonzero_integral_defect_fails_the_uncontrollable_example"
    ),
    ("homological", "GradedSlice.__init__", "adjoint cross-check failed: W^-1 M^t W does not equal the closed-form adjoint"): (
        "tests/test_homological.py::test_adjoint_cross_check_rejects_any_perturbed_entry"
    ),
    (
        "homological",
        "GradedSlice.split_term",
        "homological equation is inconsistent: the projection onto the complement did not land in the range of the operator",
    ): "tests/test_sylvester.py::test_dropped_cokernel_vector_makes_the_equation_inconsistent",
    ("ode", "solve_homological", "homological solve failed verification: L_A xi != f_k - r"): (
        "tests/test_ode.py::test_a_wrong_lie_derivative_fails_the_homological_solve"
    ),
    ("ode", "solve_homological", "homological solve failed verification: r not in ker L_{A^t}"): (
        "tests/test_sylvester.py::test_bogus_cokernel_vector_of_a_non_resonant_slice_fails_the_residual_check"
    ),
    ("ode", "flow_conjugacy_residuals", "conjugacy check broke at the linear level; internal error"): (
        "tests/test_ode.py::test_flow_route_linear_check_still_raises"
    ),
    ("ode", "_normalize", "pushforward disagrees with the homological solve at degree "): (
        "tests/test_ode.py::test_normalize_raises_when_the_degree_loop_check_fails"
    ),
    ("ode", "_normalize", "certificate failed at degree "): (
        "tests/test_ode.py::test_normalize_raises_when_the_degree_loop_check_fails"
    ),
    # one site for both kinds, its message naming the kind: each has its test below
    ("ode", "_normalize", "conjugacy verification failed after "): (
        "tests/test_certificate_sites.py::test_flow_defect_fails_control_normalization"
    ),
}


def _message_prefix(call: ast.Call) -> str:
    """The literal text a CertificateError message starts with."""
    (arg,) = call.args
    if isinstance(arg, ast.Constant):
        return arg.value
    prefix = ""
    for part in arg.values:  # an f-string: its text up to the first field
        if not isinstance(part, ast.Constant):
            break
        prefix += part.value
    return prefix


def certificate_sites():
    """(module, qualified function, message prefix) of every raise site."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                func = child.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "CertificateError":
                    sites.append((module, ".".join(scope), _message_prefix(child.exc)))
            visit(child, module, scope)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sites


def test_every_certificate_site_is_pinned_to_a_test():
    sites = certificate_sites()
    assert len(sites) == len(set(sites)), "two raise sites share a function and message"
    assert sorted(sites) == sorted(SITES)


@pytest.mark.parametrize("test_id", sorted(set(SITES.values())))
def test_each_pinned_test_exists(test_id):
    path, name = test_id.split("::")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


# ---------------------------------------------------------------------------
# the sites no other test reaches
# ---------------------------------------------------------------------------


def flow_defect(monkeypatch):
    """Make the flow route report a non-zero residual at degree 2."""
    real = ode.flow_conjugacy_residuals

    def corrupted(*args):
        res = real(*args)
        first = monomial((2,) + (0,) * (res.dim_in - 1))
        bump = HomPolyMap([first] + [HomPoly.zero(res.dim_in, 2)] * (res.dim_out - 1))
        return PolySeries(res.dim_in, res.dim_out, res.max_degree, {**res.terms, 2: map_add(res.term(2), bump)})

    monkeypatch.setattr(ode, "flow_conjugacy_residuals", corrupted)


def run_cli(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    return code, capsys.readouterr()


ODE_MESSAGE = "conjugacy verification failed after normalization"
CONTROL_MESSAGE = "conjugacy verification failed after control normalization"


def test_flow_defect_fails_ode_normalization(monkeypatch, capsys):
    flow_defect(monkeypatch)
    tb = mat([[0, 1], [0, 0]])
    f = PolySeries(2, 2, 3, {2: HomPolyMap([HomPoly(2, 2, {(1, 1): 1}), HomPoly(2, 2, {(2, 0): 1})])})
    with pytest.raises(CertificateError, match=re.escape(ODE_MESSAGE)):
        ode.normalize_ode(tb, f, 3)
    doc = {"kind": "ode", "n": 2, "m": 0, "A": [["0", "1"], ["0", "0"]], "terms": []}
    code, captured = run_cli(["normalize", "--order", "3"], json.dumps(doc), monkeypatch, capsys)
    assert code == 2 and captured.out == ""
    assert f"certificate failure: {ODE_MESSAGE}" in captured.err


def test_flow_defect_fails_control_normalization(monkeypatch, capsys):
    flow_defect(monkeypatch)
    lin = brunovsky_pair(2)
    f = PolySeries(3, 2, 3, {2: HomPolyMap([HomPoly(3, 2, {(0, 2, 0): 1}), HomPoly.zero(3, 2)])})
    with pytest.raises(CertificateError, match=re.escape(CONTROL_MESSAGE)):
        normalize_control(ControlSystem(lin, f), 3)
    code, captured = run_cli(["normalize", "--order", "3"], json.dumps(cli._EXAMPLE_DOCS["brunovsky-quadratic"]), monkeypatch, capsys)
    assert code == 2 and captured.out == ""
    assert f"certificate failure: {CONTROL_MESSAGE}" in captured.err


REAL_INTEGRAL_DEFECT = integrals.integral_defect


def first_defect_nonzero(monkeypatch):
    """Make the first annihilation check see a non-zero derivative: p itself."""
    real = REAL_INTEGRAL_DEFECT
    calls = []

    def corrupted(field, p):
        calls.append(p)
        return poly_add(real(field, p), p) if len(calls) == 1 else real(field, p)

    monkeypatch.setattr(integrals, "integral_defect", corrupted)


def test_nonzero_integral_defect_fails_the_brunovsky_integrals(monkeypatch, capsys):
    first_defect_nonzero(monkeypatch)
    with pytest.raises(CertificateError, match=re.escape("first integral l_1 failed its annihilation certificate for n=3")):
        brunovsky_first_integrals(3)
    first_defect_nonzero(monkeypatch)
    code, captured = run_cli(["first-integrals", "--n", "3"], "", monkeypatch, capsys)
    assert code == 2 and captured.out == ""
    assert "failed its annihilation certificate" in captured.err


def test_nonzero_integral_defect_fails_the_uncontrollable_example(monkeypatch, capsys):
    first_defect_nonzero(monkeypatch)
    with pytest.raises(CertificateError, match=re.escape("uncontrollable-example integral 1 failed its annihilation certificate")):
        integrals.uncontrollable_example()
    first_defect_nonzero(monkeypatch)
    code, captured = run_cli(["first-integrals", "uncontrollable"], "", monkeypatch, capsys)
    assert code == 2 and captured.out == ""
    assert "failed its annihilation certificate" in captured.err
