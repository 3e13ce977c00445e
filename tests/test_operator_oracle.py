"""Operator matrices from exponent arithmetic against the polynomial oracle.

The fast builders write each basis column down from its multi-index; the
oracle in ``slow_operators`` pushes every basis element through the
operator as a polynomial map and reads it back with ``map_coords``.  Exact
arithmetic makes the two agree entry for entry, and every entry must stay
a Fraction.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_operators as oracle
from map_helpers import from_matrix, map_of, pde_defect_matrix, pde_kernel, poly_mul, skew_dim, skew_from_coords
from normalforms import control, homological, integrals, polyalg
from normalforms.control import (
    ControlLinearPart,
    characteristic_field,
    control_adjoint_matrix,
    control_matrix,
    control_slice,
)
from normalforms.integrals import control_complement, uncontrollable_example
from normalforms.homological import (
    _defect_matrix,
    _nonzero_rows,
    adjoint_matrix,
    homological_matrix,
    homological_slice,
    lie_derivative,
)
from normalforms.polyalg import HomPoly, HomPolyMap, map_keys
from normalforms.ratmat import nullspace, transpose

rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 5))
entries = st.one_of(st.just(F(0)), rationals)


@st.composite
def linear_parts(draw, n):
    """A zero, nilpotent, Jordan or dense rational n x n matrix."""
    kind = draw(st.sampled_from(["zero", "nilpotent", "jordan", "dense"]))
    if kind == "zero":
        return tuple(tuple(F(0) for _ in range(n)) for _ in range(n))
    if kind == "nilpotent":
        return tuple(tuple(draw(entries) if j > i else F(0) for j in range(n)) for i in range(n))
    if kind == "jordan":
        # few eigenvalues, so blocks of size > 1 are common
        lam = [draw(st.sampled_from([F(0), F(1), F(-1, 2), F(2)])) for _ in range(n)]
        a = [[lam[i] if j == i else F(0) for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            if lam[i] == lam[i + 1] and draw(st.booleans()):
                a[i][i + 1] = F(1)
        return tuple(map(tuple, a))
    return tuple(tuple(draw(rationals) for _ in range(n)) for _ in range(n))


@st.composite
def control_pairs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    b = tuple(tuple(draw(rationals) for _ in range(m)) for _ in range(n))
    return ControlLinearPart(draw(linear_parts(n)), b)


def assert_same(fast, slow):
    assert fast == slow
    assert all(isinstance(v, F) for row in fast for v in row)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_homological_matrix_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(2, 4))
    a = data.draw(linear_parts(n))
    assert_same(homological_matrix(a, k), oracle.homological_matrix(a, k))
    assert_same(adjoint_matrix(a, k), oracle.homological_matrix(transpose(a), k))
    # with m = 0 inputs (B is n x 0, so A0 = (A B) = A) the control operator
    # and its adjoint, as control_matrix and control_adjoint_matrix assemble
    # them, are L_A and L_{A^t}
    skew, h = control.skew_keys(n, 0, k), map_keys(n, n, k)
    assert skew == h
    control_form = _defect_matrix(_nonzero_rows(a), _nonzero_rows(transpose(a)), skew, h)
    adjoint_form = _defect_matrix(_nonzero_rows(transpose(a)), _nonzero_rows(a), h, skew)
    assert_same(control_form, homological_matrix(a, k))
    assert_same(adjoint_form, adjoint_matrix(a, k))


@given(control_pairs(), st.data())
@settings(max_examples=40, deadline=None)
def test_control_operators_match_oracle(lin, data):
    k = data.draw(st.integers(2, 4 if lin.n + lin.m <= 4 else 3))
    assert_same(control_matrix(lin, k), oracle.control_matrix(lin, k))
    assert_same(control_adjoint_matrix(lin, k), oracle.control_adjoint_closed_form(lin, k))
    # L p is the state rows of L_{A0} on the embedded generator
    coords = [data.draw(entries) for _ in range(skew_dim(lin.n, lin.m, k))]
    p = skew_from_coords(lin.n, lin.m, k, coords)
    full = lie_derivative(lin.aug0, p)
    assert control.control_homological(lin, p) == HomPolyMap(full.components[: lin.n])


@given(control_pairs(), st.data())
@settings(max_examples=30, deadline=None)
def test_pde_defect_matrix_matches_oracle(lin, data):
    # control_complement assembles the characteristic PDE operator from the
    # rows of A0^t and A; its kernel is that of the polynomial-route matrix
    k = data.draw(st.integers(2, 4 if lin.n + lin.m <= 4 else 3))
    slow = oracle.pde_defect_matrix(characteristic_field(lin), transpose(lin.a), k)
    expected = [map_of(lin.n + lin.m, lin.n, k, v) for v in nullspace(slow)]
    assert control_complement(lin, k) == expected


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_pde_defect_matrix_with_any_linear_field_matches_oracle(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(2, 3))
    f = data.draw(linear_parts(n))
    fld = from_matrix(f)
    coupling = tuple(tuple(data.draw(entries) for _ in range(rows)) for _ in range(rows))
    assert_same(pde_defect_matrix(fld, coupling, k), oracle.pde_defect_matrix(f, coupling, k))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_homological_matrix_is_the_a_a_case_of_the_pde_defect_matrix(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(2, 4))
    a = data.draw(linear_parts(n))
    assert_same(pde_defect_matrix(from_matrix(a), a, k), homological_matrix(a, k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_uncontrollable_example_pde_matrices_match_oracle(k):
    ex = uncontrollable_example()
    for coupling in (transpose(ex.lin.a), ((0,),)):
        assert_same(pde_defect_matrix(from_matrix(ex.field), coupling, k), oracle.pde_defect_matrix(ex.field, coupling, k))


def test_pde_kernel_rejects_a_nonlinear_field():
    x = HomPoly.variable(2, 0)
    square = HomPolyMap([poly_mul(x, x), poly_mul(x, x)])
    with pytest.raises(ValueError, match="square linear map"):
        pde_kernel(square, ((0, 0), (0, 0)), 2)


# ---------------------------------------------------------------------------
# the waste stays gone: no operator column goes through polynomial arithmetic
# ---------------------------------------------------------------------------

POLYNOMIAL_PATH = [
    (homological, "lie_derivative"),
    (polyalg, "map_coords"),
    (control, "map_coords"),
    (control, "control_homological"),
    (control, "control_adjoint"),
    (control, "pde_defect"),
    (integrals, "directional_derivative"),
    (polyalg, "directional_derivative"),
    (polyalg, "multiply"),
]


def test_operator_assembly_makes_no_polynomial_call(monkeypatch):
    calls = []
    for module, name in POLYNOMIAL_PATH:
        original = getattr(module, name)

        def counted(*args, _name=f"{module.__name__}.{name}", _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    a = ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    lin = ControlLinearPart(((F(1, 2), F(-2)), (F(3, 5), F(1))), ((F(1), F(-1, 3)), (F(2, 7), F(3, 2))))
    for k in (2, 3):
        homological_matrix(a, k)
        adjoint_matrix(a, k)
        homological_slice(a, k)
        control_matrix(lin, k)
        control_adjoint_matrix(lin, k)
        control_slice(lin, k)
        control_complement(lin, k)
    assert calls == []
    # the polynomial route does go through them, so the counter sees such calls
    oracle.control_matrix(lin, 2)
    assert "normalforms.control.pde_defect" in calls

