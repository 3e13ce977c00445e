"""An element of S^k is a field on R^{n+m}, and L* is one defect step.

A control generator is held as one `HomPolyMap` on the states and inputs
whose first n rows read only the states.  The pushforwards check that
condition wherever the field is rectangular, so a field whose state rows
read an input is rejected with a `ValueError` before the bracket indexes a
row the field does not have.  `control.control_adjoint` is L_{A0^t}(q, 0)
read on `skew_keys`; it must equal `control_adjoint_matrix` applied to q's
coordinates, and its zero set must be the two membership conditions of the
control complement (the characteristic derivative vanishes at u = 0, and
B^t q = 0), which `map_helpers` keeps as the oracle.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from map_helpers import coords_of, input_pairing, linear_control_system, normal_form_defect, skew_coords, skew_field
from normalforms import ode
from normalforms.control import (
    ControlLinearPart,
    control_adjoint,
    control_adjoint_matrix,
    control_slice,
    pushforward_control,
)
from normalforms.integrals import brunovsky_pair
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries, map_from_coords, monomial_basis

rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
entries = st.one_of(st.just(F(0)), rationals)


# ---------------------------------------------------------------------------
# a generator whose state rows read a trailing variable
# ---------------------------------------------------------------------------


def reads_the_second_variable():
    """xi = (x2^2, x1 x2) on R^2: its first row reads x2."""
    return HomPolyMap([HomPoly(2, 2, {(0, 2): F(1)}), HomPoly(2, 2, {(1, 1): F(1)})])


def test_rectangular_pushforward_rejects_a_state_row_reading_a_trailing_variable():
    a = ((F(0), F(1)),)  # r = 1 row, N = 2 variables
    f = PolySeries(2, 1, 3, {2: HomPolyMap([HomPoly(2, 2, {(1, 1): F(1)})])})
    with pytest.raises(ValueError, match="first 1 rows"):
        ode.pushforward_ode(a, f, [reads_the_second_variable()], 3)


def test_rectangular_conjugacy_check_rejects_a_state_row_reading_a_trailing_variable():
    a = ((F(0), F(1)),)
    f = PolySeries(2, 1, 3, {2: HomPolyMap([HomPoly(2, 2, {(1, 1): F(1)})])})
    log = ode.TransformationLog(dim=2, order=3, generators=((2, reads_the_second_variable()),))
    with pytest.raises(ValueError, match="first 1 rows"):
        ode.verify_conjugacy(a, f, log, f, 3)


def test_square_routes_accept_the_same_generator():
    # with r = N every row may read every variable
    xi = reads_the_second_variable()
    a = ((F(0), F(1)), (F(0), F(0)))
    assert not ode.pushforward_ode(a, PolySeries.zero(2, 2, 3), [xi], 3).is_zero
    assert not ode.flow_map([xi], 3).is_zero


def test_control_pushforward_rejects_a_state_row_reading_an_input():
    lin = brunovsky_pair(2)  # states x1, x2 and the input u
    p = skew_field(HomPolyMap.zero(2, 2, 2), HomPolyMap([HomPoly(3, 2, {(0, 1, 1): F(1)})]))
    # x1' gains u x2 in p_x: no longer an element of S^2
    bad = HomPolyMap([HomPoly(3, 2, {(0, 1, 1): F(1)})] + list(p.components[1:]))
    assert not pushforward_control(linear_control_system(lin, 3), p, 3).nonlinear.is_zero
    with pytest.raises(ValueError, match="first 2 rows"):
        pushforward_control(linear_control_system(lin, 3), bad, 3)


# ---------------------------------------------------------------------------
# control_adjoint against the matrix and against the two conditions
# ---------------------------------------------------------------------------


@st.composite
def pairs(draw):
    """(A, B) with n <= 3 and m <= 2; B's second column is a multiple of its
    first in about a third of the two-input cases."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    a = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    first = [draw(entries) for _ in range(n)]
    if m == 2 and draw(st.integers(0, 2)) == 0:
        c = draw(rationals)
        cols = [first, [c * v for v in first]]
    else:
        cols = [first] + [[draw(entries) for _ in range(n)] for _ in range(m - 1)]
    b = tuple(tuple(col[i] for col in cols) for i in range(n))
    return ControlLinearPart(a, b)


def maps(draw, dim_in, dim_out, k):
    mons = monomial_basis(dim_in, k)
    comps = []
    for _ in range(dim_out):
        chosen = draw(st.lists(st.sampled_from(mons), max_size=4, unique=True))
        comps.append(HomPoly(dim_in, k, {mi: draw(rationals) for mi in chosen}))
    return HomPolyMap(comps)


@given(pairs(), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_control_adjoint_is_the_adjoint_matrix_on_coordinates(lin, k, data):
    n, m = lin.n, lin.m
    if n + m == 5 and k == 4:
        k = 3
    q = maps(data.draw, n + m, n, k)
    coords = coords_of(q)
    want = [sum((v * c for v, c in zip(row, coords) if v), F(0)) for row in control_adjoint_matrix(lin, k)]
    out = control_adjoint(lin, q)
    assert (out.dim_in, out.dim_out, out.degree) == (n + m, n + m, k)
    assert skew_coords(out, n) == want
    # an element of S^k: its state rows hold no input variable
    assert all(not any(mi[n:]) for c in out.components[:n] for mi in c.terms)


def the_two_conditions(lin, q) -> bool:
    return normal_form_defect(lin, q).is_zero and input_pairing(lin, q).is_zero


@given(pairs(), st.integers(2, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_the_zero_set_of_control_adjoint_is_the_two_conditions(lin, k, data):
    n, m = lin.n, lin.m
    graded = control_slice(lin, k)
    cokernel = graded.cokernel
    cases = [maps(data.draw, n + m, n, k)]
    # positive cases: complement vectors, and one combination of them
    cases += [map_from_coords(v, graded.codomain_keys) for v in cokernel]
    if cokernel:
        weights = [data.draw(rationals) for _ in cokernel]
        combined = [sum((w * v[i] for w, v in zip(weights, cokernel)), F(0)) for i in range(len(cokernel[0]))]
        cases.append(map_from_coords(combined, graded.codomain_keys))
    for q in cases:
        assert control_adjoint(lin, q).is_zero == the_two_conditions(lin, q)
    for q in cases[1:]:
        assert control_adjoint(lin, q).is_zero


def test_a_complement_term_with_input_dependence_is_in_the_kernel():
    # u^2 e1 spans the degree-2 complement of the n = 2 Brunovsky pair: its
    # full characteristic derivative is 2 x2 u e1, zero only at u = 0
    lin = brunovsky_pair(2)
    q = HomPolyMap([HomPoly(3, 2, {(0, 0, 2): F(1)}), HomPoly.zero(3, 2)])
    assert control_adjoint(lin, q).is_zero
    # and x2^2 e1, removable, is not
    q = HomPolyMap([HomPoly(3, 2, {(0, 2, 0): F(1)}), HomPoly.zero(3, 2)])
    assert not control_adjoint(lin, q).is_zero
