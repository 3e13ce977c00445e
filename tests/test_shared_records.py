"""The ODE and control normalizers share one report record, one certificate
record and one minimality check, ``GradedSlice.is_minimal``."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from normalforms import homological
from normalforms.control import (
    ControlLinearPart,
    ControlSystem,
    control_slice,
    normalize_control,
)
from normalforms.integrals import brunovsky_pair
from normalforms.homological import homological_slice
from normalforms.innerprod import project_coords
from normalforms.ode import DegreeCertificate, NormalFormReport, normalize_ode
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries, map_coords, map_from_coords
from normalforms.ratmat import mat
from map_helpers import inner_product, skew_dim, skew_inner_product

rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


def ode_case():
    # x1' = x1 + x2^2, x2' = 2 x2 + x1^2 + x1 x2: x1^2 e2 is resonant
    f2 = HomPolyMap([HomPoly(2, 2, {(0, 2): 1}), HomPoly(2, 2, {(2, 0): 1, (1, 1): 1})])
    return normalize_ode(mat([[1, 0], [0, 2]]), PolySeries(2, 2, 3, {2: f2}), 3)


def control_case():
    # x1' = x2, x2' = x3, x3' = u + x2^2
    lin = brunovsky_pair(3)
    zero = HomPoly.zero(4, 2)
    f2 = HomPolyMap([zero, zero, HomPoly(4, 2, {(0, 2, 0, 0): 1})])
    return normalize_control(ControlSystem(lin, PolySeries(4, 3, 3, {2: f2})), 3)


def test_both_normalizers_return_the_same_records():
    ode_report, control_report = ode_case(), control_case()
    assert type(ode_report) is type(control_report) is NormalFormReport
    for report in (ode_report, control_report):
        assert report.ok
        assert {type(c) for c in report.certificates} == {DegreeCertificate}
    assert control_report.linear_part == brunovsky_pair(3)
    assert control_report.split is None


def test_a_control_certificate_has_no_equivariance_checks():
    for c in control_case().certificates:
        assert c.semisimple_ok is None and c.nilpotent_ok is None
        assert c.skew_dim == skew_dim(3, 1, c.degree)


def test_an_ode_certificate_has_the_generator_space_of_its_maps():
    report = ode_case()
    for c in report.certificates:
        assert c.skew_dim == c.space_dim
        assert c.space_dim == c.range_dim + c.kernel_dim
    # diag(1, 2) is in Jordan form, so both equivariance checks ran
    assert all(c.semisimple_ok and c.nilpotent_ok for c in report.certificates)


def test_both_steps_run_the_shared_minimality_check_once_per_degree(monkeypatch):
    real = homological.GradedSlice.is_minimal
    calls = []

    def counted(graded, xi):
        calls.append(len(map_coords(xi, graded.domain_keys)))
        return real(graded, xi)

    monkeypatch.setattr(homological.GradedSlice, "is_minimal", counted)
    ode_case()
    assert calls == [6, 8]  # dim H^2 and dim H^3 of the maps R^2 -> R^2
    calls.clear()
    control_case()
    assert calls == [skew_dim(3, 1, 2), skew_dim(3, 1, 3)] == [28, 50]


@st.composite
def ode_slices(draw):
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["zero", "resonant", "nilpotent", "dense"]))
    if kind == "zero":
        a = mat([[0] * n for _ in range(n)])
    elif kind == "resonant":
        a = mat([[1, 0], [0, 2]]) if n == 2 else mat([[1]])
    elif kind == "nilpotent":
        a = mat([[0, 1], [0, 0]]) if n == 2 else mat([[0]])
    else:
        a = tuple(tuple(draw(rationals) for _ in range(n)) for _ in range(n))
    k = draw(st.integers(2, 3))
    graded = homological_slice(a, k)
    return graded, (lambda v: map_from_coords(v, graded.domain_keys)), inner_product


@st.composite
def control_slices(draw):
    n = draw(st.integers(1, 2))
    a = tuple(tuple(draw(st.sampled_from([F(0), F(1), F(-1)])) for _ in range(n)) for _ in range(n))
    b = tuple((draw(st.sampled_from([F(0), F(1), F(2)])),) for _ in range(n))
    k = draw(st.integers(2, 3))
    graded = control_slice(ControlLinearPart(a, b), k)
    return graded, (lambda v: map_from_coords(v, graded.domain_keys)), (lambda p, q: skew_inner_product(p, q, n))


@given(st.one_of(ode_slices(), control_slices()), st.data())
@settings(max_examples=60, deadline=None)
def test_shared_minimality_check_is_the_gram_inner_product_with_the_kernel(case, data):
    graded, expand, gram = case
    size = len(graded.domain_keys)
    coords = data.draw(st.lists(rationals, min_size=size, max_size=size))
    if graded.kernel and data.draw(st.booleans()):
        # the part orthogonal to the kernel passes
        _, coords = project_coords(coords, graded.kernel, graded.domain_weights)
        assert graded.is_minimal(expand(coords))
    x = expand(coords)
    definition = all(gram(x, expand(k)) == 0 for k in graded.kernel)
    assert graded.is_minimal(x) == definition
    if graded.kernel:
        # a kernel vector itself is never orthogonal to the kernel
        assert not graded.is_minimal(expand(graded.kernel[0]))
