"""Normalization of ODE vector fields: solver, Lie series, certificates."""

import random
from fractions import Fraction as F

import pytest

from normalforms.homological import CertificateError, homological_matrix, homological_slice
from normalforms import homological, ode
from normalforms.ode import (
    TransformationLog,
    flow_conjugacy_residuals,
    flow_map,
    normalize_ode,
    pushforward_ode,
    solve_homological,
    verify_conjugacy,
)
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries, compose_truncated, monomial_basis
from normalforms.ratmat import identity, mat, zeros
from map_helpers import (
    certificate,
    coords_of,
    from_matrix,
    generator,
    inner_product,
    kernel_basis,
    map_add,
    map_neg,
    monomial,
    resonant_kernel_basis,
    series_eq,
    solve,
    with_term,
)

DIAG12 = mat([[1, 0], [0, 2]])
TB = mat([[0, 1], [0, 0]])  # nilpotent Takens-Bogdanov linear part


def vf(*component_terms):
    """Build a 2d HomPolyMap from {exponent: coeff} dicts, one per component."""
    degree = None
    for terms in component_terms:
        for mi in terms:
            degree = sum(mi)
    comps = [HomPoly(2, degree, dict(terms)) for terms in component_terms]
    return HomPolyMap(comps)


def rand_series(rng, n, order, span=2):
    terms = {}
    for k in range(2, order + 1):
        mons = monomial_basis(n, k)
        comps = [
            HomPoly(n, k, {mi: F(rng.randint(-span, span)) for mi in mons})
            for _ in range(n)
        ]
        terms[k] = HomPolyMap(comps)
    return PolySeries(n, n, order, terms)


# ---------------------------------------------------------------------------
# solve_homological
# ---------------------------------------------------------------------------


def test_solve_homological_removable_term():
    fk = vf({}, {(1, 1): 1})  # x1 x2 e2, eigenfactor <(1,1),(1,2)> - 2 = 1
    xi, r = solve_homological(DIAG12, fk, homological_slice(DIAG12, 2))
    assert xi == fk
    assert r.is_zero


def test_solve_homological_resonant_term():
    fk = vf({}, {(2, 0): 1})  # the single degree-2 resonance of (1, 2)
    xi, r = solve_homological(DIAG12, fk, homological_slice(DIAG12, 2))
    assert xi.is_zero
    assert r == fk


def test_solve_homological_mixed_term():
    fk = vf({}, {(2, 0): 1, (1, 1): 1})
    xi, r = solve_homological(DIAG12, fk, homological_slice(DIAG12, 2))
    assert xi == vf({}, {(1, 1): 1})
    assert r == vf({}, {(2, 0): 1})


def test_solve_homological_zero():
    xi, r = solve_homological(DIAG12, HomPolyMap.zero(2, 2, 2), homological_slice(DIAG12, 2))
    assert xi.is_zero and r.is_zero


def test_solve_homological_minimal_norm_takens_bogdanov():
    # L_A xi = x2^2 e1 has the affine solution family
    # xi = ((1+c) x1 x2 + d x2^2, c x2^2); orthogonality to
    # ker L_A = span{(x2^2, 0), (x1 x2, x2^2)} forces d = 0, c = -1/3.
    fk = vf({(0, 2): 1}, {})
    xi, r = solve_homological(TB, fk, homological_slice(TB, 2))
    assert r.is_zero
    assert xi == vf({(1, 1): F(2, 3)}, {(0, 2): F(-1, 3)})
    for kv in kernel_basis(homological_matrix(TB, 2), 2, 2):
        assert inner_product(xi, kv) == 0


def test_solve_homological_rejects_low_degree():
    graded = homological_slice(DIAG12, 1)
    with pytest.raises(ValueError):
        solve_homological(DIAG12, HomPolyMap.zero(2, 2, 1), graded)


# ---------------------------------------------------------------------------
# Lie series: pushforward, flow map, composition
# ---------------------------------------------------------------------------


def test_pushforward_zero_generator_is_identity():
    rng = random.Random(3)
    f = rand_series(rng, 2, 4)
    assert series_eq(pushforward_ode(DIAG12, f, [HomPolyMap.zero(2, 2, 2)], 4), f)


def test_pushforward_scalar_oracle():
    # x' = x under x = y/(1-y) (the time-1 flow of y^2) becomes
    # y' = y - y^2 exactly: ad_{y^2}(y) = -y^2 and ad_{y^2}(y^2) = 0.
    a = mat([[1]])
    xi = HomPolyMap([monomial((2,))])
    for order in (2, 3, 5):
        g = pushforward_ode(a, PolySeries.zero(1, 1, order), [xi], order)
        assert g.degrees() == [2]
        assert g.term(2) == HomPolyMap([monomial((2,), -1)])


def test_flow_map_scalar_oracle():
    # time-1 flow of y' = y^2 is y/(1-y) = y + y^2 + y^3 + ...
    xi = HomPolyMap([monomial((2,))])
    phi = flow_map([xi], 4)
    assert phi.degrees() == [2, 3, 4]
    for k in (2, 3, 4):
        assert phi.term(k) == HomPolyMap([monomial((k,) )])


def test_pushforward_inverse_roundtrip():
    rng = random.Random(7)
    for n, order in ((1, 5), (2, 4), (3, 3)):
        a = mat([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        f = rand_series(rng, n, order)
        mons = monomial_basis(n, 2)
        xi = HomPolyMap(
            [HomPoly(n, 2, {mi: F(rng.randint(-2, 2)) for mi in mons}) for _ in range(n)]
        )
        there = pushforward_ode(a, f, [xi], order)
        back = pushforward_ode(a, there, [map_neg(xi)], order)
        assert series_eq(back, f.truncate(order))


def test_flow_maps_of_opposite_generators_compose_to_identity():
    xi = vf({(1, 1): F(1, 2)}, {(0, 2): -2})
    order = 5
    fwd = flow_map([xi], order)
    bwd = flow_map([map_neg(xi)], order)
    assert compose_truncated(identity(2), fwd, bwd, order).is_zero
    assert compose_truncated(identity(2), bwd, fwd, order).is_zero


def test_pushforward_rejects_bad_generator():
    with pytest.raises(ValueError):
        pushforward_ode(DIAG12, PolySeries.zero(2, 2, 3), [HomPolyMap.zero(3, 3, 2)], 3)


# ---------------------------------------------------------------------------
# normalize_ode
# ---------------------------------------------------------------------------


def test_normalize_removes_nonresonant_keeps_resonant():
    f = PolySeries(2, 2, 2, {2: vf({}, {(2, 0): 1, (1, 1): 1})})
    report = normalize_ode(DIAG12, f, 2)
    assert report.ok
    assert report.normal_form.terms == {2: vf({}, {(2, 0): 1})}
    assert report.log.generators == ((2, vf({}, {(1, 1): 1})),)
    cert = certificate(report, 2)
    assert (cert.space_dim, cert.range_dim, cert.kernel_dim) == (6, 5, 1)


@pytest.mark.parametrize(
    "owner, name, fake, message",
    [
        (ode, "pushforward_ode", lambda a, f, xi, order: f, "pushforward disagrees .* at degree 2"),
        (ode.GradedSlice, "is_minimal", lambda s, xi: not s.kernel, "certificate failed at degree 2"),
    ],
    ids=["pushforward", "certificate"],
)
def test_normalize_raises_when_the_degree_loop_check_fails(owner, name, fake, message, monkeypatch):
    # the kernel of L_A holds x1^2 e2, so the minimality check has a vector to test
    monkeypatch.setattr(owner, name, fake)
    f = PolySeries(2, 2, 2, {2: vf({}, {(2, 0): 1, (1, 1): 1})})
    with pytest.raises(RuntimeError, match=message):
        normalize_ode(DIAG12, f, 2)


@pytest.mark.parametrize(
    "a, per_degree", [(mat([[2, 1], [0, 2]]), 4), (mat([[0, -1], [1, 0]]), 2)], ids=["split", "no-split"]
)
def test_normalize_evaluates_each_identity_once_per_degree(a, per_degree, monkeypatch):
    # solve_homological checks L_A xi = f_k - r and L_{A^t} r = 0; the step
    # adds only the two equivariance checks, and only with a Jordan split
    # every binding is counted: adjoint_defect reaches L_{A^t} through homological
    real = ode.lie_derivative
    calls = []

    def counted(m, f):
        calls.append(f.degree)
        return real(m, f)

    for module in (ode, homological):
        monkeypatch.setattr(module, "lie_derivative", counted)
    report = normalize_ode(a, rand_series(random.Random(3), 2, 4), 4)
    assert report.ok
    assert sorted(calls) == [k for k in (2, 3, 4) for _ in range(per_degree)]


def test_a_wrong_lie_derivative_fails_the_homological_solve(monkeypatch):
    real = ode.lie_derivative
    monkeypatch.setattr(ode, "lie_derivative", lambda m, f: map_add(real(m, f), f))
    fk = vf({}, {(1, 1): 1})  # removable, so xi = fk is not zero
    with pytest.raises(CertificateError, match="homological solve failed verification"):
        solve_homological(DIAG12, fk, homological_slice(DIAG12, 2))
    with pytest.raises(CertificateError, match="homological solve failed verification"):
        normalize_ode(DIAG12, PolySeries(2, 2, 2, {2: fk}), 2)


def test_normalize_no_cubic_resonances_for_one_two():
    # lambda = (1,2) has no |l| = 3 resonances, so order 3 changes nothing
    f = PolySeries(2, 2, 3, {2: vf({}, {(2, 0): 1, (1, 1): 1})})
    report = normalize_ode(DIAG12, f, 3)
    assert report.ok
    assert report.normal_form.terms == {2: vf({}, {(2, 0): 1})}
    assert certificate(report, 3).kernel_dim == 0


def test_normalize_zero_input():
    report = normalize_ode(DIAG12, PolySeries.zero(2, 2, 3), 3)
    assert report.ok
    assert report.normal_form.is_zero
    assert report.log.generators == ()


@pytest.mark.parametrize("n", [1, 2])
def test_normalize_zero_linear_part_keeps_every_term(n):
    # L_A = 0 at A = 0: every term is resonant, nothing can be removed
    rng = random.Random(5 + n)
    f = rand_series(rng, n, 3)
    report = normalize_ode(zeros(n, n), f, 3)
    assert report.ok
    assert series_eq(report.normal_form, f)
    assert report.log.generators == ()


def test_normalize_takens_bogdanov_quadratic():
    f = PolySeries(2, 2, 3, {2: vf({(0, 2): 1}, {})})
    report = normalize_ode(TB, f, 3)
    assert report.ok
    assert report.normal_form.is_zero  # x2^2 e1 is orthogonal to ker L_{A^t}
    assert generator(report.log, 2) == vf({(1, 1): F(2, 3)}, {(0, 2): F(-1, 3)})


def test_normalize_result_lands_in_complement():
    rng = random.Random(11)
    f = rand_series(rng, 2, 2)
    report = normalize_ode(TB, f, 2)
    assert report.ok
    kern = kernel_basis(homological_matrix(mat([[0, 0], [1, 0]]), 2), 2, 2)
    cols = tuple(zip(*(coords_of(q) for q in kern)))
    g2 = report.normal_form.term(2)
    assert solve(cols, coords_of(g2)) is not None


def test_normalize_semisimple_normal_form_is_resonant():
    rng = random.Random(13)
    f = rand_series(rng, 2, 3)
    report = normalize_ode(DIAG12, f, 3)
    assert report.ok
    res2 = resonant_kernel_basis((F(1), F(2)), 2)
    cols = tuple(zip(*(coords_of(q) for q in res2)))
    assert solve(cols, coords_of(report.normal_form.term(2))) is not None
    assert report.normal_form.term(3).is_zero


def test_normalize_idempotent():
    rng = random.Random(17)
    f = rand_series(rng, 2, 3)
    first = normalize_ode(TB, f, 3)
    second = normalize_ode(TB, first.normal_form, 3)
    assert second.log.generators == ()
    assert series_eq(second.normal_form, first.normal_form)


def test_normalize_degree_locality():
    rng = random.Random(19)
    f = rand_series(rng, 2, 4)
    low = normalize_ode(TB, f, 2)
    high = normalize_ode(TB, f, 4)
    assert high.normal_form.term(2) == low.normal_form.term(2)
    assert generator(high.log, 2) == generator(low.log, 2)


def test_normalize_generators_minimal_norm():
    rng = random.Random(23)
    f = rand_series(rng, 2, 3)
    report = normalize_ode(TB, f, 3)
    for k, gen in report.log.generators:
        for kv in kernel_basis(homological_matrix(TB, k), 2, k):
            assert inner_product(gen, kv) == 0
        assert certificate(report, k).minimal_ok


def test_normalize_below_quadratic_is_degenerate():
    rng = random.Random(27)
    f = rand_series(rng, 2, 3)
    report = normalize_ode(DIAG12, f, 1)
    assert report.ok
    assert report.order == 1
    assert report.log.generators == ()
    assert report.normal_form.is_zero
    assert report.certificates == ()


def test_normalize_populates_equivariance_for_jordan_input():
    f = PolySeries(2, 2, 2, {2: vf({(0, 2): 1}, {(2, 0): 1})})
    report = normalize_ode(mat([[2, 1], [0, 2]]), f, 2)
    assert report.ok
    assert report.normal_form.is_zero  # <l, (2,2)> - 2 = 2 at k = 2: no kernel
    cert = certificate(report, 2)
    assert cert.semisimple_ok is True and cert.nilpotent_ok is True

    # non-Jordan linear part: no split is derivable, fields stay None
    skew = normalize_ode(mat([[0, -1], [1, 0]]), f, 2)
    assert certificate(skew, 2).semisimple_ok is None
    assert certificate(skew, 2).nilpotent_ok is None


def test_normalize_accepts_valid_split_rejects_invalid():
    f = PolySeries(2, 2, 2, {2: vf({}, {(2, 0): 1})})
    ok = normalize_ode(DIAG12, f, 2, split=(DIAG12, zeros(2, 2)))
    assert ok.ok and certificate(ok, 2).semisimple_ok is True
    with pytest.raises(ValueError, match="split is invalid"):
        normalize_ode(TB, f, 2, split=(TB, zeros(2, 2)))


def test_normalize_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        normalize_ode(DIAG12, PolySeries.zero(3, 3, 2), 2)


# ---------------------------------------------------------------------------
# conjugacy verification
# ---------------------------------------------------------------------------


def test_verify_conjugacy_accepts_normalizer_output():
    rng = random.Random(31)
    f = rand_series(rng, 2, 3)
    report = normalize_ode(TB, f, 3)
    check = verify_conjugacy(TB, f, report.log, report.normal_form, 3)
    assert check.pushforward_ok and check.flow_identity_ok


def test_verify_conjugacy_flags_perturbed_normal_form():
    rng = random.Random(37)
    f = rand_series(rng, 2, 3)
    report = normalize_ode(TB, f, 3)
    bad = with_term(
        report.normal_form, 2, map_add(report.normal_form.term(2), vf({(2, 0): 1}, {}))
    )
    check = verify_conjugacy(TB, f, report.log, bad, 3)
    assert not check.pushforward_ok
    assert not check.flow_identity_ok
    assert not check.ok


def test_verify_conjugacy_empty_log_means_equal_fields():
    rng = random.Random(41)
    f = rand_series(rng, 2, 3)
    empty = TransformationLog(dim=2, order=3, generators=())
    assert verify_conjugacy(TB, f, empty, f, 3).ok


def test_verify_conjugacy_empty_log_flags_difference():
    rng = random.Random(43)
    f = rand_series(rng, 2, 3)
    g = with_term(f, 3, map_add(f.term(3), vf({}, {(3, 0): 1})))
    empty = TransformationLog(dim=2, order=3, generators=())
    check = verify_conjugacy(TB, f, empty, g, 3)
    assert not check.ok
    assert check.pushforward_residuals.term(3) == vf({}, {(3, 0): 1})


def test_flow_route_linear_check_still_raises(monkeypatch):
    # DPhi(y).(Ay) with Phi = 2y cannot match A(Phi) = A y at degree 1: the
    # defect there is 2 A y - A y = A y
    f = PolySeries(2, 2, 2, {2: vf({(2, 0): 1}, {})})
    real = ode.flow_identity_defect

    def linear_part_doubled(*args):
        return {1: from_matrix(TB), **real(*args)}

    monkeypatch.setattr(ode, "flow_identity_defect", linear_part_doubled)
    with pytest.raises(RuntimeError, match="linear level"):
        flow_conjugacy_residuals(TB, f, PolySeries.zero(2, 2, 2), f, 2)
