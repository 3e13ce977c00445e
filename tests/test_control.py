"""Control-system normalization: skew space, adjoint PDE, first integrals."""

import random
from fractions import Fraction as F

import pytest

from normalforms import control
from normalforms.control import (
    ControlLinearPart,
    ControlSystem,
    characteristic_field,
    control_adjoint,
    control_adjoint_matrix,
    control_homological,
    control_matrix,
    normalize_control,
    pushforward_control,
    skew_keys,
    verify_control_conjugacy,
)
from normalforms.integrals import (
    brunovsky_first_integrals,
    brunovsky_pair,
    control_complement,
    integral_defect,
    uncontrollable_example,
)
from normalforms.homological import (
    CertificateError,
    GradedSlice,
    homological_matrix,
    lie_derivative,
)
from normalforms.polyalg import (
    HomPoly,
    HomPolyMap,
    PolySeries,
    directional_derivative,
    map_keys,
    monomial_basis,
)
from normalforms.ratmat import mat, nullspace, rank, zeros
from map_helpers import (
    certificate,
    characteristic_derivative,
    coords_of,
    example_complement,
    example_pde_defect,
    inner_product,
    input_pairing,
    linear_control_system,
    map_add,
    map_neg,
    map_of,
    monomial,
    normal_form_defect,
    poly_mul,
    poly_neg,
    residual_basis,
    scalar_kernel,
    series_eq,
    skew_basis,
    skew_coords,
    skew_dim,
    skew_field,
    skew_from_coords,
    skew_gram_diagonal,
    skew_inner_product,
    skew_parts,
    solve,
    vf_basis,
    with_term,
)

B2 = brunovsky_pair(2)  # x1' = x2, x2' = u


def h3(component_terms):
    """Degree-k map R^3 -> R^2 in the Brunovsky n=2 variables (x1, x2, u)."""
    degree = max(sum(mi) for terms in component_terms for mi in terms)
    return HomPolyMap(
        [HomPoly(3, degree, dict(terms)) for terms in component_terms]
    )


def span_equal(maps_a, maps_b):
    cols_a = [list(coords_of(q)) for q in maps_a]
    cols_b = [list(coords_of(q)) for q in maps_b]
    if bool(cols_a) != bool(cols_b):
        return False
    if not cols_a:
        return True
    m_a = tuple(zip(*cols_a))
    m_b = tuple(zip(*cols_b))
    m_ab = tuple(ra + rb for ra, rb in zip(m_a, m_b))
    return rank(m_a) == rank(m_b) == rank(m_ab)


# ---------------------------------------------------------------------------
# the skew space
# ---------------------------------------------------------------------------


def test_skew_dims():
    assert skew_dim(2, 1, 2) == 12
    assert skew_dim(1, 1, 2) == 4
    assert skew_dim(2, 1, 3) == 18
    for n, m, k in ((2, 1, 2), (1, 1, 2), (2, 1, 3), (2, 2, 2)):
        assert len(skew_basis(n, m, k)) == skew_dim(n, m, k)


def test_skew_basis_deterministic_and_coords_roundtrip():
    assert skew_basis(2, 1, 2) == skew_basis(2, 1, 2)
    rng = random.Random(3)
    coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(skew_dim(2, 1, 2))]
    p = skew_from_coords(2, 1, 2, coords)
    assert skew_coords(p, 2) == coords
    assert len(skew_gram_diagonal(2, 1, 2)) == 12


def test_skew_inner_product_splits_by_block():
    rng = random.Random(5)
    dim = skew_dim(2, 1, 2)
    p = skew_from_coords(2, 1, 2, [F(rng.randint(-3, 3)) for _ in range(dim)])
    q = skew_from_coords(2, 1, 2, [F(rng.randint(-3, 3)) for _ in range(dim)])
    (p_x, p_u), (q_x, q_u) = skew_parts(p, 2), skew_parts(q, 2)
    assert skew_inner_product(p, q, 2) == inner_product(p_x, q_x) + inner_product(
        p_u, q_u
    )


def test_skew_generator_validation():
    # the shapes the former skew-generator type rejected, stacked into one
    # field: three state rows over two states, and parts of two degrees,
    # which make no field at all; the generator check of the pushforward
    # rejects the first
    sys = linear_control_system(B2, 3)
    for p_x, p_u in (
        (HomPolyMap.zero(2, 3, 2), HomPolyMap.zero(3, 1, 2)),
        (HomPolyMap.zero(2, 2, 2), HomPolyMap.zero(3, 1, 3)),
    ):
        lifted = [HomPoly._trusted(3, c.degree, {}) for c in p_x.components]
        with pytest.raises(ValueError):
            pushforward_control(sys, HomPolyMap(lifted + list(p_u.components)), 3)


# ---------------------------------------------------------------------------
# the control homological operator
# ---------------------------------------------------------------------------


def test_control_homological_state_part():
    # p_x = (x1^2, 0), p_u = 0: Dp_x.(x2, u) = (2 x1 x2, 0), A p_x = 0
    p = skew_field(
        HomPolyMap([monomial((2, 0)), HomPoly.zero(2, 2)]),
        HomPolyMap.zero(3, 1, 2),
    )
    assert control_homological(B2, p) == h3([{(1, 1, 0): 2}, {}])


def test_control_homological_feedback_part():
    # p_x = 0: L p = -B p_u lands in the controlled rows with a sign flip
    q = HomPoly(3, 2, {(1, 0, 1): 1, (0, 2, 0): -3})
    p = skew_field(HomPolyMap.zero(2, 2, 2), HomPolyMap([q]))
    out = control_homological(B2, p)
    assert out.component(0).is_zero
    assert out.component(1) == poly_neg(q)


def test_control_homological_zero_input_matrix_reduces_to_lie_derivative():
    # B = 0 and p_u arbitrary: only Dp_x(Ax) - Ap_x survives, lifted to (x, u)
    lin = ControlLinearPart(mat([[1, 0], [0, 2]]), zeros(2, 1))
    px = HomPolyMap([HomPoly.zero(2, 2), monomial((1, 1))])
    p = skew_field(px, HomPolyMap([monomial((0, 0, 2), 5)]))
    out = control_homological(lin, p)
    lifted = lie_derivative(lin.a, px)  # x-only; compare coefficientwise
    for i in range(2):
        assert out.component(i).terms == {
            mi + (0,): cf for mi, cf in lifted.component(i).terms.items()
        }


def test_embedding_identity():
    # L_{A_0} on the embedded generator: state rows give L p, input rows
    # give the transport term D_x p_u . (Ax + Bu)
    drive = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # the field (x2, u, 0)
    for p in skew_basis(2, 1, 2):
        full = lie_derivative(B2.aug0, p)
        lp = control_homological(B2, p)
        assert HomPolyMap(full.components[:2]) == lp
        transported = directional_derivative(drive, [p.component(2)]).components[0]
        assert full.component(2) == transported


def test_control_matrix_shape_and_augmented_crosscheck():
    m = control_matrix(B2, 2)
    assert (len(m), len(m[0])) == (12, 12)
    # the state rows of L_{A0} at the columns of the embedded skew basis
    # are the control operator
    aug = homological_matrix(B2.aug0, 2)
    embedded = [vf_basis(3, 3, 2).index(p) for p in skew_basis(2, 1, 2)]
    state_rows = aug[: 2 * len(monomial_basis(3, 2))]
    assert [tuple(row[c] for c in embedded) for row in state_rows] == list(m)


@pytest.mark.parametrize("builder", [control_matrix, control_adjoint_matrix])
@pytest.mark.parametrize("degree", [0, 1])
def test_control_operators_reject_a_degree_below_two(builder, degree):
    with pytest.raises(ValueError, match="transformations start at degree 2"):
        builder(B2, degree)


# ---------------------------------------------------------------------------
# adjoint, residual space, complement
# ---------------------------------------------------------------------------


def test_control_adjoint_cross_check_rejects_a_perturbed_entry():
    m = control_matrix(B2, 2)
    keys_s, keys_h = skew_keys(2, 1, 2), map_keys(3, 2, 2)
    GradedSlice(m, control_adjoint_matrix(B2, 2), keys_s, keys_h)
    rows, cols = len(m), len(m[0])
    cells = [(0, 0), (rows - 1, cols - 1), (rows - 1, 0), (0, cols - 1)]
    rng = random.Random(3)
    cells += [(rng.randrange(rows), rng.randrange(cols)) for _ in range(12)]
    for i, j in cells:
        entries = [list(row) for row in m]
        entries[i][j] += F(1, 7)
        bad = tuple(map(tuple, entries))
        with pytest.raises(RuntimeError, match="adjoint cross-check"):
            GradedSlice(bad, control_adjoint_matrix(B2, 2), keys_s, keys_h)


def test_graded_slice_rejects_the_adjoint_of_another_control_pair():
    # same shapes, different (A, B): the Gram conjugate of L is not its adjoint
    other = ControlLinearPart(mat([[0, 1], [-1, 0]]), mat([[1], [1]]))
    keys_s, keys_h = skew_keys(2, 1, 2), map_keys(3, 2, 2)
    GradedSlice(control_matrix(other, 2), control_adjoint_matrix(other, 2), keys_s, keys_h)
    with pytest.raises(CertificateError, match="adjoint cross-check"):
        GradedSlice(control_matrix(B2, 2), control_adjoint_matrix(other, 2), keys_s, keys_h)


def test_control_adjoint_dual_route_and_annihilation():
    mstar = control_adjoint_matrix(B2, 2)  # internally cross-checked
    assert (len(mstar), len(mstar[0])) == (12, 12)
    basis = residual_basis(B2, 2)
    assert len(basis) == 1
    for q in basis:
        assert normal_form_defect(B2, q).is_zero
        assert input_pairing(B2, q).is_zero
        for p in skew_basis(2, 1, 2):
            assert inner_product(q, control_homological(B2, p)) == 0
    # the single residual direction is u^2 e1
    assert span_equal(basis, [h3([{(0, 0, 2): 1}, {}])])


def test_residual_space_matches_direct_characterization():
    # independent route: nullspace of the stacked (defect at u=0, B^t q) map
    for lin, k in ((B2, 2), (B2, 3), (brunovsky_pair(3), 2)):
        basis = vf_basis(lin.n + lin.m, lin.n, k)
        columns = [
            list(coords_of(normal_form_defect(lin, b)))
            + list(coords_of(input_pairing(lin, b)))
            for b in basis
        ]
        stacked = tuple(zip(*columns))
        direct = [
            map_of(lin.n + lin.m, lin.n, k, v) for v in nullspace(stacked)
        ]
        assert span_equal(direct, residual_basis(lin, k))


def test_control_complement_brunovsky_quadratic():
    comp = control_complement(B2, 2)
    assert len(comp) == 3
    claimed = [
        h3([{(2, 0, 0): 1}, {(1, 1, 0): 1}]),  # (x1^2, x1 x2)
        h3([{}, {(2, 0, 0): 1}]),  # (0, x1^2)
        h3([{}, {(1, 0, 1): 2, (0, 2, 0): -1}]),  # (0, 2 x1 u - x2^2)
    ]
    assert span_equal(comp, claimed)
    for q in comp + claimed:
        assert characteristic_derivative(B2, q).is_zero


def test_residual_and_complement_are_different_spaces():
    # ker of the Gram adjoint (residual directions) and ker of the full
    # characteristic PDE (classification space) agree at u = 0 but differ
    # in their u-dependence: u^2 e1 is residual yet has full defect
    # 2 x2 u e1, while (x1^2, x1 x2) solves the PDE but pairs with B.
    res = residual_basis(B2, 2)
    comp = control_complement(B2, 2)
    u2e1 = h3([{(0, 0, 2): 1}, {}])
    assert span_equal(res, [u2e1])
    assert not characteristic_derivative(B2, u2e1).is_zero
    assert normal_form_defect(B2, u2e1).is_zero
    comp_cols = tuple(zip(*(coords_of(q) for q in comp)))
    assert solve(comp_cols, coords_of(u2e1)) is None  # not in the span
    inside = h3([{(2, 0, 0): 1}, {(1, 1, 0): 1}])
    assert characteristic_derivative(B2, inside).is_zero
    assert not input_pairing(B2, inside).is_zero


def constant(n_vars, *values):
    return HomPolyMap([monomial((0,) * n_vars, v) for v in values])


@pytest.mark.parametrize(
    "coupling, want", [(mat([[1, 2], [0, 3]]), (0, 3)), (zeros(2, 2), (0, 0))], ids=["coupled", "uncoupled"]
)
def test_pde_defect_of_a_constant_is_minus_the_coupling_times_it(coupling, want):
    # a degree-0 q has no derivative: only -C q remains, still of degree 0
    defect = control.pde_defect(characteristic_field(B2), coupling, constant(3, 2, -1))
    assert defect.degree == 0
    assert defect == constant(3, *want)


def test_characteristic_derivative_of_a_constant():
    # -A^t q: A^t of the shift pair moves q_1 into the second row
    assert characteristic_derivative(B2, constant(3, 2, -1)) == constant(3, 0, -2)
    ex = uncontrollable_example()
    assert example_pde_defect(ex, constant(4, 1, 2, 3)) == constant(4, 0, 0, -2)


def test_normal_form_defect_examples():
    assert normal_form_defect(B2, h3([{}, {(1, 0, 1): 2, (0, 2, 0): -1}])).is_zero
    assert normal_form_defect(B2, h3([{(2, 0, 0): 1}, {(1, 1, 0): 1}])).is_zero
    assert not normal_form_defect(B2, h3([{(0, 2, 0): 1}, {}])).is_zero


# ---------------------------------------------------------------------------
# pushforward and normalization
# ---------------------------------------------------------------------------


def test_pushforward_single_step_removes_l_p():
    rng = random.Random(7)
    dim = skew_dim(2, 1, 2)
    p = skew_from_coords(2, 1, 2, [F(rng.randint(-2, 2)) for _ in range(dim)])
    sys = linear_control_system(B2, 2)
    out = pushforward_control(sys, p, 2)
    assert out.nonlinear.term(2) == map_neg(control_homological(B2, p))


def test_pushforward_roundtrip():
    rng = random.Random(11)
    dim = skew_dim(2, 1, 2)
    p = skew_from_coords(2, 1, 2, [F(rng.randint(-2, 2)) for _ in range(dim)])
    mons = monomial_basis(3, 2)
    f2 = HomPolyMap(
        [HomPoly(3, 2, {mi: F(rng.randint(-2, 2)) for mi in mons}) for _ in range(2)]
    )
    sys = ControlSystem(B2, PolySeries(3, 2, 4, {2: f2}))
    minus_p = skew_from_coords(2, 1, 2, [-c for c in skew_coords(p, 2)])
    there = pushforward_control(sys, p, 4)
    back = pushforward_control(there, minus_p, 4)
    assert series_eq(back.nonlinear, sys.nonlinear.truncate(4))


def test_normalize_control_brunovsky_quadratic():
    f2 = h3([{}, {(0, 2, 0): 1}])  # x2' = u + x2^2
    sys = ControlSystem(B2, PolySeries(3, 2, 3, {2: f2}))
    report = normalize_control(sys, 3)
    assert report.ok
    assert report.normal_form.is_zero
    c2, c3 = certificate(report, 2), certificate(report, 3)
    assert (c2.space_dim, c2.skew_dim, c2.range_dim, c2.kernel_dim) == (12, 12, 11, 1)
    assert (c3.space_dim, c3.skew_dim, c3.range_dim, c3.kernel_dim) == (20, 18, 17, 3)
    assert report.log.generators[0][0] == 2


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("pushforward_control", lambda sys, p, order: sys, "pushforward disagrees .* at degree 2"),
        (
            "control_homological",
            lambda lin, p: HomPolyMap.zero(lin.n + lin.m, lin.n, p.degree),
            "certificate failed at degree 2",
        ),
    ],
    ids=["pushforward", "certificate"],
)
def test_normalize_control_raises_when_the_degree_loop_check_fails(
    name, fake, message, monkeypatch
):
    monkeypatch.setattr(control, name, fake)
    sys = ControlSystem(B2, PolySeries(3, 2, 2, {2: h3([{}, {(0, 2, 0): 1}])}))
    with pytest.raises(RuntimeError, match=message):
        normalize_control(sys, 2)


def test_normalize_control_keeps_residual_terms():
    f2 = h3([{(0, 0, 2): 5}, {}])  # u^2 e1 spans the degree-2 residual space
    sys = ControlSystem(B2, PolySeries(3, 2, 2, {2: f2}))
    report = normalize_control(sys, 2)
    assert report.ok
    assert report.normal_form.term(2) == f2
    assert certificate(report, 2).kernel_ok


def test_normalize_control_random_certificates():
    rng = random.Random(13)
    mons = monomial_basis(3, 2)
    for _ in range(3):
        f2 = HomPolyMap(
            [HomPoly(3, 2, {mi: F(rng.randint(-2, 2)) for mi in mons}) for _ in range(2)]
        )
        sys = ControlSystem(B2, PolySeries(3, 2, 3, {2: f2}))
        report = normalize_control(sys, 3)
        assert report.ok
        for k in (2, 3):
            gk = report.normal_form.term(k)
            assert normal_form_defect(B2, gk).is_zero
            assert input_pairing(B2, gk).is_zero
        assert report.conjugacy.pushforward_ok and report.conjugacy.flow_identity_ok


def test_verify_control_conjugacy_flags_corruption():
    f2 = h3([{}, {(0, 2, 0): 1}])
    sys = ControlSystem(B2, PolySeries(3, 2, 3, {2: f2}))
    report = normalize_control(sys, 3)
    assert verify_control_conjugacy(sys, report.log, report.normal_form, 3).ok
    bad = with_term(
        report.normal_form, 2, map_add(report.normal_form.term(2), h3([{(0, 0, 2): 1}, {}]))
    )
    result = verify_control_conjugacy(sys, report.log, bad, 3)
    assert not result.pushforward_ok and not result.ok
    assert result.pushforward_residuals.degrees() == [2]


def test_normalize_control_idempotent():
    rng = random.Random(17)
    mons = monomial_basis(3, 2)
    f2 = HomPolyMap(
        [HomPoly(3, 2, {mi: F(rng.randint(-2, 2)) for mi in mons}) for _ in range(2)]
    )
    sys = ControlSystem(B2, PolySeries(3, 2, 2, {2: f2}))
    first = normalize_control(sys, 2)
    second = normalize_control(ControlSystem(B2, first.normal_form), 2)
    assert second.log.generators == ()
    assert series_eq(second.normal_form, first.normal_form)


# ---------------------------------------------------------------------------
# first integrals
# ---------------------------------------------------------------------------


def test_brunovsky_first_integrals_counts_and_certification():
    for n in range(1, 7):
        ints = brunovsky_first_integrals(n)  # certified on construction
        assert len(ints) == n // 2 + 1
        assert [i.index for i in ints] == list(range(1, n // 2 + 2))
        fld = characteristic_field(brunovsky_pair(n))
        for i in ints:
            assert integral_defect(fld, i.poly).is_zero


def test_brunovsky_first_integrals_small_cases():
    two = brunovsky_first_integrals(2)
    assert two[0].poly == HomPoly(3, 1, {(1, 0, 0): 1})
    assert two[1].poly == HomPoly(3, 2, {(0, 2, 0): F(1, 2), (1, 0, 1): -1})

    three = brunovsky_first_integrals(3)
    assert len(three) == 2
    assert three[1].poly == HomPoly(4, 2, {(0, 2, 0, 0): F(1, 2), (1, 0, 1, 0): -1})


def test_products_of_integrals_are_integrals():
    ints = brunovsky_first_integrals(4)
    fld = characteristic_field(brunovsky_pair(4))
    prod = poly_mul(ints[1].poly, ints[2].poly)
    assert integral_defect(fld, prod).is_zero
    assert integral_defect(fld, poly_mul(ints[0].poly, ints[0].poly)).is_zero


# ---------------------------------------------------------------------------
# the uncontrollable fixture
# ---------------------------------------------------------------------------


def test_uncontrollable_example_integrals():
    ex = uncontrollable_example()
    assert ex.variables == ("z", "x1", "x2", "u")
    polys = [i.poly for i in ex.first_integrals]
    assert polys[0] == HomPoly(4, 1, {(1, 0, 0, 0): 1})
    assert polys[1] == HomPoly(4, 1, {(0, 1, 0, 0): 1})
    assert polys[2] == HomPoly(4, 2, {(0, 0, 2, 0): 1, (1, 0, 0, 1): -2})
    for p in polys:
        assert integral_defect(ex.field, p).is_zero


def test_uncontrollable_printed_field_differs_from_generic_labeling():
    # the fixture's field transports along z, the generic one along x1;
    # x2^2 - 2zu certifies only against the former, x2^2 - 2x1u only
    # against the latter
    ex = uncontrollable_example()
    generic = characteristic_field(ex.lin)
    assert ex.field != generic
    swapped = HomPoly(4, 2, {(0, 0, 2, 0): 1, (0, 1, 0, 1): -2})
    assert integral_defect(generic, swapped).is_zero
    assert not integral_defect(ex.field, swapped).is_zero
    assert not integral_defect(generic, ex.first_integrals[2].poly).is_zero


def test_uncontrollable_complement_and_scalar_kernel():
    ex = uncontrollable_example()
    comp = example_complement(ex, 2)
    assert len(comp) == 10
    for q in comp:
        assert example_pde_defect(ex, q).is_zero

    kern = scalar_kernel(ex, 2)
    assert len(kern) == 4
    claimed = [
        HomPoly(4, 2, {(2, 0, 0, 0): 1}),  # z^2
        HomPoly(4, 2, {(1, 1, 0, 0): 1}),  # z x1
        HomPoly(4, 2, {(0, 2, 0, 0): 1}),  # x1^2
        HomPoly(4, 2, {(0, 0, 2, 0): 1, (1, 0, 0, 1): -2}),  # x2^2 - 2 z u
    ]
    assert span_equal(
        [HomPolyMap([p]) for p in kern], [HomPolyMap([p]) for p in claimed]
    )
