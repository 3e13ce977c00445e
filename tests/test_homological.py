"""The homological operator, its Gram adjoint, and the graded splitting."""

import random
from fractions import Fraction as F

import pytest

from normalforms.homological import (
    CertificateError,
    GradedSlice,
    adjoint_matrix,
    homological_matrix,
    jordan_split,
    lie_derivative,
)
from normalforms.polyalg import (
    HomPoly,
    HomPolyMap,
    map_keys,
    monomial_basis,
)
from normalforms.ratmat import identity, mat, nullspace, rank, zeros
from normalforms.spectral import validate_split
from map_helpers import (
    coords_of,
    inner_product,
    kernel_basis,
    map_mul,
    map_of,
    monomial,
    resonant_kernel_basis,
    solve,
    vf_basis,
)
from slow_operators import split


def rand_matrix(rng, n, span=3):
    return mat([[F(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)])


def rand_map(rng, n, k, span=3):
    mons = monomial_basis(n, k)
    return HomPolyMap(
        [
            HomPoly(n, k, {mi: F(rng.randint(-span, span), rng.randint(1, 2)) for mi in mons})
            for _ in range(n)
        ]
    )


def span_equal(basis_a, basis_b):
    """Mutual containment of two spanning sets, by exact rank tests."""
    cols_a = [list(coords_of(q)) for q in basis_a]
    cols_b = [list(coords_of(q)) for q in basis_b]
    if not cols_a and not cols_b:
        return True
    if bool(cols_a) != bool(cols_b):
        return False
    m_a = tuple(zip(*cols_a))
    m_b = tuple(zip(*cols_b))
    m_ab = tuple(ra + rb for ra, rb in zip(m_a, m_b))
    ra, rb, rab = rank(m_a), rank(m_b), rank(m_ab)
    return ra == rb == rab


# ---------------------------------------------------------------------------
# lie_derivative
# ---------------------------------------------------------------------------


def test_lie_derivative_resonant_term_vanishes():
    a = mat([[1, 0], [0, 2]])
    f = HomPolyMap([HomPoly.zero(2, 2), monomial((2, 0))])  # x1^2 e2
    assert lie_derivative(a, f).is_zero  # <(2,0),(1,2)> = 2 = lambda_2


def test_lie_derivative_euler_scaling():
    rng = random.Random(29)
    for k in (2, 3, 4):
        f = rand_map(rng, 2, k)
        assert lie_derivative(identity(2), f) == map_mul(f, k - 1)


def test_lie_derivative_zero_matrix():
    rng = random.Random(31)
    f = rand_map(rng, 3, 2)
    assert lie_derivative(zeros(3, 3), f).is_zero


def test_lie_derivative_eigen_formula_on_diagonal():
    # L_A (x^l e_j) = (<l, lambda> - lambda_j) x^l e_j for diagonal A
    lam = (F(1), F(-3))
    a = mat([[lam[0], 0], [0, lam[1]]])
    for j in range(2):
        for mi in monomial_basis(2, 3):
            f = HomPolyMap(
                [
                    monomial(mi) if i == j else HomPoly.zero(2, 3)
                    for i in range(2)
                ]
            )
            factor = sum(F(e) * l for e, l in zip(mi, lam)) - lam[j]
            assert lie_derivative(a, f) == map_mul(f, factor)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_homological_matrix_diagonal_case():
    a = mat([[1, 0], [0, 2]])
    m = homological_matrix(a, 2)
    assert len(m) == len(m[0]) == 6
    lam = (F(1), F(2))
    expected = []
    for j in range(2):
        for mi in monomial_basis(2, 2):
            expected.append(sum(F(e) * l for e, l in zip(mi, lam)) - lam[j])
    for i in range(6):
        for jj in range(6):
            assert m[i][jj] == (expected[i] if i == jj else 0)


def test_homological_matrix_zero_and_size():
    assert all(v == 0 for row in homological_matrix(zeros(2, 2), 2) for v in row)
    m = homological_matrix(mat([[0, 1], [0, 0]]), 2)
    assert len(m) == 6 and len(m[0]) == 6


def test_adjoint_matrix_symmetric_and_diagonal():
    sym = mat([[1, 2], [2, 5]])
    assert adjoint_matrix(sym, 2) == homological_matrix(sym, 2)
    diag = mat([[1, 0], [0, 2]])
    assert adjoint_matrix(diag, 2) == homological_matrix(diag, 2)


def _perturbed(m, i, j):
    entries = [list(row) for row in m]
    entries[i][j] += F(1, 7)
    return tuple(map(tuple, entries))


def test_adjoint_cross_check_rejects_any_perturbed_entry():
    a = mat([[1, 2], [0, 3]])
    m = homological_matrix(a, 2)
    keys = map_keys(2, 2, 2)
    GradedSlice(m, adjoint_matrix(a, 2), keys, keys)
    for i in range(len(m)):
        for j in range(len(m[0])):
            with pytest.raises(RuntimeError, match="adjoint cross-check"):
                GradedSlice(_perturbed(m, i, j), adjoint_matrix(a, 2), keys, keys)
    short = m[:-1]
    with pytest.raises(RuntimeError, match="adjoint cross-check"):
        GradedSlice(short, adjoint_matrix(a, 2), keys, keys)


@pytest.mark.parametrize("k", [2, 3])
def test_graded_slice_rejects_l_a_as_its_own_adjoint(k):
    # L_A is not its own Gram adjoint unless A is symmetric
    a = mat([[1, 2], [0, 3]])
    m = homological_matrix(a, k)
    keys = map_keys(2, 2, k)
    with pytest.raises(CertificateError, match="adjoint cross-check"):
        GradedSlice(m, m, keys, keys)


def test_adjoint_matrix_transpose_rule():
    a = mat([[0, 1], [0, 0]])
    assert adjoint_matrix(a, 2) == homological_matrix(mat([[0, 0], [1, 0]]), 2)


def test_adjoint_identity_random():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        a = rand_matrix(rng, n)
        p, q = rand_map(rng, n, k), rand_map(rng, n, k)
        assert inner_product(lie_derivative(a, p), q) == inner_product(
            p, lie_derivative(tuple(zip(*a)), q)
        )


# ---------------------------------------------------------------------------
# kernels and the splitting
# ---------------------------------------------------------------------------


def test_kernel_basis_examples():
    zero_op = homological_matrix(zeros(2, 2), 2)
    assert len(kernel_basis(zero_op, 2, 2)) == 6

    invertible = homological_matrix(identity(2), 2)  # L_I = (k-1) I, k = 2
    assert kernel_basis(invertible, 2, 2) == []

    a = mat([[1, 0], [0, 2]])
    kern = kernel_basis(adjoint_matrix(a, 2), 2, 2)
    assert len(kern) == 1
    assert kern[0] == HomPolyMap([HomPoly.zero(2, 2), monomial((2, 0))])


def test_split_takens_bogdanov():
    s = split(mat([[0, 1], [0, 0]]), 2)
    assert len(s.complement_basis) == 2
    want_a = HomPolyMap([HomPoly.zero(2, 2), monomial((2, 0))])  # (0, x1^2)
    want_b = HomPolyMap([monomial((2, 0)), monomial((1, 1))])  # (x1^2, x1x2)
    cols = tuple(zip(*(coords_of(q) for q in s.complement_basis)))
    for want in (want_a, want_b):
        assert solve(cols, coords_of(want)) is not None
    # hand check from first principles: L_{A^t}(x1^2 e1 + x1x2 e2) = 0
    at = mat([[0, 0], [1, 0]])
    assert lie_derivative(at, want_b).is_zero


def test_split_diagonal_resonance():
    s = split(mat([[1, 0], [0, 2]]), 2)
    assert len(s.range_basis) == 5
    assert span_equal(s.complement_basis, resonant_kernel_basis((F(1), F(2)), 2))


def test_split_center_cubic():
    s = split(mat([[0, -1], [1, 0]]), 3)
    assert len(s.complement_basis) == 2  # classical Hopf count


def test_split_invariants_random():
    rng = random.Random(41)
    for _ in range(8):
        n = rng.randint(1, 3)
        k = rng.randint(2, 3)
        a = rand_matrix(rng, n, span=2)
        s = split(a, k)
        dim = n * len(monomial_basis(n, k))
        assert len(s.range_basis) + len(s.complement_basis) == dim
        at = tuple(zip(*a))
        for c in s.complement_basis:
            assert lie_derivative(at, c).is_zero
        for r in s.range_basis:
            for c in s.complement_basis:
                assert inner_product(r, c) == 0
        # preimages really map onto the range basis
        for pre, r in zip(s.preimages, s.range_basis):
            assert lie_derivative(a, pre) == r


def test_resonant_kernel_basis_examples():
    assert [
        tuple(coords_of(b)) for b in resonant_kernel_basis((F(1), F(2)), 2)
    ] == [tuple(coords_of(HomPolyMap([HomPoly.zero(2, 2), monomial((2, 0))])))]
    assert resonant_kernel_basis((F(1), F(3)), 2) == []
    assert len(resonant_kernel_basis((F(0), F(0)), 2)) == 6
    assert len(resonant_kernel_basis((F(0), F(0), F(0)), 3)) == len(vf_basis(3, 3, 3))


def test_kernel_intersection_for_jordan_input():
    # ker L_{A^t} = ker L_{A_s^t} cap ker L_{A_n^t} for commuting split parts
    for a_rows, k in (([[2, 1], [0, 2]], 2), ([[1, 1], [0, 1]], 3), ([[0, 1], [0, 0]], 2)):
        a = mat(a_rows)
        a_s, a_n = jordan_split(a)
        ast, ant = (tuple(zip(*m)) for m in (a_s, a_n))
        full = kernel_basis(adjoint_matrix(a, k), 2, k)
        # intersection via a stacked nullspace, not by filtering basis vectors
        stacked = adjoint_matrix(a_s, k) + adjoint_matrix(a_n, k)
        both = [map_of(2, 2, k, v) for v in nullspace(stacked)]
        for q in full:
            assert lie_derivative(ast, q).is_zero and lie_derivative(ant, q).is_zero
        assert span_equal(full, both)


# ---------------------------------------------------------------------------
# Jordan-Chevalley helpers
# ---------------------------------------------------------------------------


def test_jordan_split_examples():
    a = mat([[0, 1], [0, 0]])
    assert jordan_split(a) == (zeros(2, 2), a)

    d = mat([[1, 0], [0, 2]])
    assert jordan_split(d) == (d, zeros(2, 2))

    j = mat([[2, 1], [0, 2]])
    assert jordan_split(j) == (mat([[2, 0], [0, 2]]), mat([[0, 1], [0, 0]]))


def test_jordan_split_rejects_non_jordan():
    with pytest.raises(ValueError):
        jordan_split(mat([[0, 0], [1, 0]]))  # lower-triangular nilpotent part


def test_validate_split_examples():
    d = mat([[1, 0], [0, 2]])
    assert validate_split(d, d, zeros(2, 2)).ok

    n = mat([[0, 1], [0, 0]])
    report = validate_split(n, n, zeros(2, 2))
    assert not report.ok
    assert not report.semisimple_ok

    a = mat([[1, 1], [0, 1]])
    assert validate_split(a, identity(2), n).ok


@pytest.mark.parametrize(
    "a_n, nilpotent",
    [
        ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], True),
        ([[0, 0, 0], [5, 0, 0], [0, 0, 0]], True),
        ([[1, 0, 0], [0, -1, 0], [0, 0, 0]], False),  # det(tI - A_n) = t^3 - t
        ([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], False),  # t^3 + t
        ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], False),  # t^3 - t^2
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], False),  # t^3 - 1
    ],
)
def test_nilpotency_needs_every_lower_coefficient_of_the_charpoly_zero(a_n, nilpotent):
    # A_s = 2I commutes with any A_n.  Each non-nilpotent A_n has some
    # lower coefficients zero (det and trace, det and the t coefficient,
    # or, for the 3-cycle, every one but det), so no one of them decides
    a_s, a_n = mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), mat(a_n)
    report = validate_split(mat([[x + y for x, y in zip(r, t)] for r, t in zip(a_s, a_n)]), a_s, a_n)
    assert report.sum_ok and report.commute_ok and report.semisimple_ok
    assert report.nilpotent_ok is nilpotent


def test_validate_split_failure_modes():
    d = mat([[1, 0], [0, 2]])
    assert not validate_split(d, d, identity(2)).sum_ok
    bad_commute = validate_split(
        mat([[1, 1], [0, 2]]), mat([[1, 0], [0, 2]]), mat([[0, 1], [0, 0]])
    )
    assert not bad_commute.commute_ok
