"""The sparse fraction-free elimination against the dense Fraction oracle.

The reduced row echelon form of a matrix is unique, so ``ratmat.rref`` and
everything built on it (``nullspace``, ``solve``, ``solve_with_kernel``,
``rank``) must agree exactly with the dense Gauss-Jordan code in
``dense_ratmat``, whatever the shape, sparsity, sign or size of the entries.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ratmat as oracle
from normalforms.control import ControlLinearPart, control_adjoint_matrix, control_matrix
from normalforms.homological import adjoint_matrix, homological_matrix
from normalforms.ratmat import mat, nullspace, rank, rref, solve_with_kernel
from map_helpers import solve

BIG = 2**70  # entries and denominators well past 60 bits

small_ints = st.integers(min_value=-4, max_value=4)
big_ints = st.integers(min_value=-BIG, max_value=BIG)
entries = st.one_of(
    st.just(F(0)),  # weight toward sparse rows and zero rows or columns
    st.builds(F, small_ints, st.integers(min_value=1, max_value=6)),
    st.builds(F, big_ints, st.integers(min_value=1, max_value=BIG)),
)


@st.composite
def matrices(draw, element=entries, min_rows=0, max_rows=6, max_cols=7):
    nrows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    rows = [[draw(element) for _ in range(ncols)] for _ in range(nrows)]
    # rank-deficient cases: repeat a row, or add a combination of two rows
    if nrows >= 3 and draw(st.booleans()):
        c = draw(st.builds(F, small_ints, st.integers(min_value=1, max_value=3)))
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    return tuple(tuple(r) for r in rows)


def assert_matches_oracle(m):
    """rref, rank and nullspace of m (any entries) against the oracle on
    the same matrix as Fractions."""
    as_fractions = mat(m)
    red, pivots = rref(m)
    assert (red, pivots) == oracle.rref(as_fractions)
    assert all(type(x) is F for row in red for x in row)
    assert rank(m) == oracle.rank(as_fractions)
    assert nullspace(m) == oracle.nullspace(as_fractions)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_rref_rank_nullspace_match_oracle(m):
    assert_matches_oracle(m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(element=small_ints))
def test_plain_int_entries_match_oracle_on_fractions(m):
    # the oracle divides ints into floats, so it sees the Fraction matrix
    assert_matches_oracle(m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(max_cols=6), st.data())
def test_solve_matches_oracle(m, data):
    ncols = len(m[0]) if m else 0
    if data.draw(st.booleans()) and m:
        # a consistent right-hand side: m times a random vector
        x = [data.draw(entries) for _ in range(ncols)]
        b = tuple(sum((a * y for a, y in zip(row, x)), F(0)) for row in m)
    else:
        b = tuple(data.draw(entries) for _ in range(len(m)))
    assert solve(m, b) == oracle.solve(m, b)


@st.composite
def systems(draw):
    """A matrix, wide, tall or square and often rank-deficient, and a
    right-hand side that is consistent (m times a drawn vector, entries up
    to 2^70 included) or arbitrary, so often inconsistent."""
    m = draw(matrices(max_rows=7, max_cols=7))
    if m and draw(st.booleans()):
        x = [draw(entries) for _ in range(len(m[0]))]
        b = tuple(sum((a * y for a, y in zip(row, x)), F(0)) for row in m)
    else:
        b = tuple(draw(entries) for _ in range(len(m)))
    return m, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(systems())
def test_solve_with_kernel_matches_oracle_solve_and_nullspace(system):
    m, b = system
    x, kernel = solve_with_kernel(m, b)
    assert x == oracle.solve(mat(m), b)
    assert kernel == oracle.nullspace(mat(m))
    assert (x, kernel) == (solve(m, b), nullspace(m))


@pytest.mark.parametrize(
    "m, b, consistent",
    [
        (((F(1), F(2), F(3)), (F(2), F(4), F(7))), (F(1), F(2)), True),  # wide
        (((F(1), F(2)), (F(3), F(4)), (F(5), F(6))), (F(1), F(1), F(1)), True),  # tall
        (((F(1), F(2)), (F(3), F(4)), (F(5), F(6))), (F(1), F(1), F(2)), False),  # tall
        (((F(1), F(2)), (F(2), F(4))), (F(1), F(3)), False),  # rank one
        (((F(BIG, 3), F(-1, BIG)), (F(2 * BIG, 3), F(-2, BIG))), (F(BIG), F(2 * BIG)), True),
        (((F(0), F(0)),), (F(1),), False),  # zero row, non-zero right-hand side
    ],
    ids=["wide", "tall", "tall-inconsistent", "rank-one-inconsistent", "big-rank-one", "zero-row"],
)
def test_solve_with_kernel_reads_the_kernel_of_inconsistent_systems_too(m, b, consistent):
    x, kernel = solve_with_kernel(m, b)
    assert (x is not None) == consistent
    assert x == oracle.solve(m, b)
    assert kernel == oracle.nullspace(m)


@pytest.mark.parametrize(
    "m",
    [
        (),
        ((F(0),),),
        ((F(5),),),
        ((F(0), F(0), F(0)),),
        ((F(3), F(-6), F(9)),),
        ((F(0),), (F(0),), (F(7, 3),)),
        ((F(0), F(0)), (F(0), F(0))),
        ((F(0), F(2)), (F(0), F(-4))),  # zero column, rank one
        ((F(1), F(2), F(3), F(4)), (F(2), F(4), F(6), F(8))),  # wide, rank one
        ((F(-BIG), F(1, BIG)), (F(BIG + 1), F(-3)), (F(1), F(0))),
    ],
    ids=["empty", "zero-1x1", "1x1", "zero-row", "1x3", "3x1", "zero-2x2", "zero-column", "wide", "tall-big"],
)
def test_edge_shapes_match_oracle(m):
    assert_matches_oracle(m)
    b = tuple(F(i + 1) for i in range(len(m)))
    assert solve(m, b) == oracle.solve(m, b)


def random_rational(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_homological_operators_match_oracle(n, k):
    rng = random.Random(f"oracle/{n}/{k}")
    jordan = tuple(
        tuple(F(1) if i == j or j == i + 1 else F(0) for j in range(n)) for i in range(n)
    )
    dense = tuple(tuple(random_rational(rng) for _ in range(n)) for _ in range(n))
    for a in (jordan, dense):
        m = homological_matrix(a, k)
        mstar = adjoint_matrix(a, k)
        for op in (m, mstar):
            assert_matches_oracle(op)
        b = tuple(random_rational(rng) for _ in range(len(m)))
        assert solve(m, b) == oracle.solve(m, b)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (3, 1)])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_control_operators_match_oracle(n, m, k):
    rng = random.Random(f"oracle/{n}/{m}/{k}")
    a = tuple(tuple(random_rational(rng) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(random_rational(rng) for _ in range(m)) for _ in range(n))
    lin = ControlLinearPart(a, b)
    mop = control_matrix(lin, k)
    assert_matches_oracle(mop)
    assert_matches_oracle(control_adjoint_matrix(lin, k))
    rhs = tuple(random_rational(rng) for _ in range(len(mop)))
    assert solve(mop, rhs) == oracle.solve(mop, rhs)


def test_rref_matches_sympy_domain_matrix():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrices(min_rows=1))
    def check(m):
        shape = (len(m), len(m[0]))
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in m], shape, QQ)
        sym_red, sym_pivots = dm.rref()
        expected = tuple(
            tuple(F(int(q.numerator), int(q.denominator)) for q in row) for row in sym_red.to_list()
        )
        assert rref(m) == (expected, tuple(sym_pivots))

    check()
