"""Exact linear algebra: elimination, kernels, the characteristic
polynomial and the semisimplicity test (`ratmat` and `spectral`)."""

import random
from fractions import Fraction as F

import pytest

from dense_ratmat import mat_vec
from normalforms.ratmat import (
    as_fraction,
    identity,
    mat,
    mat_add,
    mat_mul,
    nullspace,
    rank,
    rref,
    transpose,
    zeros,
)
from normalforms.spectral import charpoly, is_semisimple
from map_helpers import solve


def random_matrix(rng, nrows, ncols, span=3):
    return mat(
        [[F(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_as_fraction_rejects_floats():
    assert as_fraction("3/2") == F(3, 2)
    assert as_fraction(-4) == F(-4)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_rref_known_case():
    r, pivots = rref(mat([[1, 2, 3], [2, 4, 8]]))
    assert pivots == (0, 2)
    assert r == mat([[1, 2, 0], [0, 0, 1]])


def test_rref_is_idempotent_and_rank_bounded():
    rng = random.Random(7)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, pivots = rref(m)
        assert rref(r)[0] == r
        assert len(pivots) <= min(len(m), len(m[0]))


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        kernel = nullspace(m)
        assert rank(m) + len(kernel) == len(m[0])
        for v in kernel:
            assert all(x == 0 for x in mat_vec(m, v))
        # deterministic: recomputing gives the identical tuple
        assert nullspace(m) == kernel


def test_solve_consistent_and_inconsistent():
    m = mat([[1, 1], [0, 0]])
    assert solve(m, (F(2), F(0))) == (F(2), F(0))  # free variable pinned to zero
    assert solve(m, (F(0), F(1))) is None
    rng = random.Random(13)
    for _ in range(20):
        a = random_matrix(rng, 3, 4)
        x = tuple(F(rng.randint(-2, 2)) for _ in range(4))
        b = mat_vec(a, x)
        got = solve(a, b)
        assert got is not None
        assert mat_vec(a, got) == b


def horner(c, a):
    """c(A) for ascending coefficients c, by Horner's rule."""
    n = len(a)
    out = zeros(n, n)
    for ck in reversed(c):
        out = mat_add(mat_mul(out, a), tuple(tuple(ck if i == j else F(0) for j in range(n)) for i in range(n)))
    return out


def test_charpoly_companion_and_cayley_hamilton():
    # det(tI - A) for the shift block is t^n
    a = mat([[0, 1], [0, 0]])
    assert charpoly(a) == (F(0), F(0), F(1))
    assert charpoly(mat([[1, 0], [0, 2]])) == (F(2), F(-3), F(1))  # (t-1)(t-2)
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert horner(charpoly(m), m) == zeros(n, n)


@pytest.mark.parametrize(
    "rows, semisimple",
    [
        ([[0]], True),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], True),  # minimal polynomial t - 1, not (t - 1)^3
        ([[2, 1], [0, 2]], False),
        ([[0, -1], [1, 0]], True),  # eigenvalues +-i: diagonalizable over C only
        ([[1, 0], [0, 2]], True),
        ([[1, 1], [0, 2]], True),
        ([[0, 1], [0, 0]], False),
        ([[2, 0, 0], [0, 2, 1], [0, 0, 2]], False),
        ([], True),
    ],
)
def test_is_semisimple_named_cases(rows, semisimple):
    assert is_semisimple(mat(rows)) is semisimple


def _similar_to_canonical(rng, n):
    """(J, kind) with J diagonal with repeated eigenvalues, a Jordan block,
    a rotation block or nilpotent, padded with a diagonal."""
    kinds = ["diagonal", "jordan", "nilpotent"] + (["rotation"] * (n >= 2))
    kind = rng.choice(kinds)
    j = [[0] * n for _ in range(n)]
    for i in range(n):
        j[i][i] = rng.choice([-1, 0, 1, 2]) if kind != "nilpotent" else 0
    if kind == "jordan" and n >= 2:
        start = rng.randrange(n - 1)
        size = rng.randint(2, n - start)
        for i in range(start + 1, start + size):
            j[i][i] = j[start][start]
            j[i - 1][i] = 1
    elif kind == "rotation":
        a, b = rng.choice([-1, 0, 2]), rng.choice([-2, -1, 1, 3])
        j[0][0], j[0][1], j[1][0], j[1][1] = a, -b, b, a
    elif kind == "nilpotent":
        for r in range(n):
            for c in range(r + 1, n):
                j[r][c] = rng.choice([0, 0, 1, -2])
    return j, kind


def test_is_semisimple_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    kinds = set()
    verdicts = set()
    for _ in range(80):
        n = rng.randint(2, 3)
        j, kind = _similar_to_canonical(rng, n)
        while True:
            p = sympy.Matrix(n, n, lambda *_: rng.randint(-2, 2))
            if p.det() != 0:
                break
        s = p * sympy.Matrix(j) * p.inv()
        got = is_semisimple(tuple(tuple(F(int(x.p), int(x.q)) for x in s.row(r)) for r in range(n)))
        assert got is s.is_diagonalizable(), (j, p)
        kinds.add(kind)
        verdicts.add(got)
    assert kinds == {"diagonal", "jordan", "rotation", "nilpotent"} and verdicts == {True, False}


def test_transpose_and_identity_interplay():
    rng = random.Random(19)
    a = random_matrix(rng, 3, 3)
    assert transpose(transpose(a)) == a
    assert mat_mul(a, identity(3)) == a
