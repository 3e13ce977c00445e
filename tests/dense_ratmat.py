"""Dense Gauss-Jordan elimination over Fraction, kept as a test oracle.

This is the elimination ``normalforms.ratmat`` used before it became sparse
and fraction-free.  The reduced row echelon form is unique, so the two must
agree exactly on every matrix; the tests compare them.  ``mat_vec``, the
product the tests check solutions and kernels with, lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Leftmost pivot selection; rows are fully reduced (zeros above and below
    each pivot) so the result is canonical for a given row space.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        inv = prow[c]
        if inv != 1:
            for j in range(c, ncols):
                if prow[j]:
                    prow[j] /= inv
        support = [j for j in range(c, ncols) if prow[j]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                row = rows[i]
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> Tuple[Vector, ...]:
    """Deterministic kernel basis: one vector per free column, in column order."""
    if not m:
        return ()
    red, pivots = rref(m)
    ncols = len(m[0])
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """A particular solution of m x = b (free variables zero), or None."""
    if not m:
        return () if all(x == 0 for x in b) else None
    ncols = len(m[0])
    aug = tuple(row + (bi,) for row, bi in zip(m, b))
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return tuple(x)


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)
