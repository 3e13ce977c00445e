"""Exact linear algebra over the rationals.

Matrices are passed in and out as tuples of tuples of Fraction (plain int
entries are accepted too).  Inside ``rref`` each row is held as a sparse
primitive integer row {column: entry}: its denominators cleared by their
lcm and its content divided out.  Elimination is fraction-free, touches only
the support of the pivot row, and builds Fractions once, for the final
reduced rows.  The reduced row echelon form of a matrix is unique, so the
result is canonical whichever row ends up as the pivot of a column.  Kernel
bases enumerate free columns in ascending order, and particular solutions
set free variables to zero, so everything here is deterministic.

``solve_with_kernel`` reads both a particular solution of M x = b and a
basis of ker M off one elimination of [M | b]: the first columns of the
reduced [M | b] are the reduced M, whatever b is, because the reduced row
echelon form is unique.  ``nullspace`` and ``solve_with_kernel`` read the
kernel through one helper, ``_kernel``.

``_ZERO`` is the one shared Fraction zero: of every matrix cell an operator
assembler leaves empty, of every polynomial coefficient that is not stored,
and of every zero cell ``rref`` and the kernel read-off write.
``integer_row`` skips it by identity, without calling a Fraction method.

The characteristic polynomial, semisimplicity and the Sylvester solve, which
only a non-triangular A or a supplied split needs, are in `spectral`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]

# the shared zero: a cell or coefficient that holds it is zero, without a
# comparison
_ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce int / str / Fraction to Fraction.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int, str or Fraction), got {type(value).__name__}; "
        "floating point input is rejected, not rounded"
    )


def vec(entries: Sequence) -> Vector:
    return tuple(as_fraction(x) for x in entries)


def mat(rows: Sequence[Sequence]) -> Matrix:
    out = tuple(vec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zeros(nrows: int, ncols: int) -> Matrix:
    zero = Fraction(0)
    return tuple((zero,) * ncols for _ in range(nrows))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def integer_row(row: Sequence[Fraction]) -> Dict[int, int]:
    """The non-zeros of a rational row times the lcm of their denominators,
    divided by their content: a primitive integer row {column: entry}.
    It is a positive multiple of the row."""
    support = [(j, x) for j, x in enumerate(row) if x is not _ZERO and x]
    if not support:
        return {}
    scale = lcm(*(x.denominator for _, x in support))
    out = {j: x.numerator * (scale // x.denominator) for j, x in support}
    return _primitive(out)


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _eliminate(row: Dict[int, int], prow: Dict[int, int], c: int) -> Dict[int, int]:
    """Clear column c of row with the pivot row prow; the result is primitive.

    row <- (p/g) row - (r/g) prow with p = prow[c], r = row[c] and
    g = gcd(p, r); after the scaling only the support of prow is touched.
    """
    p, r = prow[c], row[c]
    g = gcd(p, r)
    p, r = p // g, r // g
    if p != 1:
        row = {j: x * p for j, x in row.items()}
    get = row.get
    for j, x in prow.items():
        y = get(j, 0) - r * x
        if y:
            row[j] = y
        else:
            del row[j]
    return _primitive(row) if row else row


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Fraction-free and sparse: each row becomes a primitive integer row
    {column: entry} and is inserted into the echelon form by clearing its
    leading column against the pivot row that owns that column, until it
    leads in a column no pivot row owns.  Of the two rows meeting at a
    column, the one with fewer non-zeros becomes (or stays) the pivot row,
    which keeps fill-in low.  Back-substitution from the rightmost pivot
    then clears every other pivot column.  Fractions are built once, when each
    pivot row is divided by its pivot.  The reduced row echelon form of a
    matrix is unique, so the result does not depend on which row ends up as
    the pivot of a column.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    owner: Dict[int, Dict[int, int]] = {}  # pivot column -> its pivot row
    for source in m:
        row = integer_row(source)
        while row:
            c = min(row)
            prow = owner.get(c)
            if prow is None:
                owner[c] = row
                break
            if len(row) < len(prow):
                owner[c], row, prow = row, prow, row
            row = _eliminate(row, prow, c)
    pivots = sorted(owner)
    for c in reversed(pivots):
        row = owner[c]
        for d in [d for d in row if d != c and d in owner]:
            row = _eliminate(row, owner[d], d)
        owner[c] = row
    out = []
    for c in pivots:
        row = owner[c]
        lead = row[c]
        dense = [_ZERO] * ncols
        for j, x in row.items():
            dense[j] = Fraction(x, lead)
        out.append(tuple(dense))
    out.extend((_ZERO,) * ncols for _ in range(nrows - len(pivots)))
    return tuple(out), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def _kernel(red: Matrix, pivots: Sequence[int], ncols: int) -> Tuple[Vector, ...]:
    """Kernel basis of the first ncols columns of a reduced matrix: one
    vector per free column below ncols, in column order.  A pivot in a
    column at or past ncols (an augmented right-hand side) is ignored."""
    pivot_set = set(pivots)
    pivot_rows = [(row, pc) for row, pc in zip(red, pivots) if pc < ncols]
    one = Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[fc] = one
        for row, pc in pivot_rows:
            x = row[fc]
            if x is not _ZERO:
                v[pc] = -x
        basis.append(tuple(v))
    return tuple(basis)


def nullspace(m: Matrix) -> Tuple[Vector, ...]:
    """Deterministic kernel basis: one vector per free column, in column order."""
    if not m:
        return ()
    red, pivots = rref(m)
    return _kernel(red, pivots, len(m[0]))


def solve_with_kernel(
    m: Matrix, b: Sequence[Fraction]
) -> Tuple[Optional[Vector], Tuple[Vector, ...]]:
    """A particular solution of m x = b (free variables zero) and
    ``nullspace(m)``, from one elimination of [m | b].

    The solution is None when m x = b is inconsistent; the kernel basis is
    read either way.
    """
    if not m:
        return (() if all(x == 0 for x in b) else None), ()
    ncols = len(m[0])
    red, pivots = rref(tuple(row + (bi,) for row, bi in zip(m, b)))
    kernel = _kernel(red, pivots, ncols)
    if ncols in pivots:
        return None, kernel
    x = [_ZERO] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return tuple(x), kernel
