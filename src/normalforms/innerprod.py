"""Weighted monomial inner product on homogeneous polynomial spaces.

For scalar homogeneous polynomials p = sum_m p_m x^m and q = sum_m q_m x^m,

    <p, q> = sum_m  m! * p_m * q_m,        m! = prod_i (m_i)!

and for vector-valued maps the component inner products are summed.  With
this weighting, composition with a linear map T on one side matches
composition with T^t on the other, which is what makes the adjoint of the
homological operator computable by transposing its matrix against the Gram
diagonal.  A coordinate's weight is that of its monomial, so a layout of
keys fixes its Gram diagonal, which ``homological.GradedSlice`` derives.

All projections here are solved with exact normal equations; nothing is
orthonormalized, so every intermediate stays rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Sequence, Tuple

from . import ratmat
from .ratmat import _ZERO


def monomial_weight(mi: Sequence[int]) -> int:
    w = 1
    for e in mi:
        w *= factorial(e)
    return w


def project_coords(
    v: Sequence[Fraction],
    basis_vectors: Sequence[Sequence[Fraction]],
    weights: Sequence[int],
) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Split coordinates v = v_in + v_perp against span(basis_vectors).

    Exact normal equations under the diagonal Gram weights.  Raises if the
    claimed basis is linearly dependent (singular Gram matrix).

    Integer throughout: each basis vector is scaled to a primitive integer
    vector over its non-zeros, which spans the same line, and v to integers
    v' = dv over the lcm d of its denominators, so the Gram matrix and the
    sums of its last column, (W v')_i / d, are built over shared supports
    in ints.  The coefficients c of the solution are read over the lcm e of
    their denominators, v_in and v_perp are summed as numerators over e and
    de, and a Fraction is built only for each returned non-zero coordinate.
    """
    if not basis_vectors:
        zero = tuple(Fraction(0) for _ in v)
        return zero, tuple(v)
    rows = [ratmat.integer_row(b) for b in basis_vectors]
    weighted = [{j: weights[j] * x for j, x in row.items()} for row in rows]
    size = len(rows)
    d = lcm(*(x.denominator for x in v))
    v_num = [x.numerator * (d // x.denominator) for x in v]
    gram = [[0] * (size + 1) for _ in range(size)]
    for i, wi in enumerate(weighted):
        for j in range(i, size):
            rj = rows[j]
            if len(rj) < len(wi):
                g = sum(x * wi[idx] for idx, x in rj.items() if idx in wi)
            else:
                g = sum(x * rj[idx] for idx, x in wi.items() if idx in rj)
            gram[i][j] = gram[j][i] = g
        gram[i][size] = Fraction(sum(x * v_num[idx] for idx, x in wi.items()), d)
    red, pivots = ratmat.rref(gram)
    if pivots != tuple(range(size)):
        raise ValueError("projection subspace basis is linearly dependent")
    coeffs = [red_row[size] for red_row in red]
    e = lcm(*(c.denominator for c in coeffs))
    in_num = [0] * len(v)
    for c, row in zip(coeffs, rows):
        if c:
            c = c.numerator * (e // c.denominator)
            for idx, entry in row.items():
                in_num[idx] += c * entry
    de = d * e
    v_in = tuple(Fraction(x, e) if x else _ZERO for x in in_num)
    v_perp = tuple(Fraction(y, de) if y else _ZERO for y in (x * e - z * d for x, z in zip(v_num, in_num)))
    return v_in, v_perp
