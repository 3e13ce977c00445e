"""Inner-product normal forms of x' = Ax + f(x), written from the definitions
with sympy alone, as an oracle that shares no code with ``normalforms``.

A degree-k map is a list of sympy expressions in the variables ``xs``, one
per component.  Everything is built from the definitions:

* the linear defect Dq.(Mx) - Cq by ``diff``; L_A is M = C = A, and the
  control characteristic derivative is M = (A^t x, B^t x), C = A^t;
* the Fischer product <p, q> = sum_m m! p_m q_m, as a diagonal Gram matrix
  over the monomial maps x^m e_j;
* the normal form term g_k, the projection of f_k onto ker L_{A^t};
* the generator xi_k, the solution of L_A xi = f_k - g_k orthogonal to
  ker L_A;
* the new field, the time-1 Lie series sum_j ad_xi^j F / j! with
  ad_xi h = Dh.xi - Dxi.h, truncated at the order.

The only imports are sympy and the standard library.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial, prod
from typing import Dict, List, Sequence, Tuple

import sympy as sp

Field = List[sp.Expr]


def variables(n: int) -> Tuple[sp.Symbol, ...]:
    return sp.symbols(f"x0:{n}")


def exponents(n: int, k: int) -> List[Tuple[int, ...]]:
    """Every exponent tuple of n variables and total degree k."""
    out = []
    for combo in combinations_with_replacement(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def basis(xs, dim_out: int, k: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """The monomial maps x^e e_j of degree k, as (j, e)."""
    return [(j, e) for j in range(dim_out) for e in exponents(len(xs), k)]


def monomial(xs, e) -> sp.Expr:
    return prod((x**p for x, p in zip(xs, e)), start=sp.Integer(1))


def coords(field: Field, xs, k: int) -> sp.Matrix:
    """Coefficients of a degree-k map on ``basis``."""
    coeffs = [sp.Poly(c, *xs).as_dict() for c in field]
    return sp.Matrix([coeffs[j].get(e, 0) for j, e in basis(xs, len(field), k)])


def from_coords(v, xs, dim_out: int, k: int) -> Field:
    field = [sp.Integer(0)] * dim_out
    for c, (j, e) in zip(v, basis(xs, dim_out, k)):
        field[j] += c * monomial(xs, e)
    return field


def jacobian_times(h: Field, v: Field, xs) -> Field:
    """Dh . v."""
    return [sp.expand(sum((sp.diff(hi, x) * vj for x, vj in zip(xs, v)), sp.Integer(0))) for hi in h]


def pde_defect(m, c, q: Field, xs) -> Field:
    """Dq . (Mx) - Cq, for M of the size of xs and C of the size of q."""
    mx = list(sp.Matrix(m) * sp.Matrix(xs))
    cq = list(sp.Matrix(c) * sp.Matrix(q))
    return [sp.expand(d - e) for d, e in zip(jacobian_times(q, mx, xs), cq)]


def lie_derivative(a, f: Field, xs) -> Field:
    """L_A f = Df . Ax - Af."""
    return pde_defect(a, a, f, xs)


def characteristic_derivative(a, b, q: Field, xs) -> Field:
    """Dq . (A^t x, B^t x) - A^t q, with xs the n states followed by the m inputs."""
    a, b = sp.Matrix(a), sp.Matrix(b)
    n, m = b.shape
    field = sp.Matrix.vstack(sp.Matrix.hstack(a.T, sp.zeros(n, m)), sp.Matrix.hstack(b.T, sp.zeros(m, m)))
    return pde_defect(field, a.T, q, xs)


def operator_matrix(a, xs, k: int) -> sp.Matrix:
    """Matrix of L_A on the degree-k maps, one column per monomial map."""
    n = len(xs)
    columns = []
    for j, e in basis(xs, n, k):
        q = [monomial(xs, e) if i == j else sp.Integer(0) for i in range(n)]
        columns.append(coords(lie_derivative(a, q, xs), xs, k))
    return sp.Matrix.hstack(*columns)


def gram(xs, k: int) -> sp.Matrix:
    """The Fischer Gram matrix: m! on the diagonal."""
    return sp.diag(*[prod(factorial(p) for p in e) for _, e in basis(xs, len(xs), k)])


def project(v: sp.Matrix, span: Sequence[sp.Matrix], w: sp.Matrix) -> sp.Matrix:
    """The w-orthogonal projection of v onto the span of independent columns."""
    if not span:
        return sp.zeros(*v.shape)
    k = sp.Matrix.hstack(*span)
    return k * (k.T * w * k).solve(k.T * w * v)


def split_homogeneous(field: Field, xs, low: int, high: int) -> Dict[int, Field]:
    """The homogeneous layers of degrees low..high of a polynomial field."""
    layers = {d: [sp.Integer(0)] * len(field) for d in range(low, high + 1)}
    for i, c in enumerate(field):
        for e, cf in sp.Poly(c, *xs).terms():
            if low <= sum(e) <= high:
                layers[sum(e)][i] += cf * monomial(xs, e)
    return layers


def pushforward(a, layers: Dict[int, Field], xi: Field, order: int, xs) -> Dict[int, Field]:
    """Layers 2..order of sum_j ad_xi^j F / j!, F = Ax + sum of the layers."""
    ax = list(sp.Matrix(a) * sp.Matrix(xs))
    field = [sp.expand(c + sum((layer[i] for layer in layers.values()), sp.Integer(0))) for i, c in enumerate(ax)]
    total, term = field, field
    for j in range(1, order + 1):
        ad = [d - e for d, e in zip(jacobian_times(term, xi, xs), jacobian_times(xi, term, xs))]
        cut = split_homogeneous([sp.expand(c / j) for c in ad], xs, 1, order)
        term = [sum((layer[i] for layer in cut.values()), sp.Integer(0)) for i in range(len(xs))]
        total = [sp.expand(s + t) for s, t in zip(total, term)]
    return split_homogeneous(total, xs, 2, order)


def normalize(a, layers: Dict[int, Field], order: int, xs) -> Tuple[Dict[int, Field], Dict[int, Field]]:
    """The normal form layers g_k and the generators xi_k for k = 2..order."""
    a = sp.Matrix(a)
    n = len(xs)
    current = {k: list(layers.get(k, [sp.Integer(0)] * n)) for k in range(2, order + 1)}
    normal, generators = {}, {}
    for k in range(2, order + 1):
        f = coords(current[k], xs, k)
        lmat, w = operator_matrix(a, xs, k), gram(xs, k)
        g = project(f, operator_matrix(a.T, xs, k).nullspace(), w)
        solution, params = lmat.gauss_jordan_solve(f - g)
        particular = solution.subs({p: 0 for p in params})
        xi = particular - project(particular, lmat.nullspace(), w)
        normal[k] = from_coords(g, xs, n, k)
        generators[k] = from_coords(xi, xs, n, k)
        if any(xi):
            current = pushforward(a, current, generators[k], order, xs)
        if coords(current[k], xs, k) != g:
            raise AssertionError(f"the Lie series does not leave g_k at degree {k}")
    return normal, generators
