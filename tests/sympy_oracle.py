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

The control half does the same for x' = Ax + Bu + f(x, u), with the n
states followed by the m inputs in ``xs``:

* the skew space S^k of pairs (p_x(x), p_u(x, u)), p_x block first;
* L p = Dp_x.(Ax + Bu) - A p_x - B p_u, from S^k to the degree-k maps
  R^{n+m} -> R^n;
* the Fischer products on H^k and S^k (p_x weighted over the states);
* g_k, the projection of f_k onto the orthogonal complement of range L;
* p_k, the preimage of f_k - g_k orthogonal to ker L;
* the control Lie series with ad_P h = Dh.P - D_x p_x.h;
* the state-row flow defect DPhi_x(z).((A B)z + g(z), 0) -
  ((A B)Phi(z) + f(Phi(z))) of a transformation Phi, by substitution and
  ``diff``.

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


def unit_map(xs, dim_out: int, j: int, e) -> Field:
    """The monomial map x^e e_j."""
    return [monomial(xs, e) if i == j else sp.Integer(0) for i in range(dim_out)]


def operator_matrix(a, xs, k: int) -> sp.Matrix:
    """Matrix of L_A on the degree-k maps, one column per monomial map."""
    n = len(xs)
    columns = []
    for j, e in basis(xs, n, k):
        columns.append(coords(lie_derivative(a, unit_map(xs, n, j, e), xs), xs, k))
    return sp.Matrix.hstack(*columns)


def gram(xs, k: int, dim_out=None) -> sp.Matrix:
    """The Fischer Gram matrix of the degree-k maps to dim_out components
    (default: square): m! on the diagonal."""
    dim_out = len(xs) if dim_out is None else dim_out
    return sp.diag(*[prod(factorial(p) for p in e) for _, e in basis(xs, dim_out, k)])


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


def lie_series(linear: Field, layers: Dict[int, Field], ad, order: int, xs) -> Dict[int, Field]:
    """Layers 2..order of sum_j ad^j F / j!, F = linear + sum of the layers."""
    field = [sp.expand(c + sum((layer[i] for layer in layers.values()), sp.Integer(0))) for i, c in enumerate(linear)]
    total, term = field, field
    for j in range(1, order + 1):
        cut = split_homogeneous([sp.expand(c / j) for c in ad(term)], xs, 1, order)
        term = [sum((layer[i] for layer in cut.values()), sp.Integer(0)) for i in range(len(field))]
        total = [sp.expand(s + t) for s, t in zip(total, term)]
    return split_homogeneous(total, xs, 2, order)


def pushforward(a, layers: Dict[int, Field], xi: Field, order: int, xs) -> Dict[int, Field]:
    """Layers 2..order of sum_j ad_xi^j F / j!, F = Ax + sum of the layers."""

    def ad(h: Field) -> Field:
        return [d - e for d, e in zip(jacobian_times(h, xi, xs), jacobian_times(xi, h, xs))]

    return lie_series(list(sp.Matrix(a) * sp.Matrix(xs)), layers, ad, order, xs)


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



# ---------------------------------------------------------------------------
# control systems x' = Ax + Bu + f(x, u); xs holds the n states, then the inputs
# ---------------------------------------------------------------------------


def skew_basis(xs, n: int, k: int) -> List[Tuple[Field, Field]]:
    """The monomial pairs (p_x, p_u) spanning S^k: the p_x block, then p_u."""
    m = len(xs) - n
    states = xs[:n]
    out = [(unit_map(states, n, j, e), [sp.Integer(0)] * m) for j, e in basis(states, n, k)]
    out += [([sp.Integer(0)] * n, unit_map(xs, m, j, e)) for j, e in basis(xs, m, k)]
    return out


def skew_gram(xs, n: int, k: int) -> sp.Matrix:
    """The Fischer Gram matrix of S^k: p_x over the states, p_u over all of xs."""
    return sp.diag(gram(xs[:n], k, n), gram(xs, k, len(xs) - n))


def control_operator(a, b, xs, k: int) -> sp.Matrix:
    """Matrix of L p = Dp_x.(Ax + Bu) - A p_x - B p_u, one column per skew_basis pair."""
    a, b = sp.Matrix(a), sp.Matrix(b)
    n = a.shape[0]
    states = xs[:n]
    drive = list(a * sp.Matrix(states) + b * sp.Matrix(xs[n:]))
    columns = []
    for p_x, p_u in skew_basis(xs, n, k):
        ap, bp = list(a * sp.Matrix(p_x)), list(b * sp.Matrix(p_u))
        lp = [sp.expand(d - e - c) for d, e, c in zip(jacobian_times(p_x, drive, states), ap, bp)]
        columns.append(coords(lp, xs, k))
    return sp.Matrix.hstack(*columns)


def residual_space(a, b, xs, k: int) -> List[sp.Matrix]:
    """A basis of the orthogonal complement of range L in H^k: ker L^t W."""
    n = sp.Matrix(a).shape[0]
    return (control_operator(a, b, xs, k).T * gram(xs, k, n)).nullspace()


def control_pushforward(a, b, layers: Dict[int, Field], p_x: Field, p_u: Field, order: int, xs) -> Dict[int, Field]:
    """Layers 2..order of sum_j ad_P^j F / j!, F = Ax + Bu + sum of the layers,
    ad_P h = Dh.P - D_x p_x.h with P = (p_x, p_u)."""
    a, b = sp.Matrix(a), sp.Matrix(b)
    n = a.shape[0]
    states = xs[:n]

    def ad(h: Field) -> Field:
        return [d - e for d, e in zip(jacobian_times(h, p_x + p_u, xs), jacobian_times(p_x, h, states))]

    return lie_series(list(a * sp.Matrix(states) + b * sp.Matrix(xs[n:])), layers, ad, order, xs)


def normalize_control(a, b, layers: Dict[int, Field], order: int, xs):
    """The normal form layers g_k and the skew generators (p_x, p_u) for k = 2..order."""
    a, b = sp.Matrix(a), sp.Matrix(b)
    n, m = b.shape
    states = xs[:n]
    current = {k: list(layers.get(k, [sp.Integer(0)] * n)) for k in range(2, order + 1)}
    normal, generators = {}, {}
    for k in range(2, order + 1):
        f = coords(current[k], xs, k)
        lmat = control_operator(a, b, xs, k)
        g = project(f, residual_space(a, b, xs, k), gram(xs, k, n))
        solution, params = lmat.gauss_jordan_solve(f - g)
        particular = solution.subs({p: 0 for p in params})
        p = particular - project(particular, lmat.nullspace(), skew_gram(xs, n, k))
        nx = n * len(exponents(n, k))
        normal[k] = from_coords(g, xs, n, k)
        generators[k] = (from_coords(p[:nx], states, n, k), from_coords(p[nx:], xs, m, k))
        if any(p):
            current = control_pushforward(a, b, current, *generators[k], order, xs)
        if coords(current[k], xs, k) != g:
            raise AssertionError(f"the control Lie series does not leave g_k at degree {k}")
    return normal, generators


def control_flow_defect(a, b, f: Dict[int, Field], phi: Field, g: Dict[int, Field], order: int, xs) -> Dict[int, Field]:
    """Layers 2..order of DPhi_x(z).((A B)z + g(z), 0) - ((A B)Phi(z) + f(Phi(z))),
    z = xs and Phi_x the first n rows of the whole map Phi (identity included).

    Computed untruncated in sympy's polynomial arithmetic, then cut at the order.
    """
    ab = sp.Matrix.hstack(sp.Matrix(a), sp.Matrix(b))
    n, m = sp.Matrix(b).shape

    def poly(c) -> sp.Poly:
        return sp.Poly(c, *xs, domain=sp.QQ)

    def total(layers: Dict[int, Field]) -> List[sp.Poly]:
        return [poly(sum((layer[i] for layer in layers.values()), sp.Integer(0))) for i in range(n)]

    phi = [poly(c) for c in phi]
    zero = poly(0)
    field = [poly(c) + q for c, q in zip(ab * sp.Matrix(xs), total(g))] + [zero] * m
    lhs = [sum((p.diff(x) * v for x, v in zip(xs, field)), zero) for p in phi[:n]]
    linear = [sum((cf * q for cf, q in zip(ab.row(i), phi)), zero) for i in range(n)]
    rhs = [row + substitute(c, phi) for row, c in zip(linear, total(f))]
    defect = [
        sum((cf * monomial(xs, e) for e, cf in (left - right).terms() if sum(e) <= order), sp.Integer(0))
        for left, right in zip(lhs, rhs)
    ]
    return split_homogeneous(defect, xs, 2, order)


def substitute(p: sp.Poly, phi: List[sp.Poly]) -> sp.Poly:
    """p(Phi(z)): every variable of p replaced by its component of Phi."""
    one = phi[0].one
    return sum((prod((q**k for q, k in zip(phi, e)), start=one) * cf for e, cf in p.terms()), 0 * one)
