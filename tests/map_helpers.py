"""Helpers on polynomial maps and skew generators that only the tests use.

``normalforms`` once exported these; no program path calls them.  They are
kept here as written there, so the tests that read them keep their meaning:
the skew coordinates, dimension and inner product, a kernel basis expanded
in vf_basis maps, the diagonal resonance oracle, substitution of linear
forms, and the orthogonal projection of one map onto a span of maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from normalforms import ratmat
from normalforms.control import SkewGenerator
from normalforms.innerprod import inner_product, map_gram_diagonal, project_coords
from normalforms.polyalg import HomPoly, HomPolyMap, map_coords, map_from_coords, monomial_basis, multiply
from normalforms.ratmat import Matrix, nullspace


def skew_dim(n: int, m: int, degree: int) -> int:
    return n * len(monomial_basis(n, degree)) + m * len(monomial_basis(n + m, degree))


def skew_coords(p: SkewGenerator) -> List[Fraction]:
    return list(map_coords(p.p_x)) + list(map_coords(p.p_u))


def skew_inner_product(p: SkewGenerator, q: SkewGenerator) -> Fraction:
    return inner_product(p.p_x, q.p_x) + inner_product(p.p_u, q.p_u)


def kernel_basis(m: Matrix, n: int, degree: int) -> List[HomPolyMap]:
    """Deterministic kernel basis of an operator on the degree-k maps
    R^n -> R^n, expanded in vf_basis(n, n, degree)."""
    return [map_from_coords(n, n, degree, v) for v in nullspace(m)]


def resonant_kernel_basis(eigenvalues: Sequence, degree: int) -> List[HomPolyMap]:
    """Resonance oracle for diagonal A = diag(lambda).

    x^l e_j belongs to the kernel of L_{A^t} = L_A exactly when
    <l, lambda> = lambda_j.  Enumerated in vf_basis order.
    """
    lam = [ratmat.as_fraction(x) for x in eigenvalues]
    n = len(lam)
    out = []
    for j in range(n):
        for mi in monomial_basis(n, degree):
            if sum((Fraction(e) * l for e, l in zip(mi, lam)), Fraction(0)) == lam[j]:
                comps = [HomPoly.zero(n, degree) for _ in range(n)]
                comps[j] = HomPoly.monomial(mi)
                out.append(HomPolyMap(comps))
    return out


def compose_linear(p: HomPoly, t: Matrix) -> HomPoly:
    """p(T x): substitute each variable with a linear form; degree preserved."""
    nrows = len(t)
    if nrows != p.n_vars:
        raise ValueError("matrix row count must match the variable count of p")
    ncols = len(t[0]) if nrows else 0
    forms = [
        HomPoly(ncols, 1, {tuple(1 if j == c else 0 for j in range(ncols)): t[r][c] for c in range(ncols)})
        for r in range(nrows)
    ]
    out = HomPoly.zero(ncols, p.degree)
    for mi, cf in p.terms.items():
        acc = HomPoly(ncols, 0, {(0,) * ncols: 1})
        for var, e in enumerate(mi):
            for _ in range(e):
                acc = multiply(acc, forms[var])
        out = out + cf * acc
    return out


def project_orthogonal(
    v: HomPolyMap, subspace: Sequence[HomPolyMap]
) -> Tuple[HomPolyMap, HomPolyMap]:
    """Orthogonal decomposition v = v_in + v_perp with v_in in span(subspace)."""
    for s in subspace:
        if s.dim_in != v.dim_in or s.dim_out != v.dim_out or s.degree != v.degree:
            raise ValueError("subspace elements must match the shape of v")
    weights = map_gram_diagonal(v.dim_in, v.dim_out, v.degree)
    vin, vperp = project_coords(map_coords(v), [map_coords(s) for s in subspace], weights)
    return (
        map_from_coords(v.dim_in, v.dim_out, v.degree, vin),
        map_from_coords(v.dim_in, v.dim_out, v.degree, vperp),
    )
