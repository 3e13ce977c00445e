"""Operator matrices built through polynomial arithmetic, kept as a test oracle.

These are the builders ``homological_matrix``, ``control_adjoint_matrix``
and the PDE operator of ``control_complement`` used before their columns
were written down from exponent arithmetic: every basis element is pushed
through the operator as a polynomial map (``lie_derivative`` on the linear
part F, A or (A B), the closed-form adjoint through ``normal_form_defect``
and ``input_pairing``, now test helpers, ``pde_defect``) and read back in
map_keys coordinates with ``map_helpers.coords_of``.  The fast builders
must give the same entries.

``split`` and ``Splitting`` are the exact range/complement splitting the
`kernel` verb ran before it read its dimensions and complement basis off
one graded slice: ker L_{A^t} from the slice, range(L_A) and its preimages
from a separate elimination of L_A, and three checks (rank-nullity,
complement in ker L_{A^t}, orthogonality of range and complement).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from normalforms.control import ControlLinearPart
from normalforms.homological import CertificateError, _square, homological_slice, lie_derivative, pde_defect
from normalforms.polyalg import HomPoly, HomPolyMap, map_from_coords, monomial_basis, skew_keys
from normalforms.ratmat import Matrix, mat, rref, transpose
from map_helpers import (
    coords_of,
    inner_product,
    input_pairing,
    map_neg,
    normal_form_defect,
    skew_coords,
    skew_field,
    vf_basis,
)


def homological_matrix(a: Matrix, degree: int) -> Matrix:
    """Entries of L_F from S^k to H^k, for F = ``a`` with r <= N rows, one
    lie_derivative per basis field of S^k: every field at r = N."""
    a = mat(a)
    r, n = len(a), len(a[0])
    columns = [coords_of(lie_derivative(a, b)) for b in vf_basis(n, n, degree, skew_keys(r, n - r, degree))]
    rows = r * len(monomial_basis(n, degree))
    return tuple(tuple(col[i] for col in columns) for i in range(rows))


def _restrict(p: HomPoly, keep: int) -> HomPoly:
    """Drop trailing variables from p; every dropped exponent must be zero."""
    out = {}
    for mi, cf in p.terms.items():
        if any(mi[keep:]):
            raise ValueError("polynomial depends on a variable being dropped")
        out[mi[:keep]] = cf
    return HomPoly(keep, p.degree, out)


def control_adjoint_closed_form(lin: ControlLinearPart, degree: int) -> Matrix:
    """Entries of q -> ((Dq.(A^tx, B^tx) - A^tq)|_{u=0} restricted to x, -B^t q)."""
    n, m = lin.n, lin.m
    direct_cols = []
    for q in vf_basis(n + m, n, degree):
        zeroed = normal_form_defect(lin, q)
        p_x = HomPolyMap([_restrict(c, n) for c in zeroed.components])
        p_u = map_neg(input_pairing(lin, q))
        direct_cols.append(skew_coords(skew_field(p_x, p_u), n))
    size = len(direct_cols[0])
    return tuple(tuple(col[s] for col in direct_cols) for s in range(size))


def pde_defect_matrix(drive: Matrix, coupling: Matrix, degree: int) -> Matrix:
    """Entries of q -> Dq . (Mx) - coupling . q for M the square matrix
    ``drive``, whose kernel ``map_helpers.pde_kernel`` spans
    (``control_complement`` for the characteristic field)."""
    coupling = mat(coupling)
    basis = vf_basis(len(drive), len(coupling), degree)
    columns = [coords_of(pde_defect(drive, coupling, b)) for b in basis]
    dim = len(columns[0])
    return tuple(tuple(col[i] for col in columns) for i in range(dim))


class Splitting(NamedTuple):
    """Degree-k splitting H^k = range(L_A) + ker(L_{A^t}), orthogonal and exact."""

    degree: int
    range_basis: Tuple[HomPolyMap, ...]
    complement_basis: Tuple[HomPolyMap, ...]
    preimages: Tuple[HomPolyMap, ...]  # aligned with range_basis


def split(a: Matrix, degree: int) -> Splitting:
    """Exact splitting of degree-k maps into range(L_A) and ker(L_{A^t}).

    Verifies rank-nullity, kernel membership of every complement element,
    and pairwise orthogonality of range and complement before returning.
    """
    a = _square(a)
    graded = homological_slice(a, degree)
    n = len(a)
    basis = vf_basis(n, n, degree)
    complement = [map_from_coords(v, graded.codomain_keys) for v in graded.cokernel]
    _, pivots = rref(graded.matrix)
    range_basis = [lie_derivative(a, basis[j]) for j in pivots]
    preimages = [basis[j] for j in pivots]

    dim = len(basis)
    if len(range_basis) + len(complement) != dim:
        raise CertificateError(
            f"splitting failed rank-nullity at degree {degree}: "
            f"{len(range_basis)} + {len(complement)} != {dim}"
        )
    at = transpose(a)
    for c in complement:
        if not lie_derivative(at, c).is_zero:
            raise CertificateError("complement element is not killed by L_{A^t}")
    for r in range_basis:
        for c in complement:
            if inner_product(r, c) != 0:
                raise CertificateError("range and complement are not orthogonal")
    return Splitting(
        degree=degree,
        range_basis=tuple(range_basis),
        complement_basis=tuple(complement),
        preimages=tuple(preimages),
    )
