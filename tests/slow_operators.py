"""Operator matrices built through polynomial arithmetic, kept as a test oracle.

These are the builders ``homological_matrix``, ``control_matrix``,
``control_adjoint_matrix`` and ``pde_kernel`` used before their columns
were written down from exponent arithmetic: every basis element is pushed
through the operator as a polynomial map (``lie_derivative``,
``control_homological``, the closed-form adjoint through
``normal_form_defect`` and ``input_pairing``, ``pde_defect``) and read back
in coordinates with ``map_coords``.  The fast builders must give the same
entries.
"""

from __future__ import annotations

from normalforms.control import (
    ControlLinearPart,
    SkewGenerator,
    control_homological,
    input_pairing,
    normal_form_defect,
    pde_defect,
    skew_basis,
    skew_coords,
)
from normalforms.homological import _square, lie_derivative
from normalforms.polyalg import HomPoly, HomPolyMap, map_coords, monomial_basis, vf_basis
from normalforms.ratmat import Matrix, mat


def homological_matrix(a: Matrix, degree: int) -> Matrix:
    """Entries of L_A on degree-k maps, one lie_derivative per column."""
    a = _square(a)
    n = len(a)
    basis = vf_basis(n, n, degree)
    columns = [map_coords(lie_derivative(a, b)) for b in basis]
    dim = len(basis)
    return tuple(tuple(columns[j][i] for j in range(dim)) for i in range(dim))


def control_matrix(lin: ControlLinearPart, degree: int) -> Matrix:
    """Entries of the control homological operator, skew basis -> H^k basis."""
    n, m = lin.n, lin.m
    columns = [map_coords(control_homological(lin, p)) for p in skew_basis(n, m, degree)]
    rows = n * len(monomial_basis(n + m, degree))
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
        p_u = -input_pairing(lin, q)
        direct_cols.append(skew_coords(SkewGenerator(p_x, p_u)))
    size = len(direct_cols[0])
    return tuple(tuple(col[s] for col in direct_cols) for s in range(size))


def pde_defect_matrix(field: HomPolyMap, coupling: Matrix, degree: int) -> Matrix:
    """Entries of q -> Dq . field - coupling . q, whose kernel pde_kernel spans."""
    coupling = mat(coupling)
    basis = vf_basis(field.dim_in, len(coupling), degree)
    columns = [map_coords(pde_defect(field, coupling, b)) for b in basis]
    dim = len(columns[0])
    return tuple(tuple(col[i] for col in columns) for i in range(dim))
