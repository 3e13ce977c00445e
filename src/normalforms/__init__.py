"""Exact inner-product normal forms of ODEs and control systems near equilibria.

Everything runs over the rationals: normal forms, normalizing
transformations, and the certificates that back them (kernel membership,
conjugacy residuals along two independent routes, equivariance under a
semisimple/nilpotent split) are computed and re-checked in exact arithmetic.
No tolerances anywhere; a failed internal cross-check raises
``CertificateError`` instead of degrading.

Layers, bottom up:

- ratmat: exact rational linear algebra (RREF, nullspace, solve_with_kernel).
- polyalg: homogeneous polynomials, polynomial maps, graded series,
  truncated composition.
- innerprod: the factorial-weighted inner product and exact orthogonal
  projections.
- homological: the homological operator L_F p = Dp.(F-bar x) - Fp of one
  linear part F with r <= N rows, A for an ODE and (A B) for a control
  system, a case of the linear defect operator q -> Dq.(Mx) - Cq; its
  Gram adjoint, and the graded slice of one degree: the operator and its
  adjoint, the range and complement dimensions, the complement basis
  ker M*, and the split of a term into removable part and residual.
- spectral: facts from the characteristic polynomial of A: charpoly,
  is_semisimple, the check of a supplied semisimple/nilpotent split, and
  the Sylvester solve of L_A for a non-triangular A.
- ode: degree-by-degree normalization via time-1 flows, one normalizer for
  x' = Ax + f(x) and, on F = (A B), for a control system.
- control: the skew space and the control bracket of x' = Ax + Bu + f(x, u),
  each entry point one call on F = (A B).
- integrals: the classification space of a control system, Brunovsky
  first integrals, and the built-in uncontrollable example.
- cli: JSON documents and the command-line verbs.
- pretty: the human-facing text of every verb.

`integrals`, `pretty` and `spectral` are imported only by what runs them:
a name of `integrals` or `spectral` resolves here on first access, so
``import normalforms`` compiles none of the three, a ``--format json``
normalize or verify compiles neither `integrals` nor `pretty`, and it
compiles `spectral` only for a non-triangular A or a supplied split.
"""

from .control import (
    ControlLinearPart,
    ControlSystem,
    characteristic_field,
    control_adjoint_matrix,
    control_matrix,
    normalize_control,
    pushforward_control,
    verify_control_conjugacy,
)
from .homological import (
    CertificateError,
    adjoint_defect,
    adjoint_matrix,
    homological_matrix,
    jordan_split,
    lie_derivative,
    linear_field,
    pde_defect,
)
from .innerprod import (
    monomial_weight,
    project_coords,
)
from .ode import (
    ConjugacyReport,
    DegreeCertificate,
    NormalFormReport,
    TransformationLog,
    flow_conjugacy_residuals,
    flow_map,
    normalize_ode,
    pushforward_ode,
    pushforward_residuals,
    resolve_split,
    solve_homological,
    verify_conjugacy,
)
from .polyalg import (
    HomPoly,
    HomPolyMap,
    PolySeries,
    compose_truncated,
    directional_derivative,
    map_coords,
    map_from_coords,
    monomial_basis,
)

__version__ = "0.1.0"

# the names that load their module on first access
_LAZY = {
    "FirstIntegral": "integrals",
    "UncontrollableExample": "integrals",
    "brunovsky_first_integrals": "integrals",
    "brunovsky_pair": "integrals",
    "control_complement": "integrals",
    "integral_defect": "integrals",
    "uncontrollable_example": "integrals",
    "SplitReport": "spectral",
    "validate_split": "spectral",
}


def __getattr__(name):
    # PEP 562: a name of `integrals` or `spectral` loads its module on first access
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
