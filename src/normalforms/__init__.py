"""Exact inner-product normal forms of ODEs and control systems near equilibria.

Everything runs over the rationals: normal forms, normalizing
transformations, and the certificates that back them (kernel membership,
conjugacy residuals along two independent routes, equivariance under a
semisimple/nilpotent split) are computed and re-checked in exact arithmetic.
No tolerances anywhere; a failed internal cross-check raises
``CertificateError`` instead of degrading.

Layers, bottom up:

- ratmat: exact rational linear algebra (RREF, nullspace, solve_with_kernel,
  charpoly, is_semisimple).
- polyalg: homogeneous polynomials, polynomial maps, graded series,
  truncated composition.
- innerprod: the factorial-weighted inner product and exact orthogonal
  projections.
- homological: the linear defect operator q -> Dq.(Mx) - Cq, of which
  L_A f = Df.Ax - Af is the (A, A) case, its Gram adjoint, and the graded
  slice of one degree: the operator and its adjoint, the range and
  complement dimensions, the complement basis ker M*, and the split of a
  term into removable part and residual.
- ode: degree-by-degree normalization of x' = Ax + f(x) via time-1 flows.
- control: the skew-transformation calculus for x' = Ax + Bu + f(x, u).
- integrals: the classification space of a control system, Brunovsky
  first integrals, and the built-in uncontrollable example.
- cli: JSON documents and the command-line verbs.
- pretty: the human-facing text of every verb.

`integrals` and `pretty` are imported only by what runs them: a name of
`integrals` resolves here on first access, so ``import normalforms`` and a
``--format json`` normalize or verify compile neither module.
"""

from .control import (
    ControlLinearPart,
    ControlSystem,
    characteristic_field,
    control_adjoint,
    control_adjoint_matrix,
    control_homological,
    control_matrix,
    normalize_control,
    pushforward_control,
    verify_control_conjugacy,
)
from .homological import (
    CertificateError,
    SplitReport,
    adjoint_matrix,
    homological_matrix,
    jordan_split,
    lie_derivative,
    pde_defect,
    validate_split,
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

_INTEGRALS = {
    "FirstIntegral",
    "UncontrollableExample",
    "brunovsky_first_integrals",
    "brunovsky_pair",
    "control_complement",
    "integral_defect",
    "uncontrollable_example",
}


def __getattr__(name):
    # PEP 562: the names of `integrals` load it on first access
    if name in _INTEGRALS:
        from . import integrals

        return getattr(integrals, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
