"""Normal forms for control systems x' = Ax + Bu + f(x, u) near the origin.

A control system is the case F = (A B), ``ControlLinearPart.aug``, of the
one operator of `homological`, and the functions here are calls on it.

Transformations live in the skew space S^k.  An element is one vector
field p = (p_x, p_u) on R^{n+m}, a `HomPolyMap` like an ODE generator,
whose first n rows p_x read only the states (a u-dependent state change
would drag derivatives of the input into the dynamics) while the feedback
rows p_u may read states and inputs.  Its layout is
`polyalg.skew_keys(n, m, k)`: the p_x block, its exponents padded with m
zeros, then the p_u block, each in `polyalg.map_keys` order.

Pushforwards use the control bracket ad_P g = Dg . P - D_x p_x . g, the
first n rows of the augmented bracket Dh.P - DP.h, which never read an
input row of h because p_x depends on x alone: the bracket of
`ode.pushforward_ode` on (A B), whose `ode._check_generator` checks that
the first n rows of p read only the states.
"""
from __future__ import annotations

from typing import NamedTuple

from . import ode as _ode
from .homological import GradedSlice, adjoint_matrix, homological_matrix, linear_field
from .polyalg import HomPolyMap, PolySeries, map_keys, skew_keys
from .ratmat import Matrix, mat, transpose


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class _ControlLinearPart(NamedTuple):
    a: Matrix
    b: Matrix


class ControlLinearPart(_ControlLinearPart):
    """Linear data (A, B) of a control system; exposes F = (A B) as ``aug``."""

    __slots__ = ()

    def __new__(cls, a: Matrix, b: Matrix):
        a = mat(a)
        b = mat(b)
        n = len(a)
        if n == 0 or len(a[0]) != n:
            raise ValueError("A must be a non-empty square matrix")
        if len(b) != n or not b[0]:
            raise ValueError("B must have the same number of rows as A and at least one column")
        return super().__new__(cls, a, b)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b[0])

    @property
    def aug(self) -> Matrix:
        """(A B) as an n x (n+m) matrix."""
        return tuple(ra + rb for ra, rb in zip(self.a, self.b))


class _ControlSystem(NamedTuple):
    lin: ControlLinearPart
    nonlinear: PolySeries


class ControlSystem(_ControlSystem):
    """x' = Ax + Bu + nonlinear(x, u), the nonlinear part graded by degree."""

    __slots__ = ()

    def __new__(cls, lin: ControlLinearPart, nonlinear: PolySeries):
        if nonlinear.dim_in != lin.n + lin.m:
            raise ValueError("nonlinear terms must be functions of the states and inputs")
        if nonlinear.dim_out != lin.n:
            raise ValueError("nonlinear terms must target the state equations")
        return super().__new__(cls, lin, nonlinear)


# ---------------------------------------------------------------------------
# the control homological operator: L_F for F = (A B)
# ---------------------------------------------------------------------------


def control_matrix(lin: ControlLinearPart, degree: int) -> Matrix:
    """Matrix of the control homological operator, S^k -> H^k: L_F for
    F = (A B)."""
    return homological_matrix(lin.aug, degree)


def control_adjoint_matrix(lin: ControlLinearPart, degree: int) -> Matrix:
    """Matrix of the closed-form Gram adjoint of the control homological
    operator, H^k -> S^k, q -> ((Dq.(A^tx, B^tx) - A^tq)|_{u=0} restricted
    to x, -B^t q): L_F* for F = (A B)."""
    return adjoint_matrix(lin.aug, degree)


def characteristic_field(lin: ControlLinearPart) -> Matrix:
    """The matrix A0^t of the linear field (A^t x, B^t x) on R^{n+m}
    driving the adjoint PDE, for A0 = [[A, B], [0, 0]] the linear field of
    F = (A B)."""
    return transpose(linear_field(lin.aug))


def control_slice(lin: ControlLinearPart, degree: int) -> GradedSlice:
    """The control homological operator at one degree, with its adjoint
    cross-checked once."""
    return GradedSlice(
        control_matrix(lin, degree),
        control_adjoint_matrix(lin, degree),
        skew_keys(lin.n, lin.m, degree),
        map_keys(lin.n + lin.m, lin.n, degree),
    )


# ---------------------------------------------------------------------------
# pushforward, conjugacy and normalization: those of F = (A B)
# ---------------------------------------------------------------------------


def pushforward_control(sys: ControlSystem, p: HomPolyMap, order: int) -> ControlSystem:
    """Transform the system by the time-1 flow of the skew field (p_x, p_u).

    The state change x = phi(z) (from p_x) never involves the inputs, and the
    feedback u = psi(z, v) is near-identity in v, so the result is again a
    control system.  Degree-k term changes by -L p; computed with the
    truncated control Lie series, `ode.pushforward_ode` on (A B), whose
    bracket Dg.P - D_x p_x.g reads the state rows p_x of P.
    """
    return ControlSystem(sys.lin, _ode.pushforward_ode(sys.lin.aug, sys.nonlinear, [p], order))


def verify_control_conjugacy(
    sys: ControlSystem, log: _ode.TransformationLog, g: PolySeries, order: int
) -> _ode.ConjugacyReport:
    """The ODE conjugacy check of the field (A B)(x, u) + f on its n rows.

    ``ode.verify_conjugacy`` runs both routes once on (A B), f, the
    embedded log and g, and its report is returned as it comes: both
    residuals have the shape of g, and a defect on either route leaves
    ``ok`` false, as it does for an ODE; a refuted claim is an error only
    in `normalize_control`.
    """
    return _ode.verify_conjugacy(sys.lin.aug, sys.nonlinear, log, g, order)


def normalize_control(sys: ControlSystem, order: int) -> _ode.NormalFormReport:
    """Degree-by-degree normal form of a control system through the order:
    the normalizer of `ode` on F = (A B).

    At each degree the term splits orthogonally against range(L); the
    leftover residual satisfies the two membership conditions (vanishing
    characteristic derivative at u = 0, vanishing B^t pairing) and the skew
    generator is the minimal-norm preimage of the removable part.  The
    report and certificate records are the ODE ones: ``linear_part`` holds
    (A, B), and the two equivariance checks are None.
    """
    lin = sys.lin
    return _ode._normalize(
        lin.aug,
        sys.nonlinear,
        order,
        lin,
        lambda k: control_slice(lin, k),
        lambda field, p, order: pushforward_control(ControlSystem(lin, field), p, order).nonlinear,
        lambda log, g, order: verify_control_conjugacy(sys, log, g, order),
    )
