"""Normal forms for control systems x' = Ax + Bu + f(x, u) near the origin.

Transformations live in the skew space S^k.  An element is one vector
field p = (p_x, p_u) on R^{n+m}, a `HomPolyMap` like an ODE generator,
whose first n rows p_x read only the states (a u-dependent state change
would drag derivatives of the input into the dynamics) while the feedback
rows p_u may read states and inputs.  With the augmented linear part
A0 = [[A, B], [0, 0]] the control homological operator is

    (L p)(x, u) = Dp_x(x)(Ax + Bu) - A p_x(x) - B p_u(x, u),

the first n rows of L_{A0} p, mapping S^k into H^k, the degree-k maps
R^{n+m} -> R^n (the last m rows of L_{A0} p carry D_x p_u (Ax + Bu) and
are not zero in general).  The layout of S^k is written once, in
`skew_keys`: the p_x block, its exponents padded with m zeros, then the
p_u block, each in `polyalg.map_keys` order.  Both operator matrices
follow it; `control_slice` hands it to its `GradedSlice`, which derives
the Gram weights from it and reads and builds the fields on it; and
`control_adjoint` reads its defect on it.  With m = 0 it is
`map_keys(n, n, k)`, so the control operator and its adjoint are then L_A
and L_{A^t}.

Every operator here is a case of the linear defect operator
q -> Dq.(Mx) - Cq of `homological`, in both of its forms (`pde_defect`,
`_defect_matrix`), given by the same matrices (M, C):

* L is drive A0 and coupling (A B): `control_homological` is one
  `pde_defect` step, `control_matrix` one `_defect_matrix` call from S^k
  to H^k.
* Its Gram adjoint L* is drive A0^t and coupling (A B)^t, from H^k to S^k.
  `control_adjoint_matrix` is one `_defect_matrix` call, and
  `control_adjoint` the one step L_{A0^t}(q, 0): since
  A0^t (q, 0) = (A^t q, B^t q), its rows are
  (Dq.(A^t x, B^t x) - A^t q, -B^t q), and read on `skew_keys` they keep
  the u-free terms of the first n rows (the characteristic derivative at
  u = 0) and every term of the last m.
* The characteristic PDE is drive A0^t, the field (A^t x, B^t x) that
  `characteristic_field` returns as its matrix, and coupling A^t.

None of the matrices builds a basis or a polynomial.  Two different
"complement" spaces appear and are deliberately kept apart:

* the cokernel of `control_slice`: ker L*, the true orthogonal complement
  of range(L).  Normalization projects onto it, and membership is
  certified by `control_adjoint(lin, g_k)` being zero.
* control_complement: solutions of the full first-order PDE system
  Dq(x, u) . (A^t x, B^t x) = A^t q, the classification space generated by
  the first integrals of the characteristic field.  This is the space the
  worked examples span; it is generally NOT the orthogonal complement (its
  elements may be removable).

Pushforwards use the control bracket ad_P g = Dg . P - D_x p_x . g, the
first n rows of the augmented bracket Dh.P - DP.h, which never read an
input row of h because p_x depends on x alone.  The series is one call to
`polyalg.lie_transform` with P the field p and q its first n rows, after
`ode._check_generator` has checked that those rows read only the states.
`normalize_control` runs the degree loop of `ode` (`_normalize_degrees`)
with the skew split and its certificate as the step and
`pushforward_control` as the push, and logs the fields in an
`ode.TransformationLog` on R^{n+m}.  It returns the same records as
`ode.normalize_ode`: one `ode.NormalFormReport`, with one
`ode.DegreeCertificate` per degree whose minimality check is the shared
`GradedSlice.is_minimal`.  The conjugacy certificate is the ODE one of
the field (A B)(x, u) + f on its n rows: the claim is about the state
equations, the flows are those of the logged fields on R^{n+m}, and the
input rows, zero in the field, are never computed.  Its contract is the
ODE one too: `verify_control_conjugacy` passes the log to
`ode.verify_conjugacy` and returns its report as it comes, so a defect on
either route leaves ``ok`` false, and only `normalize_control` raises on a
refuted claim.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from . import ode as _ode
from .homological import (
    CertificateError,
    GradedSlice,
    _defect_matrix,
    _nonzero_rows,
    pde_defect,
)
from .polyalg import (
    HomPoly,
    HomPolyMap,
    MultiIndex,
    PolySeries,
    directional_derivative,
    lie_transform,
    map_coords,
    map_from_coords,
    map_keys,
)
from .ratmat import Matrix, mat, nullspace, transpose, zeros


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class _ControlLinearPart(NamedTuple):
    a: Matrix
    b: Matrix


class ControlLinearPart(_ControlLinearPart):
    """Linear data (A, B) of a control system; exposes the augmented matrices."""

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

    @property
    def aug0(self) -> Matrix:
        """[[A, B], [0, 0]] as an (n+m) x (n+m) matrix."""
        n, m = self.n, self.m
        return self.aug + zeros(m, n + m)


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


class FirstIntegral(NamedTuple):
    """Polynomial constant along a characteristic field, with its index."""

    index: int
    poly: HomPoly


# ---------------------------------------------------------------------------
# the skew space S^k
# ---------------------------------------------------------------------------


def skew_keys(n: int, m: int, degree: int) -> List[Tuple[int, MultiIndex]]:
    """(component, exponents) of each coordinate of S^k, in order: the p_x
    block (j, l padded with m zero exponents), then the p_u block (n + r, l),
    each in map_keys order.  With m = 0 it is map_keys(n, n, degree), the
    space of L_A."""
    pad = (0,) * m
    p_x = [(j, mi + pad) for j, mi in map_keys(n, n, degree)]
    return p_x + [(n + r, mi) for r, mi in map_keys(n + m, m, degree)]


# ---------------------------------------------------------------------------
# the control homological operator
# ---------------------------------------------------------------------------


def control_homological(lin: ControlLinearPart, p: HomPolyMap) -> HomPolyMap:
    """L p = Dp_x (Ax + Bu) - A p_x - B p_u, a degree-k map R^{n+m} -> R^n,
    for p = (p_x, p_u) in S^k: the defect step with drive A0 and coupling
    (A B)."""
    return pde_defect(lin.aug0, lin.aug, p)


def _operator_keys(lin: ControlLinearPart, degree: int):
    """The coordinate lists of S^k and H^k, the control operator's domain
    and codomain.  S^k starts at degree 2, so both operator builders
    reject a lower degree here."""
    if degree < 2:
        raise ValueError("transformations start at degree 2")
    return skew_keys(lin.n, lin.m, degree), map_keys(lin.n + lin.m, lin.n, degree)


def control_matrix(lin: ControlLinearPart, degree: int) -> Matrix:
    """Matrix of the control homological operator, skew_keys -> H^k:
    the defect operator with drive A0 and coupling (A B), from S^k to H^k."""
    skew, h = _operator_keys(lin, degree)
    return _defect_matrix(_nonzero_rows(lin.aug0), _nonzero_rows(transpose(lin.aug)), skew, h)


def characteristic_field(lin: ControlLinearPart) -> Matrix:
    """The matrix A0^t of the linear field (A^t x, B^t x) on R^{n+m} driving
    the adjoint PDE."""
    return transpose(lin.aug0)


def control_adjoint_matrix(lin: ControlLinearPart, degree: int) -> Matrix:
    """Matrix of the closed-form Gram adjoint of the control homological
    operator, q -> ((Dq.(A^tx, B^tx) - A^tq)|_{u=0} restricted to x, -B^t q).

    It is the defect operator with drive A0^t and coupling (A B)^t, from H^k
    to S^k: S^k indexes no u-dependent p_x term, which restricts to u = 0.
    `GradedSlice` checks it against the Gram conjugate of the operator.
    """
    skew, h = _operator_keys(lin, degree)
    # column i of (A B)^t is row i of (A B)
    return _defect_matrix(_nonzero_rows(transpose(lin.aug0)), _nonzero_rows(lin.aug), h, skew)


def control_adjoint(lin: ControlLinearPart, q: HomPolyMap) -> HomPolyMap:
    """L* q as an element of S^k, q a degree-k map R^{n+m} -> R^n: the
    polynomial form of `control_adjoint_matrix`.

    One defect step L_{A0^t}(q, 0) = (Dq.(A^t x, B^t x) - A^t q, -B^t q),
    since A0^t (q, 0) = (A^t q, B^t q), read on skew_keys: the u-free terms
    of the first n rows and every term of the last m.
    """
    n, m, k = lin.n, lin.m, q.degree
    drive = characteristic_field(lin)
    padded = HomPolyMap(q.components + (HomPoly._trusted(n + m, k, {}),) * m)
    keys = skew_keys(n, m, k)
    return map_from_coords(map_coords(pde_defect(drive, drive, padded), keys), keys)


def control_slice(lin: ControlLinearPart, degree: int) -> GradedSlice:
    """The control homological operator at one degree, with its adjoint
    cross-checked once."""
    return GradedSlice(
        control_matrix(lin, degree),
        control_adjoint_matrix(lin, degree),
        skew_keys(lin.n, lin.m, degree),
        map_keys(lin.n + lin.m, lin.n, degree),
    )


def control_complement(lin: ControlLinearPart, degree: int) -> List[HomPolyMap]:
    """Solutions of the full characteristic PDE Dq.(A^tx, B^tx) = A^t q.

    This is the classification space spanned by first-integral combinations;
    see the module docstring for how it differs from the orthogonal
    complement of range(L).
    """
    keys = map_keys(lin.n + lin.m, lin.n, degree)
    # drive (A^t x, B^t x), the rows of A0^t; coupling A^t, whose column j is row j of A
    entries = _defect_matrix(_nonzero_rows(transpose(lin.aug0)), _nonzero_rows(lin.a), keys, keys)
    return [map_from_coords(v, keys) for v in nullspace(entries)]


# ---------------------------------------------------------------------------
# pushforward along skew flows
# ---------------------------------------------------------------------------


def pushforward_control(sys: ControlSystem, p: HomPolyMap, order: int) -> ControlSystem:
    """Transform the system by the time-1 flow of the skew field (p_x, p_u).

    The state change x = phi(z) (from p_x) never involves the inputs, and the
    feedback u = psi(z, v) is near-identity in v, so the result is again a
    control system.  Degree-k term changes by -L p; computed with the
    truncated control Lie series, whose bracket Dg.P - D_x p_x.g is the
    engine's with P the embedded (p_x, p_u) and q its state rows p_x.
    """
    lin = sys.lin
    n, m = lin.n, lin.m
    _ode._check_generator(p, n + m, n)
    terms = lie_transform(lin.aug, sys.nonlinear.terms, [p.components], n, order)
    return ControlSystem(lin, PolySeries(n + m, n, order, terms))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


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
    """Degree-by-degree normal form of a control system through the order.

    At each degree the term splits orthogonally against range(L); the
    leftover residual satisfies the two membership conditions (vanishing
    characteristic derivative at u = 0, vanishing B^t pairing) and the skew
    generator is the minimal-norm preimage of the removable part.  The
    report and certificate records are the ODE ones: ``linear_part`` holds
    (A, B), and the two equivariance checks are None.
    """
    lin = sys.lin
    order = max(order, 1)

    def step(k: int, fk: HomPolyMap):
        graded = control_slice(lin, k)
        p, residual, removable = graded.split_term(fk)
        homological_ok = control_homological(lin, p) == removable
        kernel_ok = control_adjoint(lin, residual).is_zero
        return p, residual, _ode._certificate(graded, k, p, homological_ok, kernel_ok)

    def push(field: PolySeries, p: HomPolyMap) -> PolySeries:
        return pushforward_control(ControlSystem(lin, field), p, order).nonlinear

    current, generators, certificates = _ode._normalize_degrees(sys.nonlinear, order, step, push)
    log = _ode.TransformationLog(dim=lin.n + lin.m, order=order, generators=generators)
    conjugacy = verify_control_conjugacy(sys, log, current, order)
    if not conjugacy.ok:
        raise CertificateError("conjugacy verification failed after control normalization")

    return _ode.NormalFormReport(
        linear_part=lin,
        order=order,
        original=sys.nonlinear.truncate(order),
        normal_form=current,
        log=log,
        certificates=certificates,
        conjugacy=conjugacy,
    )


# ---------------------------------------------------------------------------
# worked linear parts, first integrals
# ---------------------------------------------------------------------------


def brunovsky_pair(n: int) -> ControlLinearPart:
    """Single-input controllable pair: A the upper shift, B the last unit vector."""
    if n < 1:
        raise ValueError("need at least one state")
    a = tuple(
        tuple(Fraction(1) if j == i + 1 else Fraction(0) for j in range(n))
        for i in range(n)
    )
    b = tuple((Fraction(1),) if i == n - 1 else (Fraction(0),) for i in range(n))
    return ControlLinearPart(a, b)


def integral_defect(drive: Matrix, p: HomPoly) -> HomPoly:
    """Directional derivative of p along the linear field Mx, M the square
    matrix ``drive``; zero iff p is an integral."""
    return directional_derivative(drive, [p]).components[0]


def brunovsky_first_integrals(n: int) -> List[FirstIntegral]:
    """The chain of polynomial first integrals of the shift characteristic field.

    l_1 = x_1 and, for i = 2..floor(n/2)+1,
        l_i = x_i^2/2 + sum_{k>=1} (-1)^k x_{i-k} x_{i+k}
    with x_{n+1} read as u and the sum over all index-valid k.  Every
    returned polynomial is certified by an exact zero directional
    derivative; a failure here aborts rather than returning a wrong basis.
    """
    if n < 1:
        raise ValueError("need at least one state")
    lin = brunovsky_pair(n)
    fld = characteristic_field(lin)
    nv = n + 1  # states plus the single input

    def var_sq(i: int) -> Dict[Tuple[int, ...], Fraction]:
        mi = tuple(2 if j == i else 0 for j in range(nv))
        return {mi: Fraction(1, 2)}

    def var_pair(i: int, j: int) -> Tuple[int, ...]:
        return tuple(1 if t in (i, j) else 0 for t in range(nv))

    out = [FirstIntegral(1, HomPoly.variable(nv, 0))]
    r = n // 2
    for i in range(2, r + 2):
        terms = var_sq(i - 1)
        k = 1
        while i - k >= 1 and i + k <= n + 1:
            mi = var_pair(i - k - 1, i + k - 1)
            terms[mi] = terms.get(mi, Fraction(0)) + Fraction(-1) ** k
            k += 1
        out.append(FirstIntegral(i, HomPoly(nv, 2, terms)))

    for integral in out:
        if not integral_defect(fld, integral.poly).is_zero:
            raise CertificateError(
                f"first integral l_{integral.index} failed its annihilation "
                f"certificate for n={n}"
            )
    return out


# ---------------------------------------------------------------------------
# the built-in uncontrollable example
# ---------------------------------------------------------------------------


class UncontrollableExample(NamedTuple):
    """Three-state, one-input system with an uncontrollable direction.

    States (z, x1, x2) with dynamics z' = 0, x1' = x2, x2' = u + nonlinear
    terms; z is decoupled from the input.  The characteristic field and the
    first integrals are stored exactly as worked out for this block
    structure: X = z d/dx2 + x2 d/du with integrals {z, x1, x2^2 - 2zu}.
    ``field`` is the matrix M of X = Mx on (z, x1, x2, u): its rows for x2
    and u are the unit vectors of z and x2, the others zero.  (Note X is
    written in the example's own variable labeling; it is not
    characteristic_field(lin), whose labels swap the roles of z and x1 —
    both variants are exercised by the tests.)
    """

    lin: ControlLinearPart
    variables: Tuple[str, ...]
    field: Matrix
    first_integrals: Tuple[FirstIntegral, ...]


def uncontrollable_example() -> UncontrollableExample:
    """The built-in uncontrollable fixture, integrals certified on construction."""
    a = mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    b = mat([[0], [0], [1]])
    lin = ControlLinearPart(a, b)
    nv = 4  # (z, x1, x2, u)
    # X = z d/dx2 + x2 d/du
    fld = mat([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]])

    ell3 = HomPoly(
        nv,
        2,
        {
            (0, 0, 2, 0): Fraction(1),
            (1, 0, 0, 1): Fraction(-2),
        },
    )
    integrals = (
        FirstIntegral(1, HomPoly.variable(nv, 0)),
        FirstIntegral(2, HomPoly.variable(nv, 1)),
        FirstIntegral(3, ell3),
    )
    for integral in integrals:
        if not integral_defect(fld, integral.poly).is_zero:
            raise CertificateError(
                f"uncontrollable-example integral {integral.index} failed its "
                f"annihilation certificate"
            )
    return UncontrollableExample(
        lin=lin,
        variables=("z", "x1", "x2", "u"),
        field=fld,
        first_integrals=integrals,
    )
