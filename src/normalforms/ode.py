"""Degree-by-degree normalization of x' = A x + f(x) near the origin.

Coordinate changes are time-1 flows of homogeneous polynomial generators.
Pushing the field through such a flow is the Lie series

    g = sum_j (ad_xi)^j F / j!,      ad_xi h = Dh.xi - Dxi.h,

which terminates at any fixed truncation order because ad_xi raises the
degree by deg(xi) - 1 >= 1.  At degree k the new term is
g^[k] = f^[k] - L_A xi^[k], so solving the homological equation against the
orthogonal splitting leaves exactly the ker(L_{A^t}) component.

Every report carries machine-checkable certificates: the residual of the
homological equation, kernel membership of each normal form term,
equivariance under the semisimple/nilpotent parts when a Jordan-Chevalley
split is available, and conjugacy residuals computed along two independent
routes (re-applied Lie series, and the flow-map composition identity
DPhi(y).g(y) = f(Phi(y))).

Every Lie series here is one call to ``polyalg.lie_transform``, whose
module docstring describes the packed integer engine.  It takes a sequence
of generators, so each composite flow is one call: ``pushforward_ode``
re-applies a whole log to f, and ``flow_map`` builds the whole
transformation Phi, chained as Lie transforms (Deprit 1969).

The flow route stays outside the engine.  Its right-hand side
(A + f)(Phi(y)) is one direct truncated composition, ``compose_truncated``,
and ``polyalg.flow_identity_defect`` forms its left-hand side
DPhi(y).(Ay + g(y)) with the derivation step alone and subtracts the two.
Computed by the engine, it would become a second Lie-series computation,
and the two conjugacy routes would no longer witness each other
independently.

The pushforward and both routes take a linear part A with r <= N rows:
f and g map R^N to R^r, generators and Phi act on R^N, and the last N - r
rows of the field are zero (r = N for an ODE, r = n for a control system,
whose generators are the elements of the skew space S^k as fields on
R^{n+m}).  The bracket differentiates the first r rows of a generator
against the r rows of the field, so ``_check_generator`` rejects a
generator whose first r rows read a variable past r: for a control
system, a state change that reads an input.

``normalize_ode`` and ``control.normalize_control`` share one degree loop,
``_normalize_degrees``; each passes its own solve-and-certify step and its
own pushforward.  Both return one report record, ``NormalFormReport``, with
one certificate record, ``DegreeCertificate``, per degree, and one log
record, ``TransformationLog``, and both steps certify minimality with the
same check, ``GradedSlice.is_minimal``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .homological import (
    CertificateError,
    GradedSlice,
    homological_slice,
    jordan_split,
    lie_derivative,
)
from .polyalg import (
    HomPolyMap,
    PolySeries,
    compose_truncated,
    flow_identity_defect,
    lie_transform,
)
from .ratmat import Matrix, identity, mat, transpose

MatrixPair = Tuple[Matrix, Matrix]


# ---------------------------------------------------------------------------
# Lie series machinery
# ---------------------------------------------------------------------------


def _shape(a: Matrix) -> Tuple[int, int]:
    """(r, N) of a linear part with r <= N rows, the field's non-zero rows."""
    if not a or len(a) > len(a[0]):
        raise ValueError("linear part must have at least one row and no more rows than columns")
    return len(a), len(a[0])


def _check_generator(xi: HomPolyMap, n: int, r: int):
    """A generator on R^n of degree >= 2 whose first r rows read only the
    first r variables: the rows the bracket differentiates against the
    r rows of the field."""
    if xi.dim_in != n or xi.dim_out != n:
        raise ValueError("generator must be a square map of the system dimension")
    if xi.degree < 2:
        raise ValueError("generator must have degree at least 2")
    if any(any(mi[r:]) for c in xi.components[:r] for mi in c.terms):
        raise ValueError(f"the first {r} rows of a generator must read only the first {r} variables")


def pushforward_ode(a: Matrix, f: PolySeries, generators: Sequence[HomPolyMap], order: int) -> PolySeries:
    """Field of x' = Ax + f(x) in the coordinates x = Phi_1 o ... o Phi_K(y),
    truncated, for Phi_i the time-1 flow of the i-th generator.

    The linear part is unchanged (ad_xi only produces degrees >= deg(xi)),
    so only degrees 2..order are returned.  The generators act in the order
    given, in one ``lie_transform`` call.
    """
    a = mat(a)
    r, n = _shape(a)
    for xi in generators:
        _check_generator(xi, n, r)
    if f.dim_in != n or f.dim_out != r:
        raise ValueError("nonlinear terms must map the system's variables to the rows of A")
    return PolySeries(n, r, order, lie_transform(a, f.terms, [xi.components for xi in generators], r, order))


def flow_map(generators: Sequence[HomPolyMap], order: int) -> PolySeries:
    """Phi_1 o ... o Phi_K as a near-identity map, truncated, for Phi_i the
    time-1 flow of the i-th of one or more generators.

    By F o Phi_xi = exp(L_xi) F with L_xi F = DF.xi,
    Phi = exp(L_xiK) ... exp(L_xi1) id: Lie transforms of the identity,
    chained in one ``lie_transform`` call.  The identity linear part is
    implied by the PolySeries convention.
    """
    if not generators:
        raise ValueError("a flow map needs at least one generator")
    n = generators[0].dim_out
    for xi in generators:
        _check_generator(xi, n, n)
    return PolySeries(n, n, order, lie_transform(identity(n), {}, [xi.components for xi in generators], 0, order))


# ---------------------------------------------------------------------------
# homological equation
# ---------------------------------------------------------------------------


def solve_homological(
    a: Matrix, fk: HomPolyMap, graded: GradedSlice
) -> Tuple[HomPolyMap, HomPolyMap]:
    """Split f_k = L_A xi + r with r in ker(L_{A^t}) and xi minimal.

    Returns (xi, r).  The generator xi is the unique solution orthogonal to
    ker(L_A), making the whole computation deterministic.  Both defining
    identities are re-verified exactly before returning.  ``graded`` is the
    slice of L_A at the degree of f_k (``homological_slice(a, k)``).
    """
    a = mat(a)
    n = len(a)
    if fk.dim_in != n or fk.dim_out != n or fk.degree < 2:
        raise ValueError("homological equation needs a square map of degree >= 2")
    xi, residual, removable = graded.split_term(fk)

    if lie_derivative(a, xi) != removable:
        raise CertificateError("homological solve failed verification: L_A xi != f_k - r")
    if not lie_derivative(transpose(a), residual).is_zero:
        raise CertificateError("homological solve failed verification: r not in ker L_{A^t}")
    return xi, residual


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class TransformationLog(NamedTuple):
    """Nonzero flow generators applied during normalization, by degree, as
    fields on R^dim: R^n for an ODE, R^{n+m} for a control system."""

    dim: int
    order: int
    generators: Tuple[Tuple[int, HomPolyMap], ...]

    def transformation(self) -> PolySeries:
        """Composite near-identity map Phi with x = Phi(y).

        Generators act in increasing degree, so Phi is the composition
        Phi_{xi_2} o Phi_{xi_3} o ... truncated at the log's order: one
        ``flow_map`` of the whole log, with no substitution; it checks every
        generator against the first, whose dimension is the log's.
        """
        if not self.generators:
            return PolySeries.zero(self.dim, self.dim, self.order)
        if self.generators[0][1].dim_out != self.dim:
            raise ValueError("generator must be a square map of the system dimension")
        return flow_map([g for _, g in self.generators], self.order)


class DegreeCertificate(NamedTuple):
    """Exact per-degree checks backing one normalization step, of either kind.

    L is L_A on an ODE and the control operator on S^k for a control system.
    """

    degree: int
    space_dim: int  # dim H^k
    skew_dim: int  # dim of the generator space: space_dim for an ODE, dim S^k
    range_dim: int
    kernel_dim: int  # dim ker L*, the complement
    homological_ok: bool  # L xi_k = f_k - g_k at this degree
    kernel_ok: bool  # g_k in ker L*
    minimal_ok: bool  # xi_k orthogonal to ker L in the Gram inner product
    semisimple_ok: Optional[bool] = None  # L_{A_s^t} g_k = 0 (None without a split)
    nilpotent_ok: Optional[bool] = None  # L_{A_n^t} g_k = 0 (None without a split)

    @property
    def ok(self) -> bool:
        named = [self.homological_ok, self.kernel_ok, self.minimal_ok]
        named += [v for v in (self.semisimple_ok, self.nilpotent_ok) if v is not None]
        return all(named)


class ConjugacyReport(NamedTuple):
    """Two independent conjugacy checks between x' = Ax + f and y' = Ay + g."""

    order: int
    pushforward_residuals: PolySeries  # g - (Lie-series pushforward of f)
    flow_residuals: PolySeries  # DPhi(y).(Ay + g(y)) - (A + f)(Phi(y))

    @property
    def pushforward_ok(self) -> bool:
        return self.pushforward_residuals.is_zero

    @property
    def flow_identity_ok(self) -> bool:
        return self.flow_residuals.is_zero

    @property
    def ok(self) -> bool:
        return self.pushforward_ok and self.flow_identity_ok


class NormalFormReport(NamedTuple):
    """Everything produced by normalize_ode or control.normalize_control,
    exact and re-checkable.

    ``linear_part`` is A for an ODE and the ``control.ControlLinearPart``
    (A, B) for a control system.  The log is a ``TransformationLog`` for
    both: on R^n for an ODE, and on R^{n+m} for a control system, whose
    generators are elements of S^k.  Only an ODE carries a split.
    """

    linear_part: tuple  # a Matrix, or a ControlLinearPart
    order: int
    original: PolySeries
    normal_form: PolySeries
    log: TransformationLog
    certificates: Tuple[DegreeCertificate, ...]
    conjugacy: ConjugacyReport
    split: Optional[MatrixPair] = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificates) and self.conjugacy.ok


# ---------------------------------------------------------------------------
# conjugacy verification (two routes, kept separate on purpose)
# ---------------------------------------------------------------------------


def pushforward_residuals(
    a: Matrix, f: PolySeries, log: TransformationLog, g: PolySeries, order: int
) -> PolySeries:
    """g minus the field obtained by re-applying every logged flow to f,
    all in one ``pushforward_ode`` call."""
    current = pushforward_ode(a, f, [gen for _, gen in log.generators], order)
    diff = {
        k: g.term(k) - current.term(k)
        for k in range(2, order + 1)
        if g.term(k) != current.term(k)
    }
    return PolySeries(f.dim_in, f.dim_out, order, diff)


def flow_conjugacy_residuals(
    a: Matrix, f: PolySeries, phi: PolySeries, g: PolySeries, order: int
) -> PolySeries:
    """Defect of DPhi(y).(Ay + g(y)) = (A + f)(Phi(y)), degree by degree.

    This route never touches the Lie series: Phi is differentiated and
    composed directly, so it independently witnesses the conjugacy.  Only
    the first r rows of Phi meet the field, given its N - r zero rows back.
    """
    a = mat(a)
    r, n = _shape(a)
    if phi.dim_in != n or phi.dim_out != n:
        raise ValueError("phi must be a square near-identity map of the system dimension")

    composed = compose_truncated(a, f.truncate(order), phi, order)
    defect = flow_identity_defect(a, phi, g, composed, order)
    if 1 in defect:
        raise CertificateError("conjugacy check broke at the linear level; internal error")
    return PolySeries(n, r, order, defect)


def verify_conjugacy(
    a: Matrix, f: PolySeries, log: TransformationLog, g: PolySeries, order: int
) -> ConjugacyReport:
    """Run both conjugacy routes and report their residuals separately."""
    push = pushforward_residuals(a, f, log, g, order)
    phi = log.transformation()
    flow = flow_conjugacy_residuals(a, f, phi, g, order)
    return ConjugacyReport(order=order, pushforward_residuals=push, flow_residuals=flow)


# ---------------------------------------------------------------------------
# the normalizer
# ---------------------------------------------------------------------------


def resolve_split(a: Matrix, split: Optional[MatrixPair]) -> Optional[MatrixPair]:
    """Split to use for equivariance checks: the supplied one (validated) or,
    when A is already in Jordan form, the derived one; None otherwise."""
    if split is not None:
        from .spectral import validate_split

        a_s, a_n = mat(split[0]), mat(split[1])
        report = validate_split(a, a_s, a_n)
        if not report.ok:
            raise ValueError(
                "supplied semisimple/nilpotent split is invalid: "
                + "; ".join(report.failures())
            )
        return a_s, a_n
    try:
        return jordan_split(a)
    except ValueError:
        return None


def split_equivariance(split: MatrixPair, g: HomPolyMap) -> Tuple[bool, bool]:
    """(L_{A_s^t} g = 0, L_{A_n^t} g = 0): whether a normal form term is
    equivariant under each part of the split (A_s, A_n)."""
    a_s, a_n = split
    return lie_derivative(transpose(a_s), g).is_zero, lie_derivative(transpose(a_n), g).is_zero


def _certificate(
    graded: GradedSlice,
    degree: int,
    generator: HomPolyMap,
    homological_ok: bool,
    kernel_ok: bool,
    semisimple_ok: Optional[bool] = None,
    nilpotent_ok: Optional[bool] = None,
) -> DegreeCertificate:
    """The certificate of one step of either kind: the slice's dimensions
    and its minimality check on the generator, next to the step's own
    checks."""
    space_dim, range_dim, kernel_dim = graded.dimensions
    return DegreeCertificate(
        degree=degree,
        space_dim=space_dim,
        skew_dim=len(graded.domain_keys),
        range_dim=range_dim,
        kernel_dim=kernel_dim,
        homological_ok=homological_ok,
        kernel_ok=kernel_ok,
        minimal_ok=graded.is_minimal(generator),
        semisimple_ok=semisimple_ok,
        nilpotent_ok=nilpotent_ok,
    )


def _normalize_degrees(
    series: PolySeries,
    order: int,
    step: Callable[[int, HomPolyMap], tuple],
    push: Callable[[PolySeries, object], PolySeries],
) -> Tuple[PolySeries, tuple, tuple]:
    """The degree loop ``normalize_ode`` and ``control.normalize_control`` share.

    At each degree k from 2 to the order, ``step(k, f_k)`` splits the current
    term and returns (generator, residual, certificate).  A non-zero
    generator is logged and ``push(field, generator)`` carries the whole
    field through its flow.  The pushed field must keep exactly the residual
    at degree k and every certificate must hold; either failure raises.
    Returns the normal form, the generators and the certificates.
    """
    current = series.truncate(order)
    generators = []
    certificates = []
    for k in range(2, order + 1):
        gen, residual, cert = step(k, current.term(k))
        if not gen.is_zero:
            generators.append((k, gen))
            current = push(current, gen)
        if current.term(k) != residual:
            raise CertificateError(
                f"pushforward disagrees with the homological solve at degree {k}"
            )
        if not cert.ok:
            raise CertificateError(f"certificate failed at degree {k}: {cert}")
        certificates.append(cert)
    return current, tuple(generators), tuple(certificates)


def normalize_ode(
    a: Matrix, f: PolySeries, order: int, split: Optional[MatrixPair] = None
) -> NormalFormReport:
    """Inner-product normal form of x' = Ax + f(x) through the given order.

    Degree by degree: solve the homological equation, keep only the
    ker(L_{A^t}) component, and push the remaining field forward through the
    time-1 flow of the solved generator.  All certificates are exact; any
    internal inconsistency raises instead of degrading silently.
    """
    a = mat(a)
    n = len(a)
    if n == 0 or len(a[0]) != n:
        raise ValueError("linear part must be a non-empty square matrix")
    if f.dim_in != n or f.dim_out != n:
        raise ValueError("nonlinear terms must match the system dimension")
    # nothing to normalize below degree 2: report the system unchanged
    order = max(order, 1)
    resolved = resolve_split(a, split)

    def step(k: int, fk: HomPolyMap):
        graded = homological_slice(a, k)
        xi, residual = solve_homological(a, fk, graded)
        semisimple_ok = nilpotent_ok = None
        if resolved is not None:
            semisimple_ok, nilpotent_ok = split_equivariance(resolved, residual)
        # solve_homological checked both identities and raised otherwise
        cert = _certificate(graded, k, xi, True, True, semisimple_ok, nilpotent_ok)
        return xi, residual, cert

    def push(field: PolySeries, xi: HomPolyMap) -> PolySeries:
        return pushforward_ode(a, field, [xi], order)

    current, generators, certificates = _normalize_degrees(f, order, step, push)
    log = TransformationLog(dim=n, order=order, generators=generators)
    conjugacy = verify_conjugacy(a, f, log, current, order)
    if not conjugacy.ok:
        raise CertificateError("conjugacy verification failed after normalization")

    return NormalFormReport(
        linear_part=a,
        order=order,
        original=f.truncate(order),
        normal_form=current,
        log=log,
        certificates=certificates,
        conjugacy=conjugacy,
        split=resolved,
    )
