"""Helpers on polynomials, maps, skew generators and reports that only the
tests use.

``normalforms`` once exported these; no program path calls them.  They are
kept here as written there, so the tests that read them keep their meaning:
evaluation and partial derivatives of polynomials, the monomial bases of
map spaces and of S^k, the scalar and map inner products, a particular
solution of M x = b, the orthogonal complement of a control operator's
range, the skew coordinates, dimension and inner product, a kernel basis
expanded in vf_basis maps, the diagonal resonance oracle, substitution of
linear forms, the orthogonal projection of one map onto a span of maps, and
the kernel of a first-order PDE system along any linear field.  The
package reads and builds a map only on a layout it is handed
(``polyalg.map_coords(m, keys)``, ``map_from_coords(coords, keys)``), and a
graded slice derives its Gram weights from its keys; ``coords_of``,
``map_of``, ``map_gram_diagonal``, ``skew_gram_diagonal`` and
``skew_from_coords`` rebuild from the keys the whole-space readers and
weights the tests still want.  Methods
that once lived on a record (``HomPoly.monomial`` and ``.coeff``,
``ControlSystem.linear``, ``PolySeries.with_term``, the logs'
``generator``, ``NormalFormReport.certificate`` and
``UncontrollableExample``'s ``scalar_kernel``, ``pde_defect`` and
``complement``) are functions of that record, and so is
``HomPolyMap.from_matrix``: the package hands a linear map to the packed
step as its matrix, and only the tests still build one as polynomials.

The polynomial types once carried an algebra no verb calls: ``+``,
unary ``-`` and ``*`` on ``HomPoly`` and ``HomPolyMap``, ``PolySeries ==``
and the three ``repr``s.  They are functions here (``poly_add``,
``poly_neg``, ``poly_mul``, ``map_add``, ``map_neg``, ``map_mul``,
``series_eq``, ``poly_repr``, ``map_repr``, ``series_repr``), with the
dunders' bodies; `conftest.py` hands the ``repr``s to pytest's assertion
report.  The package keeps ``-`` and ``==``.

An element of S^k is a field on R^{n+m}, as in the package; ``skew_field``
stacks a state part and a feedback part into one, and ``skew_parts`` cuts
one back.  ``characteristic_derivative``, ``normal_form_defect``,
``input_pairing`` and ``substitute_zero`` are the two membership conditions
of the control complement as the package once checked them (the
characteristic derivative vanishes at u = 0, and B^t q = 0); the package
now checks membership with one step, ``homological.adjoint_defect``, and the
tests hold it to these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from normalforms import ratmat
from normalforms.control import ControlLinearPart, ControlSystem, characteristic_field, control_slice
from normalforms.homological import _defect_matrix, _nonzero_rows, pde_defect
from normalforms.innerprod import monomial_weight, project_coords
from normalforms.ode import DegreeCertificate
from normalforms.polyalg import (
    HomPoly,
    HomPolyMap,
    MultiIndex,
    PolySeries,
    _Packing,
    map_coords,
    map_from_coords,
    map_keys,
    monomial_basis,
    multiply,
    skew_keys,
)
from normalforms.ratmat import Matrix, Vector, as_fraction, mat, nullspace, solve_with_kernel, transpose, vec


def from_matrix(a: Matrix) -> HomPolyMap:
    """The linear map x -> A x as a degree-1 HomPolyMap; A is checked once,
    so the components go through the trusted constructor."""
    ncols = len(a[0]) if a else 0
    if ncols < 1:
        raise ValueError("need at least one variable")
    comps = []
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        terms = {}
        for j, cf in enumerate(map(as_fraction, row)):
            if cf:
                terms[tuple(1 if i == j else 0 for i in range(ncols))] = cf
        comps.append(HomPoly._trusted(ncols, 1, terms))
    return HomPolyMap(comps)


# ---------------------------------------------------------------------------
# the algebra of the polynomial types, once their dunders: the program sums
# and multiplies on packed layers, and the tests use these as an oracle's
# algebra.  Each body is the dunder's, with an operator on a moved dunder
# written as a call of its function.
# ---------------------------------------------------------------------------


def _accumulate(acc: Dict[MultiIndex, Fraction], terms: Mapping[MultiIndex, Fraction]):
    """acc += terms, in place."""
    for mi, cf in terms.items():
        if mi in acc:
            acc[mi] += cf
        else:
            acc[mi] = cf


def poly_add(self: HomPoly, other: HomPoly) -> HomPoly:
    """self + other (once ``HomPoly.__add__``)."""
    self._check_compatible(other)
    out = dict(self.terms)
    _accumulate(out, other.terms)
    return HomPoly._trusted(self.n_vars, self.degree, out)


def poly_neg(self: HomPoly) -> HomPoly:
    """-self (once ``HomPoly.__neg__``)."""
    negated = {mi: -cf for mi, cf in self.terms.items()}
    return HomPoly._trusted(self.n_vars, self.degree, negated)


def poly_mul(self: HomPoly, other) -> HomPoly:
    """self * other for a HomPoly or a rational scalar (once
    ``HomPoly.__mul__`` and ``__rmul__``)."""
    if isinstance(other, HomPoly):
        # the one-pair case of the packed product, over dp * dq
        if self.n_vars != other.n_vars:
            raise ValueError("operands live in different variable sets")
        degree = self.degree + other.degree
        pk = _Packing(self.n_vars, degree)
        ((a,), dp), ((b,), dq) = pk.layer([self]), pk.layer([other])
        nums = multiply(pk, [(self.degree, list(a.items()))], [(other.degree, list(b.items()))], degree)
        return pk.poly_map((nums, dp * dq), degree).components[0]
    c = as_fraction(other)
    scaled = {mi: c * cf for mi, cf in self.terms.items()}
    return HomPoly._trusted(self.n_vars, self.degree, scaled)


def poly_repr(self: HomPoly) -> str:
    """Once ``HomPoly.__repr__``."""
    if self.is_zero:
        return f"HomPoly<0; {self.n_vars} vars, deg {self.degree}>"
    body = " + ".join(f"{cf}*x^{mi}" for mi, cf in self.terms.items())
    return f"HomPoly<{body}>"


def map_add(self: HomPolyMap, other: HomPolyMap) -> HomPolyMap:
    """self + other (once ``HomPolyMap.__add__``)."""
    return HomPolyMap([poly_add(a, b) for a, b in zip(self.components, other.components)])


def map_neg(self: HomPolyMap) -> HomPolyMap:
    """-self (once ``HomPolyMap.__neg__``)."""
    return HomPolyMap([poly_neg(c) for c in self.components])


def map_mul(self: HomPolyMap, other) -> HomPolyMap:
    """self * other for a rational scalar (once ``HomPolyMap.__mul__`` and
    ``__rmul__``)."""
    c = as_fraction(other)
    return HomPolyMap([poly_mul(comp, c) for comp in self.components])


def map_repr(self: HomPolyMap) -> str:
    """Once ``HomPolyMap.__repr__``."""
    parts = []
    for c in self.components:
        if c.is_zero:
            parts.append("0")
        else:
            parts.append(" + ".join(f"{cf}*x^{mi}" for mi, cf in c.terms.items()))
    return f"HomPolyMap<({'; '.join(parts)}), deg {self.degree}>"


def series_eq(self: PolySeries, other) -> bool:
    """self == other (once ``PolySeries.__eq__``)."""
    return (
        isinstance(other, PolySeries)
        and self.dim_in == other.dim_in
        and self.dim_out == other.dim_out
        and self.max_degree == other.max_degree
        and self.terms == other.terms
    )


def series_repr(self: PolySeries) -> str:
    """Once ``PolySeries.__repr__``."""
    return f"PolySeries<{self.dim_in}->{self.dim_out}, degrees {self.degrees()}, N={self.max_degree}>"


def monomial(mi: Sequence[int], cf=1) -> HomPoly:
    """The homogeneous polynomial cf * x^mi."""
    mi = tuple(mi)
    return HomPoly(len(mi), sum(mi), {mi: cf})


def coeff(p: HomPoly, mi: Sequence[int]) -> Fraction:
    """The coefficient of x^mi in p, zero when p has no such term."""
    return p.terms.get(tuple(mi), Fraction(0))


def linear_control_system(lin: ControlLinearPart, max_degree: int) -> ControlSystem:
    """x' = Ax + Bu with no nonlinear terms through max_degree."""
    return ControlSystem(lin, PolySeries.zero(lin.n + lin.m, lin.n, max_degree))


def partial_derivative(p: HomPoly, var: int) -> HomPoly:
    """d p / d x_var; the degree drops by one (result degree max(k-1, 0))."""
    if not 0 <= var < p.n_vars:
        raise ValueError(f"variable index {var} out of range for {p.n_vars} variables")
    out: Dict[MultiIndex, Fraction] = {}
    for mi, cf in p.terms.items():
        e = mi[var]
        if e:
            # distinct monomials stay distinct after one exponent drops
            out[mi[:var] + (e - 1,) + mi[var + 1 :]] = cf * e
    return HomPoly._trusted(p.n_vars, max(p.degree - 1, 0), out)


def evaluate(p: HomPoly, point: Sequence) -> Fraction:
    """Exact evaluation at a rational point."""
    point = [as_fraction(x) for x in point]
    if len(point) != p.n_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {p.n_vars}")
    total = Fraction(0)
    for mi, cf in p.terms.items():
        v = cf
        for x, e in zip(point, mi):
            if e:
                v *= x**e
        total += v
    return total


def vf_basis(dim_in: int, dim_out: int, degree: int, keys=None) -> List[HomPolyMap]:
    """Monomial vector-field basis x^l e_j, in map_keys order, or in the
    order of the given (component, exponents) keys."""
    if keys is None:
        keys = map_keys(dim_in, dim_out, degree)
    # every map shares one zero component; the keys have checked the shape
    zero = HomPoly._trusted(dim_in, degree, {})
    one = Fraction(1)
    out = []
    for j, mi in keys:
        comps = [zero] * dim_out
        comps[j] = HomPoly._trusted(dim_in, degree, {mi: one})
        out.append(HomPolyMap(comps))
    return out


def with_term(series: PolySeries, k: int, t: HomPolyMap) -> PolySeries:
    new = dict(series.terms)
    if t.is_zero:
        new.pop(k, None)
    else:
        new[k] = t
    return PolySeries(series.dim_in, series.dim_out, series.max_degree, new)


def gram_diagonal(n_vars: int, degree: int) -> List[int]:
    """Gram weights m! aligned with monomial_basis(n_vars, degree)."""
    return [monomial_weight(mi) for mi in monomial_basis(n_vars, degree)]


def coords_of(q: HomPolyMap) -> List[Fraction]:
    """Coordinates of a map in the map_keys order of its own space."""
    return map_coords(q, map_keys(q.dim_in, q.dim_out, q.degree))


def map_of(dim_in: int, dim_out: int, degree: int, coords: Sequence) -> HomPolyMap:
    """The degree-k map R^dim_in -> R^dim_out with these map_keys coordinates."""
    return map_from_coords(vec(coords), map_keys(dim_in, dim_out, degree))


def map_gram_diagonal(dim_in: int, dim_out: int, degree: int) -> List[int]:
    """Gram weights aligned with map_keys(dim_in, dim_out, degree)."""
    return [monomial_weight(mi) for _, mi in map_keys(dim_in, dim_out, degree)]


def skew_gram_diagonal(n: int, m: int, degree: int) -> List[int]:
    """Gram weights of the S^k inner product, aligned with skew_keys."""
    return [monomial_weight(mi) for _, mi in skew_keys(n, m, degree)]


def skew_from_coords(n: int, m: int, degree: int, coords: Sequence[Fraction]) -> HomPolyMap:
    """The element of S^k with these coordinates, in skew_keys order: the
    field (p_x(x), p_u(x, u)) on R^{n+m}."""
    return map_from_coords(vec(coords), skew_keys(n, m, degree))


def inner_product_scalar(p: HomPoly, q: HomPoly) -> Fraction:
    if p.n_vars != q.n_vars or p.degree != q.degree:
        raise ValueError("inner product needs matching variables and degree")
    small, large = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
    total = Fraction(0)
    for mi, a in small.items():
        b = coeff(large, mi)
        if b:
            total += monomial_weight(mi) * a * b
    return total


def inner_product(p: HomPolyMap, q: HomPolyMap) -> Fraction:
    if p.dim_in != q.dim_in or p.dim_out != q.dim_out or p.degree != q.degree:
        raise ValueError("inner product needs maps of identical shape")
    return sum(
        (inner_product_scalar(a, b) for a, b in zip(p.components, q.components)),
        Fraction(0),
    )


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """A particular solution of m x = b (free variables zero), or None."""
    return solve_with_kernel(m, b)[0]


def skew_field(p_x: HomPolyMap, p_u: HomPolyMap) -> HomPolyMap:
    """The element (p_x(x), p_u(x, u)) of S^k as a field on R^{n+m}: the
    state part p_x on R^n, its exponents padded with m zeros, stacked over
    the feedback part p_u on R^{n+m}."""
    n, m = p_x.dim_in, p_u.dim_out
    if p_x.dim_out != n or p_u.dim_in != n + m or p_x.degree != p_u.degree:
        raise ValueError("p_x must be a square map of the states and p_u a map to the inputs, of one degree")
    pad = (0,) * m
    lifted = [HomPoly._trusted(n + m, c.degree, {mi + pad: cf for mi, cf in c.terms.items()}) for c in p_x.components]
    return HomPolyMap(lifted + list(p_u.components))


def skew_parts(p: HomPolyMap, n: int) -> Tuple[HomPolyMap, HomPolyMap]:
    """(p_x, p_u) of a field in S^k with n states: the first n rows with
    their exponents trimmed to the states, and the last m rows."""
    p_x = [HomPoly(n, p.degree, {mi[:n]: cf for mi, cf in c.terms.items()}) for c in p.components[:n]]
    return HomPolyMap(p_x), HomPolyMap(p.components[n:])


def skew_basis(n: int, m: int, degree: int) -> List[HomPolyMap]:
    """Monomial basis of S^k as fields on R^{n+m}: the p_x block, then the
    p_u block, in skew_keys order."""
    if n < 1 or m < 1:
        raise ValueError("need at least one state and one input")
    if degree < 2:
        raise ValueError("transformations start at degree 2")
    return vf_basis(n + m, n + m, degree, skew_keys(n, m, degree))


def residual_basis(lin: ControlLinearPart, degree: int) -> List[HomPolyMap]:
    """Basis of the orthogonal complement of range(L): ker of the adjoint."""
    graded = control_slice(lin, degree)
    return [map_from_coords(v, graded.codomain_keys) for v in graded.cokernel]


def generator(log, degree: int):
    """The generator a TransformationLog applied at one degree, or None."""
    for d, g in log.generators:
        if d == degree:
            return g
    return None


def certificate(report, degree: int) -> DegreeCertificate:
    """The DegreeCertificate of a NormalFormReport at one degree."""
    for c in report.certificates:
        if c.degree == degree:
            return c
    raise KeyError(f"no certificate at degree {degree}")


def pde_defect_matrix(field: HomPolyMap, coupling: Matrix, degree: int) -> Matrix:
    """Matrix of q -> Dq . field - coupling . q on map_keys(field.dim_in, len(coupling), degree),
    one `_defect_matrix` call on the rows the linear field is decoded into."""
    if field.degree != 1 or field.dim_in != field.dim_out:
        raise ValueError("the PDE field must be a square linear map")
    # field_p = sum_q F[p][q] x_q: each term of a linear component is c x_q
    drive = [[(mi.index(1), cf) for mi, cf in comp.terms.items()] for comp in field.components]
    keys = map_keys(field.dim_in, len(coupling), degree)
    return _defect_matrix(drive, _nonzero_rows(transpose(mat(coupling))), keys, keys)


def pde_kernel(field: HomPolyMap, coupling: Matrix, degree: int) -> List[HomPolyMap]:
    """Deterministic basis of {q : Dq . field = coupling . q identically}."""
    entries = pde_defect_matrix(field, coupling, degree)
    return [map_of(field.dim_in, len(coupling), degree, v) for v in nullspace(entries)]


def scalar_kernel(example, degree: int) -> List[HomPoly]:
    """Scalar solutions of Xp = 0 at the given degree, X the field of an
    UncontrollableExample."""
    zero = mat([[0]])
    return [
        q.component(0)
        for q in pde_kernel(from_matrix(example.field), zero, degree)
    ]


def example_pde_defect(example, q: HomPolyMap) -> HomPolyMap:
    """Defect of the example's PDE rows (Xq_1, Xq_2, Xq_3 - q_2)."""
    return pde_defect(example.field, transpose(example.lin.a), q)


def example_complement(example, degree: int) -> List[HomPolyMap]:
    """Kernel of the example's PDE system at the given degree."""
    return pde_kernel(from_matrix(example.field), transpose(example.lin.a), degree)


def skew_dim(n: int, m: int, degree: int) -> int:
    return n * len(monomial_basis(n, degree)) + m * len(monomial_basis(n + m, degree))


def skew_coords(p: HomPolyMap, n: int) -> List[Fraction]:
    """Coordinates of a field in S^k with n states, in skew_keys order."""
    return [p.components[j].terms.get(mi, Fraction(0)) for j, mi in skew_keys(n, p.dim_out - n, p.degree)]


def skew_inner_product(p: HomPolyMap, q: HomPolyMap, n: int) -> Fraction:
    """The S^k inner product of two fields with n states: the sum of the
    inner products of their state parts and of their feedback parts."""
    (p_x, p_u), (q_x, q_u) = skew_parts(p, n), skew_parts(q, n)
    return inner_product(p_x, q_x) + inner_product(p_u, q_u)


def substitute_zero(p: HomPoly, var_indices: Iterable[int]) -> HomPoly:
    """Set the listed variables to zero: drop every monomial touching them."""
    idx = set(var_indices)
    kept = {mi: cf for mi, cf in p.terms.items() if all(mi[i] == 0 for i in idx)}
    return HomPoly(p.n_vars, p.degree, kept)


def characteristic_derivative(lin: ControlLinearPart, q: HomPolyMap) -> HomPolyMap:
    """Dq . (A^t x, B^t x) - A^t q over the full (x, u) space."""
    return pde_defect(characteristic_field(lin), transpose(lin.a), q)


def normal_form_defect(lin: ControlLinearPart, fk: HomPolyMap) -> HomPolyMap:
    """Characteristic derivative of fk restricted to u = 0.

    Vanishing of this map is the zero-input half of the membership
    certificate for normal-form terms; together with B^t fk = 0 it
    characterizes the orthogonal complement of range(L).
    """
    n, m = lin.n, lin.m
    full = characteristic_derivative(lin, fk)
    u_idx = range(n, n + m)
    return HomPolyMap([substitute_zero(c, u_idx) for c in full.components])


def input_pairing(lin: ControlLinearPart, fk: HomPolyMap) -> HomPolyMap:
    """B^t fk, the input-direction half of the membership certificate."""
    bt = transpose(lin.b)
    comps = []
    for row in bt:
        acc = HomPoly.zero(fk.dim_in, fk.degree)
        for cf, c in zip(row, fk.components):
            if cf:
                acc = poly_add(acc, poly_mul(c, cf))
        comps.append(acc)
    return HomPolyMap(comps)


def kernel_basis(m: Matrix, n: int, degree: int) -> List[HomPolyMap]:
    """Deterministic kernel basis of an operator on the degree-k maps
    R^n -> R^n, expanded in vf_basis(n, n, degree)."""
    return [map_of(n, n, degree, v) for v in nullspace(m)]


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
                comps[j] = monomial(mi)
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
                acc = poly_mul(acc, forms[var])
        out = poly_add(out, poly_mul(acc, cf))
    return out


def project_orthogonal(
    v: HomPolyMap, subspace: Sequence[HomPolyMap]
) -> Tuple[HomPolyMap, HomPolyMap]:
    """Orthogonal decomposition v = v_in + v_perp with v_in in span(subspace)."""
    for s in subspace:
        if s.dim_in != v.dim_in or s.dim_out != v.dim_out or s.degree != v.degree:
            raise ValueError("subspace elements must match the shape of v")
    keys = map_keys(v.dim_in, v.dim_out, v.degree)
    weights = [monomial_weight(mi) for _, mi in keys]
    vin, vperp = project_coords(map_coords(v, keys), [map_coords(s, keys) for s in subspace], weights)
    return map_from_coords(vin, keys), map_from_coords(vperp, keys)
