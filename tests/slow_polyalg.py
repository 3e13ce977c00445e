"""Validating, re-sorting polynomial arithmetic, kept as a test oracle.

This is the ``HomPoly`` arithmetic ``normalforms.polyalg`` and
``normalforms.homological.lie_derivative`` used before internal results
were built through the trusted constructor and accumulated in place, and
the recursive ``monomial_basis``, with ``pde_defect`` written from the
same primitives.  Every polynomial here is validated and
sorted on construction.  Arithmetic over the rationals is exact, so the
fast kernel must give the same terms in the same iteration order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence

from normalforms.polyalg import HomPolyMap, PolySeries
from normalforms.ratmat import as_fraction, mat


def grlex_key(mi):
    return (sum(mi), tuple(-e for e in mi))


def monomial_basis(n_vars: int, degree: int):
    """All multi-indices of the given total degree, in graded-lex order."""
    if n_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if n_vars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomial_basis(n_vars - 1, degree - e):
            out.append((e,) + rest)
    return out


def _validate_index(mi, n_vars: int, degree: int):
    mi = tuple(mi)
    if len(mi) != n_vars:
        raise ValueError(f"multi-index {mi} has {len(mi)} entries, expected {n_vars}")
    if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in mi):
        raise ValueError(f"multi-index {mi} must hold non-negative integers")
    if sum(mi) != degree:
        raise ValueError(f"multi-index {mi} has degree {sum(mi)}, expected {degree}")
    return mi


class HomPoly:
    """Homogeneous polynomial in n_vars variables, exact rational coefficients."""

    __slots__ = ("n_vars", "degree", "terms")

    def __init__(self, n_vars: int, degree: int, terms: Optional[Mapping] = None):
        if n_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.n_vars = n_vars
        self.degree = degree
        clean: Dict = {}
        if terms:
            for mi, cf in terms.items():
                mi = _validate_index(mi, n_vars, degree)
                cf = as_fraction(cf)
                if cf:
                    clean[mi] = cf
        self.terms = dict(sorted(clean.items(), key=lambda kv: grlex_key(kv[0])))

    @classmethod
    def zero(cls, n_vars: int, degree: int) -> "HomPoly":
        return cls(n_vars, degree)

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "HomPoly":
        mi = tuple(1 if i == index else 0 for i in range(n_vars))
        return cls(n_vars, 1, {mi: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return iter(self.terms.items())

    def _check_compatible(self, other: "HomPoly"):
        if self.n_vars != other.n_vars or self.degree != other.degree:
            raise ValueError("incompatible polynomials")

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for mi, cf in other.terms.items():
            out[mi] = out.get(mi, Fraction(0)) + cf
        return HomPoly(self.n_vars, self.degree, out)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.n_vars, self.degree, {mi: -cf for mi, cf in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            return multiply(self, other)
        c = as_fraction(other)
        return HomPoly(self.n_vars, self.degree, {mi: c * cf for mi, cf in self.terms.items()})

    __rmul__ = __mul__


def slow(p) -> HomPoly:
    """The same polynomial as an oracle HomPoly."""
    return HomPoly(p.n_vars, p.degree, p.terms)


def partial_derivative(p: HomPoly, var: int) -> HomPoly:
    if not 0 <= var < p.n_vars:
        raise ValueError(f"variable index {var} out of range for {p.n_vars} variables")
    new_degree = max(p.degree - 1, 0)
    out: Dict = {}
    for mi, cf in p.terms.items():
        e = mi[var]
        if e == 0:
            continue
        dm = mi[:var] + (e - 1,) + mi[var + 1 :]
        out[dm] = out.get(dm, Fraction(0)) + cf * e
    return HomPoly(p.n_vars, new_degree, out)


def multiply(p: HomPoly, q: HomPoly) -> HomPoly:
    if p.n_vars != q.n_vars:
        raise ValueError("operands live in different variable sets")
    out: Dict = {}
    for mi, a in p.terms.items():
        for mj, b in q.terms.items():
            mk = tuple(x + y for x, y in zip(mi, mj))
            out[mk] = out.get(mk, Fraction(0)) + a * b
    return HomPoly(p.n_vars, p.degree + q.degree, out)


def directional_derivative(field: Sequence[HomPoly], p: HomPoly) -> HomPoly:
    if len(field) != p.n_vars:
        raise ValueError("field must have one component per variable of p")
    fdeg = None
    for f in field:
        if not f.is_zero:
            fdeg = f.degree
            break
    if fdeg is None:
        fdeg = field[0].degree
    out = HomPoly.zero(p.n_vars, max(p.degree - 1, 0) + fdeg)
    for j, fj in enumerate(field):
        if fj.is_zero:
            continue
        pd = partial_derivative(p, j)
        if pd.is_zero:
            continue
        out = out + multiply(pd, fj)
    return out


def _graded_add(a, b):
    out = dict(a)
    for d, p in b.items():
        out[d] = out[d] + p if d in out else p
    return {d: p for d, p in out.items() if not p.is_zero}


def _graded_scale(c, a):
    return {d: c * p for d, p in a.items() if c}


def _graded_mul(a, b, order: int):
    out = {}
    for da, pa in a.items():
        for db, pb in b.items():
            d = da + db
            if d > order:
                continue
            prod = multiply(pa, pb)
            out[d] = out[d] + prod if d in out else prod
    return {d: p for d, p in out.items() if not p.is_zero}


def compose_truncated(linear, series: PolySeries, phi: PolySeries, order: int) -> PolySeries:
    """Nonlinear part of f(phi(y)) truncated at the given order."""
    a = phi.dim_out
    nrows = len(linear)

    phi_layers: List = []
    for j in range(a):
        layers = {1: HomPoly.variable(a, j)}
        for k in phi.degrees():
            comp = slow(phi.term(k).component(j))
            if not comp.is_zero:
                layers[k] = comp
        phi_layers.append(layers)

    one = {0: HomPoly(a, 0, {(0,) * a: 1})}
    powers: List[List] = [[one] for _ in range(a)]

    def power(j: int, e: int):
        cache = powers[j]
        while len(cache) <= e:
            cache.append(_graded_mul(cache[-1], phi_layers[j], order))
        return cache[e]

    result: List = []
    for i in range(nrows):
        acc: Dict = {}
        for j in range(a):
            cf = linear[i][j]
            if cf:
                acc = _graded_add(acc, _graded_scale(as_fraction(cf), phi_layers[j]))
        for k in series.degrees():
            comp = slow(series.term(k).component(i))
            for mi, cf in comp.items():
                prod = one
                for j, e in enumerate(mi):
                    if e:
                        prod = _graded_mul(prod, power(j, e), order)
                acc = _graded_add(acc, _graded_scale(cf, prod))
        result.append(acc)

    out_terms = {}
    for d in range(2, order + 1):
        comps = [acc.get(d, HomPoly.zero(a, d)) for acc in result]
        m = HomPolyMap(comps) if comps else None
        if m is not None and not m.is_zero:
            out_terms[d] = m
    return PolySeries(a, nrows, order, out_terms)


def from_matrix(a, ncols: int) -> List[HomPoly]:
    """The linear map x -> A x as degree-1 components."""
    comps = []
    for row in a:
        terms = {}
        for j, cf in enumerate(row):
            if cf:
                terms[tuple(1 if i == j else 0 for i in range(ncols))] = cf
        comps.append(HomPoly(ncols, 1, terms))
    return comps


def lie_derivative(a, f: HomPolyMap) -> HomPolyMap:
    """L_A f = Df . (Ax) - A f, exact, degree preserved."""
    a = mat(a)
    n = len(a)
    ax = from_matrix(a, n)
    k = f.degree
    comps = []
    for i in range(n):
        acc = HomPoly.zero(n, k)
        for j in range(n):
            if ax[j].is_zero:
                continue
            pd = partial_derivative(slow(f.component(i)), j)
            if pd.is_zero:
                continue
            acc = acc + multiply(pd, ax[j])
        for j in range(n):
            if a[i][j]:
                acc = acc - a[i][j] * slow(f.component(j))
        comps.append(acc)
    return HomPolyMap(comps)


def pde_defect(field: HomPolyMap, coupling, q: HomPolyMap) -> HomPolyMap:
    """Dq . field - coupling . q; a constant q has no derivative."""
    coupling = mat(coupling)
    fld = [slow(c) for c in field.components]
    comps = []
    for i, row in enumerate(coupling):
        acc = HomPoly.zero(q.dim_in, q.degree)
        if q.degree:
            for j, fj in enumerate(fld):
                acc = acc + multiply(partial_derivative(slow(q.component(i)), j), fj)
        for j, cf in enumerate(row):
            if cf:
                acc = acc - cf * slow(q.component(j))
        comps.append(acc)
    return HomPolyMap(comps)


def flow_identity_defect(linear, phi: PolySeries, g: PolySeries, composed: PolySeries, order: int):
    """DPhi(y).(Ay + g(y)) - (Ay + composed(y)) by degree, its non-zero
    degrees only: every pair of a layer of Phi (its first r rows) and a
    layer of the field (padded with N - r zero rows) through
    ``directional_derivative``, summed in HomPoly arithmetic."""
    linear = mat(linear)
    r, n = len(linear), len(linear[0])

    def first_rows(t):
        return [slow(c) for c in t.components[:r]]

    def padded(comps, k):
        return comps + [HomPoly.zero(n, k)] * (n - r)

    field = {1: padded(from_matrix(linear, n), 1)}
    field.update({d: padded(first_rows(g.term(d)), d) for d in g.degrees() if d <= order})
    phi_layers = {1: [HomPoly.variable(n, i) for i in range(r)]}
    phi_layers.update({k: first_rows(phi.term(k)) for k in phi.degrees() if k <= order})
    rhs = {1: from_matrix(linear, n)}
    rhs.update({d: first_rows(composed.term(d)) for d in composed.degrees() if d <= order})
    out = {}
    for e in range(1, order + 1):
        comps = [-c for c in rhs[e]] if e in rhs else [HomPoly.zero(n, e) for _ in range(r)]
        for k, layer in phi_layers.items():
            d = e - k + 1
            if d in field:
                comps = [c + directional_derivative(field[d], p) for c, p in zip(comps, layer)]
        defect = HomPolyMap(comps)
        if not defect.is_zero:
            out[e] = defect
    return out
