"""Sparse multivariate polynomial algebra over the rationals.

A monomial is a multi-index: a tuple of non-negative integer exponents, one
per variable.  A homogeneous polynomial (HomPoly) stores a mapping
multi-index -> Fraction with all multi-indices of the same total degree;
zero coefficients are never stored.  A HomPolyMap is a vector of HomPoly
components sharing variables and degree, and a PolySeries collects graded
HomPolyMap terms of degrees 2..max_degree.

The monomial order used everywhere (iteration, bases, rendering) is graded
lexicographic: compare total degree first, then exponent tuples with the
first variable strongest, descending.  For two variables at degree 2 this
lists (2,0), (1,1), (0,2).

Within one total degree, grlex order is exactly descending lexicographic
order on the exponent tuples, so a plain reverse sort on the tuples gives it.

Construction has two doors.  The public ``HomPoly(n_vars, degree, terms)``
validates every multi-index (length, non-negative integers that are not
bools, total degree) and converts every coefficient to a Fraction; it is
the door for unchecked input (library callers, tests).  ``HomPoly._trusted``
is for terms already checked: the caller guarantees that every multi-index
is a tuple of n_vars non-negative ints of total degree ``degree`` and that
every coefficient is already a Fraction.  It only drops zero coefficients
and restores grlex order.  The algebra's own results come through it, and
so do the CLI's documents, whose reader checks every term itself, with a
message that names the field, before it builds a component, and so does
``map_from_coords``, whose keys are a layout and whose coordinates are
Fractions.

The polynomial types carry only what the program calls on them: a
difference (``pushforward_residuals`` forms g_k minus the re-applied term
with it) and equality.  Every product and sum of the program runs on
packed integer layers, below.

Products, sums, derivatives and compositions follow one integer-layer
contract: integers inside, ``Fraction``s only at the public boundary.
Every integer layer is held in one format, a ``_Layer``: one dict per
component from packed exponents to integer numerators, over one positive
common denominator, as FLINT's ``fmpq_poly`` holds a rational polynomial.
``_Packing`` packs a multi-index into one int (Monagan & Pearce 2007), the
first variable in the most significant field, every field
``order.bit_length()`` bits wide.  That width is the rule that keeps
packing exact without a fixed cap: a monomial of degree at most the order
has no exponent above the order, so a product whose degree stays within the
order never carries into the neighbouring field, and it costs one int
addition.  A multi-index of fewer variables packs as if padded with
trailing zeros, so lifting a map of the states to the states and inputs
costs nothing.  Sums and scalings are int arithmetic: ``_layer_sum`` adds
layers over the lcm of their denominators and ``_reduce_layer`` divides
the content out once.  ``_Packing.layer`` brings polynomials in, and
``_Packing.poly_map`` builds one HomPoly per component, one Fraction per
coefficient, only for a finished result.

There is one polynomial product, ``multiply``: the graded product of two
packed operands up to the order, each numerator product summed as an int
under the sum of the two codes (the packed products of Monagan & Pearce
2009).

There is one derivation step, ``_bracket``: the numerators of
Dh.P - Dq.h on packed layers, one component per row of the q-part.
``directional_derivative`` is that step on a map q along the linear field
Mx, given by the square matrix M and packed by ``_Packing.linear``, the
one encoding of a linear map, with a coupling C as the q-part, row i
holding (j, code 0, C[i][j]): Dq.(Mx) - Cq, the defect operator of
``homological``, with M and C over one denominator, -Cq summed in the
same ints and one ``poly_map`` for the result.  No HomPoly is built for
M, and no partial derivative and no product.

The Lie-series engine lives here too, behind one door, ``lie_transform``:
every Lie series of ``ode`` and ``control`` is one call to it.  It pushes
a map, given by its linear part and graded layers, through exp(ad_P) =
sum_j ad_P^j / j! for each generator P in turn (the Lie transforms of
Hori 1966 and Deprit 1969), with ad h = Dh.P - Dq.h the step ``_bracket``
for q the first ``q_rows`` components of P (no q, so ad h = Dh.P, for the
flow map and the composite transformation).  Each generator is converted
once to numerators over one denominator; each step's layer is the bracket
of the previous one over (its denominator x the generator's x j), so 1/j!
is folded in step by step.  The layers stay packed from one generator to
the next; a degree that no series reaches keeps its input map, the same
object.

The flow route of ``ode`` shares the layers and the step, not the engine.
``compose_truncated`` keeps, for one call only, a table keyed by the codes
of one ``_Packing``: each entry is phi^mi = prod_j phi_j^mi[j], a layer
whose component t holds degree |mi| + t, with its content divided out
once.  Each entry is built once, as the entry for mi - e_j times phi_j,
filled iteratively from the deepest ancestor already present, by one
``multiply`` of the two packed layers, and the denominators multiply.  A
degree-1 entry is phi_j itself, brought in by ``_Packing.layer``, so
nothing is ever multiplied by the constant 1.  The output rows are integer
sums over the same table, over one common denominator, and leave through
``_Packing.poly_map``.  ``flow_identity_defect`` forms the other side,
DPhi.(Ay + g), one ``_bracket`` step per pair of layers of Phi and of the
field, and subtracts the composition in the same ``_layer_sum``, so a
degree whose two sides agree builds no Fraction.

``map_keys`` lists the (component, exponents) of every coordinate of a
map space: by component, then in grlex order.  It is the one statement of
that order.  ``map_coords`` reads a map on a layout, this one or a
subspace's (``control.skew_keys``), and ``map_from_coords`` builds one,
its shape read off the keys, so no caller passes a dimension; the rows and
columns of every operator matrix and the Gram weights of a graded slice
follow the same keys, and no operator builder builds a basis.  The
coefficient of every monomial a polynomial does not store is
``ratmat._ZERO``.

Key entry points: monomial_basis, map_keys, multiply, directional_derivative,
compose_truncated, flow_identity_defect, lie_transform.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter, lshift
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .ratmat import _ZERO, Matrix, as_fraction

MultiIndex = Tuple[int, ...]

# sort key of a (multi-index, coefficient) pair: reverse order is grlex
_EXPONENTS = itemgetter(0)

def monomial_basis(n_vars: int, degree: int) -> List[MultiIndex]:
    """All multi-indices of the given total degree, in graded-lex order."""
    if n_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    # step to the next smaller tuple in lex order: take one from the last
    # positive entry before the final one and move everything after it,
    # plus that one, to the entry right after it
    mi = [degree] + [0] * (n_vars - 1)
    out = [tuple(mi)]
    while True:
        i = n_vars - 2
        while i >= 0 and not mi[i]:
            i -= 1
        if i < 0:
            return out
        tail = mi[-1]
        mi[-1] = 0
        mi[i] -= 1
        mi[i + 1] = tail + 1
        out.append(tuple(mi))


def _validate_index(mi, n_vars: int, degree: int) -> MultiIndex:
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
        clean: Dict[MultiIndex, Fraction] = {}
        if terms:
            for mi, cf in terms.items():
                mi = _validate_index(mi, n_vars, degree)
                cf = as_fraction(cf)
                if cf:
                    clean[mi] = cf
        self.terms = dict(sorted(clean.items(), key=_EXPONENTS, reverse=True))

    @classmethod
    def _trusted(cls, n_vars: int, degree: int, terms: Mapping[MultiIndex, Fraction]) -> "HomPoly":
        """A computed result: valid multi-indices and Fraction coefficients.

        Skips validation; drops zero coefficients and restores grlex order.
        """
        p = object.__new__(cls)
        p.n_vars = n_vars
        p.degree = degree
        p.terms = dict(sorted([kv for kv in terms.items() if kv[1]], key=_EXPONENTS, reverse=True))
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int, degree: int) -> "HomPoly":
        return cls(n_vars, degree)

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "HomPoly":
        mi = tuple(1 if i == index else 0 for i in range(n_vars))
        return cls(n_vars, 1, {mi: 1})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[Tuple[MultiIndex, Fraction]]:
        return iter(self.terms.items())

    # -- difference and equality ---------------------------------------------

    def _check_compatible(self, other: "HomPoly"):
        if self.n_vars != other.n_vars or self.degree != other.degree:
            raise ValueError(
                f"incompatible polynomials: ({self.n_vars} vars, degree {self.degree}) "
                f"vs ({other.n_vars} vars, degree {other.degree})"
            )

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for mi, cf in other.terms.items():
            if mi in out:
                out[mi] -= cf
            else:
                out[mi] = -cf
        return HomPoly._trusted(self.n_vars, self.degree, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and self.n_vars == other.n_vars
            and self.degree == other.degree
            and self.terms == other.terms
        )


def directional_derivative(drive: Matrix, q: Sequence[HomPoly], coupling=None) -> HomPolyMap:
    """Dq_i . (Mx) - sum_j coupling[i][j] q_j for each row i of the
    coupling matrix (with none, Dq_i . (Mx) for each component of q), M the
    square matrix ``drive``: one ``_bracket`` step with M packed by
    ``_Packing.linear`` and the coupling as its q-part.  The degree is
    deg q, or 1 for a constant q with no coupling."""
    n_vars, degree = q[0].n_vars, q[0].degree
    if len(drive) != n_vars or any(len(row) != n_vars for row in drive):
        raise ValueError("drive must be a square matrix with one row per variable of q")
    pk = _Packing(n_vars, degree + 1)
    comps, qden = pk.layer(q)
    nums, mden = pk.linear(drive)
    if coupling is None:
        jac, den = _NO_Q, mden
        degree = max(degree, 1)
    else:
        den = lcm(mden, *[c.denominator for row in coupling for c in row])
        jac = [[(j, 0, c.numerator * (den // c.denominator)) for j, c in enumerate(row) if c] for row in coupling]
    s = den // mden
    push = [[(k, s * c) for k, c in comp.items()] for comp in nums]
    return pk.poly_map((_bracket(pk, comps, push, jac), qden * den), degree)


class HomPolyMap:
    """Vector of HomPoly components: a homogeneous polynomial map R^a -> R^b."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[HomPoly]):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        n, k = components[0].n_vars, components[0].degree
        for c in components:
            if c.n_vars != n or c.degree != k:
                raise ValueError("all components must share variables and degree")
        self.components = components

    @classmethod
    def zero(cls, dim_in: int, dim_out: int, degree: int) -> "HomPolyMap":
        return cls([HomPoly.zero(dim_in, degree) for _ in range(dim_out)])

    @property
    def dim_in(self) -> int:
        return self.components[0].n_vars

    @property
    def dim_out(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def component(self, i: int) -> HomPoly:
        return self.components[i]

    def __sub__(self, other: "HomPolyMap") -> "HomPolyMap":
        return HomPolyMap([a - b for a, b in zip(self.components, other.components)])

    def __eq__(self, other) -> bool:
        return isinstance(other, HomPolyMap) and self.components == other.components


def map_keys(dim_in: int, dim_out: int, degree: int) -> List[Tuple[int, MultiIndex]]:
    """(component, exponents) of each coordinate of the degree-k maps
    R^dim_in -> R^dim_out, in order: by component, then graded-lex."""
    mons = monomial_basis(dim_in, degree)
    return [(j, mi) for j in range(dim_out) for mi in mons]


def map_coords(m: HomPolyMap, keys: Sequence[Tuple[int, MultiIndex]]) -> List[Fraction]:
    """Coordinates of a map in the order of ``keys``, the (component,
    exponents) of each coordinate of its space (``map_keys``) or of a
    subspace (``control.skew_keys``)."""
    gets = [comp.terms.get for comp in m.components]
    return [gets[j](mi, _ZERO) for j, mi in keys]


def map_from_coords(coords: Sequence[Fraction], keys: Sequence[Tuple[int, MultiIndex]]) -> HomPolyMap:
    """The map with these Fraction coordinates in the order of ``keys``: its
    variables and degree are read off a key's exponents, its components
    off the last key.  The keys are a layout (``map_keys``,
    ``control.skew_keys``), so each component is built through
    ``HomPoly._trusted``."""
    if len(coords) != len(keys):
        raise ValueError("coordinate vector has the wrong length")
    comps: List[Dict[MultiIndex, Fraction]] = [{} for _ in range(keys[-1][0] + 1)]
    for (j, mi), c in zip(keys, coords):
        comps[j][mi] = c
    shape = keys[0][1]
    return HomPolyMap([HomPoly._trusted(len(shape), sum(shape), terms) for terms in comps])


class PolySeries:
    """Graded nonlinear terms of a polynomial map: degrees 2..max_degree."""

    __slots__ = ("dim_in", "dim_out", "max_degree", "terms")

    def __init__(
        self,
        dim_in: int,
        dim_out: int,
        max_degree: int,
        terms: Optional[Mapping[int, HomPolyMap]] = None,
    ):
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.max_degree = max_degree
        clean: Dict[int, HomPolyMap] = {}
        if terms:
            for k, t in terms.items():
                if not 2 <= k <= max_degree:
                    raise ValueError(f"term of degree {k} outside 2..{max_degree}")
                if t.degree != k or t.dim_in != dim_in or t.dim_out != dim_out:
                    raise ValueError(f"term at degree {k} has mismatched shape")
                if not t.is_zero:
                    clean[k] = t
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def zero(cls, dim_in: int, dim_out: int, max_degree: int) -> "PolySeries":
        return cls(dim_in, dim_out, max_degree)

    def term(self, k: int) -> HomPolyMap:
        if k in self.terms:
            return self.terms[k]
        return HomPolyMap.zero(self.dim_in, self.dim_out, k)

    def degrees(self) -> List[int]:
        return sorted(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, order: int) -> "PolySeries":
        return PolySeries(
            self.dim_in, self.dim_out, order, {k: t for k, t in self.terms.items() if k <= order}
        )


# ---------------------------------------------------------------------------
# integer layers: the derivation step, the Lie-series engine, the flow route
# ---------------------------------------------------------------------------


_Layer = Tuple[List[Dict[int, int]], int]  # packed numerators per component over one denominator
_NO_Q = repeat(())  # the q-part of a step with no q: an empty row per component


class _Packing:
    """Packed exponent vectors of one call, packed as the module docstring
    describes.  The code, multi-index and derivative tables live
    as long as the object.
    """

    __slots__ = ("n_vars", "mask", "shifts", "units", "_codes", "_monomials", "_derivatives")

    def __init__(self, n_vars: int, order: int):
        width = order.bit_length()
        self.n_vars = n_vars
        self.mask = (1 << width) - 1
        self.shifts = tuple(width * (n_vars - 1 - j) for j in range(n_vars))
        self.units = tuple(1 << s for s in self.shifts)
        self._codes: Dict[MultiIndex, int] = {}
        self._monomials: Dict[int, MultiIndex] = {}
        self._derivatives: Dict[int, List[Tuple[int, int, int]]] = {}

    def code(self, mi: MultiIndex) -> int:
        c = self._codes.get(mi)
        if c is None:
            c = self._codes[mi] = sum(map(lshift, mi, self.shifts))
        return c

    def monomial(self, code: int) -> MultiIndex:
        mi = self._monomials.get(code)
        if mi is None:
            mask = self.mask
            mi = self._monomials[code] = tuple([(code >> s) & mask for s in self.shifts])
        return mi

    def derivatives(self, code: int) -> List[Tuple[int, int, int]]:
        """(j, code of mi - e_j, mi[j]) for every variable j of the monomial."""
        out = self._derivatives.get(code)
        if out is None:
            out = self._derivatives[code] = []
            for j, (s, u) in enumerate(zip(self.shifts, self.units)):
                e = (code >> s) & self.mask
                if e:
                    out.append((j, code - u, e))
        return out

    def layer(self, comps: Sequence[HomPoly]) -> _Layer:
        """The components as numerators over the lcm of all their denominators."""
        den = lcm(*[cf.denominator for c in comps for cf in c.terms.values()])
        code = self.code
        nums = [{code(mi): cf.numerator * (den // cf.denominator) for mi, cf in c.terms.items()} for c in comps]
        return nums, den

    def linear(self, matrix: Matrix) -> _Layer:
        """The linear map x -> M x (Fraction entries) as a layer."""
        den = lcm(*[cf.denominator for row in matrix for cf in row])
        units = self.units
        nums = [{u: cf.numerator * (den // cf.denominator) for u, cf in zip(units, row) if cf} for row in matrix]
        return nums, den

    def poly_map(self, layer: _Layer, degree: int) -> HomPolyMap:
        """The finished layer as a map: one HomPoly per component, one
        Fraction per coefficient."""
        nums, den = layer
        mono = self.monomial
        return HomPolyMap(
            [
                HomPoly._trusted(self.n_vars, degree, {mono(k): Fraction(c, den) for k, c in comp.items() if c})
                for comp in nums
            ]
        )


def _reduce_layer(nums: List[Dict[int, int]], den: int) -> _Layer:
    """Zero numerators dropped and the content gcd(den, numerators) divided out."""
    nums = [{k: c for k, c in comp.items() if c} for comp in nums]
    g = gcd(den, *[c for comp in nums for c in comp.values()])
    if g > 1:
        nums = [{k: c // g for k, c in comp.items()} for comp in nums]
        den //= g
    return nums, den


def _layer_sum(layers: Sequence[_Layer]) -> _Layer:
    """Sum of layers of one shape, over the lcm of their denominators; a
    layer given over -d counts negated."""
    den = lcm(*[d for _, d in layers])
    acc: List[Dict[int, int]] = [{} for _ in layers[0][0]]
    for nums, d in layers:
        s = den // d
        for sums, comp in zip(acc, nums):
            get = sums.get
            for k, c in comp.items():
                sums[k] = get(k, 0) + s * c
    return _reduce_layer(acc, den)


def _bracket(pk: _Packing, comps, push, jac) -> List[Dict[int, int]]:
    """Numerators of Dh.P - Dq.h for h the packed components ``comps``,
    one per row of ``jac`` (``_NO_Q``: one per component of h).

    ``push[j]`` lists the (code, numerator) terms of P_j, and ``jac[i]`` the
    (j, code, numerator) terms of dq_i/dx_j.
    """
    derivatives = pk.derivatives
    out = []
    for comp, row in zip(comps, jac):
        acc: Dict[int, int] = {}
        get = acc.get
        for mi, a in comp.items():
            for j, low, e in derivatives(mi):
                ae = a * e
                for mj, b in push[j]:
                    k = low + mj
                    acc[k] = get(k, 0) + ae * b
        for j, low, c in row:
            for mh, b in comps[j].items():
                k = low + mh
                acc[k] = get(k, 0) - c * b
        out.append(acc)
    return out


def _lie_series(
    pk: _Packing, layers: Dict[int, _Layer], field: Sequence[HomPoly], q_rows: int, order: int
) -> Dict[int, _Layer]:
    """sum_j ad^j(layers) / j!, truncated at the order, on packed layers.

    ``field`` holds the components of the generator P, one per variable of
    ``pk`` (a component of fewer variables is lifted), and q is its first
    ``q_rows`` components.  Each step's layer is the bracket of the previous
    one over (its denominator x the generator's x j), its content divided
    out once.  A degree nothing reaches keeps its piece, the same object.
    """
    step = field[0].degree - 1
    nums, gden = pk.layer(field)
    push = [list(c.items()) for c in nums]
    jac = _NO_Q
    if q_rows:
        derivatives = pk.derivatives
        jac = [[(j, low, c * e) for key, c in q.items() for j, low, e in derivatives(key)] for q in nums[:q_rows]]
    parts: Dict[int, List[_Layer]] = {d: [layer] for d, layer in layers.items()}
    term = layers
    j = 0
    while term:
        j += 1
        nxt: Dict[int, _Layer] = {}
        for d, (comps, den) in term.items():
            nd = d + step
            if nd > order:
                continue
            layer = _reduce_layer(_bracket(pk, comps, push, jac), den * gden * j)
            if any(layer[0]):
                nxt[nd] = layer
                parts.setdefault(nd, []).append(layer)
        term = nxt
    return {d: p[0] if len(p) == 1 else _layer_sum(p) for d, p in parts.items()}


def lie_transform(
    linear: Matrix,
    maps: Mapping[int, HomPolyMap],
    generators: Iterable[Sequence[HomPoly]],
    q_rows: int,
    order: int,
) -> Dict[int, HomPolyMap]:
    """Degrees 2..order of a map after exp(ad_P) for each generator P in turn.

    The map has linear part ``linear`` (Fraction entries, one column per
    variable) and nonlinear layers ``maps`` by degree; a layer above the
    order is dropped.  Each generator is the sequence of components of P,
    one per variable (a component of fewer variables is lifted), with
    ad h = Dh.P - Dq.h for q the first ``q_rows`` components of P, or
    ad h = Dh.P when ``q_rows`` is 0.  The layers stay packed from one
    generator to the next; a degree that no series reaches keeps its input
    map, the same object.
    """
    pk = _Packing(len(linear[0]), order)
    maps = {d: t for d, t in maps.items() if d <= order}
    start = {1: pk.linear(linear), **{d: pk.layer(t.components) for d, t in maps.items()}}
    layers = start
    for field in generators:
        layers = _lie_series(pk, layers, field, q_rows, order)
    return {
        d: maps[d] if d in maps and layer is start[d] else pk.poly_map(layer, d)
        for d, layer in layers.items()
        if d >= 2
    }


_Operand = List[Tuple[int, List[Tuple[int, int]]]]  # (degree, (code, numerator) terms), lowest degree first


def multiply(pk: _Packing, a: _Operand, b: _Operand, order: int) -> List[Dict[int, int]]:
    """Numerators of the graded product a * b up to the order, on the codes
    of ``pk``; entry t holds degree a[0][0] + b[0][0] + t.

    A monomial product is one int addition of codes: the packing width
    keeps it exact while the degree stays within the order.
    """
    low = a[0][0] + b[0][0]
    sums: List[Dict[int, int]] = [{} for _ in range(min(order, a[-1][0] + b[-1][0]) - low + 1)]
    for da, pa in a:
        for db, pb in b:
            if da + db > order:
                break
            acc = sums[da + db - low]
            get = acc.get
            for ka, x in pa:
                for kb, y in pb:
                    k = ka + kb
                    acc[k] = get(k, 0) + x * y
    return sums


def compose_truncated(
    linear: Matrix, series: PolySeries, phi: PolySeries, order: int
) -> PolySeries:
    """Nonlinear part of f(phi(y)) truncated at the given order.

    f is the map with the given linear part and graded nonlinear series;
    phi is a near-identity transformation (identity linear part implied, its
    nonlinear layers given as a PolySeries with dim_in == dim_out).  The
    linear part of the composition equals `linear` and is not returned.
    """
    if phi.dim_in != phi.dim_out:
        raise ValueError("phi must be a square near-identity map")
    a = phi.dim_out  # = dim_in of f
    if series.dim_in != a:
        raise ValueError("series input dimension must match phi output dimension")
    nrows = len(linear)
    if nrows != series.dim_out or (linear and len(linear[0]) != a):
        raise ValueError("linear part shape must match the series")

    # products[code of mi] = phi^mi = prod_j phi_j^mi[j], a layer whose
    # component t holds degree |mi| + t (phi_j starts at degree 1, so
    # phi^mi has nothing below |mi|), shared by every output row and
    # dropped on return; the degree-1 entries are the phi_j, the identity
    # plus phi's layers
    pk = _Packing(a, order)
    top = max([k for k in phi.degrees() if k <= order], default=1)
    maps = [phi.term(k) for k in range(2, top + 1)]
    products: Dict[int, _Layer] = {
        u: pk.layer([HomPoly.variable(a, j), *(t.components[j] for t in maps)]) for j, u in enumerate(pk.units)
    }
    def operand(code: int) -> _Operand:
        # the entry's layers as a (degree, terms) operand of multiply
        return [(d, list(layer.items())) for d, layer in enumerate(products[code][0], sum(pk.monomial(code))) if layer]

    def product(code: int) -> _Layer:
        # walk down to the deepest ancestor in the table (one exponent of the
        # last variable present at a time), then build upward: no recursion
        path = []
        while code not in products:
            j, parent, _ = pk.derivatives(code)[-1]
            path.append((code, pk.units[j]))
            code = parent
        for child, u in reversed(path):
            nums = multiply(pk, operand(code), operand(u), order)
            products[child] = _reduce_layer(nums, products[code][1] * products[u][1])
            code = child
        return products[code]

    # each row sum sum_t cf_t phi^mi_t in ints, every row over the lcm of
    # all cf_t denominators times the entry denominators
    rows = []
    for i in range(nrows):
        parts = [(u, as_fraction(cf), 1) for u, cf in zip(pk.units, linear[i]) if cf]
        for k in series.degrees():
            if k <= order:
                parts.extend((pk.code(mi), cf, k) for mi, cf in series.term(k).component(i).items())
        rows.append([(product(c), cf, k) for c, cf, k in parts])
    den = lcm(*[cf.denominator * e_den for row in rows for (_, e_den), cf, _ in row])
    acc = [[{} for _ in rows] for _ in range(order + 1)]  # acc[degree][row]
    for i, row in enumerate(rows):
        for (nums, e_den), cf, k in row:
            s = cf.numerator * (den // (cf.denominator * e_den))
            for d, terms in enumerate(nums, k):
                sums = acc[d][i]
                get = sums.get
                for c, v in terms.items():
                    sums[c] = get(c, 0) + s * v
    # degree 1 is not returned, and PolySeries drops a map whose sums cancel
    out = {d: pk.poly_map((acc[d], den), d) for d in range(2, order + 1) if any(acc[d])}
    return PolySeries(a, nrows, order, out)


def flow_identity_defect(
    linear: Matrix, phi: PolySeries, g: PolySeries, composed: PolySeries, order: int
) -> Dict[int, HomPolyMap]:
    """DPhi(y).(Ay + g(y)) - (Ay + composed(y)) by degree, 1 to the order,
    with only its non-zero degrees.

    Phi is the near-identity map of R^N with nonlinear layers phi, and A,
    ``linear``, has r <= N rows: g and ``composed``, the nonlinear part of
    (A + f)(Phi(y)), map R^N to R^r, and the field's last N - r rows are
    zero, so only the first r rows of Phi meet it.  Each pair of a layer of
    Phi and a layer of the field is one ``_bracket`` step with no q, and
    each degree's pieces and the composition are summed by ``_layer_sum``,
    so a degree whose two sides agree builds no Fraction.
    """
    r, n = len(linear), len(linear[0])
    pk = _Packing(n, order)

    def layers(series: PolySeries) -> Dict[int, _Layer]:
        return {k: pk.layer(series.term(k).components[:r]) for k in series.degrees() if k <= order}

    phi_layers = {1: ([{u: 1} for u in pk.units[:r]], 1), **layers(phi)}
    field = {1: pk.linear(linear), **layers(g)}
    # the right side enters negated, over -den
    parts = {d: [(nums, -den)] for d, (nums, den) in {1: field[1], **layers(composed)}.items()}
    pushes = {d: ([list(c.items()) for c in nums] + [[]] * (n - r), den) for d, (nums, den) in field.items()}
    for k, (comps, pden) in phi_layers.items():
        for d, (push, fden) in pushes.items():
            if k - 1 + d <= order:
                parts.setdefault(k - 1 + d, []).append((_bracket(pk, comps, push, _NO_Q), pden * fden))
    defect = {d: _layer_sum(p) for d, p in sorted(parts.items())}
    return {d: pk.poly_map(layer, d) for d, layer in defect.items() if any(layer[0])}
