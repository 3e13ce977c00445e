"""The homological operator L_F, its Gram adjoint, and the graded slice.

One linear part F, a matrix with r <= N rows (`_shape`), gives the
operator of both kinds of system: F = A (r = N = n) for an ODE
x' = Ax + f(x), and F = (A B) (r = n, N = n + m) for a control system
x' = Ax + Bu + f(x, u).  With F-bar the N x N matrix of F over N - r zero
rows (`linear_field`), the matrix of the linear field (Fx, 0) on R^N,

    L_F p (x) = Dp(x) F-bar x - F p(x)

maps the degree-k generators S^k into H^k, the degree-k maps R^N -> R^r.
S^k is the space of fields on R^N whose first r rows read only the first
r variables, laid out by `polyalg.skew_keys(r, N - r, k)`, and H^k is laid
out by `polyalg.map_keys(N, r, k)`.  At r = N both are every degree-k
field and L_F is L_A f = Df.Ax - Af.  At r < N it is the control operator
of Kang and Krener (SIAM J. Control Optim. 30, 1992),
L(p_x, p_u) = Dp_x (Ax + Bu) - A p_x - B p_u: the first n rows of
L_{F-bar} p, since the last m rows of F-bar are zero.

With the weighted monomial inner product the adjoint L_F* maps H^k to S^k:
L_F* q is L_{F-bar^t}(q, 0) read on S^k (`adjoint_defect`), since
F-bar^t (q, 0) = F^t q.  At r = N it is L_{A^t}.  At r < N its rows are
(Dq.(A^t x, B^t x) - A^t q, -B^t q), and read on S^k they keep the u-free
terms of the first n rows (the characteristic derivative at u = 0) and
every term of the last m.  The normal form complement at degree k is
ker L_F* and the removable part is range L_F; the two are orthogonal and
span H^k because L_F* is the Gram adjoint of L_F, which `GradedSlice`
checks exactly for every slice it builds.

Every operator here is a case of one linear defect operator,
q -> Dq.(Mx) - Cq: L_F is M = F-bar, C = F; L_F* is M = C = F-bar^t on
(q, 0), or as a matrix M = F-bar^t, C = F^t from H^k to S^k; and the
characteristic PDE of `integrals` is M = F-bar^t, C = A^t.  It has two
forms, kept apart because the certificates compare one with the other,
and both take the same two matrices (M, C).  `pde_defect` evaluates it on
a polynomial map (a constant q has no derivative) in one packed step,
`polyalg.directional_derivative` with M packed as a linear layer and C as
the step's q-part, so -Cq is summed in the same ints as Dq.(Mx).
`_defect_matrix`, the one assembler of every operator matrix, writes it
from exponent arithmetic, without building any polynomial: by the column
rule `_defect_column`, the basis map x^l e_j gets +l_p M[p][q] at row
(j, l - e_p + e_q) for every l_p > 0 and non-zero M[p][q], and -C[i][j] at
row (i, l).  Domain and codomain are lists of the (component, monomial) of
each coordinate, in order, the layouts of S^k and H^k (`_layouts`); a term
the codomain does not list is dropped.  The columns add up int numerators
over one denominator per operator, the lcm of M's and C's.  Every matrix
is a dense tuple of tuples of Fractions, one built per non-zero cell, with
one shared zero, `ratmat._ZERO`, in every cell no column reaches, and no
basis is built.  Adjoints are built in closed form; `GradedSlice`
cross-checks each against the Gram conjugate of its operator, once per
slice, and skips a pair of cells that both hold the shared zero.

A `GradedSlice` is built from its two matrices and the same key lists, the
layouts of its domain and codomain, derives its Gram weights from them, and
reads and builds the maps of a step on them.  `split_term` splits f = M x + r
(r in ker M*, x orthogonal to ker M) with one elimination of [M | b] for
both ker M and the solve: the reduced [M | b] restricted to its first
columns is the reduced M.  When M is onto, ker M* = {0} by the Gram
cross-check (rank M* = rank M) and is not eliminated, so an invertible L_A
costs one elimination per degree and a control operator (never onto, since
dim S^k < dim H^k) two.

For a square, non-triangular F = A the slice first tries the Sylvester
solve of `spectral`, one N x (N + n) integer elimination per degree that
proves L_A invertible or finds it singular; `homological_slice` imports
that module only then.  A triangular A never takes this route, because its
L_A is already nearly triangular and cheap to eliminate.

`jordan_split` derives the semisimple/nilpotent decomposition of an A
already in Jordan form, used for equivariance certificates; a supplied
split is checked by `spectral.validate_split`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import ratmat
from .innerprod import monomial_weight, project_coords
from .polyalg import (
    HomPoly,
    HomPolyMap,
    MultiIndex,
    directional_derivative,
    map_coords,
    map_from_coords,
    map_keys,
    skew_keys,
)
# rref is bound here, unused, for bench/test_bench.py's alias check
from .ratmat import _ZERO, Matrix, Vector, integer_row, mat, nullspace, rref, solve_with_kernel, transpose, zeros  # noqa: F401


class CertificateError(RuntimeError):
    """An exact certificate or internal cross-check failed.

    Raised only where a computed result fails its own exact check, so a
    caller can tell a refuted result from any other error.
    """


def _shape(a: Matrix) -> Tuple[int, int]:
    """(r, N) of a linear part with r <= N rows, the field's non-zero rows."""
    if not a or len(a) > len(a[0]):
        raise ValueError("linear part must have at least one row and no more rows than columns")
    return len(a), len(a[0])


def _square(a) -> Matrix:
    """A linear part with as many rows as columns, as a Fraction matrix."""
    a = mat(a)
    r, n = _shape(a)
    if r != n:
        raise ValueError("linear part must be a square matrix")
    return a


def linear_field(a: Matrix) -> Matrix:
    """F-bar: the r x N linear part F over N - r zero rows, the N x N
    matrix of the linear field (Fx, 0) on R^N."""
    r, n = _shape(a)
    return a + zeros(n - r, n)


def _layouts(r: int, n: int, degree: int):
    """The layouts of S^k and H^k, the domain and codomain of L_F for F
    with r <= N rows; at r = N both are map_keys(N, N, k), built once.
    With inputs (r < N) S^k starts at degree 2, so a lower degree is
    rejected here."""
    if r == n:
        h = map_keys(n, n, degree)
        return h, h
    if degree < 2:
        raise ValueError("transformations start at degree 2")
    return skew_keys(r, n - r, degree), map_keys(n, r, degree)


def pde_defect(drive: Matrix, coupling: Matrix, q: HomPolyMap) -> HomPolyMap:
    """Dq . (Mx) - coupling . q for M the square matrix ``drive``, the
    defect of a linear first-order PDE system, with one component per
    coupling row (at most one per component of q); the degree of q is
    kept, and a constant q has no derivative.  One `directional_derivative`
    step with the coupling as its q-part."""
    width = q.dim_out
    if len(coupling) > width or any(len(r) != width for r in coupling):
        raise ValueError("q does not match the PDE shape")
    return directional_derivative(drive, q.components, coupling)


def lie_derivative(a: Matrix, f: HomPolyMap) -> HomPolyMap:
    """L_F f = Df . (F-bar x) - F f for a field f on R^N, exact, degree
    preserved; L_A f = Df . (Ax) - A f for a square A."""
    a = mat(a)
    _, n = _shape(a)
    if f.dim_in != n or f.dim_out != n:
        raise ValueError("f must be a square map matching the matrix dimension")
    return pde_defect(linear_field(a), a, f)


def adjoint_defect(a: Matrix, q: HomPolyMap) -> HomPolyMap:
    """L_F* q, an element of S^k, for q a degree-k map R^N -> R^r: the
    polynomial form of `adjoint_matrix`.

    At r = N it is L_{A^t} q.  Otherwise it is one defect step
    L_{F-bar^t}(q, 0) = (Dq.(A^t x, B^t x) - A^t q, -B^t q), since
    F-bar^t (q, 0) = F^t q, read on S^k: the u-free terms of the first r
    rows and every term of the last N - r.
    """
    a = mat(a)
    r, n = _shape(a)
    if r == n:
        return lie_derivative(transpose(a), q)
    drive = transpose(linear_field(a))
    padded = HomPolyMap(q.components + (HomPoly._trusted(n, q.degree, {}),) * (n - r))
    keys = skew_keys(r, n - r, q.degree)
    return map_from_coords(map_coords(pde_defect(drive, drive, padded), keys), keys)


def _nonzero_rows(m: Matrix) -> List[List[Tuple[int, Fraction]]]:
    """The non-zero entries (q, M[p][q]) of each row p of M."""
    return [[(q, v) for q, v in enumerate(row) if v] for row in m]


def _scaled(rows: Sequence[Sequence[Tuple[int, Fraction]]], scale: int) -> List[List[Tuple[int, int]]]:
    """Each (index, value) pair of ``rows`` with the value times ``scale``,
    a multiple of its denominator, as an int."""
    return [[(q, v.numerator * (scale // v.denominator)) for q, v in row] for row in rows]


def _defect_column(
    drive: Sequence[Sequence[Tuple[int, int]]],
    coupling: Sequence[Tuple[int, int]],
    j: int,
    mi: MultiIndex,
) -> Dict[Tuple[int, MultiIndex], int]:
    """Dq.(Mx) - Cq for the basis map q = x^mi e_j, as {(component, monomial): coefficient},
    in the integer numerators of M and C over their one denominator.

    ``drive[p]`` holds the non-zero (q, M[p][q]) of row p of M and
    ``coupling`` the non-zero (i, C[i][j]) of column j of C.  The derivative
    adds mi_p M[p][q] at (j, mi - e_p + e_q); the coupling adds -C[i][j] at
    (i, mi).
    """
    out: Dict[Tuple[int, MultiIndex], int] = {}
    get = out.get
    for p, e in enumerate(mi):
        if not e or not drive[p]:
            continue
        lowered = list(mi)
        lowered[p] -= 1
        for q, v in drive[p]:
            lowered[q] += 1
            key = (j, tuple(lowered))
            lowered[q] -= 1
            out[key] = get(key, 0) + e * v
    for i, c in coupling:
        key = (i, mi)
        out[key] = get(key, 0) - c
    return out


def _defect_matrix(
    drive: Sequence,
    coupling: Sequence,
    domain: Sequence[Tuple[int, MultiIndex]],
    codomain: Sequence[Tuple[int, MultiIndex]],
) -> Matrix:
    """Matrix of q -> Dq.(Mx) - Cq from the non-zero entries of each row of
    M (``drive``) and of each column of C (``coupling``).

    ``domain`` and ``codomain`` list the basis map (component, monomial) of
    each coordinate, in order; a term the codomain does not list is dropped.
    The columns add up int numerators over one denominator, the lcm of M's
    and C's, and one Fraction is built per non-zero cell; every cell no
    column reaches is one shared zero.
    """
    scale = lcm(*(v.denominator for rows in (drive, coupling) for row in rows for _, v in row))
    drive, coupling = _scaled(drive, scale), _scaled(coupling, scale)
    rows = {key: r for r, key in enumerate(codomain)}
    entries = [[_ZERO] * len(domain) for _ in range(len(codomain))]
    for s, (j, mi) in enumerate(domain):
        for key, v in _defect_column(drive, coupling[j], j, mi).items():
            r = rows.get(key)
            if r is not None and v:
                entries[r][s] = Fraction(v, scale)
    return tuple(map(tuple, entries))


def homological_matrix(a: Matrix, degree: int) -> Matrix:
    """Matrix of L_F on degree k, from S^k to H^k: the defect operator
    with drive F-bar and coupling F, columns in skew_keys order and rows
    in map_keys order."""
    a = mat(a)
    skew, h = _layouts(*_shape(a), degree)
    return _defect_matrix(_nonzero_rows(linear_field(a)), _nonzero_rows(transpose(a)), skew, h)


def adjoint_matrix(a: Matrix, degree: int) -> Matrix:
    """Matrix of the inner-product adjoint L_F*, from H^k to S^k: L_{A^t}
    at r = N, else the defect operator with drive F-bar^t and coupling F^t,
    whose p_x rows S^k lists only u-free, which restricts them to u = 0.

    This is the closed form only; `GradedSlice` checks it against W^-1 M^t W.
    """
    a = mat(a)
    r, n = _shape(a)
    if r == n:
        return homological_matrix(transpose(a), degree)
    skew, h = _layouts(r, n, degree)
    # column i of F^t is row i of F
    return _defect_matrix(_nonzero_rows(transpose(linear_field(a))), _nonzero_rows(a), h, skew)


def is_gram_adjoint(
    m: Matrix, adjoint: Matrix, w_codomain: Sequence[int], w_domain: Sequence[int]
) -> bool:
    """Whether adjoint equals W_domain^-1 M^t W_codomain, entry for entry.

    M maps the domain (Gram weights w_domain) into the codomain
    (w_codomain).  Every entry is compared cross-multiplied,
    M[h][s] w_codomain[h] == adjoint[s][h] w_domain[s], on numerators and
    denominators, so no Fraction is built; the first mismatch decides.  A
    pair of cells that both hold the shared zero ``ratmat._ZERO`` is equal
    without a comparison; any other zero is compared like every entry.
    """
    if len(m) != len(w_codomain) or any(len(row) != len(w_domain) for row in m):
        return False
    if len(adjoint) != len(w_domain) or any(len(row) != len(w_codomain) for row in adjoint):
        return False
    for row, column, ws in zip(adjoint, zip(*m), w_domain):
        for y, x, wh in zip(row, column, w_codomain):
            if x is _ZERO and y is _ZERO:
                continue
            if x.numerator * wh * y.denominator != y.numerator * ws * x.denominator:
                return False
    return True


class GradedSlice:
    """One degree of a graded operator M: S -> H, its Gram adjoint M*, and
    their kernels, so that each is assembled once per degree and eliminated
    as few times as the split allows.

    ``domain_keys`` and ``codomain_keys`` are the layouts of S and H, the
    (component, exponents) of each coordinate (`polyalg.map_keys`,
    `polyalg.skew_keys`).  They give M its shape, dim S columns and dim H
    rows, and its Gram weights, `innerprod.monomial_weight` of each key's
    monomial; `split_term` and `is_minimal` take and return maps read and
    built on them, and ker M and ker M* stay coordinate vectors inside.
    The closed-form M* is cross-checked against W_S^-1 M^t W_H on
    construction, the one place that holds both matrices and both weights;
    a mismatch raises.  ker M and ker M* are found on first use.

    `split_term` reads ker M and the solve off one elimination of [M | b]
    (`ratmat.solve_with_kernel`): the reduced [M | b] restricted to its
    first columns is the reduced M, whatever b is.  When ker M* is not yet
    known and M is at least as wide as it is tall, it first eliminates
    [M | f].  If that shows M onto (rank M = dim H), ker M* is {0}, because
    the cross-check has made M* = W_S^-1 M^t W_H, so rank M* = rank M; the
    removable part is f itself and that one elimination is the whole
    split.  Otherwise f is projected onto ker M*, eliminated on its own,
    and, unless [M | f] was already consistent, [M | f - r] is eliminated
    once.  An invertible L_A thus costs one elimination per degree, a
    rank-deficient L_A at most three, and a control operator (dim S < dim H,
    never onto) two.

    When ``sylvester`` is set (`homological_slice` sets it for a
    non-triangular A), every solve and a first ker M* try it before
    anything else: a solution proves M invertible, so ker M = ker M* = {0}
    are cached as (), and an invertible L_A costs one N x (N + n)
    elimination per degree and none of L_A.  Once it finds M singular it is
    dropped and the slice goes on as above.
    """

    # an exact solve b -> M^-1 b that returns None when it finds M singular
    sylvester: Optional[Callable[[Sequence[Fraction]], Optional[Vector]]] = None

    def __init__(
        self,
        matrix: Matrix,
        adjoint: Matrix,
        domain_keys: Sequence[Tuple[int, MultiIndex]],
        codomain_keys: Sequence[Tuple[int, MultiIndex]],
    ):
        self.domain_weights = [monomial_weight(mi) for _, mi in domain_keys]
        self.codomain_weights = [monomial_weight(mi) for _, mi in codomain_keys]
        if not is_gram_adjoint(matrix, adjoint, self.codomain_weights, self.domain_weights):
            raise CertificateError(
                "adjoint cross-check failed: W^-1 M^t W does not equal the closed-form adjoint"
            )
        self.matrix = matrix
        self.adjoint = adjoint
        self.domain_keys = domain_keys
        self.codomain_keys = codomain_keys

    @cached_property
    def kernel(self) -> Tuple[Vector, ...]:
        """ker M in domain coordinates.

        `_solve` and `_invert` set it first: every solve of `split_term`
        caches ker M from its own elimination, or as () once the Sylvester
        solve has proved M invertible, before anything reads it.  This body
        is the guard for a caller that reads it before any solve, and
        eliminates M alone."""
        return nullspace(self.matrix)

    @cached_property
    def cokernel(self) -> Tuple[Vector, ...]:
        """ker M* in codomain coordinates: the orthogonal complement of range M."""
        if self._invert((_ZERO,) * len(self.codomain_keys)) is not None:
            return ()
        return nullspace(self.adjoint)

    @property
    def dimensions(self) -> Tuple[int, int, int]:
        """(dim H, rank M, dim ker M*): the space, range and complement."""
        space, complement = len(self.codomain_keys), len(self.cokernel)
        return space, space - complement, complement

    def is_minimal(self, xi: HomPolyMap) -> bool:
        """Whether the generator xi is orthogonal to ker M in the Gram inner
        product of S: sum_i x_i w_i k_i = 0 for its coordinates x and every
        kernel vector k, an integer dot product of the primitive integer
        rows (`ratmat.integer_row`) of x and of each k, positive multiples
        of both."""
        if not self.kernel:
            return True
        x, w = integer_row(map_coords(xi, self.domain_keys)), self.domain_weights
        return all(
            sum(c * w[j] * x[j] for j, c in integer_row(k).items() if j in x) == 0 for k in self.kernel
        )

    def _invert(self, b: Sequence[Fraction]) -> Optional[Vector]:
        """M^-1 b from ``sylvester``, caching ker M = ker M* = {0}, or None
        when there is no such solve or it found M singular."""
        if self.sylvester is None:
            return None
        x = self.sylvester(b)
        if x is None:
            self.sylvester = None
        else:
            self.kernel = self.cokernel = ()
        return x

    def _solve(self, b: Sequence[Fraction]) -> Optional[Vector]:
        """A solution of M x = b, or None; caches ker M from the same elimination."""
        x = self._invert(b)
        if x is not None:
            return x
        coords, kernel = solve_with_kernel(self.matrix, b)
        self.__dict__.setdefault("kernel", kernel)
        return coords

    def split_term(self, fk: HomPolyMap) -> Tuple[HomPolyMap, HomPolyMap, HomPolyMap]:
        """Split f_k = M xi + r with r in ker M* and xi orthogonal to ker M.

        Returns the maps (xi, r, f_k - r), read and built on the slice's keys.
        """
        f = map_coords(fk, self.codomain_keys)
        cols, rows = len(self.domain_keys), len(f)
        coords = None
        if "cokernel" not in self.__dict__ and cols >= rows:
            # a solution of M x = f puts f in range M, which is orthogonal
            # to ker M*, so then r = 0 and f - r = f: the solution stands
            coords = self._solve(f)
            if cols - len(self.kernel) == rows:
                self.cokernel = ()
        # with the empty cokernel of an onto M this returns (0, f) at once
        residual, removable = project_coords(f, self.cokernel, self.codomain_weights)
        if coords is None:
            coords = self._solve(removable)
        if coords is None:
            raise CertificateError(
                "homological equation is inconsistent: the projection onto the "
                "complement did not land in the range of the operator"
            )
        if self.kernel:
            _, coords = project_coords(coords, self.kernel, self.domain_weights)
        return (
            map_from_coords(coords, self.domain_keys),
            map_from_coords(residual, self.codomain_keys),
            map_from_coords(removable, self.codomain_keys),
        )


def homological_slice(a: Matrix, degree: int) -> GradedSlice:
    """L_F at one degree, with its adjoint L_F* cross-checked once, and,
    for a square F = A, the Sylvester solve unless A is triangular (then
    L_A is already nearly triangular, and cheap to eliminate)."""
    a = mat(a)
    r, n = _shape(a)
    graded = GradedSlice(homological_matrix(a, degree), adjoint_matrix(a, degree), *_layouts(r, n, degree))
    below = [(i, j) for i in range(n) for j in range(i)]
    if r == n and any(a[i][j] for i, j in below) and any(a[j][i] for i, j in below):
        from . import spectral

        graded.sylvester = partial(spectral.sylvester_solve, a, degree)
    return graded


def jordan_split(a: Matrix) -> Tuple[Matrix, Matrix]:
    """Jordan-Chevalley split of a matrix already in Jordan form.

    Takes A_s = diagonal part and A_n = strictly upper part, which is
    nilpotent as built, and validates A = A_s + A_n and commutation.
    Anything else (including real Jordan blocks for complex eigenvalues) is
    rejected; the caller can still supply an explicit split, checked by
    `spectral.validate_split`.
    """
    a = _square(a)
    n = len(a)
    a_s = tuple(
        tuple(a[i][j] if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
    a_n = tuple(
        tuple(a[i][j] if j > i else Fraction(0) for j in range(n)) for i in range(n)
    )
    if ratmat.mat_add(a_s, a_n) != a:
        raise ValueError("matrix is not upper triangular; not in Jordan form")
    if ratmat.mat_mul(a_s, a_n) != ratmat.mat_mul(a_n, a_s):
        raise ValueError("diagonal and strictly-upper parts do not commute; not in Jordan form")
    return a_s, a_n
