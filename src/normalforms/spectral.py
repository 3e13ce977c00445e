"""Facts from the characteristic polynomial of A.

Only a non-triangular A or a supplied semisimple/nilpotent split needs
this module, so `homological.homological_slice` imports it for a
non-triangular A, and the document reader and `ode.resolve_split` for a
supplied split; a triangular A or a control system never compiles it.
Traced functions of the layers below are called through their module
(``ratmat.rref``), so a rebinding of the module's name reaches every call
made here, whenever this module was loaded.

The characteristic polynomial is computed with the Faddeev-LeVerrier
recurrence, in integers on A scaled by the lcm of its denominators
(``scaled_to_integers``).  ``is_semisimple`` decides diagonalizability over
C with two eliminations: one of the powers of S, which gives its minimal
polynomial mu, and the rank of mu'(S).  ``validate_split`` checks a claimed
Jordan-Chevalley decomposition A = A_s + A_n with them.

For a non-triangular A, L_A xi = f is first solved as the Sylvester
equation X D^t - A X = F with one N x (N + n) integer elimination
(``sylvester_solve``, N = C(n+k-1, k)).  When it has full rank the degree is
non-resonant: ker L_A = ker L_{A^t} = {0}, and L_A is not eliminated at
all; otherwise the slice falls back to [L_A | f].  A triangular A never
takes this route, because its L_A is already nearly triangular and cheap
to eliminate.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import ratmat
from .homological import _defect_column, _nonzero_rows, _square
from .polyalg import monomial_basis
from .ratmat import _ZERO, Matrix, Vector


class SplitReport(NamedTuple):
    """Named checks for a claimed Jordan-Chevalley decomposition A = A_s + A_n."""

    sum_ok: bool
    commute_ok: bool
    nilpotent_ok: bool
    semisimple_ok: bool

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.commute_ok and self.nilpotent_ok and self.semisimple_ok

    def failures(self) -> List[str]:
        out = []
        if not self.sum_ok:
            out.append("A_s + A_n != A")
        if not self.commute_ok:
            out.append("A_s and A_n do not commute")
        if not self.nilpotent_ok:
            out.append("A_n is not nilpotent")
        if not self.semisimple_ok:
            out.append("A_s is not semisimple")
        return out


def scaled_to_integers(a: Sequence[Sequence[Fraction]]) -> Tuple[int, List[List[int]]]:
    """(d, dA) with d the lcm of the denominators of A: dA as lists of ints."""
    d = lcm(*(x.denominator for row in a for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a]


def charpoly(a: Matrix) -> Tuple[Fraction, ...]:
    """Characteristic polynomial det(tI - A), ascending coefficients, monic.

    Faddeev-LeVerrier in integers, on B = dA with d the lcm of A's
    denominators: M_k = B M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(B M_k) / k,
    each division exact because the c_j are the integer coefficients of
    det(tI - B).  The coefficient of t^j of det(tI - A) is c_j / d^(n-j).
    """
    n = len(a)
    d, b = scaled_to_integers(a)
    coeffs = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        mk = [
            [sum(x * y for x, y in zip(row, col)) + (c if i == j else 0) for j, col in enumerate(zip(*mk))]
            for i, row in enumerate(b)
        ]
        coeffs[n - k] = -sum(x * y for row, col in zip(b, zip(*mk)) for x, y in zip(row, col)) // k
    return tuple(Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs))


def is_semisimple(s: Matrix) -> bool:
    """Whether the square matrix S is diagonalizable over C.

    It is exactly when mu'(S) is invertible, mu the minimal polynomial of
    S: the eigenvalues of mu'(S) are the mu'(lambda), and mu'(lambda) = 0
    exactly at a repeated root lambda of mu.  One elimination of the columns
    vec(S^0), ..., vec(S^n) gives mu: its first free column is S^d with
    d = deg mu, and rows 0..d-1 of that column are the c_i of
    S^d = sum_i c_i S^i.  Then mu'(S) = d S^(d-1) - sum_{0<i<d} i c_i S^(i-1).
    The empty matrix is semisimple.
    """
    n = len(s)
    if not n:
        return True
    powers = [ratmat.identity(n)]
    for _ in range(n):
        powers.append(ratmat.mat_mul(powers[-1], s))
    # column i is vec(S^i); its pivots are 0..d-1, as S^0..S^(d-1) are independent
    red, pivots = ratmat.rref(tuple(zip(*(sum(p, ()) for p in powers))))
    d = len(pivots)
    # the coefficient of S^j in mu'(S), for j = 0..d-1
    weights = [-(j + 1) * red[j + 1][d] for j in range(d - 1)] + [d]
    deriv = tuple(
        tuple(sum(w * p[r][q] for w, p in zip(weights, powers)) for q in range(n)) for r in range(n)
    )
    return ratmat.rank(deriv) == n


def validate_split(a: Matrix, a_s: Matrix, a_n: Matrix) -> SplitReport:
    """Check a claimed decomposition A = A_s + A_n (semisimple + nilpotent).

    Semisimplicity of A_s is decided exactly, by `is_semisimple`.
    """
    a, a_s, a_n = _square(a), _square(a_s), _square(a_n)
    n = len(a)
    if len(a_s) != n or len(a_n) != n:
        raise ValueError("split parts must match the dimension of A")
    sum_ok = ratmat.mat_add(a_s, a_n) == a
    commute_ok = ratmat.mat_mul(a_s, a_n) == ratmat.mat_mul(a_n, a_s)
    # over a field, A_n is nilpotent exactly when det(tI - A_n) = t^n
    nilpotent_ok = not any(charpoly(a_n)[:-1])
    semisimple_ok = is_semisimple(a_s)
    return SplitReport(
        sum_ok=sum_ok,
        commute_ok=commute_ok,
        nilpotent_ok=nilpotent_ok,
        semisimple_ok=semisimple_ok,
    )


def sylvester_solve(a: Matrix, degree: int, f: Sequence[Fraction]) -> Optional[Vector]:
    """The solution of L_A xi = f (map_keys coordinates) from one N x (N + n)
    elimination, or None when that elimination shows L_A singular.

    With row i of X and F holding component i of xi and f, L_A xi = f is the
    Sylvester equation X D^t - A X = F, where D is the N x N matrix of the
    scalar derivation p -> Dp.(Ax) on the N degree-k monomials.  Scaled by
    the lcm d of A's denominators and the lcm e of f's, A' = dA, D' = dD
    (columns by the `homological._defect_column` rule) and F' = deF are
    integer, and X' = eX solves X' D'^t - A' X' = F'.  Since X -> A'X and
    X -> X D'^t commute and chi(A') = 0 for the characteristic polynomial
    chi of A' (Jameson 1968), chi(D') X'^t = P^t with

        P = sum_j chi_j sum_{i<j} A'^i F' (D'^t)^(j-1-i),

    formed by Horner in ints.  chi(D') is invertible exactly when D' and A'
    share no eigenvalue, which is exactly when L_A is, since the spectrum of
    L_A is {mu - lambda}.  So one elimination of the integer [chi(D') | P^t]
    either has pivots 0..N-1, and its last n columns are X'^t, or shows the
    degree resonant.
    """
    n = len(a)
    d, a_int = scaled_to_integers(a)
    mons = monomial_basis(n, degree)
    size = len(mons)
    place = {mi: t for t, mi in enumerate(mons)}
    drive = _nonzero_rows(a_int)
    columns = [
        [(place[key[1]], v) for key, v in _defect_column(drive, (), 0, mi).items() if v] for mi in mons
    ]

    def derive(v: Sequence[int]) -> List[int]:
        """D' v."""
        out = [0] * size
        for x, column in zip(v, columns):
            if x:
                for s, c in column:
                    out[s] += x * c
        return out

    chi = [c.numerator for c in charpoly(a_int)]
    e, (f_int,) = scaled_to_integers((f,))
    rhs = [[d * x for x in f_int[i * size : (i + 1) * size]] for i in range(n)]
    # chi(D') column by column: w <- D' w + chi_j e_s from w = e_s (chi monic)
    chi_columns = []
    for s in range(size):
        w = [0] * size
        w[s] = 1
        for c in reversed(chi[:-1]):
            w = derive(w)
            w[s] += c
        chi_columns.append(w)
    # P by Horner in the two commuting actions: g = h_j(A') F' and
    # p <- p D'^t + g, where h_j(t) = sum_{i>=j} chi_i t^(i-j)
    g = p = rhs
    for j in range(n - 1, 0, -1):
        g = [
            [sum(x * y for x, y in zip(row, col)) + chi[j] * z for col, z in zip(zip(*g), f_row)]
            for row, f_row in zip(a_int, rhs)
        ]
        p = [[x + y for x, y in zip(derive(p_row), g_row)] for p_row, g_row in zip(p, g)]
    red, pivots = ratmat.rref([chi_row + p_col for chi_row, p_col in zip(zip(*chi_columns), zip(*p))])
    if pivots != tuple(range(size)):
        return None
    coords = tuple(row[size + i] for i in range(n) for row in red)
    return coords if e == 1 else tuple(x if x is _ZERO else x / e for x in coords)
