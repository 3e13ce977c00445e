"""First integrals and the classification space of a control system.

`control_complement` solves the full first-order PDE system
Dq(x, u) . (A^t x, B^t x) = A^t q, the classification space generated by
the first integrals of the characteristic field (A^t x, B^t x)
(`control.characteristic_field`).  This is the space the worked examples
span; it is generally NOT the orthogonal complement of range(L), the
cokernel ker L* of `control.control_slice` onto which normalization
projects (its elements may be removable).

The worked examples are the Brunovsky pair, whose shift characteristic
field has the chain of integrals of `brunovsky_first_integrals`, and the
built-in uncontrollable example.  Every integral returned is certified by
an exact zero directional derivative along its field.

No normalization or verification reads this module: `cli` imports it only
for the `first-integrals` verb and the `kernel` verb of a control system,
and `normalforms` resolves its names on first access.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .control import ControlLinearPart, characteristic_field
from .homological import CertificateError, _defect_matrix, _nonzero_rows
from .polyalg import HomPoly, HomPolyMap, directional_derivative, map_from_coords, map_keys
from .ratmat import Matrix, mat, nullspace


class FirstIntegral(NamedTuple):
    """Polynomial constant along a characteristic field, with its index."""

    index: int
    poly: HomPoly


def control_complement(lin: ControlLinearPart, degree: int) -> List[HomPolyMap]:
    """Solutions of the full characteristic PDE Dq.(A^tx, B^tx) = A^t q.

    This is the classification space spanned by first-integral combinations;
    see the module docstring for how it differs from the orthogonal
    complement of range(L).
    """
    keys = map_keys(lin.n + lin.m, lin.n, degree)
    # drive (A^t x, B^t x), the rows of A0^t; coupling A^t, whose column j is row j of A
    entries = _defect_matrix(_nonzero_rows(characteristic_field(lin)), _nonzero_rows(lin.a), keys, keys)
    return [map_from_coords(v, keys) for v in nullspace(entries)]


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
