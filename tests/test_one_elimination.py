"""``GradedSlice.split_term`` eliminates each operator as few times as it can:
ker M and the solve come from one elimination of [M | b], and ker M* is
known to be {0} without an elimination when M is onto.  Here it is checked
against the split it replaced, three separate dense eliminations (ker M,
ker M* and the solve), and the number of eliminations is pinned."""

import random
from fractions import Fraction as F

import pytest

import dense_ratmat as dense
from normalforms import homological, ratmat
from normalforms.control import control_slice
from normalforms.integrals import brunovsky_pair
from normalforms.homological import GradedSlice, homological_slice, is_gram_adjoint
from normalforms.innerprod import project_coords
from normalforms.polyalg import map_coords, map_from_coords
from normalforms.ratmat import _ZERO, mat

sympy_oracle = pytest.importorskip("test_sympy_oracle")
LINEAR_PARTS = sympy_oracle.LINEAR_PARTS
DEGREES = [2, 3, 4]


def three_elimination_split(graded: GradedSlice, f):
    """The former split: ker M, ker M* and M x = f - r each eliminated on
    their own, with the dense oracle.  Returns (kernel, cokernel, split)."""
    kernel = dense.nullspace(graded.matrix)
    cokernel = dense.nullspace(graded.adjoint)
    residual, removable = project_coords(f, cokernel, graded.codomain_weights)
    coords = dense.solve(graded.matrix, removable)
    assert coords is not None
    if kernel:
        _, coords = project_coords(coords, kernel, graded.domain_weights)
    return kernel, cokernel, (coords, residual, removable)


def split_coords(graded: GradedSlice, f):
    """split_term of the map with coordinates f, its maps (xi, r, f - r)
    read back as coordinates on the slice's keys."""
    xi, residual, removable = graded.split_term(map_from_coords(f, graded.codomain_keys))
    return (
        tuple(map_coords(xi, graded.domain_keys)),
        tuple(map_coords(residual, graded.codomain_keys)),
        tuple(map_coords(removable, graded.codomain_keys)),
    )


def right_hand_sides(graded: GradedSlice, seed):
    """A generic f, an f in range M (M times a vector), and an f in ker M*
    plus a range part, with entries up to 2^70."""
    rng = random.Random(seed)

    def draw():
        if rng.random() < 0.2:
            return F(rng.randint(-(2**70), 2**70), rng.randint(1, 2**70))
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    m = graded.matrix
    generic = tuple(draw() for _ in range(len(m)))
    x = [draw() for _ in range(len(m[0]))]
    in_range = dense.mat_vec(m, x)
    coker = dense.nullspace(graded.adjoint)
    mixed = tuple(y + sum((c[i] for c in coker), F(0)) for i, y in enumerate(in_range))
    return generic, in_range, mixed


def ode_slices():
    for name in sorted(LINEAR_PARTS):
        for k in DEGREES:
            yield pytest.param(mat(LINEAR_PARTS[name]), k, id=f"{name}-{k}")


def control_slices():
    for n in (1, 2, 3):
        for k in DEGREES:
            yield pytest.param(n, k, id=f"brunovsky-{n}-{k}")


def check_against_three_eliminations(build, seed):
    """Every right-hand side on a fresh slice, and on one whose ker M* is
    already known, against the three-elimination split.  On a fresh slice
    of an onto M, ker M* is the () that split_term cached, never eliminated."""
    for f in right_hand_sides(build(), seed):
        kernel, cokernel, expected = three_elimination_split(build(), f)
        graded = build()
        assert split_coords(graded, f) == expected
        assert graded.kernel == kernel
        assert graded.cokernel == cokernel
        assert graded.dimensions == (len(graded.matrix), len(graded.matrix) - len(cokernel), len(cokernel))
        known = build()
        assert known.dimensions == graded.dimensions
        assert split_coords(known, f) == expected
        assert known.kernel == kernel


@pytest.mark.parametrize("a, k", ode_slices())
def test_ode_split_matches_three_eliminations(a, k):
    check_against_three_eliminations(lambda: homological_slice(a, k), f"ode/{a}/{k}")


@pytest.mark.parametrize("n, k", control_slices())
def test_control_split_matches_three_eliminations(n, k):
    check_against_three_eliminations(lambda: control_slice(brunovsky_pair(n), k), f"control/{n}/{k}")


def test_both_routes_are_exercised():
    onto = [name for name in LINEAR_PARTS if all(
        not homological_slice(mat(LINEAR_PARTS[name]), k).cokernel for k in DEGREES
    )]
    # the fallback covers a resonant diagonal A as well as nilpotent and zero ones
    assert {"dense", "scalar"} <= set(onto)
    assert not {"diagonal-1-2", "saddle", "nilpotent", "zero"} & set(onto)


# ---------------------------------------------------------------------------
# the number of eliminations
# ---------------------------------------------------------------------------


def eliminations_of_the_operator(monkeypatch, graded: GradedSlice, f) -> int:
    """rref calls, through ratmat or homological, during one split_term
    whose matrix is M, M* or [M | b]; the Gram systems of the projections
    are not counted."""
    seen = []
    real = ratmat.rref

    def spy(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(ratmat, "rref", spy)
    monkeypatch.setattr(homological, "rref", spy)
    split_coords(graded, f)
    monkeypatch.undo()
    cols = len(graded.matrix[0])

    def is_operator(m):
        return tuple(row[:cols] for row in m) == graded.matrix or m == graded.adjoint

    return sum(map(is_operator, seen))


@pytest.mark.parametrize("name", ["scalar"])
@pytest.mark.parametrize("k", DEGREES)
def test_invertible_operator_is_eliminated_once(monkeypatch, name, k):
    graded = homological_slice(mat(LINEAR_PARTS[name]), k)
    assert eliminations_of_the_operator(monkeypatch, graded, right_hand_sides(graded, k)[0]) == 1


def eliminated_shapes(monkeypatch, graded: GradedSlice, f):
    """The (rows, columns) of every rref call during one split_term."""
    seen = []
    real = ratmat.rref

    def spy(m):
        seen.append((len(m), len(m[0])))
        return real(m)

    monkeypatch.setattr(ratmat, "rref", spy)
    monkeypatch.setattr(homological, "rref", spy)
    split_coords(graded, f)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("k", DEGREES)
def test_invertible_dense_operator_is_never_eliminated(monkeypatch, k):
    """A non-resonant degree of a non-triangular A is solved as one
    N x (N + n) Sylvester system: L_A itself is eliminated zero times."""
    a = mat(LINEAR_PARTS["dense"])
    graded = homological_slice(a, k)
    f = right_hand_sides(graded, k)[0]
    assert eliminations_of_the_operator(monkeypatch, graded, f) == 0
    size = len(graded.matrix) // len(a)
    assert eliminated_shapes(monkeypatch, homological_slice(a, k), f) == [(size, size + len(a))]


@pytest.mark.parametrize("name", ["diagonal-1-2", "nilpotent", "zero", "jordan-3"])
def test_rank_deficient_operator_is_eliminated_at_most_three_times(monkeypatch, name):
    a = mat(LINEAR_PARTS[name])
    assert homological_slice(a, 2).cokernel  # rank-deficient at this degree
    generic, in_range, _ = right_hand_sides(homological_slice(a, 2), 2)
    assert eliminations_of_the_operator(monkeypatch, homological_slice(a, 2), generic) <= 3
    # a consistent [M | f] already holds the solution: only ker M* is added
    assert eliminations_of_the_operator(monkeypatch, homological_slice(a, 2), in_range) == 2


@pytest.mark.parametrize("k", DEGREES)
def test_control_operator_is_eliminated_twice(monkeypatch, k):
    graded = control_slice(brunovsky_pair(3), k)
    assert eliminations_of_the_operator(monkeypatch, graded, right_hand_sides(graded, k)[0]) == 2


# ---------------------------------------------------------------------------
# the shared zero
# ---------------------------------------------------------------------------


def fresh_zeros(m):
    """The same matrix with every zero cell its own Fraction(0)."""
    return tuple(tuple(F(x.numerator, x.denominator) for x in row) for row in m)


@pytest.mark.parametrize(
    "build",
    [lambda: homological_slice(mat([[1, 2], [0, 3]]), 3), lambda: control_slice(brunovsky_pair(2), 3)],
    ids=["ode", "control"],
)
def test_gram_check_gives_the_same_answer_without_the_shared_zero(build):
    graded = build()
    m, adj = graded.matrix, graded.adjoint
    assert any(x is _ZERO for row in m for x in row)
    args = (graded.codomain_weights, graded.domain_weights)
    assert is_gram_adjoint(m, adj, *args)
    fresh_m, fresh_adj = fresh_zeros(m), fresh_zeros(adj)
    assert not any(x is _ZERO for row in fresh_m + fresh_adj for x in row)
    assert is_gram_adjoint(fresh_m, fresh_adj, *args)
    assert is_gram_adjoint(m, fresh_adj, *args) and is_gram_adjoint(fresh_m, adj, *args)
    # a perturbed cell is caught wherever it is, also where the other side is the shared zero
    for s, row in enumerate(adj):
        for h in range(len(row)):
            bad = [list(r) for r in adj]
            bad[s][h] += F(1, 7)
            assert not is_gram_adjoint(m, tuple(map(tuple, bad)), *args)


def test_integer_row_skips_the_shared_zero_and_any_other_zero():
    assert ratmat.integer_row((_ZERO, F(0), F(2, 3), _ZERO, F(-4, 9))) == {2: 3, 4: -2}
