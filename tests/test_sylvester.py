"""The Sylvester route of `homological_slice`.

For a non-triangular A, `GradedSlice` first solves L_A xi = f as
X D^t - A X = F with one N x (N + n) integer elimination
(`spectral.sylvester_solve`).  A full-rank system proves the degree
non-resonant and gives xi; otherwise the slice falls back to [L_A | f].
Both are checked here against the three-elimination split of
`tests/dense_ratmat.py` and against `ratmat.solve_with_kernel`, and the
certificates under the route are shown to fail when it is corrupted.
"""

import io
import json
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normalforms import cli, innerprod, ode, ratmat, spectral
from normalforms.homological import CertificateError, homological_slice
from normalforms.spectral import sylvester_solve
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries, map_from_coords, monomial_basis
from normalforms.ratmat import mat
from map_helpers import coords_of, solve

one_elimination = pytest.importorskip("test_one_elimination")
check_against_three_eliminations = one_elimination.check_against_three_eliminations
right_hand_sides = one_elimination.right_hand_sides
eliminated_shapes = one_elimination.eliminated_shapes

RESONANT = mat([["3/2", "1/2"], ["1/2", "3/2"]])  # eigenvalues 1 and 2: resonant at k = 2 only
DENSE_NILPOTENT = mat([[1, 1], [-1, -1]])
DENSE = mat([["-5/4", "-3/2", "-2/3"], ["1/2", "1/3", "-1/3"], [3, -1, "-1/2"]])

NAMED = {
    "resonant": RESONANT,
    "dense-nilpotent": DENSE_NILPOTENT,
    "dense": DENSE,
    "scalar": mat([["2/3", 0, 0], [0, "2/3", 0], [0, 0, "2/3"]]),
    "upper": mat([[1, 2, "1/2"], [0, 2, -1], [0, 0, 3]]),
    "lower": mat([[1, 0], [5, "-1/2"]]),
    # similar to diag(1, 2, 3): non-triangular, resonant at every degree
    "similar-resonant": mat([["4/3", "2/3", "-1/3"], ["-1/3", "7/3", "1/3"], ["-4/3", "4/3", "7/3"]]),
}


def is_triangular(a) -> bool:
    n = len(a)
    below = [(i, j) for i in range(n) for j in range(i)]
    return not any(a[i][j] for i, j in below) or not any(a[j][i] for i, j in below)


def slice_size(n: int, k: int) -> int:
    return n * len(monomial_basis(n, k))


def generic_map(n, k, seed):
    rng = random.Random(seed)
    mons = monomial_basis(n, k)
    comps = [HomPoly(n, k, {mi: F(rng.randint(-5, 5), rng.randint(1, 3)) for mi in mons}) for _ in range(n)]
    return HomPolyMap(comps)


def check_route(a, k, seed):
    """The route's split, kernels and dimensions equal the three-elimination
    split, and its solve equals solve_with_kernel wherever L_A is invertible."""
    assert (homological_slice(a, k).sylvester is None) == is_triangular(a)
    check_against_three_eliminations(lambda: homological_slice(a, k), seed)
    m = homological_slice(a, k).matrix
    for f in right_hand_sides(homological_slice(a, k), seed):
        x, kernel = ratmat.solve_with_kernel(m, f)
        assert sylvester_solve(a, k, f) == (None if kernel else x)


# degrees 2-5 up to 45 coordinates, where the dense oracle stays fast
@pytest.mark.parametrize(
    "name, k",
    [(name, k) for name in sorted(NAMED) for k in range(2, 6) if slice_size(len(NAMED[name]), k) <= 45],
)
def test_named_linear_parts_match_three_eliminations(name, k):
    check_route(NAMED[name], k, f"{name}/{k}")


def rationals():
    return st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def linear_parts(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "scalar", "triangular", "similar", "nilpotent"]))
    if kind == "random":
        return mat([[draw(rationals()) for _ in range(n)] for _ in range(n)])
    if kind == "scalar":
        c = draw(rationals())
        return mat([[c if i == j else 0 for j in range(n)] for i in range(n)])
    if kind == "triangular":
        upper = draw(st.booleans())
        return mat(
            [[draw(rationals()) if (j >= i if upper else j <= i) else 0 for j in range(n)] for i in range(n)]
        )
    # P diag P^-1 with P = (I + U)(I + L) unimodular: a diagonal with
    # integer (often resonant) eigenvalues, or a nilpotent Jordan block
    u = [[draw(st.integers(-2, 2)) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    low = [[draw(st.integers(-2, 2)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    p = ratmat.mat_mul(mat(u), mat(low))
    if kind == "similar":
        core = mat([[draw(st.integers(-2, 3)) if i == j else 0 for j in range(n)] for i in range(n)])
    else:
        core = mat([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
    inverse = ratmat.transpose(
        tuple(solve(p, tuple(F(int(i == j)) for i in range(n))) for j in range(n))
    )
    return ratmat.mat_mul(ratmat.mat_mul(p, core), inverse)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=linear_parts(), k=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_random_linear_parts_match_three_eliminations(a, k, seed):
    while slice_size(len(a), k) > 40:
        k -= 1
    check_route(a, k, seed)


# ---------------------------------------------------------------------------
# which route runs
# ---------------------------------------------------------------------------


def test_resonant_non_triangular_degree_falls_back(monkeypatch):
    graded = homological_slice(RESONANT, 2)
    assert graded.sylvester is not None
    f = right_hand_sides(graded, 2)[0]
    shapes = eliminated_shapes(monkeypatch, graded, f)
    # the 3 x 5 Sylvester system is singular, then today's [L_A | f] runs
    assert shapes[0] == (3, 5) and (6, 7) in shapes
    assert graded.sylvester is None
    assert graded.dimensions == (6, 5, 1)
    # degree 3 is non-resonant: one 4 x 6 system and nothing else
    graded = homological_slice(RESONANT, 3)
    assert eliminated_shapes(monkeypatch, graded, right_hand_sides(graded, 3)[0]) == [(4, 6)]
    assert graded.kernel == graded.cokernel == ()


@pytest.mark.parametrize(
    "a",
    [
        NAMED["upper"],
        NAMED["lower"],
        NAMED["scalar"],
        mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
        mat([[0, 1], [0, 0]]),
    ],
    ids=["upper", "lower", "scalar", "jordan", "nilpotent-block"],
)
def test_triangular_linear_part_never_builds_the_sylvester_system(monkeypatch, a):
    def refuse(*args):
        raise AssertionError("chi(D_k) built for a triangular A")

    monkeypatch.setattr(spectral, "sylvester_solve", refuse)
    n = len(a)
    report = ode.normalize_ode(a, PolySeries(n, n, 3, {2: generic_map(n, 2, 0)}), 3)
    assert report.conjugacy.ok
    for k in (2, 3):
        assert homological_slice(a, k).sylvester is None


def dense_document(a, degrees=(2, 3)):
    n = len(a)
    rng = random.Random(str(a))
    terms = [
        {
            "degree": k,
            "component": c + 1,
            "exponents": list(mi),
            "coeff": str(F(rng.randint(-6, 6), rng.randint(1, 4))),
        }
        for k in degrees
        for c in range(n)
        for mi in monomial_basis(n, k)
    ]
    a = [[str(x) for x in row] for row in a]
    return json.dumps({"kind": "ode", "n": n, "m": 0, "A": a, "terms": terms})


def spy_everywhere(monkeypatch, original, calls):
    """Replace every binding of ``original`` in a normalforms module, the way
    the bench trace does, with a spy that records its first argument."""

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "normalforms" or name.startswith("normalforms."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)


def test_dense_normalize_still_reaches_project_coords_and_rref(monkeypatch, capsys):
    rrefs, projections = [], []
    spy_everywhere(monkeypatch, ratmat.rref, rrefs)
    spy_everywhere(monkeypatch, innerprod.project_coords, projections)
    monkeypatch.setattr(sys, "stdin", io.StringIO(dense_document(DENSE)))
    assert cli.main(["normalize", "--order", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["certificates"]["conjugacy_residual_zero"] is True
    assert len(projections) == 3
    # one N x (N + n) Sylvester system per degree, and no L_A
    assert [(len(m), len(m[0])) for m in rrefs] == [(6, 9), (10, 13), (15, 18)]


# ---------------------------------------------------------------------------
# certificate failures under the route
# ---------------------------------------------------------------------------

SOLVE_FAILED = "homological solve failed verification: L_A xi != f_k - r"


def off_by_one(monkeypatch):
    real = spectral.sylvester_solve

    def corrupted(a, k, f):
        x = real(a, k, f)
        return None if x is None else (x[0] + 1,) + x[1:]

    monkeypatch.setattr(spectral, "sylvester_solve", corrupted)


def test_off_by_one_sylvester_cell_fails_the_solve_check(monkeypatch):
    off_by_one(monkeypatch)
    with pytest.raises(CertificateError, match=re.escape(SOLVE_FAILED)):
        ode.solve_homological(DENSE, generic_map(3, 2, 0), homological_slice(DENSE, 2))


def test_off_by_one_sylvester_cell_makes_normalize_exit_two(monkeypatch, capsys):
    off_by_one(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(dense_document(DENSE)))
    assert cli.main(["normalize", "--order", "3", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert SOLVE_FAILED in captured.err


@pytest.mark.parametrize("a", [RESONANT, mat([[1, 0], [0, 2]])], ids=["non-triangular", "diagonal"])
def test_dropped_cokernel_vector_makes_the_equation_inconsistent(a):
    graded = homological_slice(a, 2)
    (complement,) = homological_slice(a, 2).cokernel
    graded.cokernel = ()  # the cached ker L_{A^t} loses its one vector
    with pytest.raises(CertificateError, match="homological equation is inconsistent"):
        graded.split_term(map_from_coords(complement, graded.codomain_keys))


def test_bogus_cokernel_vector_of_a_non_resonant_slice_fails_the_residual_check():
    graded = homological_slice(DENSE, 2)
    fk = generic_map(3, 2, 1)
    graded.cokernel = (tuple(coords_of(generic_map(3, 2, 2))),)  # ker L_{A^t} is {0} here
    with pytest.raises(CertificateError, match=re.escape("r not in ker L_{A^t}")):
        ode.solve_homological(DENSE, fk, graded)
