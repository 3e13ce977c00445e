"""The ODE normalizer and the linear defect operators against ``sympy_oracle``,
an implementation of the definitions in sympy that shares no code with
``normalforms``.  Results must agree exactly."""

import random
from fractions import Fraction as F

import pytest

sp = pytest.importorskip("sympy")

import sympy_oracle as oracle  # noqa: E402
from normalforms import ode  # noqa: E402
from normalforms.control import ControlLinearPart, ControlSystem, normalize_control  # noqa: E402
from normalforms.integrals import brunovsky_pair  # noqa: E402
from normalforms.homological import lie_derivative, pde_defect  # noqa: E402
from normalforms.ode import normalize_ode  # noqa: E402
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries, monomial_basis  # noqa: E402
from normalforms.ratmat import mat  # noqa: E402
from map_helpers import characteristic_derivative, generator, residual_basis, skew_field, skew_parts  # noqa: E402


def rational(c: F):
    return sp.Rational(c.numerator, c.denominator)


def sym_matrix(a):
    return sp.Matrix([[rational(v) for v in row] for row in a])


def sym_map(m: HomPolyMap, xs):
    return [
        sum((rational(c) * oracle.monomial(xs, mi) for mi, c in comp.terms.items()), sp.Integer(0))
        for comp in m.components
    ]


def assert_same(fast: HomPolyMap, slow, xs):
    assert len(fast.components) == len(slow)
    assert all(sp.expand(p - q) == 0 for p, q in zip(sym_map(fast, xs), slow))


def random_matrix(rng, rows, cols):
    return mat([[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)])


def random_map(rng, dim_in, dim_out, k, density=0.7):
    mons = monomial_basis(dim_in, k)
    return HomPolyMap(
        [
            HomPoly(dim_in, k, {mi: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for mi in mons if rng.random() < density})
            for _ in range(dim_out)
        ]
    )


# linear parts with resonances of several kinds, and no resonance at all
LINEAR_PARTS = {
    "scalar": [[2]],
    "scalar-zero": [[0]],
    "diagonal-1-2": [[1, 0], [0, 2]],
    "saddle": [[1, 0], [0, -1]],
    "nilpotent": [[0, 1], [0, 0]],
    "zero": [[0, 0], [0, 0]],
    "dense": [["1/2", "-2"], ["3/5", "1"]],
    "jordan-3": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
}


@pytest.mark.parametrize("name", sorted(LINEAR_PARTS))
def test_normalize_ode_matches_the_oracle(name):
    a = mat(LINEAR_PARTS[name])
    # order 4 where n <= 2; jordan-3 (n = 3) stays at order 3
    n = len(a)
    order = 4 if n <= 2 else 3
    rng = random.Random(name)
    # every monomial present, so every resonant term reaches the normal form
    f = PolySeries(n, n, order, {k: random_map(rng, n, n, k, density=1) for k in range(2, order + 1)})
    report = normalize_ode(a, f, order)
    xs = oracle.variables(n)
    normal, generators = oracle.normalize(sym_matrix(a), {k: sym_map(f.term(k), xs) for k in f.degrees()}, order, xs)
    for k in range(2, order + 1):
        assert_same(report.normal_form.term(k), normal[k], xs)
        assert_same(generator(report.log, k) or HomPolyMap.zero(n, n, k), generators[k], xs)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_linear_defects_match_sympy_diff(k):
    rng = random.Random(k)
    for n in (1, 2, 3):
        xs = oracle.variables(n)
        a = random_matrix(rng, n, n)
        f = random_map(rng, n, n, k)
        assert_same(lie_derivative(a, f), oracle.lie_derivative(sym_matrix(a), sym_map(f, xs), xs), xs)

        rows = 1 + n % 3  # never the size of the field
        m, c = random_matrix(rng, n, n), random_matrix(rng, rows, rows)
        q = random_map(rng, n, rows, k)
        fast = pde_defect(m, c, q)
        assert fast.degree == k
        assert_same(fast, oracle.pde_defect(sym_matrix(m), sym_matrix(c), sym_map(q, xs), xs), xs)

        inputs = 1 + n % 2
        lin = ControlLinearPart(a, random_matrix(rng, n, inputs))
        xu = oracle.variables(n + inputs)
        q = random_map(rng, n + inputs, n, k)
        want = oracle.characteristic_derivative(sym_matrix(lin.a), sym_matrix(lin.b), sym_map(q, xu), xu)
        assert_same(characteristic_derivative(lin, q), want, xu)


# ---------------------------------------------------------------------------
# the control half: the Brunovsky pair n = 2, m = 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order, seed", [(2, 0), (3, 1), (3, 2), (4, 3)])
def test_normalize_control_matches_the_oracle(order, seed):
    lin = brunovsky_pair(2)
    n, m = lin.n, lin.m
    rng = random.Random(seed)
    f = PolySeries(n + m, n, order, {k: random_map(rng, n + m, n, k, density=1) for k in range(2, order + 1)})
    report = normalize_control(ControlSystem(lin, f), order)
    xu = oracle.variables(n + m)
    a, b = sym_matrix(lin.a), sym_matrix(lin.b)
    normal, generators = oracle.normalize_control(a, b, {k: sym_map(f.term(k), xu) for k in f.degrees()}, order, xu)
    for k in range(2, order + 1):
        assert_same(report.normal_form.term(k), normal[k], xu)
        p = generator(report.log, k)
        p_x, p_u = generators[k]
        fast_x, fast_u = skew_parts(p, n) if p else (HomPolyMap.zero(n, n, k), HomPolyMap.zero(n + m, m, k))
        assert_same(fast_x, p_x, xu[:n])
        assert_same(fast_u, p_u, xu)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_control_complement_is_the_characteristic_kernel(k):
    lin = brunovsky_pair(2)
    n, m = lin.n, lin.m
    xu = oracle.variables(n + m)
    a, b = sym_matrix(lin.a), sym_matrix(lin.b)
    space = oracle.residual_space(a, b, xu, k)
    for v in space:
        q = oracle.from_coords(v, xu, n, k)
        # the characteristic derivative vanishes at u = 0, and B^t q = 0
        at_rest = [sp.expand(c.subs({u: 0 for u in xu[n:]})) for c in oracle.characteristic_derivative(a, b, q, xu)]
        assert at_rest == [0] * n
        assert [sp.expand(c) for c in b.T * sp.Matrix(q)] == [0] * m
    # the same space as the kernel of the closed-form adjoint
    fast = sp.Matrix.hstack(*[oracle.coords(sym_map(q, xu), xu, k) for q in residual_basis(lin, k)])
    slow = sp.Matrix.hstack(*space)
    assert fast.rank() == slow.rank() == sp.Matrix.hstack(fast, slow).rank()


@pytest.mark.parametrize("order, seed", [(2, 0), (3, 1), (3, 2), (4, 3)])
def test_control_flow_route_matches_the_oracle(order, seed):
    lin = brunovsky_pair(2)
    n, m = lin.n, lin.m
    rng = random.Random(seed)
    # f and g are not a normal form pair, so the defect is generically non-zero
    f, g = (PolySeries(n + m, n, order, {k: random_map(rng, n + m, n, k) for k in range(2, order + 1)}) for _ in range(2))
    degrees = sorted(rng.sample(range(2, order + 1), min(order - 1, 1 + seed % 2)))
    generators = tuple((k, skew_field(random_map(rng, n, n, k), random_map(rng, n + m, m, k))) for k in degrees)
    phi = ode.TransformationLog(dim=n + m, order=order, generators=generators).transformation()
    fast = ode.flow_conjugacy_residuals(lin.aug, f, phi, g, order)
    assert not fast.is_zero

    xu = oracle.variables(n + m)
    phi_layers = [sym_map(phi.term(k), xu) for k in phi.degrees()]
    phi_sym = [x + sum((layer[i] for layer in phi_layers), sp.Integer(0)) for i, x in enumerate(xu)]
    f_sym, g_sym = ({k: sym_map(s.term(k), xu) for k in s.degrees()} for s in (f, g))
    slow = oracle.control_flow_defect(sym_matrix(lin.a), sym_matrix(lin.b), f_sym, phi_sym, g_sym, order, xu)
    for k in range(2, order + 1):
        assert_same(fast.term(k), slow[k], xu)
