"""Polynomial algebra layer: bases, calculus, and truncated composition."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalforms import polyalg
from normalforms.polyalg import (
    HomPoly,
    HomPolyMap,
    PolySeries,
    compose_truncated,
    directional_derivative,
    map_coords,
    map_from_coords,
    map_keys,
    monomial_basis,
)
from normalforms.ratmat import identity
from map_helpers import (
    compose_linear,
    evaluate,
    from_matrix,
    monomial,
    partial_derivative,
    poly_add,
    poly_mul,
    series_eq,
    skew_basis,
    substitute_zero,
    vf_basis,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def hompolys(n_vars, degree):
    mons = monomial_basis(n_vars, degree)
    return st.lists(rationals, min_size=len(mons), max_size=len(mons)).map(
        lambda cs: HomPoly(n_vars, degree, dict(zip(mons, cs)))
    )


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_monomial_basis_examples():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(1, 3) == [(3,)]
    assert len(monomial_basis(3, 2)) == 6  # stars and bars: C(4,2)


def test_vf_basis_examples():
    basis = vf_basis(2, 2, 2)
    assert len(basis) == 6
    first = basis[0]
    assert first.component(0) == monomial((2, 0))
    assert first.component(1).is_zero

    scalars = vf_basis(3, 1, 1)
    assert [b.component(0) for b in scalars] == [
        HomPoly.variable(3, 0),
        HomPoly.variable(3, 1),
        HomPoly.variable(3, 2),
    ]

    assert len(vf_basis(2, 2, 3)) == 8  # 2 * C(4,3)


def test_vf_basis_deterministic():
    assert vf_basis(3, 2, 3) == vf_basis(3, 2, 3)


def counting_hompoly_init(monkeypatch):
    """Count the calls of the validating HomPoly constructor."""
    calls = []
    init = HomPoly.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(HomPoly, "__init__", counted)
    return calls


def test_vf_basis_builds_no_hompoly_through_the_validating_constructor(monkeypatch):
    calls = counting_hompoly_init(monkeypatch)
    basis = vf_basis(3, 3, 4)
    assert calls == []
    # the same maps the public constructor gives, sharing one zero component
    assert len(basis) == 3 * 15
    for b, mono in zip(basis, [(j, mi) for j in range(3) for mi in monomial_basis(3, 4)]):
        j, mi = mono
        assert b.component(j) == monomial(mi)
        assert [c.is_zero for c in b.components] == [i != j for i in range(3)]
        assert all(type(cf) is F for c in b.components for cf in c.terms.values())
    zeros = {id(c) for b in basis for c in b.components if c.is_zero}
    assert len(zeros) == 1


def test_from_matrix_checks_its_input_once_and_builds_trusted_components(monkeypatch):
    a = ((F(1), F(0), F(-2)), (F(0), F(0), F(0)), (F(1, 3), F(4), F(0)))
    calls = counting_hompoly_init(monkeypatch)
    lin = from_matrix(a)
    assert calls == []
    x = [HomPoly.variable(3, j) for j in range(3)]
    assert lin == HomPolyMap(
        [x[0] - poly_mul(x[2], 2), HomPoly.zero(3, 1), poly_add(poly_mul(x[0], F(1, 3)), poly_mul(x[1], 4))]
    )


# the middle field of the first four ids is the dim_in argument that
# from_matrix no longer takes; the ids are kept so each case keeps its name
@pytest.mark.parametrize(
    "a, error",
    [
        pytest.param([[0.5, 0]], TypeError, id="a0-None-TypeError"),
        pytest.param([[True, 0]], TypeError, id="a1-None-TypeError"),
        pytest.param([[]], ValueError, id="a4-None-ValueError"),
        pytest.param([], ValueError, id="a5-2-ValueError"),
        pytest.param([[1, 0], [0, 1, 2]], ValueError, id="ragged"),
    ],
)
def test_from_matrix_rejects_bad_entries(a, error):
    with pytest.raises(error):
        from_matrix(a)


def test_lie_derivative_makes_no_validating_construction(monkeypatch):
    from normalforms.homological import lie_derivative

    a = ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    f = HomPolyMap([HomPoly(3, 2, {(1, 0, 1): F(-1, 2)}), HomPoly(3, 2), HomPoly(3, 2, {(2, 0, 0): 1})])
    calls = counting_hompoly_init(monkeypatch)
    assert not lie_derivative(a, f).is_zero
    assert calls == []


def test_skew_basis_shares_one_zero_map_per_block(monkeypatch):
    n, m = 3, 1
    calls = counting_hompoly_init(monkeypatch)
    basis = skew_basis(n, m, 4)
    assert len(calls) <= n + m
    # every element is a field on R^{n+m} sharing one zero component for
    # the rows it leaves empty, in the state block and in the input block
    assert len({id(c) for p in basis for c in p.components[n:] if c.is_zero}) == 1
    assert len({id(c) for p in basis for c in p.components[:n] if c.is_zero}) == 1


def test_normalize_makes_few_validating_hompoly_constructions(monkeypatch):
    # the Jordan document at order 6 made 2,088 validating constructions
    # when vf_basis went through the public constructor
    from normalforms.ode import normalize_ode

    a = ((1, 1, 0), (0, 1, 0), (0, 0, 2))
    f = PolySeries(
        3,
        3,
        6,
        {
            2: HomPolyMap([HomPoly(3, 2, {(1, 0, 1): F(-1, 2)}), HomPoly(3, 2), HomPoly(3, 2, {(2, 0, 0): 1})]),
            3: HomPolyMap([HomPoly(3, 3), HomPoly(3, 3, {(1, 1, 1): 3}), HomPoly(3, 3)]),
        },
    )
    calls = counting_hompoly_init(monkeypatch)
    assert normalize_ode(a, f, 6).ok
    assert len(calls) <= 200


def test_coords_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        n, b, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(b * len(monomial_basis(n, k)))]
        keys = map_keys(n, b, k)
        t = map_from_coords(coords, keys)
        assert list(map_coords(t, keys)) == coords


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def test_partial_derivative_examples():
    p = monomial((2, 1))  # x1^2 x2
    assert partial_derivative(p, 0) == HomPoly(2, 2, {(1, 1): 2})
    assert partial_derivative(monomial((0, 3)), 0).is_zero
    assert partial_derivative(monomial((1, 1, 1)), 2) == monomial((1, 1, 0))


def test_multiply_examples():
    x1 = HomPoly.variable(2, 0)
    x2 = HomPoly.variable(2, 1)
    assert poly_mul(x1, x2) == monomial((1, 1))
    assert poly_mul(poly_add(x1, x2), x1 - x2) == HomPoly(2, 2, {(2, 0): 1, (0, 2): -1})
    assert poly_mul(HomPoly.zero(2, 1), x2).is_zero


def test_evaluate_examples():
    assert evaluate(monomial((1, 1)), (F(2), F(3))) == 6
    assert evaluate(monomial((2, 0)), (F(0), F(5))) == 0
    # 2x1^2 - x2 at (1/2, 1/4) = 1/4, split into its homogeneous layers
    point = (F(1, 2), F(1, 4))
    quadratic = HomPoly(2, 2, {(2, 0): 2})
    linear = HomPoly.variable(2, 1)
    assert evaluate(quadratic, point) - evaluate(linear, point) == F(1, 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hompolys(2, 2), hompolys(2, 3))
def test_multiply_commutes_and_evaluates(p, q):
    prod = poly_mul(p, q)
    assert prod == poly_mul(q, p)
    rng = random.Random(5)
    for _ in range(5):
        v = (F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.randint(-3, 3), rng.randint(1, 2)))
        assert evaluate(prod, v) == evaluate(p, v) * evaluate(q, v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hompolys(3, 2), hompolys(3, 2))
def test_leibniz_rule(p, q):
    for var in range(3):
        lhs = partial_derivative(poly_mul(p, q), var)
        rhs = poly_add(poly_mul(partial_derivative(p, var), q), poly_mul(p, partial_derivative(q, var)))
        assert lhs == rhs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda k: hompolys(2, k)))
def test_euler_identity(p):
    k = p.degree
    acc = HomPoly.zero(2, k)
    for var in range(2):
        acc = poly_add(acc, poly_mul(HomPoly.variable(2, var), partial_derivative(p, var)))
    assert acc == poly_mul(p, k)


def test_substitute_zero_drops_variables():
    p = HomPoly(3, 2, {(1, 0, 1): 2, (0, 2, 0): 1})
    assert substitute_zero(p, [2]) == HomPoly(3, 2, {(0, 2, 0): 1})
    assert substitute_zero(p, []) == p


def test_directional_derivative_is_chain_rule():
    # field (x2, x1), p = x1 x2  ->  x2*x2 + x1*x1
    drive = ((F(0), F(1)), (F(1), F(0)))
    p = monomial((1, 1))
    assert directional_derivative(drive, [p]).components[0] == HomPoly(2, 2, {(2, 0): 1, (0, 2): 1})


def test_compose_linear_rectangular():
    # lift x1^2 on R^2 into R^3 coordinates via the projection matrix
    p = monomial((2, 0))
    t = ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    lifted = compose_linear(p, t)
    assert lifted == monomial((2, 0, 0))


# ---------------------------------------------------------------------------
# truncated composition
# ---------------------------------------------------------------------------


def test_compose_truncated_binomial():
    # f = x^2 scalar, phi = y + y^2, N=4  ->  y^2 + 2y^3 + y^4
    f = PolySeries(1, 1, 2, {2: HomPolyMap([monomial((2,))])})
    phi = PolySeries(1, 1, 2, {2: HomPolyMap([monomial((2,))])})
    linear = ((F(0),),)
    out = compose_truncated(linear, f, phi, 4)
    assert out.term(2) == HomPolyMap([monomial((2,))])
    assert out.term(3) == HomPolyMap([HomPoly(1, 3, {(3,): 2})])
    assert out.term(4) == HomPolyMap([monomial((4,))])


def test_compose_truncated_identity_cases():
    # f linear = Ax, phi = identity -> Ax (no nonlinear terms)
    a = ((F(0), F(1)), (F(0), F(0)))
    f = PolySeries.zero(2, 2, 3)
    phi = PolySeries.zero(2, 2, 3)
    assert compose_truncated(a, f, phi, 3).is_zero

    # f = (x2, 0), phi = (y1, y2 + y1^2), N=2  ->  (y2 + y1^2, 0): quadratic layer (y1^2, 0)
    phi2 = PolySeries(2, 2, 2, {2: HomPolyMap([HomPoly.zero(2, 2), monomial((2, 0))])})
    out = compose_truncated(a, f, phi2, 2)
    assert out.term(2) == HomPolyMap([monomial((2, 0)), HomPoly.zero(2, 2)])


def test_compose_truncated_identity_phi_is_identity():
    rng = random.Random(9)
    mons = monomial_basis(2, 2)
    comp = HomPolyMap(
        [HomPoly(2, 2, {mi: F(rng.randint(-3, 3)) for mi in mons}) for _ in range(2)]
    )
    f = PolySeries(2, 2, 3, {2: comp})
    phi = PolySeries.zero(2, 2, 3)
    a = ((F(1), F(2)), (F(0), F(1)))
    out = compose_truncated(a, f, phi, 3)
    assert series_eq(out, f.truncate(3))


def dense_compose_case():
    """(n, order, f, phi): dense rational layers of f at degrees 2..order,
    and of phi at degrees 2 and 3."""
    rng = random.Random(7)
    n, order = 3, 5

    def dense_map(k, coeff):
        return HomPolyMap([HomPoly(n, k, {mi: coeff() for mi in monomial_basis(n, k)}) for _ in range(n)])

    f = PolySeries(
        n, n, order, {k: dense_map(k, lambda: F(rng.randint(1, 9), rng.randint(1, 5))) for k in range(2, order + 1)}
    )
    phi = PolySeries(n, n, 3, {k: dense_map(k, lambda: F(rng.randint(-3, 3), 2)) for k in (2, 3)})
    return n, order, f, phi


def test_compose_truncated_builds_each_monomial_product_once(monkeypatch):
    # every phi^mi is built once from phi^(mi - e_j) and phi_j, by one
    # multiply of the two packed layers, shared by all output rows, and
    # nothing is multiplied by the constant 1
    n, order, f, phi = dense_compose_case()
    operand_degrees, built = [], []
    multiply_, reduce_layer_ = polyalg.multiply, polyalg._reduce_layer
    # the table is keyed by the codes of this packing
    packing = polyalg._Packing(n, order)

    def counting_multiply(pk, a, b, top):
        operand_degrees.append(([d for d, _ in a], [d for d, _ in b]))
        return multiply_(pk, a, b, top)

    def recording_reduce_layer(nums, den):
        out_nums, out_den = out = reduce_layer_(nums, den)
        # phi is the identity plus higher layers, so the lowest layer of
        # phi^mi, its first component, is the monomial x^mi itself, with
        # value 1 before and after the content is divided out
        for layers, d in ((nums, den), (out_nums, out_den)):
            (code, c), = layers[0].items()
            assert F(c, d) == 1
        built.append(packing.monomial(code))
        return out

    monkeypatch.setattr(polyalg, "multiply", counting_multiply)
    monkeypatch.setattr(polyalg, "_reduce_layer", recording_reduce_layer)
    compose_truncated(identity(n), f, phi, order)

    assert operand_degrees and all(all(da) and all(db) for da, db in operand_degrees)
    # one multiply per table entry
    assert len(operand_degrees) == len(built)
    assert len(built) == len(set(built))
    reached = {mi for k in f.degrees() for comp in f.term(k).components for mi in comp.terms}
    assert all(any(all(a <= b for a, b in zip(mi, r)) for r in reached) for mi in built)
    assert set(built) >= {mi for mi in reached if sum(mi) >= 2}


def test_compose_truncated_builds_hompolys_only_for_its_result(monkeypatch):
    # the product step stays on packed integers: the only HomPolys built are
    # the components of the result, one per output row and degree
    n, order, f, phi = dense_compose_case()
    linear = tuple(tuple(F(i - 2 * j, 3) for j in range(n)) for i in range(n))
    trusted, built = HomPoly._trusted.__func__, []

    def counting_trusted(cls, n_vars, degree, terms):
        built.append(degree)
        return trusted(cls, n_vars, degree, terms)

    def lie_route(*args):
        raise AssertionError("the flow route went through the Lie-series route")

    monkeypatch.setattr(HomPoly, "_trusted", classmethod(counting_trusted))
    # and it stays independent of the Lie-series route
    monkeypatch.setattr(polyalg, "_bracket", lie_route)
    monkeypatch.setattr(polyalg, "lie_transform", lie_route)
    out = compose_truncated(linear, f, phi, order)
    assert out.degrees() == list(range(2, order + 1))
    assert len(built) == sum(len(out.term(k).components) for k in out.degrees())


def test_directional_derivative_makes_no_multiply_call(monkeypatch):
    def no_multiply(*args):
        raise AssertionError("directional_derivative went through multiply")

    monkeypatch.setattr(polyalg, "multiply", no_multiply)
    p = HomPoly(3, 3, {(1, 1, 1): F(2, 3), (3, 0, 0): F(-1), (0, 1, 2): F(5, 7)})
    drive = ((F(0), F(1, 2), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(3)))
    # d/dx1 and d/dx3 of p against field_1 = y/2 and field_3 = 3 z
    expected = HomPoly(
        3,
        3,
        {(0, 2, 1): F(1, 3), (2, 1, 0): F(-3, 2), (1, 1, 1): F(2), (0, 1, 2): F(30, 7)},
    )
    assert directional_derivative(drive, [p]).components[0] == expected


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        HomPoly(2, 2, {(2, 0): 0.5})


def test_polyseries_validation():
    with pytest.raises(ValueError):
        PolySeries(2, 2, 3, {1: HomPolyMap.zero(2, 2, 1)})
    with pytest.raises(ValueError):
        PolySeries(2, 2, 3, {4: HomPolyMap.zero(2, 2, 4)})
    # degree metadata must match the key
    with pytest.raises(ValueError):
        PolySeries(2, 2, 3, {3: HomPolyMap.zero(2, 2, 2)})
