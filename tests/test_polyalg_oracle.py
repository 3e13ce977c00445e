"""The trusted, accumulate-in-place polynomial kernel against the slow oracle.

Exact arithmetic gives the same coefficients whatever order the terms are
summed in, and both kernels emit terms in grlex order, so every result must
equal the oracle's in its terms *and* in their iteration order: the CLI
renders polynomials in that order.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_polyalg as oracle
from normalforms.homological import lie_derivative, pde_defect
from normalforms.polyalg import (
    _Packing,
    HomPoly,
    HomPolyMap,
    PolySeries,
    compose_truncated,
    directional_derivative,
    flow_identity_defect,
    monomial_basis,
    multiply,
)
from map_helpers import from_matrix, map_add, monomial, partial_derivative, poly_add, poly_mul, poly_neg

BIG = 2**64  # numerators and denominators past 60 bits

coefficients = st.one_of(
    st.builds(F, st.integers(-5, 5), st.integers(1, 4)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
scalars = st.one_of(st.integers(-3, 3), coefficients)


def terms_of(p):
    return list(p.terms.items())


def same(fast, slow):
    assert (fast.n_vars, fast.degree) == (slow.n_vars, slow.degree)
    assert terms_of(fast) == terms_of(slow)


def same_map(fast, slow):
    assert len(fast.components) == len(slow.components)
    for a, b in zip(fast.components, slow.components):
        same(a, b)


@st.composite
def hompolys(draw, n_vars, degree):
    """A sparse random polynomial, terms handed over in a random order."""
    mons = draw(st.permutations(monomial_basis(n_vars, degree)))
    size = draw(st.integers(0, len(mons)))
    return HomPoly(n_vars, degree, {mi: draw(coefficients) for mi in mons[:size]})


@st.composite
def shapes(draw, max_vars=4, max_degree=4):
    return draw(st.integers(1, max_vars)), draw(st.integers(0, max_degree))


@st.composite
def pairs(draw):
    n, k = draw(shapes())
    return draw(hompolys(n, k)), draw(hompolys(n, k))


@given(pairs(), scalars)
@settings(max_examples=120, deadline=None)
def test_linear_operations_match_oracle(pq, c):
    p, q = pq
    sp, sq = oracle.slow(p), oracle.slow(q)
    same(poly_add(p, q), sp + sq)
    same(p - q, sp - sq)
    same(poly_neg(p), -sp)
    same(poly_mul(p, c), c * sp)
    same(poly_mul(p, c), sp * c)


@given(shapes())
@settings(max_examples=40, deadline=None)
def test_cancellation_leaves_no_terms(shape):
    n, k = shape
    p = HomPoly(n, k, {mi: F(-7, 3) + i for i, mi in enumerate(monomial_basis(n, k))})
    assert poly_add(p, poly_neg(p)).terms == {}
    assert (p - p).terms == {}
    assert poly_mul(p, 0).terms == {}
    assert poly_add(p, poly_neg(p)).is_zero and poly_add(p, poly_neg(p)).degree == k


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_multiply_and_partial_derivative_match_oracle(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(hompolys(n, data.draw(st.integers(0, 4))))
    q = data.draw(hompolys(n, data.draw(st.integers(0, 3))))
    same(poly_mul(p, q), oracle.multiply(oracle.slow(p), oracle.slow(q)))
    same(poly_mul(p, q), oracle.slow(p) * oracle.slow(q))
    for var in range(n):
        same(partial_derivative(p, var), oracle.partial_derivative(oracle.slow(p), var))


@st.composite
def square_matrices(draw, n):
    entry = st.one_of(st.just(F(0)), coefficients)
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_directional_derivative_matches_oracle(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(hompolys(n, data.draw(st.integers(0, 4))))
    drive = data.draw(square_matrices(n))
    same(
        directional_derivative(drive, [p]).components[0],
        oracle.directional_derivative([oracle.slow(f) for f in from_matrix(drive).components], oracle.slow(p)),
    )


@st.composite
def hompolymaps(draw, n_in, n_out, degree):
    return HomPolyMap([draw(hompolys(n_in, degree)) for _ in range(n_out)])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_lie_derivative_matches_oracle(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, 4 if n < 4 else 3))
    a = data.draw(square_matrices(n))
    f = data.draw(hompolymaps(n, n, k))
    same_map(lie_derivative(a, f), oracle.lie_derivative(a, f))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_pde_defect_matches_oracle(data):
    # q maps R^n to R^width with width != n, so the coupling is not the
    # field's size; a coupling with fewer rows than q has components gives
    # the first rows of the defect of the coupling padded with zero rows
    n = data.draw(st.integers(1, 4))
    width = data.draw(st.sampled_from([r for r in range(1, 4) if r != n]))
    rows = data.draw(st.integers(1, width))
    k = data.draw(st.integers(0, 3))
    drive = data.draw(square_matrices(n))
    coupling = data.draw(square_matrices(width))[:rows]
    q = data.draw(hompolymaps(n, width, k))
    padded = coupling + ((F(0),) * width,) * (width - rows)
    slow = oracle.pde_defect(from_matrix(drive), padded, q)
    same_map(pde_defect(drive, coupling, q), HomPolyMap(slow.components[:rows]))


def test_pde_defect_rejects_a_coupling_that_does_not_fit_q():
    field = ((1, 0), (0, 1))
    q = HomPolyMap.zero(2, 3, 2)
    with pytest.raises(ValueError, match="PDE shape"):
        pde_defect(field, ((1, 0, 0), (0, 1)), q)  # a row shorter than q
    with pytest.raises(ValueError, match="PDE shape"):
        pde_defect(field, ((1, 0, 0, 0),), q)  # a row longer than q
    with pytest.raises(ValueError, match="PDE shape"):
        pde_defect(field, ((0, 0, 0),) * 4, q)  # more rows than q has components


@st.composite
def series(draw, n_in, n_out, max_degree):
    degrees = draw(st.sets(st.integers(2, max_degree), max_size=2))
    return PolySeries(n_in, n_out, max_degree, {k: draw(hompolymaps(n_in, n_out, k)) for k in degrees})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_truncated_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    rows = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(2, 4))
    linear = tuple(
        tuple(data.draw(st.one_of(st.just(0), st.integers(-2, 2), coefficients)) for _ in range(n))
        for _ in range(rows)
    )
    f = data.draw(series(n, rows, order))
    phi = data.draw(series(n, n, data.draw(st.integers(2, 4))))
    fast = compose_truncated(linear, f, phi, order)
    slow = oracle.compose_truncated(linear, f, phi, order)
    assert fast.degrees() == slow.degrees()
    for k in fast.degrees():
        same_map(fast.term(k), slow.term(k))


# wide enough for the integer-numerator product: each operand's terms are
# brought to one denominator, the lcm of theirs
COPRIME_DENOMINATORS = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 3**40, 5**28, 7**23)


@st.composite
def coprime_hompolys(draw, n_vars, degree):
    """Every term over its own 60+ bit denominator, pairwise coprime."""
    mons = monomial_basis(n_vars, degree)[: len(COPRIME_DENOMINATORS)]
    dens = draw(st.permutations(COPRIME_DENOMINATORS))
    size = draw(st.integers(1, len(mons)))
    return HomPoly(
        n_vars,
        degree,
        {mi: F(draw(st.integers(-BIG, BIG).filter(bool)), den) for mi, den in zip(mons[:size], dens)},
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_over_coprime_wide_denominators_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(coprime_hompolys(n, data.draw(st.integers(0, 3))))
    q = data.draw(coprime_hompolys(n, data.draw(st.integers(0, 3))))
    same(poly_mul(p, q), oracle.multiply(oracle.slow(p), oracle.slow(q)))
    same(poly_mul(q, p), oracle.multiply(oracle.slow(q), oracle.slow(p)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_directional_derivative_over_coprime_component_denominators_matches_oracle(data):
    # one 60+ bit denominator per row of the drive, pairwise coprime, and p
    # over another: the drive's common denominator is their product
    n = data.draw(st.integers(1, 4))
    dens = data.draw(st.permutations(COPRIME_DENOMINATORS))
    drive = []
    for den in dens[:n]:
        columns = data.draw(st.permutations(range(n)))
        size = data.draw(st.integers(0, n))
        row = [F(0)] * n
        for j in columns[:size]:
            row[j] = F(data.draw(st.integers(-BIG, BIG).filter(bool)), den)
        drive.append(tuple(row))
    mons = monomial_basis(n, data.draw(st.integers(0, 4)))
    p = HomPoly(n, sum(mons[0]), {mi: F(data.draw(st.integers(-BIG, BIG)), dens[n]) for mi in mons})
    same(
        directional_derivative(drive, [p]).components[0],
        oracle.directional_derivative([oracle.slow(f) for f in from_matrix(drive).components], oracle.slow(p)),
    )


# the ids only name the cases; every drive is the n x n zero matrix
@pytest.mark.parametrize(
    "n, dp",
    [
        pytest.param(1, 0, id="1-0-0"),
        pytest.param(1, 3, id="1-3-2"),
        pytest.param(2, 2, id="2-2-1"),
        pytest.param(3, 4, id="3-4-0"),
        pytest.param(4, 1, id="4-1-3"),
    ],
)
def test_directional_derivative_along_the_zero_field(n, dp):
    p = HomPoly(n, dp, {mi: F(3, 2**61 - 1) for mi in monomial_basis(n, dp)})
    drive = ((F(0),) * n,) * n
    result = directional_derivative(drive, [p]).components[0]
    same(result, oracle.directional_derivative([oracle.slow(f) for f in from_matrix(drive).components], oracle.slow(p)))
    assert result.is_zero and result.degree == max(dp, 1)


@pytest.mark.parametrize("n, dp, dq", [(1, 0, 0), (2, 1, 3), (3, 2, 0), (4, 0, 2)])
def test_multiply_with_zero_operands(n, dp, dq):
    p = HomPoly(n, dp, {mi: F(3, 2**61 - 1) for mi in monomial_basis(n, dp)})
    zp, zq = HomPoly.zero(n, dp), HomPoly.zero(n, dq)
    for a, b in ((zp, zq), (p, zq), (zq, p)):
        product = poly_mul(a, b)
        same(product, oracle.multiply(oracle.slow(a), oracle.slow(b)))
        assert product.is_zero and product.degree == a.degree + b.degree


# ---------------------------------------------------------------------------
# the packed graded product against the sum of oracle products
# ---------------------------------------------------------------------------


def packed(pk, operand):
    """Oracle (degree, HomPoly) layers with integer coefficients as packed
    (degree, (code, numerator) terms) layers."""
    return [(d, [(pk.code(mi), cf.numerator) for mi, cf in p.terms.items()]) for d, p in operand]


def same_graded_product(n, order, a, b):
    """multiply on the packed operands equals, degree by degree, the sum of
    the oracle products of every layer pair within the order."""
    pk = _Packing(n, order)
    nums = multiply(pk, packed(pk, a), packed(pk, b), order)
    low = a[0][0] + b[0][0]
    assert len(nums) == max(min(order, a[-1][0] + b[-1][0]) - low + 1, 0)
    for t, layer in enumerate(nums):
        expected = oracle.HomPoly.zero(n, low + t)
        for da, pa in a:
            for db, pb in b:
                if da + db == low + t:
                    expected = expected + oracle.multiply(pa, pb)
        assert {pk.monomial(k): c for k, c in layer.items() if c} == expected.terms


@st.composite
def graded_operands(draw, n, order):
    """Up to three layers of degree 0..order, lowest first, each a sparse
    oracle polynomial with small or 60+ bit integer coefficients."""
    degrees = sorted(draw(st.sets(st.integers(0, order), min_size=1, max_size=3)))
    whole = st.one_of(st.integers(-5, 5), st.integers(-BIG, BIG))
    out = []
    for d in degrees:
        mons = draw(st.permutations(monomial_basis(n, d)))
        size = draw(st.integers(0, min(len(mons), 12)))
        out.append((d, oracle.HomPoly(n, d, {mi: draw(whole) for mi in mons[:size]})))
    return out


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_graded_product_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(0, 8))
    same_graded_product(n, order, data.draw(graded_operands(n, order)), data.draw(graded_operands(n, order)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [7, 8, 15, 16])
def test_packed_graded_product_at_the_field_width(n, order):
    # orders 7 and 15 pack each exponent in 3 and 4 bits: x_j^order, every
    # exponent in one variable, fills its field exactly, and one more degree
    # would carry into the next field; orders 8 and 16 need the next width
    for j in range(n):
        def power(d, cf):
            return oracle.HomPoly(n, d, {tuple(d if i == j else 0 for i in range(n)): cf})

        a = [(d, power(d, d + 1)) for d in range(1, order)]
        b = [(d, power(d, -d)) for d in range(1, order)]
        same_graded_product(n, order, a, b)
        # the top degree holds one monomial, x_j^order, at the top of its field
        pk = _Packing(n, order)
        top = multiply(pk, packed(pk, a), packed(pk, b), order)[-1]
        assert list(top) == [order << pk.shifts[j]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_graded_product_of_degree_zero_operands(n):
    # _Packing(n, 0) has fields of width 0: every code is 0
    one = tuple([0] * n)
    a = [(0, oracle.HomPoly(n, 0, {one: 3}))]
    b = [(0, oracle.HomPoly(n, 0, {one: -BIG}))]
    assert _Packing(n, 0).mask == 0
    same_graded_product(n, 0, a, b)
    same_graded_product(n, 0, a, [(0, oracle.HomPoly.zero(n, 0))])
    # a constant times graded layers keeps every degree within the order
    layers = [(d, oracle.HomPoly(n, d, {mi: i + 1 for i, mi in enumerate(monomial_basis(n, d))})) for d in (1, 2, 4)]
    same_graded_product(n, 4, a, layers)
    same_graded_product(n, 3, layers, a)


@st.composite
def deep_series(draw, n_in, n_out, max_degree):
    """Up to 3 degrees in 2..max_degree; sparse, so high degrees stay cheap."""
    degrees = draw(st.sets(st.integers(2, max_degree), max_size=3))
    terms = {}
    for k in degrees:
        comps = []
        for _ in range(n_out):
            mons = draw(st.permutations(monomial_basis(n_in, k)))
            size = draw(st.integers(0, min(4, len(mons))))
            comps.append(HomPoly(n_in, k, {mi: draw(coefficients) for mi in mons[:size]}))
        terms[k] = HomPolyMap(comps)
    return PolySeries(n_in, n_out, max_degree, terms)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_truncated_deep_rectangular_matches_oracle(data):
    # control shape: f maps (x, u) in n + m variables to n components
    n = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(0, 1))
    order = data.draw(st.integers(2, 6))
    linear = tuple(
        tuple(data.draw(st.one_of(st.just(0), st.integers(-2, 2), coefficients)) for _ in range(n + m))
        for _ in range(n)
    )
    # the series and phi may both carry layers above the order
    f = data.draw(deep_series(n + m, n, order + 1))
    phi = data.draw(deep_series(n + m, n + m, order + 2))
    fast = compose_truncated(linear, f, phi, order)
    slow = oracle.compose_truncated(linear, f, phi, order)
    assert fast.degrees() == slow.degrees()
    for k in fast.degrees():
        same_map(fast.term(k), slow.term(k))


def test_compose_truncated_deep_monomial_needs_no_recursion():
    # a recursive product table would pass the interpreter's recursion limit
    x_1100 = HomPolyMap([monomial((1100,))])
    out = compose_truncated(((1,),), PolySeries(1, 1, 1100, {1100: x_1100}), PolySeries.zero(1, 1, 2), 1100)
    assert out.degrees() == [1100]
    assert out.term(1100) == x_1100


# ---------------------------------------------------------------------------
# the one derivation step: directional_derivative and the flow route's
# left side, against the slow oracle
# ---------------------------------------------------------------------------


def test_directional_derivative_cancels_to_zero():
    # D(x y z) . (x, -y, 0) over coprime wide denominators: x y z - x y z
    a, b = F(3, 2**61 - 1), F(5, 2**89 - 1)
    p = HomPoly(3, 3, {(1, 1, 1): a, (0, 0, 3): b})
    c = F(7, 2**107 - 1)
    drive = ((c, F(0), F(0)), (F(0), -c, F(0)), (F(0), F(0), F(0)))
    result = directional_derivative(drive, [p]).components[0]
    same(result, oracle.directional_derivative([oracle.slow(f) for f in from_matrix(drive).components], oracle.slow(p)))
    assert result.is_zero and result.degree == 3


@st.composite
def coprime_series(draw, n_in, n_out, max_degree):
    """Up to 3 degrees in 2..max_degree, every term over one of the
    pairwise coprime 61-127 bit denominators."""
    terms = {}
    for k in draw(st.sets(st.integers(2, max_degree), max_size=3)):
        comps = []
        for _ in range(n_out):
            mons = draw(st.permutations(monomial_basis(n_in, k)))
            size = draw(st.integers(0, min(3, len(mons))))
            dens = draw(st.permutations(COPRIME_DENOMINATORS[:4]))
            comps.append(HomPoly(n_in, k, {mi: F(draw(st.integers(-BIG, BIG)), den) for mi, den in zip(mons[:size], dens)}))
        terms[k] = HomPolyMap(comps)
    return PolySeries(n_in, n_out, max_degree, terms)


def same_defect(fast, slow):
    assert list(fast) == list(slow)
    for d in fast:
        same_map(fast[d], slow[d])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flow_identity_defect_matches_oracle(data):
    # a rectangular field, r <= N rows as the control route passes, with
    # every layer (phi's, g's and the composition's) over coprime wide
    # denominators, including layers above the order
    n = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(1, n))
    order = data.draw(st.integers(1, 5))
    linear = tuple(
        tuple(data.draw(st.one_of(st.just(F(0)), st.sampled_from(COPRIME_DENOMINATORS).map(lambda d: F(3, d)))) for _ in range(n))
        for _ in range(r)
    )
    phi = data.draw(coprime_series(n, n, order + 1))
    g = data.draw(coprime_series(n, r, order + 1))
    composed = data.draw(coprime_series(n, r, order + 1))
    same_defect(
        flow_identity_defect(linear, phi, g, composed, order),
        oracle.flow_identity_defect(linear, phi, g, composed, order),
    )


@pytest.mark.parametrize("r", [1, 2, 3])
def test_flow_identity_defect_with_a_zero_field_and_no_phi(r):
    # A = 0 and g = 0: both sides are zero at every degree, even degree 1,
    # where the left side has no piece
    zero = tuple((F(0),) * 3 for _ in range(r))
    empty = PolySeries.zero(3, r, 4)
    phi = PolySeries(3, 3, 4, {2: HomPolyMap([HomPoly(3, 2, {(2, 0, 0): F(1, 2**61 - 1)})] * 3)})
    for p in (PolySeries.zero(3, 3, 4), phi):
        assert flow_identity_defect(zero, p, empty, empty, 4) == {}
        assert oracle.flow_identity_defect(zero, p, empty, empty, 4) == {}


def test_flow_identity_defect_of_a_conjugate_pair_cancels_to_zero():
    # Phi from a real normalization conjugates x' = Ax + f to y' = Ay + g:
    # every degree cancels, and a bumped g leaves the bump at its degree
    from normalforms.ode import normalize_ode

    a = ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    f = PolySeries(3, 3, 4, {
        2: HomPolyMap([HomPoly(3, 2, {mi: F(i + 1, COPRIME_DENOMINATORS[i % 4]) for i, mi in enumerate(monomial_basis(3, 2))})] * 3),
        3: HomPolyMap([HomPoly(3, 3, {(1, 1, 1): F(-2, 2**127 - 1)}), HomPoly.zero(3, 3), HomPoly(3, 3, {(0, 0, 3): F(1)})]),
    })
    report = normalize_ode(a, f, 4)
    phi, g = report.log.transformation(), report.normal_form
    assert not phi.is_zero
    composed = compose_truncated(a, f, phi, 4)
    assert flow_identity_defect(a, phi, g, composed, 4) == {}
    assert oracle.flow_identity_defect(a, phi, g, composed, 4) == {}
    bump = HomPolyMap([HomPoly(3, 3, {(0, 3, 0): F(1, 2**89 - 1)}), HomPoly.zero(3, 3), HomPoly.zero(3, 3)])
    bumped = PolySeries(3, 3, 4, {**g.terms, 3: map_add(g.term(3), bump)})
    defect = flow_identity_defect(a, phi, bumped, composed, 4)
    same_defect(defect, oracle.flow_identity_defect(a, phi, bumped, composed, 4))
    assert defect[3] == bump


# ---------------------------------------------------------------------------
# public construction still validates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "terms",
    [
        {(1,): 1},  # too short
        {(1, 0, 0): 1},  # too long
        {(2, -1): 1},  # negative exponent
        {(True, False): 1},  # bool exponents
        {(1.0, 0): 1},  # float exponent
        {(2, 0): 1},  # wrong total degree
    ],
)
def test_public_constructor_rejects_bad_indices(terms):
    with pytest.raises(ValueError):
        HomPoly(2, 1, terms)


@pytest.mark.parametrize("coeff", [0.5, True, None])
def test_public_constructor_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError):
        HomPoly(2, 1, {(1, 0): coeff})


def test_public_constructor_sorts_and_converts():
    p = HomPoly(2, 2, {(0, 2): 3, (2, 0): "1/2", (1, 1): F(0)})
    assert terms_of(p) == [((2, 0), F(1, 2)), ((0, 2), F(3))]
    assert all(type(cf) is F for cf in p.terms.values())


# ---------------------------------------------------------------------------
# monomial_basis without recursion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(0, 6))
def test_monomial_basis_matches_recursive_oracle(n, k):
    assert monomial_basis(n, k) == oracle.monomial_basis(n, k)


def test_monomial_basis_many_variables():
    basis = monomial_basis(1200, 1)
    assert len(basis) == 1200
    assert basis[0] == (1,) + (0,) * 1199 and basis[-1] == (0,) * 1199 + (1,)
