"""The integer Lie-series engine and Lie-transform composition against the
old loops kept in ``slow_lie``.

Exact arithmetic gives the same coefficients whatever order the terms are
summed in, and both sides emit terms in grlex order, so every result must
equal the oracle's in its terms *and* in their iteration order: the CLI
renders polynomials in that order.
"""

from fractions import Fraction as F
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_lie as oracle
import slow_polyalg
from normalforms import control as control_module
from normalforms import ode, polyalg
from normalforms.control import ControlLinearPart, ControlSystem, pushforward_control
from normalforms.ode import TransformationLog, flow_map, pushforward_ode
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries, compose_truncated, lie_transform, monomial_basis
from normalforms.ratmat import identity
from map_helpers import map_neg, series_eq, skew_field

BIG = 2**64

# pairwise coprime, 61 to 127 bits: sums over them need the full lcm
COPRIME_DENOMINATORS = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 3**40, 5**28, 7**23)

small = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 4))
wide = st.builds(F, st.integers(-BIG, BIG).filter(bool), st.sampled_from(COPRIME_DENOMINATORS))
coefficients = st.one_of(small, small, wide)


def same_map(fast, slow):
    assert len(fast.components) == len(slow.components)
    for a, b in zip(fast.components, slow.components):
        assert (a.n_vars, a.degree) == (b.n_vars, b.degree)
        assert list(a.terms.items()) == list(b.terms.items())


def same_series(fast, slow):
    assert fast.degrees() == slow.degrees()
    for k in fast.degrees():
        same_map(fast.term(k), slow.term(k))
    for k in fast.degrees():
        for comp in fast.term(k).components:
            assert all(type(cf) is F for cf in comp.terms.values())


@st.composite
def maps(draw, n_in, n_out, degree, max_terms=3):
    """A sparse map, at most max_terms terms per component."""
    comps = []
    for _ in range(n_out):
        mons = draw(st.permutations(monomial_basis(n_in, degree)))
        size = draw(st.integers(0, min(max_terms, len(mons))))
        comps.append(HomPoly(n_in, degree, {mi: draw(coefficients) for mi in mons[:size]}))
    return HomPolyMap(comps)


@st.composite
def gapped_series(draw, n_in, n_out, order):
    """Up to three degrees in 2..order, so degrees may be skipped."""
    degrees = draw(st.sets(st.integers(2, order), max_size=3))
    return PolySeries(n_in, n_out, order, {k: draw(maps(n_in, n_out, k)) for k in degrees})


@st.composite
def linear_parts(draw, rows, cols):
    kind = draw(st.sampled_from(["zero", "shift", "jordan", "dense"]))
    if kind == "zero":
        return tuple(tuple(F(0) for _ in range(cols)) for _ in range(rows))
    if kind == "shift":
        return tuple(tuple(F(int(j == i + 1)) for j in range(cols)) for i in range(rows))
    if kind == "jordan":
        return tuple(tuple(F(i + 1) if j == i else F(int(j == i + 1)) for j in range(cols)) for i in range(rows))
    entry = st.one_of(st.just(F(0)), coefficients)
    return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


# ---------------------------------------------------------------------------
# the three Lie series
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_pushforward_ode_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(2, 5 if n < 3 else 4))
    a = data.draw(linear_parts(n, n))
    f = data.draw(gapped_series(n, n, order + 1))
    xi = data.draw(maps(n, n, data.draw(st.integers(2, order))))
    same_series(pushforward_ode(a, f, [xi], order), oracle.pushforward_ode(a, f, xi, order))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_flow_map_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(2, 6 if n < 3 else 5))
    xi = data.draw(maps(n, n, data.draw(st.integers(2, order))))
    same_series(flow_map([xi], order), oracle.flow_map(xi, order))


@st.composite
def control_cases(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    order = draw(st.integers(2, 4))
    lin = ControlLinearPart(draw(linear_parts(n, n)), draw(linear_parts(n, m)))
    f = draw(gapped_series(n + m, n, order))
    k = draw(st.integers(2, order))
    p = skew_field(draw(maps(n, n, k)), draw(maps(n + m, m, k)))
    return ControlSystem(lin, f), p, order


@given(control_cases())
@settings(max_examples=50, deadline=None)
def test_pushforward_control_matches_oracle(case):
    sys, p, order = case
    fast = pushforward_control(sys, p, order)
    slow = oracle.pushforward_control(sys, p, order)
    assert fast.lin == slow.lin
    same_series(fast.nonlinear, slow.nonlinear)


@pytest.mark.parametrize("m", [1, 2])
def test_pushforward_control_brunovsky_matches_oracle(m):
    # a Brunovsky chain per input, dense wide-denominator terms
    n = 2 * m
    a = tuple(tuple(F(int(j == i + 1 and i % 2 == 0)) for j in range(n)) for i in range(n))
    b = tuple(tuple(F(int(i == 2 * r + 1)) for r in range(m)) for i in range(n))
    lin = ControlLinearPart(a, b)
    dens = cycle(COPRIME_DENOMINATORS)

    def dense(n_in, n_out, k):
        return HomPolyMap(
            [HomPoly(n_in, k, {mi: F(i + 1, next(dens)) for mi in monomial_basis(n_in, k)}) for i in range(n_out)]
        )

    sys = ControlSystem(lin, PolySeries(n + m, n, 4, {2: dense(n + m, n, 2), 3: dense(n + m, n, 3)}))
    p = skew_field(dense(n, n, 2), dense(n + m, m, 2))
    fast = pushforward_control(sys, p, 4)
    same_series(fast.nonlinear, oracle.pushforward_control(sys, p, 4).nonlinear)


def test_zero_layers_and_zero_generator():
    # a zero linear part, no nonlinear terms, and a zero generator
    zero_a = ((F(0), F(0)), (F(0), F(0)))
    xi = HomPolyMap([HomPoly(2, 2, {(1, 1): F(3, 2**61 - 1)}), HomPoly(2, 2, {(0, 2): F(-1, 5**28)})])
    empty = PolySeries.zero(2, 2, 5)
    for a in (zero_a, identity(2)):
        same_series(pushforward_ode(a, empty, [xi], 5), oracle.pushforward_ode(a, empty, xi, 5))
    assert pushforward_ode(zero_a, empty, [xi], 5).is_zero
    f = PolySeries(2, 2, 5, {2: xi})
    zero_xi = HomPolyMap.zero(2, 2, 3)
    same_series(pushforward_ode(identity(2), f, [zero_xi], 5), oracle.pushforward_ode(identity(2), f, zero_xi, 5))
    assert series_eq(pushforward_ode(identity(2), f, [zero_xi], 5), f)
    assert flow_map([zero_xi], 5).is_zero


def test_roundtrip_cancels_to_the_original_over_wide_denominators():
    # pushing forward by xi and back by -xi cancels every higher layer
    n, order = 2, 5
    dens = cycle(COPRIME_DENOMINATORS)
    xi = HomPolyMap([HomPoly(n, 2, {mi: F(7, next(dens)) for mi in monomial_basis(n, 2)}) for _ in range(n)])
    f = PolySeries(n, n, order, {2: HomPolyMap([HomPoly(n, 2, {(2, 0): F(1, 2**89 - 1)}), HomPoly(n, 2)])})
    a = ((F(1), F(1)), (F(0), F(1)))
    there = pushforward_ode(a, f, [xi], order)
    back = pushforward_ode(a, there, [map_neg(xi)], order)
    same_series(back, oracle.pushforward_ode(a, oracle.pushforward_ode(a, f, xi, order), map_neg(xi), order))
    assert series_eq(back, f)


# ---------------------------------------------------------------------------
# the composite transformation
# ---------------------------------------------------------------------------


@st.composite
def logs(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(2, 6 if n < 3 else 5))
    # increasing degrees, gaps allowed
    degrees = sorted(draw(st.sets(st.integers(2, order), min_size=1, max_size=3)))
    gens = []
    for k in degrees:
        g = draw(maps(n, n, k))
        if not g.is_zero:
            gens.append((k, g))
    return TransformationLog(dim=n, order=order, generators=tuple(gens))


@given(logs())
@settings(max_examples=60, deadline=None)
def test_transformation_matches_substitution_oracle(log):
    same_series(log.transformation(), oracle.transformation(log.dim, log.order, log.generators))


@pytest.mark.parametrize("degrees", [(2,), (3,), (2, 3), (2, 4), (3, 5), (2, 3, 4, 5)])
def test_transformation_with_degree_gaps_matches_oracle(degrees):
    n, order = 3, 6
    dens = cycle(COPRIME_DENOMINATORS)
    gens = tuple(
        (k, HomPolyMap([HomPoly(n, k, {mi: F(i - 1, next(dens)) for mi in monomial_basis(n, k)[:4]}) for i in range(n)]))
        for k in degrees
    )
    log = TransformationLog(dim=n, order=order, generators=gens)
    same_series(log.transformation(), oracle.transformation(n, order, gens))


def test_transformation_of_an_empty_log_is_zero():
    assert series_eq(TransformationLog(dim=2, order=4, generators=()).transformation(), PolySeries.zero(2, 2, 4))


def test_transformation_is_one_flow_then_lie_transforms(monkeypatch):
    # one flow_map call of the whole log: the flow of the first generator,
    # then a Lie transform per later generator, in one series
    calls = []
    flow_map_ = ode.flow_map

    def counting_flow_map(generators, order):
        calls.append([xi.degree for xi in generators])
        return flow_map_(generators, order)

    def no_composition(*args):
        raise AssertionError("transformation() went through a substitution")

    monkeypatch.setattr(ode, "flow_map", counting_flow_map)
    monkeypatch.setattr(ode, "compose_truncated", no_composition)
    monkeypatch.setattr(polyalg, "compose_truncated", no_composition)
    n, order = 2, 6
    gens = tuple(
        (k, HomPolyMap([HomPoly(n, k, {mi: F(1, k) for mi in monomial_basis(n, k)}) for _ in range(n)]))
        for k in (2, 3, 5)
    )
    phi = TransformationLog(dim=n, order=order, generators=gens).transformation()
    assert calls == [[2, 3, 5]]
    assert not phi.is_zero


def test_each_logged_composite_flow_is_one_lie_transform_call(monkeypatch):
    # the Lie-series route re-applies the whole log in one series, and the
    # transformation is one series of the whole log
    calls = []
    lie_transform_ = polyalg.lie_transform

    def counting_lie_transform(linear, maps, generators, q_rows, order):
        generators = list(generators)
        calls.append(len(generators))
        return lie_transform_(linear, maps, generators, q_rows, order)

    for module in (polyalg, ode):
        monkeypatch.setattr(module, "lie_transform", counting_lie_transform)
    n, order = 2, 6
    gens = tuple(
        (k, HomPolyMap([HomPoly(n, k, {mi: F(i + 1, k) for mi in monomial_basis(n, k)}) for i in range(n)]))
        for k in (2, 3, 5)
    )
    log = TransformationLog(dim=n, order=order, generators=gens)
    a = ((F(1), F(1)), (F(0), F(2)))
    f = PolySeries(n, n, order, {2: gens[0][1], 4: HomPolyMap.zero(n, n, 4)})
    pushed = ode.pushforward_residuals(a, f, log, f, order)
    assert calls == [3]
    assert not pushed.is_zero
    calls.clear()
    assert not log.transformation().is_zero
    assert calls == [3]


@pytest.mark.parametrize(
    "bad",
    [
        HomPolyMap([HomPoly(2, 1, {(1, 0): F(1)}), HomPoly(2, 1, {(0, 1): F(1)})]),
        HomPolyMap([HomPoly(3, 3, {(3, 0, 0): F(1)}) for _ in range(3)]),
    ],
    ids=["degree-1", "wrong-dimension"],
)
def test_transformation_rejects_a_bad_later_generator(bad):
    # a degree-1 generator would never raise the degree, so its Lie series
    # would not end; every generator is checked, not only the first
    good = HomPolyMap([HomPoly(2, 2, {(2, 0): F(1)}), HomPoly(2, 2, {(1, 1): F(-1, 3)})])
    log = TransformationLog(dim=2, order=5, generators=((2, good), (bad.degree, bad)))
    with pytest.raises(ValueError):
        log.transformation()


# ---------------------------------------------------------------------------
# integer truncated composition
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_compose_truncated_over_wide_denominators_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    rows = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(2, 5 if n < 3 else 4))
    linear = data.draw(linear_parts(rows, n))
    f = data.draw(gapped_series(n, rows, order))
    phi = data.draw(gapped_series(n, n, order + 1))
    same_series(compose_truncated(linear, f, phi, order), slow_polyalg.compose_truncated(linear, f, phi, order))


def test_compose_truncated_cancels_to_zero():
    # the flow of -xi undoes the flow of xi: (id + bwd)(fwd(y)) = y exactly
    n, order = 2, 6
    dens = cycle(COPRIME_DENOMINATORS)
    xi = HomPolyMap([HomPoly(n, 2, {mi: F(5, next(dens)) for mi in monomial_basis(n, 2)}) for _ in range(n)])
    fwd, bwd = flow_map([xi], order), flow_map([map_neg(xi)], order)
    out = compose_truncated(identity(n), bwd, fwd, order)
    same_series(out, slow_polyalg.compose_truncated(identity(n), bwd, fwd, order))
    assert out.is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compose_truncated_with_zero_layers(n):
    zero = tuple(tuple(F(0) for _ in range(n)) for _ in range(n))
    f = PolySeries(n, n, 4, {2: HomPolyMap([HomPoly(n, 2, {monomial_basis(n, 2)[0]: F(3, 2**107 - 1)})] * n)})
    phi = PolySeries(n, n, 4, {3: HomPolyMap([HomPoly(n, 3, {monomial_basis(n, 3)[-1]: F(-2, 3**40)})] * n)})
    empty = PolySeries.zero(n, n, 4)
    for linear, series, inner in ((zero, empty, phi), (zero, f, empty), (identity(n), empty, empty), (zero, f, phi)):
        same_series(
            compose_truncated(linear, series, inner, 4), slow_polyalg.compose_truncated(linear, series, inner, 4)
        )
    assert compose_truncated(zero, empty, phi, 4).is_zero


# ---------------------------------------------------------------------------
# the packed-exponent kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [7, 8, 300])
def test_scalar_series_across_the_packed_width_boundary(order):
    # each exponent field is order.bit_length() bits wide: 3 bits at order 7
    # (x^7 fills its field), 4 at order 8, 9 at order 300
    def power(k, cf):
        return HomPolyMap([HomPoly(1, k, {(k,): cf})])

    xi = power(2, F(1))
    f = PolySeries(1, 1, order, {2: power(2, F(3, 2**61 - 1)), 3: power(3, F(-1, 7))})
    a = ((F(2),),)
    same_series(flow_map([xi], order), oracle.flow_map(xi, order))
    same_series(pushforward_ode(a, f, [xi], order), oracle.pushforward_ode(a, f, xi, order))
    # the flow of x^2 is x / (1 - x): every coefficient is 1
    assert series_eq(flow_map([xi], order), PolySeries(1, 1, order, {k: power(k, F(1)) for k in range(2, order + 1)}))


@pytest.mark.parametrize("order", [7, 8, 16])
def test_planar_series_across_the_packed_width_boundary(order):
    # two fields side by side: an exponent that overflowed its field would
    # land in the other variable's field
    dens = cycle(COPRIME_DENOMINATORS)
    xi = HomPolyMap(
        [HomPoly(2, 2, {mi: F(1, next(dens)) for mi in monomial_basis(2, 2)}), HomPoly(2, 2, {(2, 0): F(-1)})]
    )
    f2 = HomPolyMap([HomPoly(2, 2, {(0, 2): F(5, 3)}), HomPoly(2, 2, {(1, 1): F(1, 2**89 - 1)})])
    f = PolySeries(2, 2, order, {2: f2})
    a = ((F(1), F(1)), (F(0), F(1)))
    same_series(flow_map([xi], order), oracle.flow_map(xi, order))
    same_series(pushforward_ode(a, f, [xi], order), oracle.pushforward_ode(a, f, xi, order))


def test_control_bracket_over_coprime_denominators_in_both_parts():
    # p_x and p_u each over their own wide denominators: the bracket needs
    # them over one common denominator, D_x p_x included
    n, m, order = 2, 1, 5
    lin = ControlLinearPart(((F(0), F(1)), (F(0), F(0))), ((F(0),), (F(1),)))
    dens = cycle(COPRIME_DENOMINATORS)

    def dense(n_in, n_out, k, skip):
        return HomPolyMap(
            [HomPoly(n_in, k, {mi: F(i + 2, next(dens)) for mi in monomial_basis(n_in, k)[skip:]}) for i in range(n_out)]
        )

    sys = ControlSystem(lin, PolySeries(n + m, n, order, {2: dense(n + m, n, 2, 1), 4: dense(n + m, n, 4, 3)}))
    for k in (2, 3):
        p_x, p_u = dense(n, n, k, 0), dense(n + m, m, k, 0)
        p = skew_field(p_x, p_u)
        assert not p_x.is_zero and not p_u.is_zero
        fast = pushforward_control(sys, p, order)
        slow = oracle.pushforward_control(sys, p, order)
        same_series(fast.nonlinear, slow.nonlinear)


def test_series_never_differentiate_and_build_each_output_once(monkeypatch):
    # every series runs in the packed kernel: no directional_derivative, and
    # at most one HomPoly per component per output degree, counted per call,
    # for a chain of generators too; transformation() makes one flow_map
    # call of the whole log, which makes every HomPoly it builds
    def no_derivative(*args):
        raise AssertionError("a Lie series called directional_derivative")

    for module in (polyalg, ode, control_module):
        monkeypatch.setattr(module, "directional_derivative", no_derivative, raising=False)

    builds = {"all": 0, "flow_map": 0}
    init, trusted = HomPoly.__init__, HomPoly._trusted.__func__

    def counted_init(self, *args, **kwargs):
        builds["all"] += 1
        init(self, *args, **kwargs)

    def counted_trusted(cls, *args, **kwargs):
        builds["all"] += 1
        return trusted(cls, *args, **kwargs)

    flow_map_ = ode.flow_map

    def nested_flow_map(generators, order):
        before = builds["all"]
        out = flow_map_(generators, order)
        builds["flow_map"] += builds["all"] - before
        return out

    n, order = 3, 6
    dens = cycle(COPRIME_DENOMINATORS)

    def dense(n_in, n_out, k):
        return HomPolyMap(
            [HomPoly(n_in, k, {mi: F(i + 1, next(dens)) for mi in monomial_basis(n_in, k)}) for i in range(n_out)]
        )

    a = ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    f = PolySeries(n, n, order, {k: dense(n, n, k) for k in (2, 3, 5)})
    xi, xi3 = dense(n, n, 2), dense(n, n, 3)
    log = TransformationLog(dim=n, order=order, generators=((2, xi), (3, xi3), (4, dense(n, n, 4))))
    lin = ControlLinearPart(((F(0), F(1)), (F(0), F(0))), ((F(0),), (F(1),)))
    sys = ControlSystem(lin, PolySeries(3, 2, order, {2: dense(3, 2, 2), 3: dense(3, 2, 3)}))
    p = skew_field(dense(2, 2, 2), dense(3, 1, 2))

    monkeypatch.setattr(HomPoly, "__init__", counted_init)
    monkeypatch.setattr(HomPoly, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(ode, "flow_map", nested_flow_map)
    for fn, args, comps, nested in (
        (pushforward_ode, (a, f, [xi], order), n, False),
        (pushforward_ode, (a, f, [xi3], order), n, False),
        (pushforward_ode, (a, f, [xi, xi3], order), n, False),
        (flow_map, ([xi], order), n, False),
        (flow_map, ([xi, xi3], order), n, False),
        (log.transformation, (), n, True),
        (pushforward_control, (sys, p, order), 2, False),
    ):
        before = dict(builds)
        fn(*args)
        made = builds["all"] - before["all"]
        assert 0 < made <= comps * (order - 1), fn.__name__
        assert builds["flow_map"] - before["flow_map"] == (made if nested else 0), fn.__name__


# ---------------------------------------------------------------------------
# the one door: polyalg.lie_transform
# ---------------------------------------------------------------------------


@st.composite
def generator_chains(draw):
    """A field, its linear part and two or three generators of degree >= 2."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(3, 5 if n < 3 else 4))
    a = draw(linear_parts(n, n))
    f = draw(gapped_series(n, n, order + 1))
    gens = [draw(maps(n, n, draw(st.integers(2, order)))) for _ in range(draw(st.integers(2, 3)))]
    return n, order, a, f, gens


@given(generator_chains())
@settings(max_examples=40, deadline=None)
def test_lie_transform_chain_matches_successive_pushforwards(chain):
    n, order, a, f, gens = chain
    slow = f.truncate(order)
    for xi in gens:
        slow = oracle.pushforward_ode(a, slow, xi, order)
    fast = lie_transform(a, f.terms, [xi.components for xi in gens], n, order)
    same_series(PolySeries(n, n, order, fast), slow)


@given(logs().filter(lambda log: len(log.generators) >= 2))
@settings(max_examples=40, deadline=None)
def test_lie_transform_chain_matches_the_substitution_transformation(log):
    (_, first), *rest = log.generators
    phi = oracle.flow_map(first, log.order)
    fast = lie_transform(identity(log.dim), phi.terms, [g.components for _, g in rest], 0, log.order)
    slow = oracle.transformation(log.dim, log.order, log.generators)
    same_series(PolySeries(log.dim, log.dim, log.order, fast), slow)
    same_series(PolySeries(log.dim, log.dim, log.order, fast), log.transformation())


def test_lie_transform_control_with_two_inputs_matches_oracle():
    # p_x has n variables, the packing n + m: its monomials pack as lifts
    n, m, order = 2, 2, 4
    lin = ControlLinearPart(((F(0), F(1)), (F(0), F(0))), ((F(1), F(0)), (F(0), F(1))))
    dens = cycle(COPRIME_DENOMINATORS)

    def dense(n_in, n_out, k):
        return HomPolyMap(
            [HomPoly(n_in, k, {mi: F(i + 1, next(dens)) for mi in monomial_basis(n_in, k)[::2]}) for i in range(n_out)]
        )

    sys = ControlSystem(lin, PolySeries(n + m, n, order, {2: dense(n + m, n, 2), 3: dense(n + m, n, 3)}))
    parts = [(dense(n, n, 2), dense(n + m, m, 2)), (dense(n, n, 3), dense(n + m, m, 3))]
    assert all(c.n_vars == n for p_x, _ in parts for c in p_x.components)
    slow = sys
    for p_x, p_u in parts:
        slow = oracle.pushforward_control(slow, skew_field(p_x, p_u), order)
    fast = lie_transform(lin.aug, sys.nonlinear.terms, [p_x.components + p_u.components for p_x, p_u in parts], n, order)
    same_series(PolySeries(n + m, n, order, fast), slow.nonlinear)


def test_lie_transform_keeps_an_untouched_degree_as_the_same_object():
    # a degree-3 generator lifts degree 1 to 3 and degree 2 to 4 > order:
    # degree 2 is reached by no series and comes back as the input map
    n, order = 2, 3
    f2 = HomPolyMap([HomPoly(n, 2, {(2, 0): F(1, 3)}), HomPoly(n, 2, {(1, 1): F(-2)})])
    f3 = HomPolyMap([HomPoly(n, 3, {(0, 3): F(5)}), HomPoly(n, 3)])
    xi = HomPolyMap([HomPoly(n, 3, {(3, 0): F(1)}), HomPoly(n, 3, {(1, 2): F(1, 7)})])
    a = ((F(1), F(1)), (F(0), F(2)))
    out = lie_transform(a, {2: f2, 3: f3, 4: f2}, [xi.components], n, order)
    assert sorted(out) == [2, 3]
    assert out[2] is f2
    assert out[3] is not f3 and out[3] != f3
    assert lie_transform(a, {2: f2}, [], n, order)[2] is f2
    # a generator above the order reaches no degree: every map comes back,
    # even though its exponent 4 does not fit a packed field of this order
    above = HomPolyMap([HomPoly(n, 4, {(4, 0): F(1)}), HomPoly(n, 4)])
    out = lie_transform(a, {2: f2, 3: f3}, [above.components], n, order)
    assert out[2] is f2 and out[3] is f3


@pytest.mark.parametrize("module", [ode, control_module], ids=["ode", "control"])
def test_only_polyalg_knows_the_packed_layers(module):
    for name in (
        "_Packing",
        "_Layer",
        "_reduce_layer",
        "_layer_sum",
        "_lie_series",
        "_series_terms",
        "_bracket",
        "_identity_layer",
    ):
        assert not hasattr(module, name), name


def test_the_oracle_takes_no_derivative_from_the_package(monkeypatch):
    # every derivative of ``slow_lie`` comes from ``slow_polyalg``: with the
    # package's step and directional derivative refused, the oracle still runs
    def refused(*args, **kwargs):
        raise AssertionError("the oracle reached the code it checks")

    for module in (polyalg, ode, control_module):
        monkeypatch.setattr(module, "directional_derivative", refused, raising=False)
    for name in ("_bracket", "lie_transform", "compose_truncated"):
        monkeypatch.setattr(polyalg, name, refused)
    n, order = 2, 5
    xi = HomPolyMap([HomPoly(n, 2, {(2, 0): F(1, 3)}), HomPoly(n, 2, {(1, 1): F(-2)})])
    a = ((F(1), F(1)), (F(0), F(2)))
    f = PolySeries(n, n, order, {3: HomPolyMap([HomPoly(n, 3, {(0, 3): F(5)}), HomPoly(n, 3)])})
    assert not oracle.pushforward_ode(a, f, xi, order).is_zero
    assert not oracle.flow_map(xi, order).is_zero
    assert not oracle.transformation(n, order, ((2, xi), (3, HomPolyMap.zero(n, n, 3)))).is_zero
    lin = ControlLinearPart(((F(0), F(1)), (F(0), F(0))), ((F(0),), (F(1),)))
    sys = ControlSystem(lin, PolySeries(3, 2, order, {2: HomPolyMap([HomPoly(3, 2, {(1, 0, 1): F(1)}), HomPoly(3, 2)])}))
    p = skew_field(xi, HomPolyMap([HomPoly(3, 2, {(0, 1, 1): F(2, 5)})]))
    assert not oracle.pushforward_control(sys, p, order).nonlinear.is_zero
