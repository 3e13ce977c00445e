"""The control conjugacy certificate is the ODE one of the field
(A B)(x, u) + f on its n rows, run once with the embedded generators.

Two facts make the n rows the whole claim, both because p_x depends on
the states alone: the state rows of the augmented Lie series never read
an input row of the field, and the state rows of the composite
transformation Phi hold no input variable.  The square routes on the
augmented system z' = A0 z + (f, 0), A0 = [[A, B], [0, 0]], stay the
oracle the rectangular routes are checked against.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalforms import ode
from normalforms.control import (
    ControlLinearPart,
    ControlSystem,
    normalize_control,
    pushforward_control,
    verify_control_conjugacy,
)
from normalforms.integrals import brunovsky_pair
from normalforms.homological import linear_field
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries, monomial_basis
from map_helpers import map_add, series_eq, skew_field, with_term

ORDER = 4


def random_map(rng, dim_in, dim_out, k):
    mons = monomial_basis(dim_in, k)
    return HomPolyMap(
        [HomPoly(dim_in, k, {mi: F(rng.randint(-3, 3), rng.randint(1, 3)) for mi in mons}) for _ in range(dim_out)]
    )


@pytest.fixture(scope="module")
def brunovsky():
    """A Brunovsky n = 2, m = 1 system with dense terms, and its report."""
    rng = random.Random(11)
    f = PolySeries(3, 2, ORDER, {k: random_map(rng, 3, 2, k) for k in range(2, ORDER + 1)})
    system = ControlSystem(brunovsky_pair(2), f)
    report = normalize_control(system, ORDER)
    assert len(report.log.generators) >= 2
    return system, report


# u^2 added to the first state row at degree 2
TAMPER = HomPolyMap([HomPoly(3, 2, {(0, 0, 2): 1}), HomPoly.zero(3, 2)])


def tampered(g: PolySeries) -> PolySeries:
    return with_term(g, 2, map_add(g.term(2), TAMPER))


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def zero_residuals(a, f, log_or_phi, g, order):
    return PolySeries.zero(len(a), len(a), order)


def test_one_ode_check_and_one_pushforward_per_log(brunovsky, monkeypatch):
    # the log holds two or more generators, and the Lie-series route
    # re-applies all of them in one pushforward
    system, report = brunovsky
    calls = {}
    monkeypatch.setattr(ode, "pushforward_ode", counting(calls, "pushforward_ode", ode.pushforward_ode))
    monkeypatch.setattr(ode, "verify_conjugacy", counting(calls, "verify_conjugacy", ode.verify_conjugacy))
    assert verify_control_conjugacy(system, report.log, report.normal_form, ORDER).ok
    assert calls == {"pushforward_ode": 1, "verify_conjugacy": 1}


def test_residuals_have_the_shape_of_the_normal_form(brunovsky):
    _, report = brunovsky
    for residuals in (report.conjugacy.pushforward_residuals, report.conjugacy.flow_residuals):
        assert (residuals.dim_in, residuals.dim_out) == (3, 2)
        assert residuals.is_zero


def test_flow_route_alone_refutes_a_tampered_state_row(brunovsky, monkeypatch):
    system, report = brunovsky
    monkeypatch.setattr(ode, "pushforward_residuals", zero_residuals)
    assert verify_control_conjugacy(system, report.log, report.normal_form, ORDER).ok
    result = verify_control_conjugacy(system, report.log, tampered(report.normal_form), ORDER)
    assert result.pushforward_ok
    assert not result.flow_identity_ok and not result.ok
    # DPhi . (A0 y + g) carries the tamper unchanged at degree 2
    assert result.flow_residuals.term(2) == TAMPER


def test_lie_series_route_alone_refutes_a_tampered_state_row(brunovsky, monkeypatch):
    system, report = brunovsky
    monkeypatch.setattr(ode, "flow_conjugacy_residuals", zero_residuals)
    assert verify_control_conjugacy(system, report.log, report.normal_form, ORDER).ok
    result = verify_control_conjugacy(system, report.log, tampered(report.normal_form), ORDER)
    assert result.flow_identity_ok
    assert not result.pushforward_ok and not result.ok
    assert result.pushforward_residuals.degrees() == [2]


def test_a_tampered_top_degree_names_that_degree(brunovsky):
    system, report = brunovsky
    g = report.normal_form
    bumped = with_term(g, ORDER, map_add(g.term(ORDER), random_map(random.Random(1), 3, 2, ORDER)))
    result = verify_control_conjugacy(system, report.log, bumped, ORDER)
    assert not result.pushforward_ok and not result.ok
    assert result.pushforward_residuals.degrees() == [ORDER]


# ---------------------------------------------------------------------------
# why the input rows can go
# ---------------------------------------------------------------------------

small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def maps(draw, dim_in, dim_out, degree):
    mons = monomial_basis(dim_in, degree)
    comps = []
    for _ in range(dim_out):
        chosen = draw(st.lists(st.sampled_from(mons), max_size=3, unique=True))
        comps.append(HomPoly(dim_in, degree, {mi: draw(small) for mi in chosen}))
    return HomPolyMap(comps)


@st.composite
def series(draw, dim_in, dim_out, order):
    degrees = draw(st.sets(st.integers(2, order), max_size=3))
    return PolySeries(dim_in, dim_out, order, {k: draw(maps(dim_in, dim_out, k)) for k in degrees})


@st.composite
def skew_generators(draw, n, m, degree):
    return skew_field(draw(maps(n, n, degree)), draw(maps(n + m, m, degree)))


@st.composite
def systems(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    order = draw(st.integers(2, 4))
    a = [[draw(small) for _ in range(n)] for _ in range(n)]
    b = [[draw(small) for _ in range(m)] for _ in range(n)]
    return ControlLinearPart(a, b), order


def stacked(state: PolySeries, inputs: PolySeries) -> PolySeries:
    """The field on R^{n+m} with the given state rows and input rows."""
    n, m, order = state.dim_out, inputs.dim_out, state.max_degree
    return PolySeries(
        state.dim_in,
        n + m,
        order,
        {k: HomPolyMap(state.term(k).components + inputs.term(k).components) for k in range(2, order + 1)},
    )


def state_rows(s: PolySeries, n: int) -> PolySeries:
    return PolySeries(s.dim_in, n, s.max_degree, {k: HomPolyMap(t.components[:n]) for k, t in s.terms.items()})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_state_rows_of_the_augmented_series_never_read_the_input_rows(data):
    lin, order = data.draw(systems())
    n, m = lin.n, lin.m
    degree = data.draw(st.integers(2, order))
    p = data.draw(skew_generators(n, m, degree))
    f = data.draw(series(n + m, n, order))
    zero_inputs = PolySeries.zero(n + m, m, order)
    other_inputs = data.draw(series(n + m, m, order))
    pushed = [
        state_rows(ode.pushforward_ode(linear_field(lin.aug), stacked(f, inputs), [p], order), n)
        for inputs in (zero_inputs, other_inputs)
    ]
    # and both are the control pushforward, whose bracket is that shadow
    control = pushforward_control(ControlSystem(lin, f), p, order).nonlinear
    for k in range(2, order + 1):
        assert pushed[0].term(k) == pushed[1].term(k) == control.term(k)
    # the rectangular pushforward computes the state rows alone
    assert series_eq(ode.pushforward_ode(lin.aug, f, [p], order), pushed[0])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_state_rows_of_the_transformation_hold_no_input_variable(data):
    lin, order = data.draw(systems())
    n, m = lin.n, lin.m
    degrees = sorted(data.draw(st.sets(st.integers(2, order), min_size=1, max_size=3)))
    generators = tuple((k, data.draw(skew_generators(n, m, k))) for k in degrees)
    log = ode.TransformationLog(dim=n + m, order=order, generators=generators)
    phi = log.transformation()
    for k in phi.degrees():
        for comp in phi.term(k).components[:n]:
            assert all(not any(mi[n:]) for mi in comp.terms)


# ---------------------------------------------------------------------------
# the routes on the n rows against the square routes on zero-padded fields
# ---------------------------------------------------------------------------


@st.composite
def logs(draw, n, m, order):
    degrees = sorted(draw(st.sets(st.integers(2, order), max_size=3)))
    generators = tuple((k, draw(skew_generators(n, m, k))) for k in degrees)
    return ode.TransformationLog(dim=n + m, order=order, generators=generators)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_both_routes_on_the_state_rows_match_the_augmented_routes(data):
    lin, order = data.draw(systems())
    n, m = lin.n, lin.m
    # f and g are not a normal form pair, so the residuals are generically non-zero
    f, g = data.draw(series(n + m, n, order)), data.draw(series(n + m, n, order))
    log = data.draw(logs(n, m, order))
    phi = log.transformation()
    zero_inputs = PolySeries.zero(n + m, m, order)
    f_aug, g_aug = stacked(f, zero_inputs), stacked(g, zero_inputs)
    push = ode.pushforward_residuals(lin.aug, f, log, g, order)
    assert series_eq(push, state_rows(ode.pushforward_residuals(linear_field(lin.aug), f_aug, log, g_aug, order), n))
    flow = ode.flow_conjugacy_residuals(lin.aug, f, phi, g, order)
    assert series_eq(flow, state_rows(ode.flow_conjugacy_residuals(linear_field(lin.aug), f_aug, phi, g_aug, order), n))


def shape_errors():
    """(a, f, generator) of each rejected shape, around the Brunovsky pair
    n = 2, m = 1, whose field has 2 rows and 3 variables."""
    rng = random.Random(5)
    lin = brunovsky_pair(2)
    f = PolySeries(3, 2, ORDER, {2: random_map(rng, 3, 2, 2)})
    xi = skew_field(random_map(rng, 2, 2, 2), random_map(rng, 3, 1, 2))
    return {
        "no rows": ((), f, xi),
        "more rows than columns": (lin.aug + lin.aug, f, xi),
        "f with the wrong rows": (lin.aug, PolySeries(3, 3, ORDER, {2: random_map(rng, 3, 3, 2)}), xi),
        "generator not square": (lin.aug, f, HomPolyMap(xi.components[:2])),
    }


@pytest.mark.parametrize("case", sorted(shape_errors()))
def test_routes_reject_a_field_of_the_wrong_shape(case):
    a, f, xi = shape_errors()[case]
    phi = PolySeries(xi.dim_in, xi.dim_out, ORDER, {2: xi})
    g = PolySeries.zero(3, 2, ORDER)
    with pytest.raises(ValueError):
        ode.pushforward_ode(a, f, [xi], ORDER)
    with pytest.raises(ValueError):
        ode.flow_conjugacy_residuals(a, f, phi, g, ORDER)
