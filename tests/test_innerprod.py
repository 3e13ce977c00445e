"""The factorial-weighted inner product and exact orthogonal projection."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalforms.homological import homological_slice
from normalforms.innerprod import (
    monomial_weight,
    project_coords,
)
from normalforms.polyalg import (
    HomPoly,
    HomPolyMap,
    monomial_basis,
)
from normalforms.ratmat import identity, transpose
from map_helpers import (
    compose_linear,
    coords_of,
    gram_diagonal,
    inner_product,
    inner_product_scalar,
    map_add,
    map_mul,
    monomial,
    project_orthogonal,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def hompolys(n_vars, degree):
    mons = monomial_basis(n_vars, degree)
    return st.lists(rationals, min_size=len(mons), max_size=len(mons)).map(
        lambda cs: HomPoly(n_vars, degree, dict(zip(mons, cs)))
    )


def maps(n_vars, dim_out, degree):
    return st.lists(
        hompolys(n_vars, degree), min_size=dim_out, max_size=dim_out
    ).map(HomPolyMap)


def e1(p, n=2):
    return HomPolyMap([p, HomPoly.zero(p.n_vars, p.degree)][:n])


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def test_inner_product_examples():
    x1sq = monomial((2, 0))
    x1x2 = monomial((1, 1))
    zero = HomPoly.zero(2, 2)
    assert inner_product(HomPolyMap([x1sq, zero]), HomPolyMap([x1sq, zero])) == 2
    assert inner_product(HomPolyMap([x1x2, zero]), HomPolyMap([x1x2, zero])) == 1
    assert inner_product(HomPolyMap([x1sq, zero]), HomPolyMap([x1x2, zero])) == 0


def test_monomial_weight():
    assert monomial_weight((2, 0)) == 2
    assert monomial_weight((1, 1)) == 1
    assert monomial_weight((0, 4)) == 24
    assert monomial_weight((2, 3, 1)) == 12


def test_gram_diagonal_examples():
    assert gram_diagonal(2, 2) == [2, 1, 2]
    assert gram_diagonal(1, 4) == [24]
    assert gram_diagonal(3, 1) == [1, 1, 1]


def test_map_gram_diagonal_repeats_per_component():
    # the one map-space Gram diagonal is the one a slice derives from its keys
    assert homological_slice(identity(2), 2).domain_weights == [2, 1, 2, 2, 1, 2]


# ---------------------------------------------------------------------------
# bilinear-form properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(maps(2, 2, 2), maps(2, 2, 2), maps(2, 2, 2), rationals)
def test_symmetry_and_bilinearity(p, q, r, c):
    assert inner_product(p, q) == inner_product(q, p)
    assert inner_product(map_add(p, q), r) == inner_product(p, r) + inner_product(q, r)
    assert inner_product(map_mul(p, c), q) == c * inner_product(p, q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(maps(2, 2, 3))
def test_positive_definite(p):
    v = inner_product(p, p)
    if p.is_zero:
        assert v == 0
    else:
        assert v > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    hompolys(2, 2),
    hompolys(2, 2),
    st.lists(rationals, min_size=4, max_size=4),
)
def test_composition_adjoint_identity(p, q, entries):
    t = ((entries[0], entries[1]), (entries[2], entries[3]))
    lhs = inner_product_scalar(compose_linear(p, t), q)
    rhs = inner_product_scalar(p, compose_linear(q, transpose(t)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_examples():
    x1sq = HomPolyMap([monomial((2, 0)), HomPoly.zero(2, 2)])
    x1x2 = HomPolyMap([monomial((1, 1)), HomPoly.zero(2, 2)])
    sub = [x1sq]

    inside, perp = project_orthogonal(x1sq, sub)
    assert inside == x1sq and perp.is_zero

    inside, perp = project_orthogonal(x1x2, sub)
    assert inside.is_zero and perp == x1x2

    v = map_add(x1sq, x1x2)
    inside, perp = project_orthogonal(v, sub)
    assert inside == x1sq and perp == x1x2


def test_projection_decomposes_and_is_idempotent():
    rng = random.Random(23)
    mons = monomial_basis(2, 2)
    for _ in range(10):
        def rand_map():
            return HomPolyMap(
                [
                    HomPoly(2, 2, {mi: F(rng.randint(-3, 3), rng.randint(1, 2)) for mi in mons})
                    for _ in range(2)
                ]
            )

        sub = [rand_map(), rand_map()]
        from normalforms.ratmat import rank as _rank
        if _rank(tuple(zip(*(coords_of(s) for s in sub)))) < 2:
            continue  # skip the rare dependent draw
        v = rand_map()
        inside, perp = project_orthogonal(v, sub)
        assert map_add(inside, perp) == v
        for s in sub:
            assert inner_product(perp, s) == 0
        again_in, again_perp = project_orthogonal(inside, sub)
        assert again_in == inside and again_perp.is_zero


def test_dependent_subspace_rejected():
    x1sq = HomPolyMap([monomial((2, 0)), HomPoly.zero(2, 2)])
    doubled = map_mul(x1sq, 2)
    with pytest.raises(ValueError, match="linearly dependent"):
        project_orthogonal(x1sq, [x1sq, doubled])


def test_project_coords_empty_basis():
    inside, perp = project_coords([F(1), F(2)], [], [1, 1])
    assert inside == (F(0), F(0))
    assert perp == (F(1), F(2))
