"""The three Lie-series loops and the substitution-based composite
transformation, kept as a test oracle.

These are ``ode.pushforward_ode``, ``ode.flow_map``,
``control.pushforward_control`` and ``ode.TransformationLog.transformation``
as they were before the loops became one integer engine and the composite
transformation became a chain of Lie transforms.  Each loop sums its graded
layers with ``HomPolyMap`` arithmetic, one ``Fraction`` operation per term,
and the transformation substitutes each new flow into the map so far with a
truncated composition.  Every derivative and that composition are taken
from ``slow_polyalg``, so no Lie series here shares a derivative with the
code it checks.  Arithmetic over the rationals is exact, so the fast code
must give the same terms in the same order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

import slow_polyalg
from map_helpers import from_matrix, map_add, map_mul
from normalforms.control import ControlSystem
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries
from normalforms.ratmat import Matrix, identity, mat


def _derivative(field, p: HomPoly) -> HomPoly:
    """Dp . field by the oracle's partial derivatives and products, on
    ``slow_polyalg.slow`` copies, returned as a package HomPoly."""
    d = slow_polyalg.directional_derivative([slow_polyalg.slow(f) for f in field], slow_polyalg.slow(p))
    return HomPoly(d.n_vars, d.degree, d.terms)


def _jac_times(h: HomPolyMap, v: HomPolyMap) -> HomPolyMap:
    """Dh(y) . v(y); degrees add minus one."""
    return HomPolyMap([_derivative(v.components, c) for c in h.components])


def _ad(xi: HomPolyMap, h: HomPolyMap) -> HomPolyMap:
    """Vector-field bracket ad_xi h = Dh.xi - Dxi.h."""
    return _jac_times(h, xi) - _jac_times(xi, h)


def _id_map(n: int) -> HomPolyMap:
    return from_matrix(identity(n))


def _check_generator(xi: HomPolyMap, n: int):
    if xi.dim_in != n or xi.dim_out != n:
        raise ValueError("generator must be a square map of the system dimension")
    if xi.degree < 2:
        raise ValueError("generator must have degree at least 2")


def pushforward_ode(a: Matrix, f: PolySeries, xi: HomPolyMap, order: int) -> PolySeries:
    a = mat(a)
    n = len(a)
    _check_generator(xi, n)
    if f.dim_in != n or f.dim_out != n:
        raise ValueError("nonlinear terms must match the system dimension")

    graded: Dict[int, HomPolyMap] = {1: from_matrix(a)}
    for k in f.degrees():
        if k <= order:
            graded[k] = f.term(k)

    result = dict(graded)
    term = graded
    step = xi.degree - 1
    j = 0
    fact = 1
    while term:
        j += 1
        fact *= j
        nxt: Dict[int, HomPolyMap] = {}
        for d, h in term.items():
            nd = d + step
            if nd > order:
                continue
            adh = _ad(xi, h)
            if adh.is_zero:
                continue
            nxt[nd] = map_add(nxt[nd], adh) if nd in nxt else adh
        term = nxt
        for d, h in term.items():
            contrib = map_mul(h, Fraction(1, fact))
            result[d] = map_add(result[d], contrib) if d in result else contrib

    return PolySeries(n, n, order, {d: t for d, t in result.items() if d >= 2})


def flow_map(xi: HomPolyMap, order: int) -> PolySeries:
    n = xi.dim_out
    _check_generator(xi, n)
    result: Dict[int, HomPolyMap] = {}
    term: Dict[int, HomPolyMap] = {1: _id_map(n)}
    step = xi.degree - 1
    j = 0
    fact = 1
    while term:
        j += 1
        fact *= j
        nxt: Dict[int, HomPolyMap] = {}
        for d, h in term.items():
            nd = d + step
            if nd > order:
                continue
            th = _jac_times(h, xi)
            if th.is_zero:
                continue
            nxt[nd] = map_add(nxt[nd], th) if nd in nxt else th
        term = nxt
        for d, h in term.items():
            contrib = map_mul(h, Fraction(1, fact))
            result[d] = map_add(result[d], contrib) if d in result else contrib
    return PolySeries(n, n, order, result)


def compose_near_identity(first: PolySeries, second: PolySeries, order: int) -> PolySeries:
    """Nonlinear layers of first(second(y)), by the slow truncated composition."""
    n = first.dim_in
    return slow_polyalg.compose_truncated(identity(n), first, second, order)


def transformation(dim: int, order: int, generators) -> PolySeries:
    """Composite near-identity map Phi_{xi_2} o Phi_{xi_3} o ..., one
    substitution per generator."""
    phi = PolySeries.zero(dim, dim, order)
    for _, g in generators:
        step = flow_map(g, order)
        phi = compose_near_identity(phi, step, order) if not phi.is_zero else step
    return phi


def _ad_control(p_embed: HomPolyMap, px_lift: List[HomPoly], g: HomPolyMap) -> HomPolyMap:
    """Control bracket Dg . P - D_x p_x . g for g: R^{n+m} -> R^n."""
    n = len(px_lift)
    m = g.dim_in - n
    first = [_derivative(p_embed.components, g.component(i)) for i in range(n)]
    padded = tuple(g.components) + tuple(
        HomPoly.zero(g.dim_in, g.degree) for _ in range(m)
    )
    second = [_derivative(padded, px_lift[i]) for i in range(n)]
    return HomPolyMap([a - b for a, b in zip(first, second)])


def pushforward_control(sys: ControlSystem, p: HomPolyMap, order: int) -> ControlSystem:
    """The control pushforward along p = (p_x, p_u) in S^k, a field on
    R^{n+m} whose first n rows are p_x lifted to the inputs' variables."""
    lin = sys.lin
    n, m = lin.n, lin.m
    if p.dim_in != n + m or p.dim_out != n + m:
        raise ValueError("generator dimensions do not match the system")
    if p.degree < 2:
        raise ValueError("generator must have degree at least 2")

    p_embed = p
    px_lift = list(p.components[:n])

    graded: Dict[int, HomPolyMap] = {1: from_matrix(lin.aug)}
    for k in sys.nonlinear.degrees():
        if k <= order:
            graded[k] = sys.nonlinear.term(k)

    result = dict(graded)
    term = graded
    step = p.degree - 1
    j = 0
    fact = 1
    while term:
        j += 1
        fact *= j
        nxt: Dict[int, HomPolyMap] = {}
        for d, h in term.items():
            nd = d + step
            if nd > order:
                continue
            adh = _ad_control(p_embed, px_lift, h)
            if adh.is_zero:
                continue
            nxt[nd] = map_add(nxt[nd], adh) if nd in nxt else adh
        term = nxt
        for d, h in term.items():
            contrib = map_mul(h, Fraction(1, fact))
            result[d] = map_add(result[d], contrib) if d in result else contrib

    new_terms = PolySeries(n + m, n, order, {d: t for d, t in result.items() if d >= 2})
    return ControlSystem(lin, new_terms)
