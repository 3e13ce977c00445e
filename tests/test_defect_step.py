"""The polynomial form of the defect operator is one packed step.

q -> Dq.(Mx) - Cq is evaluated by one call of
`polyalg.directional_derivative`: q, the linear field and the coupling C
go into one `_Packing`, C enters as the step's q-part, one `_bracket`
forms every component in ints, and one `poly_map` builds the result.  A
spy through `polyalg` counts each of them, and every binding of
`directional_derivative` in the package is replaced, as the bench's layer
tracer replaces it, so a call that skipped it would show here too.
"""

import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from map_helpers import characteristic_derivative, monomial, normal_form_defect, skew_field
from normalforms import integrals, polyalg
from normalforms.control import ControlLinearPart, control_adjoint, control_homological
from normalforms.homological import lie_derivative, pde_defect
from normalforms.polyalg import HomPoly, HomPolyMap, monomial_basis

A = ((F(1, 2), F(-2), F(0)), (F(3, 5), F(1), F(1, 3)), (F(0), F(2, 7), F(-3, 2)))
LIN = ControlLinearPart(((F(1, 2), F(-2)), (F(3, 5), F(1))), ((F(1), F(-1, 3)), (F(2, 7), F(3, 2))))
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def dense(n_in, n_out, k):
    return HomPolyMap(
        [HomPoly(n_in, k, {mi: F(i + j + 1, j + 2) for j, mi in enumerate(monomial_basis(n_in, k))}) for i in range(n_out)]
    )


@pytest.fixture
def spy(monkeypatch):
    """Counts of `_Packing`, `_bracket`, `_Packing.poly_map` and
    `directional_derivative` calls, and of Fraction arithmetic, under
    ``"fractions"``, while ``spy["watching"]`` is set."""
    counts = Counter()

    class Packing(polyalg._Packing):
        __slots__ = ()

        def __init__(self, *args):
            counts["_Packing"] += 1
            super().__init__(*args)

        def poly_map(self, *args):
            counts["poly_map"] += 1
            return super().poly_map(*args)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(polyalg, "_Packing", Packing)
    monkeypatch.setattr(polyalg, "_bracket", counted("_bracket", polyalg._bracket))
    original = polyalg.directional_derivative
    derivative = counted("directional_derivative", original)
    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "normalforms" or name.startswith("normalforms."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, derivative)
                    bound += 1
    assert bound >= 3  # polyalg, homological and integrals at least
    for op in ARITHMETIC:
        fn = getattr(F, op)

        def watched(*args, _fn=fn):
            if counts["watching"]:
                counts["fractions"] += 1
            return _fn(*args)

        monkeypatch.setattr(F, op, watched)
    counts["watching"] = 1
    assert F(1, 2) - 3 * F(1, 3) and counts["fractions"] == 2
    counts.clear()
    return counts


def test_lie_derivative_of_a_three_component_map_is_one_packed_step(spy):
    f = dense(3, 3, 3)
    lie_derivative(A, f)  # bases and tables warm
    spy.clear()
    for _ in range(2):
        spy["watching"] = 1
        lie_derivative(A, f)
        spy["watching"] = 0
    # a packing and a step per component would make 6 and 6
    assert spy["_Packing"] == 2 and spy["_bracket"] == 2 and spy["poly_map"] == 2
    assert spy["directional_derivative"] == 2
    assert spy["fractions"] == 0


@pytest.mark.parametrize("k", [0, 2, 3])
def test_pde_defect_is_one_step_without_fraction_arithmetic(spy, k):
    coupling = ((F(1, 3), F(0), F(-2), F(5, 4)), (F(0), F(7), F(1, 2), F(0)))
    q = dense(3, 4, k)
    spy["watching"] = 1
    pde_defect(A, coupling, q)
    spy["watching"] = 0
    assert (spy["_Packing"], spy["_bracket"], spy["poly_map"], spy["directional_derivative"]) == (1, 1, 1, 1)
    assert spy["fractions"] == 0


def test_each_certificate_operator_reaches_the_step_once_per_call(spy):
    for p in (skew_field(dense(2, 2, 2), dense(4, 2, 2)), skew_field(dense(2, 2, 3), HomPolyMap.zero(4, 2, 3))):
        spy.clear()
        control_homological(LIN, p)
        assert spy["directional_derivative"] == 1
    for fk in (dense(4, 2, 2), HomPolyMap([monomial((1, 0, 1, 0)), HomPoly.zero(4, 2)])):
        for adjoint in (normal_form_defect, control_adjoint):
            spy.clear()
            adjoint(LIN, fk)
            assert spy["directional_derivative"] == 1
    spy.clear()
    lie_derivative(A, dense(3, 3, 2))
    assert spy["directional_derivative"] == 1


def test_a_constant_q_and_no_coupling():
    # no coupling: one component per component of q, and a constant q has
    # no derivative, of the linear field's degree
    drive = ((F(1, 3), F(0)), (F(0), F(0)))
    q = [HomPoly(2, 0, {(0, 0): F(5)}), HomPoly(2, 0)]
    out = polyalg.directional_derivative(drive, q)
    assert out == HomPolyMap.zero(2, 2, 1)
    # with a coupling it is -C q, of q's degree
    linear = ((F(1), F(2)), (F(0), F(1)))
    out = polyalg.directional_derivative(linear, q, ((F(1, 2), F(0)),))
    assert out == HomPolyMap([HomPoly(2, 0, {(0, 0): F(-5, 2)})])
    assert integrals.integral_defect(linear, q[0]) == HomPoly.zero(2, 1)


def test_the_linear_drive_builds_no_polynomial(monkeypatch):
    # M reaches the step as its matrix, so a call builds one HomPoly per
    # component of its result and none for M; p is already the field on
    # the states and inputs, so control_homological lifts nothing
    built = Counter()
    init, trusted = HomPoly.__init__, HomPoly._trusted.__func__

    def counted_init(self, *args, **kwargs):
        built["init"] += 1
        init(self, *args, **kwargs)

    def counted_trusted(cls, *args, **kwargs):
        built["trusted"] += 1
        return trusted(cls, *args, **kwargs)

    f, q = dense(3, 3, 3), dense(4, 2, 3)
    p = skew_field(dense(2, 2, 2), dense(4, 2, 2))
    monkeypatch.setattr(HomPoly, "__init__", counted_init)
    monkeypatch.setattr(HomPoly, "_trusted", classmethod(counted_trusted))
    for name, call, extra in (
        ("lie_derivative", lambda: lie_derivative(A, f), 0),
        ("control_homological", lambda: control_homological(LIN, p), 0),
        ("characteristic_derivative", lambda: characteristic_derivative(LIN, q), 0),
    ):
        built.clear()
        out = call()
        assert built == Counter(trusted=len(out.components) + extra), name
