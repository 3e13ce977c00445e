"""Acceptance gate: one test per criterion, exact assertions, pinned budgets.

Every check is exact rational arithmetic — no tolerances anywhere.  Each
test also asserts its own wall-clock budget so a regression in the exact
linear algebra shows up here rather than in user-facing latency.
"""

import io
import json
import random
import sys
import time
from fractions import Fraction as F
from itertools import product

from normalforms.cli import main
from normalforms.control import (
    ControlLinearPart,
    ControlSystem,
    characteristic_field,
    control_adjoint_matrix,
    control_matrix,
    normalize_control,
    verify_control_conjugacy,
)
from normalforms.integrals import (
    brunovsky_first_integrals,
    brunovsky_pair,
    control_complement,
    integral_defect,
    uncontrollable_example,
)
from normalforms.homological import (
    adjoint_defect,
    adjoint_matrix,
    homological_matrix,
    lie_derivative,
)
from normalforms.polyalg import (
    HomPoly,
    HomPolyMap,
    PolySeries,
    monomial_basis,
)
from normalforms.ode import normalize_ode
from normalforms.ratmat import mat, nullspace, rank, transpose, zeros
from map_helpers import (
    certificate,
    coords_of,
    example_complement,
    example_pde_defect,
    generator,
    inner_product,
    input_pairing,
    normal_form_defect,
    poly_mul,
    resonant_kernel_basis,
    series_eq,
    solve,
)
from slow_operators import split


def budget(t0: float, seconds: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"budget exceeded: {elapsed:.2f}s >= {seconds}s"


def rand_fraction(rng) -> F:
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def rand_matrix(rng, n):
    return tuple(tuple(rand_fraction(rng) for _ in range(n)) for _ in range(n))


def rand_map(rng, dim_in, dim_out, k):
    mons = monomial_basis(dim_in, k)
    return HomPolyMap(
        [
            HomPoly(dim_in, k, {mi: rand_fraction(rng) for mi in mons})
            for _ in range(dim_out)
        ]
    )


def span_equal(maps_a, maps_b) -> bool:
    cols_a = [list(coords_of(q)) for q in maps_a]
    cols_b = [list(coords_of(q)) for q in maps_b]
    if bool(cols_a) != bool(cols_b):
        return False
    if not cols_a:
        return True
    m_a = tuple(zip(*cols_a))
    m_b = tuple(zip(*cols_b))
    m_ab = tuple(ra + rb for ra, rb in zip(m_a, m_b))
    return rank(m_a) == rank(m_b) == rank(m_ab)


def test_criterion_01_adjoint_identity_random_exact():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        a = rand_matrix(rng, n)
        p = rand_map(rng, n, n, k)
        q = rand_map(rng, n, n, k)
        assert inner_product(lie_derivative(a, p), q) == inner_product(
            p, lie_derivative(transpose(a), q)
        )
    budget(t0, 5)


def test_criterion_02_quadratic_control_complement_span():
    t0 = time.perf_counter()
    lin = brunovsky_pair(2)
    comp = control_complement(lin, 2)
    claimed = [
        HomPolyMap(
            [HomPoly(3, 2, {(2, 0, 0): F(1)}), HomPoly(3, 2, {(1, 1, 0): F(1)})]
        ),
        HomPolyMap([HomPoly.zero(3, 2), HomPoly(3, 2, {(2, 0, 0): F(1)})]),
        HomPolyMap(
            [HomPoly.zero(3, 2), HomPoly(3, 2, {(1, 0, 1): F(2), (0, 2, 0): F(-1)})]
        ),
    ]
    assert len(comp) == 3
    assert span_equal(comp, claimed)
    budget(t0, 1)


def test_criterion_03_control_normal_forms_certified():
    t0 = time.perf_counter()
    rng = random.Random(103)
    for i in range(20):
        n = (i % 3) + 1
        lin = brunovsky_pair(n)
        nv = n + 1
        terms = {k: rand_map(rng, nv, n, k) for k in (2, 3)}
        sys_c = ControlSystem(lin, PolySeries(nv, n, 3, terms))
        report = normalize_control(sys_c, 3)
        assert report.ok
        for k in (2, 3):
            gk = report.normal_form.term(k)
            assert normal_form_defect(lin, gk).is_zero
            assert input_pairing(lin, gk).is_zero
            assert adjoint_defect(lin.aug, gk).is_zero
        assert verify_control_conjugacy(
            sys_c, report.log, report.normal_form, 3
        ).ok
    budget(t0, 30)


def test_criterion_04_diagonal_resonance_complements():
    t0 = time.perf_counter()
    spectra = ((F(1), F(2)), (F(1), F(3)), (F(2), F(3)), (F(1), F(-1)))
    for lam in spectra:
        a = mat([[lam[0], 0], [0, lam[1]]])
        for k in (2, 3):
            s = split(a, k)
            assert span_equal(s.complement_basis, resonant_kernel_basis(lam, k))
    budget(t0, 5)


def test_criterion_05_nilpotent_quadratic_complement():
    t0 = time.perf_counter()
    s = split(mat([[0, 1], [0, 0]]), 2)
    assert len(s.complement_basis) == 2
    members = [
        HomPolyMap([HomPoly.zero(2, 2), HomPoly(2, 2, {(2, 0): F(1)})]),
        HomPolyMap(
            [HomPoly(2, 2, {(2, 0): F(1)}), HomPoly(2, 2, {(1, 1): F(1)})]
        ),
    ]
    cols = tuple(zip(*(coords_of(q) for q in s.complement_basis)))
    for q in members:
        assert solve(cols, coords_of(q)) is not None
    budget(t0, 1)


def test_criterion_06_shift_chain_first_integrals():
    t0 = time.perf_counter()
    for n in range(1, 7):
        integrals = brunovsky_first_integrals(n)
        fld = characteristic_field(brunovsky_pair(n))
        assert len(integrals) == n // 2 + 1
        for li in integrals:
            assert integral_defect(fld, li.poly).is_zero
    # for n = 2 the quadratic integral is the line spanned by 2 x1 u - x2^2
    ell2 = brunovsky_first_integrals(2)[1].poly
    target = HomPoly(3, 2, {(1, 0, 1): F(2), (0, 2, 0): F(-1)})
    assert ell2 == poly_mul(target, F(-1, 2))
    budget(t0, 1)


def test_criterion_07_uncontrollable_example_reproduction():
    t0 = time.perf_counter()
    ex = uncontrollable_example()
    expected = [
        HomPoly(4, 1, {(1, 0, 0, 0): F(1)}),  # z
        HomPoly(4, 1, {(0, 1, 0, 0): F(1)}),  # x1
        HomPoly(4, 2, {(0, 0, 2, 0): F(1), (1, 0, 0, 1): F(-2)}),  # x2^2 - 2zu
    ]
    assert [li.poly for li in ex.first_integrals] == expected
    for li in ex.first_integrals:
        assert integral_defect(ex.field, li.poly).is_zero
    comp = example_complement(ex, 2)
    assert len(comp) == 10
    for q in comp:
        assert example_pde_defect(ex, q).is_zero
    budget(t0, 2)


def test_criterion_08_rank_nullity_exact():
    t0 = time.perf_counter()
    rng = random.Random(108)

    # 50 ODE draws: every (n, k) pair covered, the heaviest sizes sampled
    # a couple of times each so the budget stays honest
    schedule = []
    for n, k in product((1, 2, 3), (2, 3, 4)):
        schedule.extend([(n, k)] * 5)  # 45 small draws
    schedule.extend([(4, 2)] * 2 + [(4, 3)] * 2 + [(4, 4)])  # 5 large draws
    assert len(schedule) == 50
    for n, k in schedule:
        a = rand_matrix(rng, n)
        space = n * len(monomial_basis(n, k))
        r = rank(homological_matrix(a, k))
        c = len(nullspace(adjoint_matrix(a, k)))
        assert r + c == space

    # 20 control draws over all shapes with n + m <= 4
    shapes = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
    picks = [(shapes[i % 6], 2 + (i % 3)) for i in range(20)]
    for (n, m), k in picks:
        a = rand_matrix(rng, n)
        b = tuple(tuple(rand_fraction(rng) for _ in range(m)) for _ in range(n))
        lin = ControlLinearPart(a, b)
        space = n * len(monomial_basis(n + m, k))
        r = rank(control_matrix(lin, k))
        c = len(nullspace(control_adjoint_matrix(lin, k)))
        assert r + c == space
    budget(t0, 60)


def test_criterion_09_idempotence_and_locality():
    t0 = time.perf_counter()
    rng = random.Random(109)
    mats = (mat([[0, 1], [0, 0]]), mat([[1, 0], [0, 2]]), mat([[2, 1], [0, 2]]))
    for a in mats:
        f = PolySeries(
            2, 2, 3, {k: rand_map(rng, 2, 2, k) for k in (2, 3)}
        )
        report = normalize_ode(a, f, 3)
        again = normalize_ode(a, report.normal_form, 3)
        assert again.log.generators == ()
        assert series_eq(again.normal_form, report.normal_form)

        # degree-k steps never touch degrees below k
        low = normalize_ode(a, f, 2)
        assert report.normal_form.term(2).components == low.normal_form.term(2).components
        assert generator(report.log, 2) == generator(low.log, 2)

    # same statements for a control system
    lin = brunovsky_pair(2)
    f = PolySeries(3, 2, 3, {k: rand_map(rng, 3, 2, k) for k in (2, 3)})
    sys_c = ControlSystem(lin, f)
    report = normalize_control(sys_c, 3)
    again = normalize_control(ControlSystem(lin, report.normal_form), 3)
    assert again.log.generators == ()
    assert series_eq(again.normal_form, report.normal_form)
    low = normalize_control(sys_c, 2)
    assert report.normal_form.term(2).components == low.normal_form.term(2).components
    budget(t0, 10)


def test_criterion_10_equivariance_certificates():
    t0 = time.perf_counter()
    rng = random.Random(110)

    diag = mat([[1, 0], [0, 2]])
    f = PolySeries(2, 2, 3, {k: rand_map(rng, 2, 2, k) for k in (2, 3)})
    report = normalize_ode(diag, f, 3, split=(diag, zeros(2, 2)))
    assert report.ok
    for k in (2, 3):
        gk = report.normal_form.term(k)
        assert lie_derivative(transpose(diag), gk).is_zero
        cert = certificate(report, k)
        assert cert.semisimple_ok is True
        assert cert.nilpotent_ok is True  # A_n = 0 makes this vacuous but present

    jordan = mat([[2, 1], [0, 2]])
    report = normalize_ode(jordan, f, 3)  # split derived from the Jordan form
    assert report.ok
    a_s = mat([[2, 0], [0, 2]])
    for k in (2, 3):
        gk = report.normal_form.term(k)
        assert lie_derivative(transpose(a_s), gk).is_zero
        cert = certificate(report, k)
        assert cert.semisimple_ok is not None
        assert cert.nilpotent_ok is not None
    budget(t0, 5)


def test_criterion_11_cli_end_to_end(monkeypatch, capsys):
    t0 = time.perf_counter()

    def run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    code, example_doc = run(["examples", "brunovsky-quadratic"])
    assert code == 0
    system = json.loads(example_doc)
    assert system["kind"] == "control" and system["n"] == 2

    code, normalized = run(
        ["normalize", "--order", "3", "--format", "json"], example_doc
    )
    assert code == 0
    payload = json.loads(normalized)
    certs = payload["report"]["certificates"]
    assert certs["kernel_residual_zero"] is True
    assert certs["conjugacy_residual_zero"] is True

    code, verified = run(["verify", "--format", "json"], normalized)
    assert code == 0
    assert json.loads(verified)["verified"] is True

    payload["report"]["normal_form"].append(
        {"degree": 2, "component": 1, "exponents": [0, 0, 2], "coeff": "1"}
    )
    code, corrupted = run(["verify", "--format", "json"], json.dumps(payload))
    assert code == 2
    assert json.loads(corrupted)["verified"] is False
    budget(t0, 5)
