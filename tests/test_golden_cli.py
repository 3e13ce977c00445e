"""Golden bytes of `normalize --format json`.

The order 2-4 sha256 digests below were recorded with the dense Fraction
elimination that `ratmat.rref` used before it became sparse and
fraction-free.  The reduced row echelon form is unique, so every kernel
basis, generator and normal-form coefficient, and therefore every byte of
the canonical report, must stay the same.  Each report must also pass
`verify`.

The Jordan document at order 6 and `brunovsky-quadratic` at order 5, where
the Lie series runs many more terms, were recorded with the validating,
re-sorting polynomial arithmetic kept in `slow_polyalg`.

The four-variable diagonal document at order 4, whose truncated
compositions share monomial products across four variables, was recorded
with the per-row product chains that `compose_truncated` used before its
per-call monomial-product table and integer-numerator `multiply`.

The dense control document (n = 2, m = 2, dense rational A and B) at
order 4, and the `kernel --degree 2` and `--degree 3` reports of it and of
the Jordan document, were recorded with operator matrices built through
polynomial arithmetic (each basis element pushed through the operator and
read back with `map_coords`), as kept in `slow_operators`.  The kernel
reports reach `control_complement` (control), which no benchmark workload
runs, and read their ODE complement off the graded slice; they were
recorded when the ODE complement still came from the range/complement
splitting now kept as `slow_operators.split`.

The Jordan document at order 8 and `brunovsky-quadratic` at order 6 run
deep Lie series with many generators.  They were recorded with the three
separate Lie-series loops that summed graded layers in `Fraction`s, the
composite transformation built by one substitution per generator, and the
`Fraction` row sums of `compose_truncated`, as kept in `slow_lie`.

The zero-A document has no digest from an older kernel: before the flow
conjugacy route defaulted a missing linear layer to the zero map, its
`normalize` failed the certificate and exited 2.  Its digest was recorded
after that fix.
"""

import hashlib
import io
import json
import sys

import pytest

from normalforms.cli import _EXAMPLE_DOCS, main

# the ODE path next to the built-in (control) examples: a dense rational A
# without a Jordan split, and a Jordan-form A whose split is derived
ODE_DOCUMENTS = {
    "ode-dense-2": {
        "kind": "ode",
        "n": 2,
        "m": 0,
        "A": [["1/2", "-3"], ["2/3", "5/4"]],
        "terms": [
            {"degree": 2, "component": 1, "exponents": [2, 0], "coeff": "1"},
            {"degree": 2, "component": 2, "exponents": [1, 1], "coeff": "-2/5"},
            {"degree": 3, "component": 1, "exponents": [0, 3], "coeff": "7/3"},
        ],
    },
    "ode-jordan-3": {
        "kind": "ode",
        "n": 3,
        "m": 0,
        "A": [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "2"]],
        "terms": [
            {"degree": 2, "component": 3, "exponents": [2, 0, 0], "coeff": "1"},
            {"degree": 2, "component": 1, "exponents": [1, 0, 1], "coeff": "-1/2"},
            {"degree": 3, "component": 2, "exponents": [1, 1, 1], "coeff": "3"},
        ],
    },
    "ode-diag-4": {
        "kind": "ode",
        "n": 4,
        "m": 0,
        "A": [["1", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "3"]],
        "terms": [
            {"degree": 2, "component": 1, "exponents": [0, 1, 1, 0], "coeff": "1"},
            {"degree": 2, "component": 2, "exponents": [2, 0, 0, 0], "coeff": "-1/3"},
            {"degree": 2, "component": 4, "exponents": [0, 1, 0, 1], "coeff": "2"},
            {"degree": 3, "component": 3, "exponents": [1, 0, 2, 0], "coeff": "5/7"},
            {"degree": 3, "component": 1, "exponents": [0, 0, 1, 2], "coeff": "-1"},
        ],
    },
    "ode-zero-2": {
        "kind": "ode",
        "n": 2,
        "m": 0,
        "A": [["0", "0"], ["0", "0"]],
        "terms": [
            {"degree": 2, "component": 1, "exponents": [2, 0], "coeff": "1"},
            {"degree": 3, "component": 2, "exponents": [1, 2], "coeff": "-2/3"},
        ],
    },
}

# a control pair with no zero in A or B: every block of the control
# operator and its closed-form adjoint is dense
CONTROL_DOCUMENTS = {
    "control-dense-2x2": {
        "kind": "control",
        "n": 2,
        "m": 2,
        "A": [["1/2", "-2"], ["3/5", "1"]],
        "B": [["1", "-1/3"], ["2/7", "3/2"]],
        "terms": [
            {"degree": 2, "component": 1, "exponents": [1, 0, 1, 0], "coeff": "1"},
            {"degree": 2, "component": 2, "exponents": [0, 2, 0, 0], "coeff": "-3/4"},
            {"degree": 3, "component": 1, "exponents": [0, 1, 0, 2], "coeff": "2/5"},
        ],
    },
}

GOLDEN = {
    ("brunovsky-quadratic", 2): "504a5b7314ff2f7e216bcbb0a16cc26a85bc93172c082254b768d994ed5ba014",
    ("brunovsky-quadratic", 3): "07a3cf4974f9e711d9ff12f1586332ce90ac521fbddc97e36d3c422ed3539c98",
    ("brunovsky-quadratic", 4): "734dd0a0feb829e70c6b4e48a74ea44b6a2d655d6bb977da7ef3ba0db050aa81",
    ("brunovsky-quadratic", 5): "ee1305b494c1d20639332159dd4c75434b38a443ad5d135283cc000b57fc9104",
    ("brunovsky-quadratic", 6): "f10b12eb4fa6402c276ad4bf45f8833bc366507172507bea81dc0de3e6644ed9",
    ("uncontrollable", 2): "a3526d62b26fc46061d156043669a984edc65565a40a84e6f8f32621869386ce",
    ("uncontrollable", 3): "8e04de7e1945131d992074e5c6c18bd9725b0195fba3128d4ca167d4e396a8ec",
    ("uncontrollable", 4): "770a069f31f5c1db8e2cd333d8588a623b946116b81b3db091f8e58ee77f5ca0",
    ("ode-dense-2", 2): "3e268519e571876b21f21b87ef7ea8b6e8a5518679c83bf6ca4f065e47b1c675",
    ("ode-dense-2", 3): "ee40fb0fd0e43a2662927103722980397a4e8ebc9830852dd11688e509403285",
    ("ode-dense-2", 4): "bb6f37ba5fc1c374b6afcec1edef9c9337689202d0b52d3f3ffd4b7ab15ad349",
    ("ode-jordan-3", 2): "e2927768cf66193535716feaed83d3bd77e2be204fabae0df5a50b745f16e721",
    ("ode-jordan-3", 3): "ac3db99d6d457eba846498f96470c3199c9ac8ca10c684c5de9809784fa7f628",
    ("ode-jordan-3", 4): "78e72205d4f8bc6ea6627d03bcba215968f39f875a4209294543fa14d378a3e1",
    ("ode-jordan-3", 6): "b5fb5bd2c03f15712c03ec34ac564799db591b78ffa52aa1c2ec294b5acc469d",
    ("ode-jordan-3", 8): "66a0f97b82781a1a926038616cd60f784a457520be07bfe86cf2b1911e0849e3",
    ("ode-diag-4", 4): "6e1519f38b8ba293afa985ae823fc1298887399c2a08e0b1a232f79dc2c5d805",
    ("ode-zero-2", 4): "ee1bd81f07b17aa4b1777946e40df73bb352e0a9d0132816943f6c290656e463",
    ("control-dense-2x2", 4): "31f0ca708f36fe8d8b67aa98540360908861d41cec056432500962b7ff445193",
}

# sha256 of `kernel --degree k --format json`
KERNEL_GOLDEN = {
    ("control-dense-2x2", 2): "0c319f41d76f5b1c247a968589df36f945d9c52febdcb4f9d1083763acc946b6",
    ("control-dense-2x2", 3): "74f7c6efcc015e18681fc82d59d39773dfe95bf12999ef74968b75a34b1d3ee0",
    ("ode-jordan-3", 2): "ff2d042b9e72de26eff818fee103b4957ca9b18833acb934b8de541ba5c77483",
    ("ode-jordan-3", 3): "f6b683bfb79b3ca83eef1196685b71563f401037fc4e1a077a2ab13fa1b6a9e0",
}


def run(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    return code, capsys.readouterr().out


def system_text(name, monkeypatch, capsys):
    if name in ODE_DOCUMENTS:
        return json.dumps(ODE_DOCUMENTS[name])
    if name in CONTROL_DOCUMENTS:
        return json.dumps(CONTROL_DOCUMENTS[name])
    code, text = run(["examples", name], "", monkeypatch, capsys)
    assert code == 0
    return text


@pytest.mark.parametrize("name, order", sorted(GOLDEN), ids=[f"{n}-{o}" for n, o in sorted(GOLDEN)])
def test_normalize_bytes_are_golden_and_verify(name, order, monkeypatch, capsys):
    text = system_text(name, monkeypatch, capsys)
    code, report = run(["normalize", "--format", "json", "--order", str(order)], text, monkeypatch, capsys)
    assert code == 0
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == GOLDEN[name, order]
    code, verdict = run(["verify", "--format", "json"], report, monkeypatch, capsys)
    assert code == 0
    assert json.loads(verdict)["verified"] is True


@pytest.mark.parametrize(
    "name, degree", sorted(KERNEL_GOLDEN), ids=[f"{n}-{k}" for n, k in sorted(KERNEL_GOLDEN)]
)
def test_kernel_bytes_are_golden(name, degree, monkeypatch, capsys):
    text = system_text(name, monkeypatch, capsys)
    code, report = run(["kernel", "--degree", str(degree), "--format", "json"], text, monkeypatch, capsys)
    assert code == 0
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == KERNEL_GOLDEN[name, degree]


def test_every_built_in_example_is_pinned():
    assert {(name, k) for name in _EXAMPLE_DOCS for k in (2, 3, 4)} <= set(GOLDEN)
