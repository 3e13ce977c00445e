"""Each check of `verify` refutes its own decoy.

A decoy is a committed {system, report} document under ``tests/decoys``
that fails exactly one of verify's recomputed checks, so no other check
can hide a fault in that one.  Each row of ``DECOYS`` names a decoy, the
check it fails, and a weakening of that check in the style of
``tests/test_mutants.py``: a text in ``src/normalforms`` and the text that
replaces it.  The unmutated program must reject the decoy with exit 2,
with only that check false, and ``certificates_match`` too when the check
is a certificate, whose claim it compares; the weakened program, run from a copy of
``src``, must verify it with exit 0.  So a weakening that no other test
catches still fails here, and the decoy is shown to need the check.
"""

import json
import shutil
from pathlib import Path
from typing import NamedTuple

import pytest

from normalforms import cli
from test_mutants import SRC, Mutant, _run

DECOYS = Path(__file__).resolve().parent / "decoys"


class Decoy(NamedTuple):
    path: str  # under tests/decoys
    check: str  # the one recomputed check it fails
    weakening: Mutant


# verify's one kernel check, L_F* g_k = 0 for F = A or (A B), turned off
KERNEL_OFF = Mutant(
    "verify-kernel-off",
    "cli.py",
    "kernel_ok = all(adjoint_defect(a, g.term(k)).is_zero for k in degrees)",
    "kernel_ok = True",
    "verify's kernel check in cli._recheck, one line for both kinds; each decoy is a system at"
    " order 3 with no generators and g = f, conjugate to itself but not normal",
)

# verify's dimension check compares the claimed dimensions of degree 2 only
DIMENSIONS_ONE_DEGREE = Mutant(
    "verify-dimensions-degree-2-only",
    "cli.py",
    '"dimensions_match": rep.dimensions == dims,',
    '"dimensions_match": rep.dimensions.get(2) == dims.get(2),',
    "verify's dimension check in cli._recheck; the decoy is a correct report whose claimed"
    " complement at its top degree, 3, is off by one",
)

DECOY_TABLE = (
    # the ode-dense seed-0 system
    Decoy("ode-dense-conjugate-not-normal.json", "kernel_residual_zero", KERNEL_OFF),
    # the brunovsky-quadratic example, whose x2^2 term is removable
    Decoy("control-conjugate-not-normal.json", "kernel_residual_zero", KERNEL_OFF),
    # the brunovsky-quadratic report at order 3, the complement of degree 3 claimed 4, not 3
    Decoy("control-wrong-dimensions.json", "dimensions_match", DIMENSIONS_ONE_DEGREE),
)
IDS = [Path(d.path).stem for d in DECOY_TABLE]


def _verify(src: Path, decoy: Decoy):
    code, out, err = _run(src, ["verify", "--format", "json"], (DECOYS / decoy.path).read_bytes())
    return code, json.loads(out) if out else None, err


@pytest.mark.parametrize("decoy", DECOY_TABLE, ids=IDS)
def test_the_program_rejects_the_decoy_on_its_one_check(decoy):
    code, result, _ = _verify(SRC, decoy)
    assert code == 2
    certificate = decoy.check in cli._CERT_KEYS
    assert sorted(name for name, ok in result["checks"].items() if not ok) == sorted(
        {decoy.check, "certificates_match"} if certificate else {decoy.check}
    )


@pytest.mark.parametrize("decoy", DECOY_TABLE, ids=IDS)
def test_the_weakened_check_verifies_the_decoy(decoy, tmp_path):
    mutant = decoy.weakening
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = copy / "normalforms" / mutant.path
    text = target.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, "the row's old text no longer names one place"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    code, result, err = _verify(copy, decoy)
    assert (code, result["verified"]) == (0, True), err
