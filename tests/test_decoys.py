"""Each check of `verify` refutes its own decoy.

A decoy is a committed {system, report} document under ``tests/decoys``
that fails exactly one of verify's recomputed checks, so no other check
can hide a fault in that one.  Each row of ``DECOYS`` names a decoy, the
check it fails, and a weakening of that check in the style of
``tests/test_mutants.py``: a text in ``src/normalforms`` and the text that
replaces it.  The unmutated program must reject the decoy with exit 2,
with only that check (and ``certificates_match``, which compares the
report's claim with it) false; the weakened program, run from a copy of
``src``, must verify it with exit 0.  So a weakening that no other test
catches still fails here, and the decoy is shown to need the check.
"""

import json
import shutil
from pathlib import Path
from typing import NamedTuple

import pytest

from test_mutants import SRC, Mutant, _run

DECOYS = Path(__file__).resolve().parent / "decoys"


class Decoy(NamedTuple):
    path: str  # under tests/decoys
    check: str  # the one recomputed check it fails
    weakening: Mutant


DECOY_TABLE = (
    Decoy(
        "ode-dense-conjugate-not-normal.json",
        "kernel_residual_zero",
        Mutant(
            "verify-ode-kernel-off",
            "cli.py",
            "kernel_ok = all(lie_derivative(at, g.term(k)).is_zero for k in degrees)",
            "kernel_ok = True",
            "verify's ODE kernel check in cli._recheck; the decoy is the ode-dense seed-0 system at"
            " order 3 with no generators and g = f, conjugate to itself but not normal",
        ),
    ),
)


def _verify(src: Path, decoy: Decoy):
    code, out, err = _run(src, ["verify", "--format", "json"], (DECOYS / decoy.path).read_bytes())
    return code, json.loads(out) if out else None, err


@pytest.mark.parametrize("decoy", DECOY_TABLE, ids=[d.weakening.name for d in DECOY_TABLE])
def test_the_program_rejects_the_decoy_on_its_one_check(decoy):
    code, result, _ = _verify(SRC, decoy)
    assert code == 2
    assert sorted(name for name, ok in result["checks"].items() if not ok) == sorted(
        {decoy.check, "certificates_match"}
    )


@pytest.mark.parametrize("decoy", DECOY_TABLE, ids=[d.weakening.name for d in DECOY_TABLE])
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
