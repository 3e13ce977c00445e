"""Certified means caught: a fault planted in a kernel that both the
normalizer and a certificate read never yields a different report that
exits 0.

Each row of ``MUTANTS`` names a file under ``src/normalforms``, an exact
text in it, the text that replaces it, and why the fault matters.  The test
copies ``src`` into a temporary directory, plants one mutant, and runs
``normalize --format json`` and then ``verify`` of that report, both with
the mutated program, in subprocesses, on the seed-0 document of each bench
workload (``bench/workloads.py``) at its order.  Per document it accepts
exactly three outcomes:

* ``identical``: the report and the verify output are byte-identical with
  the unmutated program's;
* ``normalize exits 2``: a certificate of the normalizer failed;
* ``verify exits 2``: the report was written, and its recheck failed.

Anything else fails the test, a different report with exit 0 above all.  A
mutant that stays identical on every document must say so in its row
(``harmless``), and a mutant that says so must stay identical, so the table
cannot silently go stale: a rewrite of a kernel re-points its row's old
text, and a row whose old text is gone fails at once.  Standard library
only; the documents run in parallel, two at a time.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ode-dense", "ode-jordan", "control-brunovsky")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/normalforms
    old: str
    new: str
    why: str
    harmless: bool = False  # identical output on every document


MUTANTS = (
    Mutant(
        "step-push-doubled",
        "polyalg.py",
        "acc[k] = get(k, 0) + ae * b",
        "acc[k] = get(k, 0) + 2 * ae * b",
        "the P-term Dh.P of the derivation step, which every Lie series and defect operator takes",
    ),
    Mutant(
        "step-q-part-dropped",
        "polyalg.py",
        "for j, low, c in row:",
        "for j, low, c in row[:0]:",
        "the q-part -Dq.h of the step: the bracket's second half and the coupling -Cq",
    ),
    Mutant(
        "multiply-doubled",
        "polyalg.py",
        "acc[k] = get(k, 0) + x * y",
        "acc[k] = get(k, 0) + 2 * x * y",
        "the packed graded product of the flow route's composition",
    ),
    Mutant(
        "lie-factorial-off",
        "polyalg.py",
        "den * gden * j)",
        "den * gden * (j if j < 3 else 1))",
        "1/j! of the Lie series, wrong from the third term on",
    ),
    Mutant(
        "projection-unweighted",
        "innerprod.py",
        "weighted = [{j: weights[j] * x for j, x in row.items()} for row in rows]",
        "weighted = [{j: x for j, x in row.items()} for row in rows]",
        "the Gram weights of the orthogonal projection onto ker M* and ker M",
    ),
    Mutant(
        "packing-narrow",
        "polyalg.py",
        "width = order.bit_length()",
        "width = (order - 1).bit_length()",
        "the exponent width of a packed code, too narrow when the order is a power of two;"
        " ode-jordan (order 6) packs the same, the two order-4 documents do not",
    ),
    Mutant(
        "slice-weight",
        "homological.py",
        "self.domain_weights = [monomial_weight(mi) for _, mi in domain_keys]",
        "self.domain_weights = [monomial_weight(mi[:-1]) for _, mi in domain_keys]",
        "the Gram weight the slice derives from its domain keys, wrong on every monomial"
        " that reads the last variable",
    ),
    Mutant(
        "split-layout",
        "homological.py",
        "f = map_coords(fk, self.codomain_keys)",
        "f = map_coords(fk, self.codomain_keys[::-1])",
        "the layout split_term reads f_k on",
    ),
    Mutant(
        "sylvester-read",
        "spectral.py",
        "coords = tuple(row[size + i] for i in range(n) for row in red)",
        "coords = tuple(row[size + i] for row in red for i in range(n))",
        "the Sylvester solve's read of X'^t, components and monomials swapped (ode-dense only)",
    ),
    Mutant(
        "solve-sign",
        "ratmat.py",
        "x[pc] = row[ncols]",
        "x[pc] = -row[ncols]",
        "the particular solution of the [M | b] solve",
    ),
    Mutant(
        "control-push-no-q",
        "control.py",
        "[p.components], n, order)",
        "[p.components], 0, order)",
        "the control pushforward's bracket without its -D_x p_x.g part (control-brunovsky only)",
    ),
)


def _run(src: Path, args, stdin: bytes):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run(
        [sys.executable, "-m", "normalforms", *args], input=stdin, capture_output=True, env=env, timeout=300
    )
    return p.returncode, p.stdout, p.stderr


def _normalize_and_verify(src: Path, doc):
    text, order = doc
    code, report, err = _run(src, ["normalize", "--format", "json", "--order", str(order)], text)
    if code != 0:
        return code, report, err, None
    return (code, report, err, _run(src, ["verify", "--format", "json"], report))


def _outcomes(src: Path, documents, baseline):
    with ThreadPoolExecutor(2) as pool:
        runs = dict(zip(documents, pool.map(lambda name: _normalize_and_verify(src, documents[name]), documents)))
    out = {}
    for name, (code, report, err, verify) in runs.items():
        if code == 2:
            out[name] = "normalize exits 2"
        elif code != 0:
            out[name] = f"normalize exits {code}: {err.decode()[-400:]}"
        elif verify[0] == 2:
            out[name] = "verify exits 2"
        elif (report, verify[1]) == baseline[name]:
            out[name] = "identical"
        else:
            out[name] = f"different output, normalize 0 and verify {verify[0]}"
    return out


@pytest.fixture(scope="module")
def documents():
    sys.path.insert(0, str(ROOT / "bench"))  # the bench is not a package
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return {
        name: (json.dumps(workloads.system_document(w, workloads.DEFAULT_SEED)).encode(), w.order)
        for name, w in ((name, workloads.WORKLOADS[name]) for name in WORKLOADS)
    }


@pytest.fixture(scope="module")
def baseline(documents):
    out = {}
    for name, doc in documents.items():
        code, report, _, verify = _normalize_and_verify(SRC, doc)
        assert code == 0 and verify[0] == 0, name
        out[name] = (report, verify[1])
    return out


def test_every_mutant_names_one_place_in_the_source():
    for mutant in MUTANTS:
        text = (SRC / "normalforms" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_a_mutant_is_caught_or_harmless(mutant, documents, baseline, tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = copy / "normalforms" / mutant.path
    text = target.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, "the row's old text no longer names one place"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    seen = _outcomes(copy, documents, baseline)
    accepted = {"identical", "normalize exits 2", "verify exits 2"}
    assert set(seen.values()) <= accepted, seen
    assert all(v == "identical" for v in seen.values()) == mutant.harmless, seen
