"""A degree's coordinate layouts are built with its graded slice, and no
step after that builds one.

`homological.GradedSlice` holds the layouts of its domain and codomain
(`polyalg.map_keys`, `polyalg.skew_keys`), derives its Gram weights from
them, and reads and builds maps on them.  So `split_term`, `is_minimal` and
the certificate of a step build no layout, and one seed-0 `normalize` of a
bench workload builds each layout only where an operator or a slice is
made, and where `homological.adjoint_defect` reads its defect.  Every alias of the
two builders in the package is wrapped, so a builder reached through any
module is counted.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from normalforms import cli, ode, polyalg
from normalforms.control import control_slice
from normalforms.integrals import brunovsky_pair
from normalforms.homological import homological_slice
from normalforms.polyalg import HomPoly, HomPolyMap, monomial_basis
from normalforms.ratmat import mat
from map_helpers import map_add

ROOT = Path(__file__).resolve().parent.parent

# at most this many builds in one seed-0 `normalize` of each bench workload;
# before the slice held its keys they were 24 map_keys (ode-dense), 40
# (ode-jordan), and 15 skew_keys plus 48 map_keys (control-brunovsky)
BOUNDS = {
    "ode-dense": {"map_keys": 9},
    "ode-jordan": {"map_keys": 15},
    "control-brunovsky": {"skew_keys": 12, "map_keys": 33},
}


@pytest.fixture
def builds(monkeypatch):
    """Counts of map_keys and skew_keys calls, through every alias."""
    counts = Counter()
    for original in (polyalg.map_keys, polyalg.skew_keys):

        def counted(*args, _fn=original):
            counts[_fn.__name__] += 1
            return _fn(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "normalforms" and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    return counts


def dense_map(n_vars, dim_out, k, seed):
    mons = monomial_basis(n_vars, k)
    return HomPolyMap(
        [HomPoly(n_vars, k, {mi: (seed + 3 * i + j) % 5 - 2 for j, mi in enumerate(mons)}) for i in range(dim_out)]
    )


SLICES = {
    # triangular (no Sylvester solve), resonant at degree 2 (ker L_A is not {0})
    "ode-resonant": lambda k: homological_slice(mat([[1, 0], [0, 2]]), k),
    # non-triangular: the Sylvester route
    "ode-dense": lambda k: homological_slice(mat([[1, 2], [3, "1/2"]]), k),
    "control": lambda k: control_slice(brunovsky_pair(2), k),
}


@pytest.mark.parametrize("case", sorted(SLICES))
@pytest.mark.parametrize("k", [2, 3])
def test_split_minimality_and_certificate_build_no_layout(case, k, builds):
    graded = SLICES[case](k)
    (_, mi), (last, _) = graded.codomain_keys[0], graded.codomain_keys[-1]
    fk = dense_map(len(mi), last + 1, k, seed=k)
    builds.clear()
    xi, residual, removable = graded.split_term(fk)
    assert graded.is_minimal(xi)
    cert = ode._certificate(graded, k, xi)
    assert builds == Counter()
    assert cert.minimal_ok and cert.skew_dim == len(graded.domain_keys)
    assert map_add(residual, removable) == fk


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_one_seed_zero_normalize_builds_few_layouts(name, builds, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the bench is not a package
    workloads = importlib.import_module("workloads")
    w = workloads.WORKLOADS[name]
    doc = tmp_path / "system.json"
    doc.write_text(json.dumps(workloads.system_document(w, workloads.DEFAULT_SEED)), encoding="utf-8")
    assert cli.main(["normalize", "--format", "json", "--order", str(w.order), "--input", str(doc)]) == 0
    capsys.readouterr()
    for builder, bound in BOUNDS[name].items():
        assert 0 < builds[builder] <= bound, (builder, builds)
    assert set(builds) == set(BOUNDS[name])
