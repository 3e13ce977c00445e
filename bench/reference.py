"""Record the correctness reference the benchmark checks on every run.

    python3 bench/reference.py

For each workload at the default seed this stores the sha256 of the
canonical ``normalize`` output and the per-degree dimensions.  Before
anything is written, every dimension in that output is cross-checked
against an independent computation: the operator matrix is assembled here
from the monomial formulas and its rank taken with sympy's exact
``DomainMatrix`` over QQ, never with the program's own elimination.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import REFERENCE, WORK, Deadline, check_verify, cli_args, spawn  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, exponents, system_document  # noqa: E402

Poly = Dict[Tuple[int, ...], Fraction]


def _add(p: Poly, mono: Tuple[int, ...], c: Fraction):
    v = p.get(mono, Fraction(0)) + c
    if v:
        p[mono] = v
    else:
        p.pop(mono, None)


def _drift_derivative(mono: Tuple[int, ...], a, b, n: int, m: int) -> Poly:
    """grad(z^mono) . (A x + B u) over the variables z = (x, u)."""
    out: Poly = {}
    for r in range(n):
        if not mono[r]:
            continue
        lowered = list(mono)
        lowered[r] -= 1
        for s in range(n):
            if a[r][s]:
                e = list(lowered)
                e[s] += 1
                _add(out, tuple(e), mono[r] * a[r][s])
        for l in range(m):
            if b[r][l]:
                e = list(lowered)
                e[n + l] += 1
                _add(out, tuple(e), mono[r] * b[r][l])
    return out


def operator_columns(a, b, n: int, m: int, k: int) -> List[Dict[Tuple[int, Tuple[int, ...]], Fraction]]:
    """Columns of L p = Dp_x (Ax + Bu) - A p_x - B p_u on degree-k skew maps.

    With m = 0 this is the ODE homological operator L_A.  Rows are indexed
    by (component, monomial in x and u).
    """
    cols = []
    for j in range(n):
        for e in exponents(n, k):
            mono = tuple(e) + (0,) * m
            col = {(j, mi): c for mi, c in _drift_derivative(mono, a, b, n, m).items()}
            for i in range(n):
                if a[i][j]:
                    col[i, mono] = col.get((i, mono), Fraction(0)) - a[i][j]
            cols.append(col)
    for l in range(m):
        for e in exponents(n + m, k):
            cols.append({(i, tuple(e)): -b[i][l] for i in range(n) if b[i][l]})
    return cols


def exact_rank(cols: Sequence[dict], rows: Sequence[tuple]) -> int:
    index = {r: i for i, r in enumerate(rows)}
    entries = [[QQ(0)] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        for key, c in col.items():
            if c:
                entries[index[key]][j] = QQ(c.numerator, c.denominator)
    return DomainMatrix(entries, (len(rows), len(cols)), QQ).rank()


def independent_dimensions(w: Workload) -> Dict[str, Dict[str, int]]:
    n, m = w.n, w.m
    a = [[Fraction(v) for v in row] for row in w.a]
    b = [[Fraction(v) for v in row] for row in w.b] if w.b else [[] for _ in range(n)]
    dims = {}
    for k in range(2, w.order + 1):
        rows = [(i, tuple(e)) for i in range(n) for e in exponents(n + m, k)]
        space = n * comb(n + m + k - 1, k)
        assert len(rows) == space
        rank = exact_rank(operator_columns(a, b, n, m, k), rows)
        dims[str(k)] = {"space": space, "range": rank, "complement": space - rank}
    return dims


def record(w: Workload) -> dict:
    work = WORK / "reference" / w.name
    work.mkdir(parents=True, exist_ok=True)
    doc, report, verdict = work / "system.json", work / "report.json", work / "verdict.json"
    doc.write_text(json.dumps(system_document(w, DEFAULT_SEED)), encoding="utf-8")
    deadline = Deadline(600)
    n = spawn(["-m", "normalforms", *cli_args(w, "normalize", doc)], report, deadline.left())
    if n.code != 0:
        raise SystemExit(f"{w.name}: normalize exited with {n.code}")
    text = report.read_bytes()
    claimed = json.loads(text)["report"]
    v = spawn(["-m", "normalforms", *cli_args(w, "verify", report)], verdict, deadline.left())
    problems = check_verify(v.code, verdict.read_bytes())
    dims = independent_dimensions(w)
    if claimed["dimensions"] != dims:
        problems.append(f"dimensions {claimed['dimensions']} != independent {dims}")
    if problems:
        raise SystemExit(f"{w.name}: " + "; ".join(problems))
    return {"seed": DEFAULT_SEED, "normalize_sha256": hashlib.sha256(text).hexdigest(), "dimensions": dims}


def main() -> int:
    ref = {name: record(w) for name, w in WORKLOADS.items()}
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
