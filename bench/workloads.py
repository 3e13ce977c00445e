"""Workload definitions and the seeded system-document generator.

Every workload is one system document plus a truncation order.  The seed
only chooses the coefficients of the nonlinear terms; the linear part of
each workload is fixed, so the shape of the problem (and with it the
dimensions of every graded slice) is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import List, Optional, Sequence

DEFAULT_SEED = 0
MAX_NUMERATOR = 6
MAX_DENOMINATOR = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "ode" | "control"
    n: int
    m: int
    a: Sequence[Sequence[str]]
    b: Optional[Sequence[Sequence[str]]]
    degrees: Sequence[int]
    order: int
    # the certificate the report must carry: equivariance is only defined
    # when a Jordan-Chevalley split is available
    equivariance: Optional[bool]

    def params(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "A": [list(r) for r in self.a],
            "B": None if self.b is None else [list(r) for r in self.b],
            "nonlinear_degrees": list(self.degrees),
            "order": self.order,
            "coefficients": f"p/q, 1 <= |p| <= {MAX_NUMERATOR}, 1 <= q <= {MAX_DENOMINATOR}, every monomial of every component",
        }


def random_rational(rng: random.Random) -> str:
    p = rng.choice([v for v in range(-MAX_NUMERATOR, MAX_NUMERATOR + 1) if v])
    return str(Fraction(p, rng.randint(1, MAX_DENOMINATOR)))


def exponents(n_vars: int, degree: int) -> List[List[int]]:
    out = []
    for combo in combinations_with_replacement(range(n_vars), degree):
        e = [0] * n_vars
        for i in combo:
            e[i] += 1
        out.append(e)
    return out


def dense_rational_matrix(tag: str, n: int) -> List[List[str]]:
    rng = random.Random(tag)
    return [[random_rational(rng) for _ in range(n)] for _ in range(n)]


def system_document(w: Workload, seed: int) -> dict:
    """The system document for one run: dense seeded terms over (x, u)."""
    rng = random.Random(f"{w.name}/{seed}")
    terms = []
    for k in w.degrees:
        for component in range(1, w.n + 1):
            for e in exponents(w.n + w.m, k):
                terms.append(
                    {"degree": k, "component": component, "exponents": e, "coeff": random_rational(rng)}
                )
    doc = {"kind": w.kind, "n": w.n, "m": w.m, "A": [list(r) for r in w.a], "terms": terms}
    if w.b is not None:
        doc["B"] = [list(r) for r in w.b]
    return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ode-dense",
            why="dense rational 3x3 A, order 4: dense Fraction elimination and coefficient growth dominate",
            kind="ode",
            n=3,
            m=0,
            # drawn once and kept: a fresh A per seed would make elimination
            # cost vary from seed to seed, on top of the machine's own noise
            a=dense_rational_matrix("ode-dense/A", 3),
            b=None,
            degrees=(2, 3, 4),
            order=4,
            equivariance=None,
        ),
        Workload(
            name="ode-jordan",
            why="Jordan-form A, order 6: polyalg, the Lie series and both conjugacy routes dominate; elimination is small",
            kind="ode",
            n=3,
            m=0,
            a=(("1", "1", "0"), ("0", "1", "0"), ("0", "0", "2")),
            b=None,
            degrees=tuple(range(2, 7)),
            order=6,
            equivariance=True,
        ),
        Workload(
            name="control-brunovsky",
            why="Brunovsky pair n=3 m=1, order 4: the control layer, skew Gram projection, augmented conjugacy",
            kind="control",
            n=3,
            m=1,
            a=(("0", "1", "0"), ("0", "0", "1"), ("0", "0", "0")),
            b=(("0",), ("0",), ("1",)),
            degrees=(2, 3),
            order=4,
            equivariance=None,
        ),
    )
}
