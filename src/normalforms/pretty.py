"""The human-facing text of every verb: ``--format pretty``.

A polynomial prints as signed monomials, ``x1·x2^2``, over the variable
names x1..xn of the states and u (one input) or u1..um.  `cli` imports
this module only inside the branches that render text, so a ``--format
json`` run never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cli import ParsedSystem, _parts
from .ode import NormalFormReport
from .polyalg import HomPoly, PolySeries
from .ratmat import Matrix

_KIND_TITLES = {"ode": "ode", "control": "control system"}


def var_names(n: int, m: int) -> List[str]:
    names = [f"x{i + 1}" for i in range(n)]
    if m == 1:
        names.append("u")
    else:
        names.extend(f"u{i + 1}" for i in range(m))
    return names


def _mono_str(mi: Sequence[int], names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, mi):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "·".join(parts) if parts else "1"


def _signed_join(parts: List[Tuple[Fraction, str]]) -> str:
    if not parts:
        return "0"
    pieces = []
    for idx, (cf, mono) in enumerate(parts):
        mag = abs(cf)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}·{mono}"
        if idx == 0:
            pieces.append(f"-{body}" if cf < 0 else body)
        else:
            pieces.append(f"- {body}" if cf < 0 else f"+ {body}")
    return " ".join(pieces)


def _poly_str(p: HomPoly, names: Sequence[str]) -> str:
    return _signed_join([(cf, _mono_str(mi, names)) for mi, cf in p.items()])


def _map_str(comps: Sequence[HomPoly], names: Sequence[str]) -> str:
    return "(" + ", ".join(_poly_str(c, names) for c in comps) + ")"


def _system_lines(
    n: int, m: int, a: Matrix, b: Optional[Matrix], series: PolySeries, names: Sequence[str]
) -> List[str]:
    lines = []
    for i in range(n):
        parts: List[Tuple[Fraction, str]] = []
        for j in range(n):
            if a[i][j]:
                parts.append((a[i][j], names[j]))
        if b is not None:
            for l in range(m):
                if b[i][l]:
                    parts.append((b[i][l], names[n + l]))
        for k in series.degrees():
            comp = series.term(k).component(i)
            for mi, cf in comp.items():
                parts.append((cf, _mono_str(mi, names)))
        lines.append(f"d{names[i]}/dt = {_signed_join(parts)}")
    return lines


def _text(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


def report_text(ps: ParsedSystem, doc: dict, report: NormalFormReport) -> str:
    """The pretty report: the normal form and generators from the engine's
    maps, the certificates and dimensions from the report document."""
    names = var_names(ps.n, ps.m)
    lines = [
        f"normal form of the {_KIND_TITLES[ps.kind]} (n={ps.n}, m={ps.m}), order {doc['order']}:"
    ]
    for line in _system_lines(ps.n, ps.m, ps.a, ps.b, report.normal_form, names):
        lines.append(f"  {line}")
    lines.append("generators:")
    generators = report.log.generators
    if not generators:
        lines.append("  (identity transformation)")
    for k, field in generators:
        # each part as its rows of the logged field, not cut again: a zero
        # exponent prints nothing, so p_x reads as if trimmed to the states
        pieces = [f"{part.label} = {_map_str(rows, names)}" for part, _, rows in _parts(ps.kind, ps.n, ps.m, field)]
        lines.append(f"  degree {k}: " + ", ".join(pieces))
    lines.append("certificates:")
    for key in ("kernel_residual_zero", "conjugacy_residual_zero", "equivariance_zero"):
        value = doc["certificates"][key]
        shown = "null" if value is None else ("true" if value else "false")
        lines.append(f"  {key}: {shown}")
    lines.append("dimensions (space / range / complement):")
    dims = doc["dimensions"]
    if not dims:
        lines.append("  (no nonlinear degrees)")
    for k in sorted(dims, key=int):
        d = dims[k]
        lines.append(f"  degree {k}: {d['space']} / {d['range']} / {d['complement']}")
    return _text(lines)


def verify_text(checks: dict, verified: bool) -> str:
    lines = ["verification of the report against its system:"]
    for key, value in checks.items():
        lines.append(f"  {key}: {'pass' if value else 'FAIL'}")
    lines.append(f"verified: {'yes' if verified else 'no'}")
    return _text(lines)


def kernel_text(ps: ParsedSystem, doc: dict, basis) -> str:
    names = var_names(ps.n, ps.m)
    dims = doc["dimensions"]
    lines = [
        f"complement basis at degree {doc['degree']} "
        f"({_KIND_TITLES[ps.kind]}, n={ps.n}, m={ps.m}):",
        f"  dimensions: space {dims['space']}, range {dims['range']}, "
        f"complement {dims['complement']}",
    ]
    for i, q in enumerate(basis):
        lines.append(f"  q{i + 1} = {_map_str(q.components, names)}")
    return _text(lines)


def first_integrals_text(doc: dict, integrals) -> str:
    if doc["target"] == "brunovsky":
        title = f"first integrals of the characteristic field (Brunovsky pair, n={doc['n']}):"
    else:
        title = "first integrals of the built-in uncontrollable example:"
    lines = [title]
    for li in integrals:
        lines.append(f"  l{li.index} = {_poly_str(li.poly, doc['variables'])}")
    lines.append("all integrals certified: exact zero derivative along the field")
    return _text(lines)
