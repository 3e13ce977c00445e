"""Command-line surface and exact JSON interchange for the engine.

Documents carry every coefficient as a rational string ("3/2", "-1", "2");
floating-point literals are rejected outright, so a parsed document is exact
and serialized reports are byte-identical across runs.  stdout carries
reports, stderr carries diagnostics.  Exit codes: 0 success, 1 input error
or a stdout closed before the output was written, 2 certificate failure (a
``CertificateError``, or a report that does not verify).  Any other error
is a bug: ``main`` lets it propagate, and ``run`` prints its traceback and
exits 3.

``entry`` is the process entry point of ``python -m normalforms`` and of the
``normalforms`` script.  Once ``run`` has returned it freezes the heap with
``gc.freeze()``, so interpreter shutdown skips the cyclic collection of the
module graph, which the operating system is about to discard anyway.

Verbs: kernel (complement basis at one degree), normalize (full pipeline),
verify (re-check a report against its system), first-integrals, examples
(emit built-in onboarding documents).

The command line is declared once, in ``VERBS``: each verb's handler and
help, and each argument's flag or optional positional, type, default,
choices, metavar and help.  ``read_argv`` reads the plain forms from that
table (the verb, its positional right after it, each exact ``--flag value``
at most once) and returns what argparse would; every other argv, and
``--help`` and every error among them, goes to the argparse parser that
``build_parser`` builds from the same table.  So help, usage and error
texts are argparse's, and a plain run never imports argparse.

Every process compiles what it imports, so a verb imports only what it
runs: the ``--format pretty`` text is in `pretty` and the worked examples
are in `integrals`, each imported inside the branch that needs it, and a
JSON `normalize`, `verify` or `examples` compiles neither.  The reader
checks each field of a term once and writes the field's location only
into the error it raises.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from math import comb
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

from . import ode as _ode
from .control import (
    ControlLinearPart,
    ControlSystem,
    control_slice,
    normalize_control,
    verify_control_conjugacy,
)
from .homological import CertificateError, GradedSlice, adjoint_defect, homological_slice
from .polyalg import HomPoly, HomPolyMap, PolySeries, map_from_coords
from .ratmat import Matrix


class DocumentError(ValueError):
    """Input document failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# rational and matrix fields
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _too_many_digits(where: str) -> DocumentError:
    # the one ValueError left once the syntax is checked
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return DocumentError(
        f"{where}: a number has more than {limit} digits (the PYTHONINTMAXSTRDIGITS environment variable raises the limit)"
    )


def _rational(value) -> Optional[Fraction]:
    """value as an exact Fraction, or None where `_parse_rational` raises.

    A string that matches the syntax is read straight from its digits,
    Fraction(int(p), int(q)); an int that is not a bool is exact."""
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if match is not None:
            num, den = match.groups()
            try:
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            except (ZeroDivisionError, ValueError):
                return None
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return None


def _parse_rational(value, where: str) -> Fraction:
    """`_rational`, or the error that says why it refused the value."""
    out = _rational(value)
    if out is not None:
        return out
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational string, got a boolean")
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: floating-point literals are not accepted; "
            f"write the value as a rational string"
        )
    if not isinstance(value, str):
        raise DocumentError(f"{where}: expected a rational string")
    match = _RATIONAL_RE.fullmatch(value)
    if match is None:
        raise DocumentError(f"{where}: malformed rational {value!r}")
    # the syntax matched, so int() refused a number past the digit limit or
    # the denominator is zero; the numbers are read first, as Fraction does
    try:
        for digits in match.groups():
            if digits:
                int(digits)
    except ValueError:
        raise _too_many_digits(where) from None
    raise DocumentError(f"{where}: malformed rational {value!r} (zero denominator)")


def _parse_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer")
    if value < minimum:
        raise DocumentError(f"{where}: must be at least {minimum}")
    return value


def _parse_matrix(value, where: str, rows: int, cols: int) -> Matrix:
    if not isinstance(value, list) or len(value) != rows:
        raise DocumentError(f"{where}: expected a matrix with {rows} rows")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{where}[{i}]: expected a row of {cols} entries")
        out.append(
            tuple(_parse_rational(v, f"{where}[{i}][{j}]") for j, v in enumerate(row))
        )
    return tuple(out)


# the most coordinates a verb may work in: the degree 2..k maps from the n
# states and m inputs to the n states, summed over the degrees up to the order
MAX_SPACE = 5000


def _check_space(where: str, n: int, m: int, order: int):
    """Raise unless sum_{k=2..order} n C(n+m+k-1, k) <= MAX_SPACE, computed
    in closed form, n (C(n+m+order, order) - 1 - (n+m)), so that a huge
    value costs nothing."""
    if n * (comb(n + m + order, order) - 1 - n - m) > MAX_SPACE:
        raise DocumentError(f"{where}: too large, the work would span more than {MAX_SPACE} coordinates")


def _matrix_json(a: Matrix) -> List[List[str]]:
    return [[str(v) for v in row] for row in a]


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for a document of dicts with string keys, lists, tuples, strings, ints,
    bools and None, written by one direct recursion instead of the
    encoder's generators: strings through the C ``encode_basestring_ascii``,
    and a list of ints joined in one step."""
    out: List[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_ENCODE = json.encoder.encode_basestring_ascii
_INT = int.__repr__


def _write(obj, newline: str, out: List[str]):
    """Append the indented JSON of obj; ``newline`` is the line break and
    indent of its own line.  A value that is neither a string, an int nor
    a non-empty container (None, a bool, {} or []) is one ``json.dumps``."""
    if isinstance(obj, str):
        out.append(_ENCODE(obj))
    elif type(obj) is int:
        out.append(_INT(obj))
    elif isinstance(obj, dict) and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _ENCODE(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = newline + "  "
        if all(type(x) is int for x in obj):
            out.append("[" + inner + ("," + inner).join(map(_INT, obj)) + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(obj))


# ---------------------------------------------------------------------------
# system documents
# ---------------------------------------------------------------------------


class ParsedSystem(NamedTuple):
    """Validated system document in engine form."""

    kind: str  # "ode" | "control"
    n: int
    m: int
    a: Matrix
    b: Optional[Matrix]
    series: PolySeries  # dim_in = n+m, dim_out = n
    split: Optional[Tuple[Matrix, Matrix]]

    def control_lin(self) -> ControlLinearPart:
        return ControlLinearPart(self.a, self.b)

    def graded_slice(self, degree: int) -> GradedSlice:
        """The operator of the system's kind at one degree, with its adjoint:
        L_A and L_{A^t} for an ODE, the control operator and its Gram
        adjoint for a control system."""
        if self.kind == "ode":
            return homological_slice(self.a, degree)
        return control_slice(self.control_lin(), degree)

    def document(self) -> dict:
        doc = {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "A": _matrix_json(self.a),
            "terms": _series_terms_json(self.series),
        }
        if self.kind == "control":
            doc["B"] = _matrix_json(self.b)
        if self.split is not None:
            doc["semisimple_part"] = _matrix_json(self.split[0])
            doc["nilpotent_part"] = _matrix_json(self.split[1])
        return doc


_TERM_KEYS = {"degree", "component", "exponents", "coeff"}


def _parse_term(raw, where: str, i: int, dim_in: int, max_component: int):
    """(degree, component, exponents, coefficient) of the term where[i],
    each field checked once, in the order the checks are listed.  A field
    that fails is handed with its location to the parser that words the
    error, so a valid term writes no location."""
    if not isinstance(raw, dict) or raw.keys() != _TERM_KEYS:
        where = f"{where}[{i}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        unknown = set(raw) - _TERM_KEYS
        if unknown:
            raise DocumentError(f"{where}: unexpected field {sorted(unknown)[0]!r}")
        raise DocumentError(f"{where}: missing field {sorted(_TERM_KEYS - set(raw))[0]!r}")
    degree, component, exponents = raw["degree"], raw["component"], raw["exponents"]
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 2:
        _parse_int(degree, f"{where}[{i}].degree", minimum=2)  # raises
    if isinstance(component, bool) or not isinstance(component, int) or component < 1:
        _parse_int(component, f"{where}[{i}].component", minimum=1)  # raises
    if component > max_component:
        where = f"{where}[{i}]"
        raise DocumentError(f"{where}.component: out of range 1..{max_component}")
    if not isinstance(exponents, list) or len(exponents) != dim_in:
        where = f"{where}[{i}]"
        raise DocumentError(f"{where}.exponents: expected a list of {dim_in} exponents")
    mi = tuple(exponents)
    for j, e in enumerate(mi):
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            _parse_int(e, f"{where}[{i}].exponents[{j}]", minimum=0)  # raises
    if sum(mi) != degree:
        where = f"{where}[{i}]"
        raise DocumentError(
            f"{where}.exponents: degree mismatch (sum {sum(mi)}, declared degree {degree})"
        )
    coeff = _rational(raw["coeff"])
    if coeff is None:
        _parse_rational(raw["coeff"], f"{where}[{i}].coeff")  # raises
    return degree, component, mi, coeff


def _parse_terms_list(raw, where: str, dim_in: int, dim_out: int) -> PolySeries:
    """The terms of a series R^dim_in -> R^dim_out: `_parse_term` has
    checked every field, so each component is built through
    `HomPoly._trusted` and validated no second time."""
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of terms")
    by_degree: Dict[int, List[Dict[tuple, Fraction]]] = {}
    for i, t in enumerate(raw):
        degree, component, mi, coeff = _parse_term(t, where, i, dim_in, dim_out)
        comps = by_degree.get(degree)
        if comps is None:
            comps = by_degree[degree] = [{} for _ in range(dim_out)]
        comp = comps[component - 1]
        if mi in comp:
            raise DocumentError(
                f"{where}[{i}]: duplicate term for component {component} at degree {degree}"
            )
        comp[mi] = coeff
    terms = {k: HomPolyMap([HomPoly._trusted(dim_in, k, c) for c in comps]) for k, comps in by_degree.items()}
    return PolySeries(dim_in, dim_out, max(by_degree, default=1), terms)


_SYSTEM_KEYS = {"kind", "n", "m", "A", "B", "terms", "semisimple_part", "nilpotent_part"}


def parse_system_object(raw, where: str) -> ParsedSystem:
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    unknown = set(raw) - _SYSTEM_KEYS
    if unknown:
        raise DocumentError(f"{where}: unexpected field {sorted(unknown)[0]!r}")
    kind = raw.get("kind")
    if kind not in ("ode", "control"):
        raise DocumentError(f"{where}.kind: must be \"ode\" or \"control\"")
    if "n" not in raw:
        raise DocumentError(f"{where}.n: missing")
    n = _parse_int(raw["n"], f"{where}.n", minimum=1)
    if "m" not in raw:
        raise DocumentError(f"{where}.m: missing")
    m = _parse_int(raw["m"], f"{where}.m", minimum=0)
    if kind == "ode" and m != 0:
        raise DocumentError(f"{where}.m: must be 0 for an ode system")
    if kind == "control" and m < 1:
        raise DocumentError(f"{where}.m: must be at least 1 for a control system")

    if "A" not in raw:
        raise DocumentError(f"{where}.A: missing")
    a = _parse_matrix(raw["A"], f"{where}.A", n, n)

    b = None
    if kind == "control":
        if "B" not in raw:
            raise DocumentError(f"{where}.B: missing (required for control systems)")
        b = _parse_matrix(raw["B"], f"{where}.B", n, m)
    elif "B" in raw:
        raise DocumentError(f"{where}.B: only allowed for control systems")

    sn_split = None
    has_s = "semisimple_part" in raw
    has_n = "nilpotent_part" in raw
    if has_s or has_n:
        if kind != "ode":
            raise DocumentError(
                f"{where}.semisimple_part: only allowed for ode systems"
            )
        if not (has_s and has_n):
            raise DocumentError(
                f"{where}: semisimple_part and nilpotent_part must be supplied together"
            )
        a_s = _parse_matrix(raw["semisimple_part"], f"{where}.semisimple_part", n, n)
        a_n = _parse_matrix(raw["nilpotent_part"], f"{where}.nilpotent_part", n, n)
        from .spectral import validate_split

        report = validate_split(a, a_s, a_n)
        if not report.ok:
            raise DocumentError(
                f"{where}: invalid semisimple/nilpotent split: "
                + "; ".join(report.failures())
            )
        sn_split = (a_s, a_n)

    if "terms" not in raw:
        raise DocumentError(f"{where}.terms: missing")
    series = _parse_terms_list(raw["terms"], f"{where}.terms", n + m, n)
    return ParsedSystem(kind=kind, n=n, m=m, a=a, b=b, series=series, split=sn_split)


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        # a key repeats: name the first one that does
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"input: key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def _load_json(text: str):
    # a repeated key is an error: json.loads alone keeps the last value
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"input is not valid JSON: {exc}") from None
    except DocumentError:
        raise
    except ValueError:
        raise _too_many_digits("input") from None
    except RecursionError:
        raise DocumentError("input: nested too deeply to read") from None


def parse_system(text: str) -> ParsedSystem:
    return parse_system_object(_load_json(text), "document")


# ---------------------------------------------------------------------------
# term serialization
# ---------------------------------------------------------------------------


def _map_terms_json(t: HomPolyMap) -> List[dict]:
    # every report and kernel basis is written through here before either
    # format renders it, so a coefficient past the digit limit stops here
    out = []
    try:
        for i, comp in enumerate(t.components):
            for mi, cf in comp.items():
                out.append(
                    {
                        "degree": t.degree,
                        "component": i + 1,
                        "exponents": list(mi),
                        "coeff": str(cf),
                    }
                )
    except ValueError:
        raise _too_many_digits("output") from None
    return out


def _series_terms_json(s: PolySeries) -> List[dict]:
    out = []
    for k in s.degrees():
        out.extend(_map_terms_json(s.term(k)))
    return out


def _poly_terms_json(p: HomPoly) -> List[dict]:
    return [
        {"degree": p.degree, "exponents": list(mi), "coeff": str(cf)}
        for mi, cf in p.items()
    ]


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------


class _Part(NamedTuple):
    """One part of a generator entry in a report: its JSON field, its
    pretty label, and dim_in and dim_out as (states, inputs) counts, so
    (1, 1) stands for n + m."""

    field: str
    label: str
    dim_in: Tuple[int, int]
    dim_out: Tuple[int, int]

    def dims(self, n: int, m: int) -> Tuple[int, int]:
        return (
            self.dim_in[0] * n + self.dim_in[1] * m,
            self.dim_out[0] * n + self.dim_out[1] * m,
        )


# the generator parts of each system kind: consecutive components of the one
# field on R^{n+m} that the engine logs, in order
_GENERATOR_PARTS = {
    "ode": (_Part("terms", "xi", (1, 0), (1, 0)),),
    "control": (_Part("p_x", "p_x", (1, 0), (1, 0)), _Part("p_u", "p_u", (1, 1), (0, 1))),
}


def _over(n_vars: int, degree: int, comps: Sequence[HomPoly]) -> List[HomPoly]:
    """The components over n_vars variables: each part of a generator field
    is padded with zero exponents to join it, and trimmed to leave it."""
    pad = (0,) * n_vars
    return [HomPoly._trusted(n_vars, degree, {(mi + pad)[:n_vars]: cf for mi, cf in c.items()}) for c in comps]


def _parts(kind: str, n: int, m: int, field: HomPolyMap):
    """The kind's generator parts of a field on R^{n+m}, in order: each
    part, its dim_in and its rows of the field."""
    start = 0
    for part in _GENERATOR_PARTS[kind]:
        dim_in, dim_out = part.dims(n, m)
        yield part, dim_in, field.components[start : start + dim_out]
        start += dim_out


def _report_body(report: _ode.NormalFormReport, kind: str) -> dict:
    """The report document of either kind; only an ODE report carries a
    split, and with none the equivariance certificate is null.  Each
    generator part is cut out of its logged field once, here, with its
    exponents trimmed to its dim_in."""
    g = report.normal_form
    n, m = g.dim_out, g.dim_in - g.dim_out
    certs = report.certificates
    equivariance = None
    if report.split is not None:
        equivariance = all(c.semisimple_ok and c.nilpotent_ok for c in certs)
    return {
        "order": report.order,
        "normal_form": _series_terms_json(report.normal_form),
        "generators": [
            {
                "degree": k,
                **{
                    p.field: _map_terms_json(HomPolyMap(_over(dim_in, k, rows)))
                    for p, dim_in, rows in _parts(kind, n, m, field)
                },
            }
            for k, field in report.log.generators
        ],
        "certificates": {
            "kernel_residual_zero": all(c.kernel_ok for c in certs),
            "conjugacy_residual_zero": report.conjugacy.ok,
            "equivariance_zero": equivariance,
        },
        "dimensions": {
            str(c.degree): {"space": c.space_dim, "range": c.range_dim, "complement": c.kernel_dim}
            for c in certs
        },
    }


def ode_report_document(report: _ode.NormalFormReport) -> dict:
    return _report_body(report, "ode")


def control_report_document(report: _ode.NormalFormReport) -> dict:
    return _report_body(report, "control")


# ---------------------------------------------------------------------------
# report documents back into engine form (for verify)
# ---------------------------------------------------------------------------


class ParsedReport(NamedTuple):
    order: int
    normal: PolySeries
    # (degree, field on R^{n+m}), the kind's generator parts joined
    generators: Tuple[Tuple[int, HomPolyMap], ...]
    certificates: Dict[str, Optional[bool]]
    dimensions: Dict[int, Dict[str, int]]


_REPORT_KEYS = {"order", "normal_form", "generators", "certificates", "dimensions"}
_CERT_KEYS = {"kernel_residual_zero", "conjugacy_residual_zero", "equivariance_zero"}
_DIM_KEYS = {"space", "range", "complement"}


def parse_report_object(raw, ps: ParsedSystem, where: str) -> ParsedReport:
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    unknown = set(raw) - _REPORT_KEYS
    if unknown:
        raise DocumentError(f"{where}: unexpected field {sorted(unknown)[0]!r}")
    missing = _REPORT_KEYS - set(raw)
    if missing:
        raise DocumentError(f"{where}: missing field {sorted(missing)[0]!r}")
    order = _parse_int(raw["order"], f"{where}.order", minimum=1)
    n, m = ps.n, ps.m
    _check_space(f"{where}.order", n, m, order)

    normal = _parse_terms_list(raw["normal_form"], f"{where}.normal_form", n + m, n)
    if any(k > order for k in normal.degrees()):
        raise DocumentError(f"{where}.normal_form: term degree exceeds the report order")
    normal = PolySeries(n + m, n, max(order, 1), dict(normal.terms))

    gens_raw = raw["generators"]
    if not isinstance(gens_raw, list):
        raise DocumentError(f"{where}.generators: expected a list")
    parts = _GENERATOR_PARTS[ps.kind]
    expected = {"degree"} | {p.field for p in parts}
    gens: List[Tuple[int, HomPolyMap]] = []
    last_degree = 1
    for i, g in enumerate(gens_raw):
        gw = f"{where}.generators[{i}]"
        if not isinstance(g, dict):
            raise DocumentError(f"{gw}: expected an object")
        if set(g) != expected:
            raise DocumentError(
                f"{gw}: expected exactly the fields {sorted(expected)}"
            )
        degree = _parse_int(g["degree"], f"{gw}.degree", minimum=2)
        if degree > order:
            raise DocumentError(f"{gw}.degree: exceeds the report order")
        if degree <= last_degree:
            raise DocumentError(f"{where}.generators: degrees must be strictly increasing")
        last_degree = degree
        comps = []
        for part in parts:
            dim_in, dim_out = part.dims(n, m)
            series = _parse_terms_list(g[part.field], f"{gw}.{part.field}", dim_in, dim_out)
            if series.degrees() not in ([], [degree]):
                raise DocumentError(f"{gw}.{part.field}: terms must match the declared degree")
            part_comps = series.term(degree).components
            # only a part of fewer variables, the control p_x, is padded
            comps += part_comps if dim_in == n + m else _over(n + m, degree, part_comps)
        gens.append((degree, HomPolyMap(comps)))

    certs_raw = raw["certificates"]
    if not isinstance(certs_raw, dict) or set(certs_raw) != _CERT_KEYS:
        raise DocumentError(
            f"{where}.certificates: expected exactly the fields {sorted(_CERT_KEYS)}"
        )
    certs: Dict[str, Optional[bool]] = {}
    for key, value in certs_raw.items():
        if value is not None and not isinstance(value, bool):
            raise DocumentError(f"{where}.certificates.{key}: expected a boolean or null")
        certs[key] = value

    dims_raw = raw["dimensions"]
    if not isinstance(dims_raw, dict):
        raise DocumentError(f"{where}.dimensions: expected an object")
    dims: Dict[int, Dict[str, int]] = {}
    for key, value in dims_raw.items():
        try:
            degree = int(key)
        except ValueError:
            raise DocumentError(f"{where}.dimensions: key {key!r} is not a degree") from None
        # one spelling per degree, so no two keys can name the same one
        if key != str(degree):
            raise DocumentError(
                f"{where}.dimensions: key {key!r} is not written as the degree {degree}"
            )
        if not 2 <= degree <= order:
            raise DocumentError(f"{where}.dimensions: key {key!r} is not a degree in 2..{order}")
        if not isinstance(value, dict) or set(value) != _DIM_KEYS:
            raise DocumentError(
                f"{where}.dimensions[{key}]: expected exactly the fields {sorted(_DIM_KEYS)}"
            )
        dims[degree] = {
            k: _parse_int(v, f"{where}.dimensions[{key}].{k}", minimum=0)
            for k, v in value.items()
        }

    return ParsedReport(
        order=order,
        normal=normal,
        generators=tuple(gens),
        certificates=certs,
        dimensions=dims,
    )


# ---------------------------------------------------------------------------
# verification of a (system, report) pair
# ---------------------------------------------------------------------------


def _recheck(ps: ParsedSystem, rep: ParsedReport) -> Dict[str, bool]:
    """Recompute every certificate and dimension of the report from scratch."""
    order = rep.order
    g = rep.normal
    degrees = range(2, order + 1)
    equivariance: Optional[bool] = None
    log = _ode.TransformationLog(dim=ps.n + ps.m, order=order, generators=rep.generators)
    # the linear part F of the one operator: A, or (A B)
    a = ps.a if ps.kind == "ode" else ps.control_lin().aug
    kernel_ok = all(adjoint_defect(a, g.term(k)).is_zero for k in degrees)
    if ps.kind == "ode":
        conjugacy = partial(_ode.verify_conjugacy, a, ps.series, log, g, order)
        # mirror the normalizer: derive a Jordan split when none was supplied
        resolved = _ode.resolve_split(a, ps.split)
        if resolved is not None:
            equivariance = all(all(_ode.split_equivariance(resolved, g.term(k))) for k in degrees)
    else:
        conjugacy = partial(verify_control_conjugacy, ControlSystem(ps.control_lin(), ps.series), log, g, order)

    try:
        conj_ok = conjugacy().ok
    except CertificateError:
        # ode.flow_conjugacy_residuals raises at its linear-level check
        conj_ok = False

    dims = {}
    for k in degrees:
        space, rng, complement = ps.graded_slice(k).dimensions
        dims[k] = {"space": space, "range": rng, "complement": complement}

    residuals = {"kernel_residual_zero": kernel_ok, "conjugacy_residual_zero": conj_ok}
    claimed = rep.certificates
    return {
        **residuals,
        "claimed_certificates_pass": all(v in (True, None) for v in claimed.values()),
        "certificates_match": claimed == {**residuals, "equivariance_zero": equivariance},
        "dimensions_match": rep.dimensions == dims,
    }


# ---------------------------------------------------------------------------
# the verbs
# ---------------------------------------------------------------------------


def _load_text(args) -> str:
    path = getattr(args, "input", None)
    try:
        if not path:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path or 'stdin'}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"input: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def cmd_kernel(args) -> int:
    ps = parse_system(_load_text(args))
    degree = args.degree
    if degree < 2:
        raise DocumentError("--degree: must be at least 2")
    # a degree is admitted exactly when normalize admits it as the order
    _check_space("--degree", ps.n, ps.m, degree)
    graded = ps.graded_slice(degree)
    space, rng, _ = graded.dimensions
    if ps.kind == "ode":
        # ker L_{A^t}, the slice's complement of range L_A, each basis map
        # certified in polynomial form
        basis = [map_from_coords(v, graded.codomain_keys) for v in graded.cokernel]
        if not all(adjoint_defect(ps.a, q).is_zero for q in basis):
            raise CertificateError("complement element is not killed by L_{A^t}")
    else:
        # range is rank M* = rank M of the control operator, but the basis
        # spans the PDE classification space, not range's orthogonal
        # complement: the three numbers need not add up
        from .integrals import control_complement

        basis = control_complement(ps.control_lin(), degree)
    dims = {"space": space, "range": rng, "complement": len(basis)}
    doc = {
        "kind": "kernel",
        "degree": degree,
        "dimensions": dims,
        "basis": [_map_terms_json(q) for q in basis],
    }
    if args.format == "json":
        sys.stdout.write(canonical_json(doc))
    else:
        from .pretty import kernel_text

        sys.stdout.write(kernel_text(ps, doc, basis))
    return 0


def cmd_normalize(args) -> int:
    ps = parse_system(_load_text(args))
    order = args.order
    if order < 1:
        raise DocumentError("--order: must be at least 1")
    _check_space("--order", ps.n, ps.m, order)
    if ps.kind == "ode":
        report = _ode.normalize_ode(ps.a, ps.series, order, split=ps.split)
        doc = ode_report_document(report)
    else:
        report = normalize_control(ControlSystem(ps.control_lin(), ps.series), order)
        doc = control_report_document(report)
    out = {"system": ps.document(), "report": doc}
    if args.format == "json":
        sys.stdout.write(canonical_json(out))
    else:
        from .pretty import report_text

        sys.stdout.write(report_text(ps, doc, report))
    return 0 if report.ok else 2


def cmd_verify(args) -> int:
    raw = _load_json(_load_text(args))
    if not isinstance(raw, dict) or set(raw) != {"system", "report"}:
        raise DocumentError(
            "document: expected exactly the fields ['report', 'system']"
        )
    ps = parse_system_object(raw["system"], "system")
    rep = parse_report_object(raw["report"], ps, "report")
    checks = _recheck(ps, rep)
    verified = all(checks.values())
    if args.format == "json":
        sys.stdout.write(canonical_json({"verified": verified, "checks": checks}))
    else:
        from .pretty import verify_text

        sys.stdout.write(verify_text(checks, verified))
    return 0 if verified else 2


def cmd_first_integrals(args) -> int:
    from .integrals import brunovsky_first_integrals, uncontrollable_example
    from .pretty import first_integrals_text, var_names

    if args.target == "brunovsky":
        n = 2 if args.n is None else args.n
        if n < 1:
            raise DocumentError("--n: must be at least 1")
        # the integrals have degree 2 in the states and the one input
        _check_space("--n", n, 1, 2)
        integrals = brunovsky_first_integrals(n)
        names = var_names(n, 1)
    else:
        if args.n is not None:
            raise DocumentError("--n: applies only to the brunovsky target")
        example = uncontrollable_example()
        integrals = list(example.first_integrals)
        names = list(example.variables)
    doc = {
        "kind": "first-integrals",
        "target": args.target,
        "n": len(names) - 1,
        "variables": names,
        "integrals": [
            {"index": li.index, "terms": _poly_terms_json(li.poly)} for li in integrals
        ],
    }
    if args.format == "json":
        sys.stdout.write(canonical_json(doc))
    else:
        sys.stdout.write(first_integrals_text(doc, integrals))
    return 0


_EXAMPLE_DOCS = {
    "brunovsky-quadratic": {
        "kind": "control",
        "n": 2,
        "m": 1,
        "A": [["0", "1"], ["0", "0"]],
        "B": [["0"], ["1"]],
        "terms": [
            {"degree": 2, "component": 1, "exponents": [0, 2, 0], "coeff": "1"}
        ],
    },
    "uncontrollable": {
        "kind": "control",
        "n": 3,
        "m": 1,
        "A": [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        "B": [["0"], ["0"], ["1"]],
        "terms": [],
    },
}


def cmd_examples(args) -> int:
    raw = _EXAMPLE_DOCS[args.which]
    ps = parse_system_object(raw, "example")  # built-ins go through validation too
    sys.stdout.write(canonical_json(ps.document()))
    return 0


# ---------------------------------------------------------------------------
# the command line: one table, a strict reader, and argparse for the rest
# ---------------------------------------------------------------------------


class _Arg(NamedTuple):
    """One argument of a verb: a ``--flag`` taking one value, or an
    optional positional (``nargs="?"``) named by its dest."""

    name: str
    type: Optional[Callable[[str], int]] = None
    default: object = None
    choices: Optional[Tuple[str, ...]] = None
    metavar: Optional[str] = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.lstrip("-")

    @property
    def positional(self) -> bool:
        return not self.name.startswith("-")

    def options(self) -> dict:
        """The keyword arguments of ``add_argument`` for this row."""
        kwargs = self._asdict()
        del kwargs["name"]
        return {**kwargs, "nargs": "?"} if self.positional else kwargs


class _Verb(NamedTuple):
    name: str
    func: Callable[..., int]  # the cmd_* handler
    help: str
    args: Tuple[_Arg, ...]


_FORMAT = _Arg("--format", choices=("json", "pretty"), default="pretty", help="output format (default: pretty)")
_INPUT = _Arg("--input", metavar="PATH", help="read the input document from PATH instead of stdin")

VERBS = (
    _Verb(
        "kernel",
        cmd_kernel,
        "complement (classification space) basis at one degree",
        (_Arg("--degree", int, 2, help="homogeneous degree (default: 2)"), _INPUT, _FORMAT),
    ),
    _Verb(
        "normalize",
        cmd_normalize,
        "normal form with certificates",
        (_Arg("--order", int, 3, help="truncation order (default: 3)"), _INPUT, _FORMAT),
    ),
    _Verb("verify", cmd_verify, "re-check a {system, report} document from scratch", (_INPUT, _FORMAT)),
    _Verb(
        "first-integrals",
        cmd_first_integrals,
        "certified polynomial first integrals",
        (
            _Arg(
                "target",
                default="brunovsky",
                choices=("brunovsky", "uncontrollable"),
                help="which characteristic field (default: brunovsky)",
            ),
            _Arg("--n", int, help="number of states for brunovsky (default: 2)"),
            _FORMAT,
        ),
    ),
    _Verb(
        "examples",
        cmd_examples,
        "emit a built-in system document (JSON)",
        (
            _Arg(
                "which",
                default="brunovsky-quadratic",
                choices=tuple(sorted(_EXAMPLE_DOCS)),
                help="which example document (default: brunovsky-quadratic)",
            ),
        ),
    ),
)
_VERB_BY_NAME = {verb.name: verb for verb in VERBS}


def build_parser():
    """The argparse parser of the table, for help, usage and every error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument errors are input errors: exit 1, not argparse's default 2."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="normalforms",
        description=(
            "Exact inner-product normal forms of ODEs and control systems, "
            "with machine-checkable certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb.name, help=verb.help)
        for arg in verb.args:
            p.add_argument(arg.name, **arg.options())
        p.set_defaults(func=verb.func)
    return parser


def read_argv(argv: Sequence[str]):
    """The namespace argparse would return for ``argv``, or None.

    Reads only ``VERB [POSITIONAL] [--flag value]...``: the exact verb name,
    the verb's optional positional only as the token right after it, and
    each exact flag at most once with a value that does not start with
    ``-``; an int flag's value goes through ``int``, a choice is checked by
    membership.  Every other argv, help and every error among them, is
    argparse's to read, so None is returned for it.
    """
    verb = _VERB_BY_NAME.get(argv[0]) if argv else None
    if verb is None:
        return None
    values = {arg.dest: arg.default for arg in verb.args}
    flags = {arg.name: arg for arg in verb.args if not arg.positional}
    tokens = list(argv[1:])
    positional = [arg for arg in verb.args if arg.positional]
    pairs = []
    if positional and tokens and not tokens[0].startswith("-"):
        pairs.append((positional[0], tokens.pop(0)))
    if len(tokens) % 2:
        return None
    for flag, text in zip(tokens[::2], tokens[1::2]):
        if flag not in flags or text.startswith("-"):
            return None
        pairs.append((flags.pop(flag), text))
    for arg, text in pairs:
        value = text
        if arg.type is int:
            try:
                value = int(text)
            except ValueError:
                return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = value
    return SimpleNamespace(command=verb.name, func=verb.func, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """``main`` for the console.

    stdout is flushed here, so a reader that closed the pipe early shows up
    inside this ``try``: the error is reported and the code is 1.  An
    internal error prints its traceback and the code is 3.
    """
    try:
        code = main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the `signal` docs: with fd 1 on devnull, the flush
        # at interpreter exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 1
    except Exception:
        # imported on the one path that prints a traceback: with linecache
        # and tokenize it would add to the start-up of every process
        import traceback

        traceback.print_exc()
        return 3


def entry() -> NoReturn:
    """Process entry point: ``run``, then freeze the heap, then exit with its code.

    Frozen objects sit in the permanent generation, which no collection
    visits, so shutdown does not traverse the module graph the imports
    built.  Flushing, atexit handlers and the exit code are unchanged.
    """
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
