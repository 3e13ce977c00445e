"""The document reader as it was before it validated each term in one pass.

`_parse_rational`, `_parse_int`, `_parse_term` and `_parse_terms_list` are
kept here unchanged, as the oracle of `cli`'s one-pass reader: for every
input both must return equal objects or raise a `DocumentError` with the
same message.  Each field's location is written before it is checked, each
rational string is parsed by `Fraction`'s own parser after the regex has
matched it, and each component is validated again by the public
`HomPoly(...)` constructor.
"""

import re
from fractions import Fraction
from typing import Dict, List

from normalforms.cli import DocumentError, _too_many_digits
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_TERM_KEYS = {"degree", "component", "exponents", "coeff"}


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: floating-point literals are not accepted; "
            f"write the value as a rational string"
        )
    if not isinstance(value, str):
        raise DocumentError(f"{where}: expected a rational string")
    if not _RATIONAL_RE.fullmatch(value):
        raise DocumentError(f"{where}: malformed rational {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise DocumentError(f"{where}: malformed rational {value!r} (zero denominator)") from None
    except ValueError:
        raise _too_many_digits(where) from None


def _parse_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer")
    if value < minimum:
        raise DocumentError(f"{where}: must be at least {minimum}")
    return value


def _parse_term(raw, where: str, dim_in: int, max_component: int):
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: expected an object")
    unknown = set(raw) - _TERM_KEYS
    if unknown:
        raise DocumentError(f"{where}: unexpected field {sorted(unknown)[0]!r}")
    missing = _TERM_KEYS - set(raw)
    if missing:
        raise DocumentError(f"{where}: missing field {sorted(missing)[0]!r}")
    degree = _parse_int(raw["degree"], f"{where}.degree", minimum=2)
    component = _parse_int(raw["component"], f"{where}.component", minimum=1)
    if component > max_component:
        raise DocumentError(
            f"{where}.component: out of range 1..{max_component}"
        )
    exponents = raw["exponents"]
    if not isinstance(exponents, list) or len(exponents) != dim_in:
        raise DocumentError(
            f"{where}.exponents: expected a list of {dim_in} exponents"
        )
    mi = tuple(
        _parse_int(e, f"{where}.exponents[{j}]", minimum=0)
        for j, e in enumerate(exponents)
    )
    if sum(mi) != degree:
        raise DocumentError(
            f"{where}.exponents: degree mismatch (sum {sum(mi)}, declared degree {degree})"
        )
    coeff = _parse_rational(raw["coeff"], f"{where}.coeff")
    return degree, component, mi, coeff


def _parse_terms_list(raw, where: str, dim_in: int, dim_out: int) -> PolySeries:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of terms")
    by_degree: Dict[int, List[Dict[tuple, Fraction]]] = {}
    seen = set()
    for i, t in enumerate(raw):
        degree, component, mi, coeff = _parse_term(t, f"{where}[{i}]", dim_in, dim_out)
        key = (degree, component, mi)
        if key in seen:
            raise DocumentError(
                f"{where}[{i}]: duplicate term for component {component} at degree {degree}"
            )
        seen.add(key)
        comps = by_degree.setdefault(degree, [dict() for _ in range(dim_out)])
        comps[component - 1][mi] = coeff
    max_degree = max(by_degree, default=1)
    terms = {
        k: HomPolyMap([HomPoly(dim_in, k, comps[c]) for c in range(dim_out)])
        for k, comps in by_degree.items()
    }
    return PolySeries(dim_in, dim_out, max_degree, terms)
