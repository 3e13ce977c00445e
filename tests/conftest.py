"""A failed comparison of two polynomial values prints their terms.

The package's types carry no ``__repr__``: no verb prints one.  The texts
they had are functions in `map_helpers`, and this hook hands them to
pytest's assertion report.
"""

from map_helpers import map_repr, poly_repr, series_repr
from normalforms.polyalg import HomPoly, HomPolyMap, PolySeries

_TEXT = {HomPoly: poly_repr, HomPolyMap: map_repr, PolySeries: series_repr}


def pytest_assertrepr_compare(op, left, right):
    text = _TEXT.get(type(left))
    if text is not None and type(right) is type(left):
        return [f"{text(left)} {op} {text(right)}"]
    return None
