"""Outside-in layer trace of one in-process ``normalforms`` CLI call.

The program is not edited: every public function named in ``TRACED`` is
replaced, wherever a ``normalforms.*`` module or class holds it, by a
wrapper that records a span (name, start, end, parent, run id).
``HomPoly.__init__`` gets a counter only.  Spans stay in memory and are
written out once the call returns.

Run as a script to execute one CLI call in this process:

    python3 bench/tracer.py --out OUT --result RESULT [--run-id normalize] \\
        -- normalize --format json --order 3 --input DOC

With ``--run-id`` the call is traced; without it the same call runs
untraced, which gives the baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import types
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

# (module, function) pairs timed from outside, one span name each
TRACED = (
    ("ratmat", "rref"),
    ("homological", "homological_matrix"),
    ("homological", "adjoint_matrix"),
    ("homological", "lie_derivative"),
    ("polyalg", "multiply"),
    ("polyalg", "compose_truncated"),
    ("polyalg", "directional_derivative"),
    ("innerprod", "project_coords"),
    ("control", "control_matrix"),
    ("control", "control_adjoint_matrix"),
    ("control", "pushforward_control"),
    ("control", "verify_control_conjugacy"),
    ("ode", "solve_homological"),
    ("ode", "pushforward_ode"),
    ("ode", "flow_map"),
    ("ode", "pushforward_residuals"),
    ("ode", "flow_conjugacy_residuals"),
    ("ode", "verify_conjugacy"),
    ("cli", "parse_system_object"),
    ("cli", "parse_report_object"),
    ("cli", "ode_report_document"),
    ("cli", "control_report_document"),
    ("cli", "canonical_json"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
INIT_COUNTER = "polyalg.HomPoly.init"

# traced functions a (system kind, run id) pair never reaches; every other
# one must record at least one span, or a layer went missing from the trace
_CONTROL = {"control.control_matrix", "control.control_adjoint_matrix", "control.pushforward_control", "control.verify_control_conjugacy"}
_HOMOLOGICAL = {"homological.homological_matrix", "homological.adjoint_matrix", "homological.lie_derivative"}
_EMIT = {"cli.ode_report_document", "cli.control_report_document"}
_UNREACHED = {
    ("ode", "normalize"): _CONTROL | {"cli.parse_report_object", "cli.control_report_document"},
    ("ode", "verify"): _CONTROL | _EMIT | {"innerprod.project_coords", "ode.solve_homological"},
    ("control", "normalize"): _HOMOLOGICAL | {"ode.solve_homological", "cli.parse_report_object", "cli.ode_report_document"},
    ("control", "verify"): _HOMOLOGICAL | _EMIT | {"innerprod.project_coords", "ode.solve_homological", "control.pushforward_control"},
}


def expected_spans(kind: str, run_id: str) -> List[str]:
    return [name for name in SPAN_NAMES if name not in _UNREACHED[kind, run_id]]


def _matrix_key(m) -> int:
    return hash(tuple(tuple(row) for row in m))


def _max_bits(m) -> int:
    bits = 0
    for row in m:
        for v in row:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _operator_key(a, degree) -> int:
    from fractions import Fraction

    return hash((tuple(tuple(Fraction(v) for v in row) for row in a), degree))


# extra attributes of a span, computed by the wrapper outside the span's
# timed interval.  That work still falls inside the interval of the
# enclosing span, so the wrapper records its duration as the span's
# bookkeeping time, and self and total times leave it out.
_BEFORE: Dict[str, Callable] = {
    "ratmat.rref": lambda args: {"cells": len(args[0]) * (len(args[0][0]) if args[0] else 0), "key": _matrix_key(args[0])},
    "homological.homological_matrix": lambda args: {"key": _operator_key(args[0], args[1])},
    "innerprod.project_coords": lambda args: {"gram_cells": len(args[1]) ** 2},
}
_AFTER: Dict[str, Callable] = {
    "ratmat.rref": lambda result: {"max_bits": _max_bits(result[0])},
}


class IncompleteTrace(RuntimeError):
    """A traced function is still reachable through a reference the wrapper missed."""


class Tracer:
    """Spans and counters of one run, and the rebinding that records them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []  # [name, start, end, parent index, attrs, bookkeeping s]
        self.counts = {INIT_COUNTER: 0}
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._originals: List[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = _BEFORE.get(name), _AFTER.get(name)

        def traced(*args, **kwargs):
            enter = clock()
            attrs = before(args) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[5] = span[1] - enter
            if after:
                span[4] = {**(attrs or {}), **after(result)}
            span[5] += clock() - span[2]
            return result

        traced.__name__, traced.__qualname__, traced.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        return traced

    def _count_init(self, init):
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts[INIT_COUNTER] += 1
            return init(obj, *args, **kwargs)

        return counted

    def _rebind(self, original, replacement):
        """Replace every binding of ``original`` in normalforms modules and classes."""
        holders = [
            m for name, m in sys.modules.items() if name == "normalforms" or name.startswith("normalforms.")
        ]
        holders += [
            v
            for m in list(holders)
            for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("normalforms")
        ]
        found = 0
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)
                    self._undo.append((holder, key, original))
                    found += 1
        if not found:
            raise IncompleteTrace(f"{original.__qualname__}: no binding found to replace")
        self._originals.append((original, replacement))

    def install(self):
        import normalforms.cli  # noqa: F401  (imports every layer)

        for mod, fn in TRACED:
            original = getattr(sys.modules[f"normalforms.{mod}"], fn)
            self._rebind(original, self._wrap(f"{mod}.{fn}", original))
        hompoly = sys.modules["normalforms.polyalg"].HomPoly
        init = vars(hompoly)["__init__"]
        setattr(hompoly, "__init__", self._count_init(init))
        self._undo.append((hompoly, "__init__", init))
        self._originals.append((init, hompoly.__init__))
        self._check_complete()

    def _check_complete(self):
        """Fail if any container other than the wrappers still holds an original."""
        gc.collect()
        ours = {id(self._undo), id(self._originals)}
        ours.update(id(entry) for entry in self._undo)
        ours.update(id(entry) for entry in self._originals)
        for _, replacement in self._originals:
            ours.update(id(cell) for cell in replacement.__closure__ or ())
        for original, _ in self._originals:
            for ref in gc.get_referrers(original):
                if id(ref) in ours or isinstance(ref, types.FrameType):
                    continue
                raise IncompleteTrace(
                    f"{original.__qualname__} is still held by a {type(ref).__name__} the trace cannot rebind"
                )

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
        self._originals.clear()

    def document(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": self.counts}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one run
# ---------------------------------------------------------------------------

# metric suffix -> unit, in the order they are reported
LAYER_METRICS = {
    "ratmat.rref.calls": "count",
    "ratmat.rref.self_s": "s",
    "ratmat.rref.cells": "count",
    "ratmat.rref.distinct_ratio": "ratio",
    "ratmat.rref.max_bits": "bit",
    "homological.operator.builds": "count",
    "homological.operator.distinct_ratio": "ratio",
    "homological.homological_matrix.self_s": "s",
    "homological.adjoint_matrix.self_s": "s",
    "homological.lie_derivative.calls": "count",
    "homological.lie_derivative.self_s": "s",
    "polyalg.multiply.calls": "count",
    "polyalg.multiply.self_s": "s",
    "polyalg.compose_truncated.self_s": "s",
    "polyalg.directional_derivative.self_s": "s",
    "polyalg.HomPoly.init.calls": "count",
    "innerprod.project_coords.calls": "count",
    "innerprod.project_coords.self_s": "s",
    "innerprod.project_coords.gram_cells": "count",
    "control.operator.builds": "count",
    "control.control_matrix.self_s": "s",
    "control.control_adjoint_matrix.self_s": "s",
    "control.pushforward_control.self_s": "s",
    "ode.solve_homological.total_s": "s",
    "ode.pushforward_ode.calls": "count",
    "ode.pushforward_ode.self_s": "s",
    "ode.flow_map.self_s": "s",
    "cert.lie_series_route.total_s": "s",
    "cert.flow_route.total_s": "s",
    "cert.conjugacy.total_s": "s",
    "cli.parse.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.main.total_s": "s",
}
RUN_IDS = ("normalize", "verify")
OVERHEAD_METRIC = "trace.overhead_s"


def self_times(spans: List[list]) -> List[float]:
    """Duration minus the direct children, each with its bookkeeping."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, book in spans:
        if parent >= 0:
            child[parent] += end - start + book
    return [end - start - child[i] for i, (_, start, end, *_) in enumerate(spans)]


def inner_bookkeeping(spans: List[list]) -> List[float]:
    """The bookkeeping time of every span that each span encloses."""
    inner = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # a child comes after its parent
        parent = spans[i][3]
        if parent >= 0:
            inner[parent] += spans[i][5] + inner[i]
    return inner


def outermost_total(spans: List[list], names) -> float:
    """Time of the spans named in ``names`` that no such span encloses,
    without the bookkeeping of the spans inside them."""
    inner = inner_bookkeeping(spans)
    total = 0.0
    for i, (name, start, end, parent, *_) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start - inner[i]
    return total


def layer_metrics(doc: dict) -> Dict[str, float]:
    """Every entry of LAYER_METRICS for one traced run."""
    spans = doc["spans"]
    own = self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    attrs: Dict[str, List[dict]] = {}
    for span, t in zip(spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if span[4]:
            attrs.setdefault(name, []).append(span[4])

    def ratio(name: str) -> float:
        seen = attrs.get(name, [])
        return len({a["key"] for a in seen}) / len(seen) if seen else 0.0

    def total(*names: str) -> float:
        return outermost_total(spans, set(names))

    rref = attrs.get("ratmat.rref", [])
    return {
        "ratmat.rref.calls": calls.get("ratmat.rref", 0),
        "ratmat.rref.self_s": self_s.get("ratmat.rref", 0.0),
        "ratmat.rref.cells": sum(a["cells"] for a in rref),
        "ratmat.rref.distinct_ratio": ratio("ratmat.rref"),
        "ratmat.rref.max_bits": max((a["max_bits"] for a in rref), default=0),
        "homological.operator.builds": calls.get("homological.homological_matrix", 0),
        "homological.operator.distinct_ratio": ratio("homological.homological_matrix"),
        "homological.homological_matrix.self_s": self_s.get("homological.homological_matrix", 0.0),
        "homological.adjoint_matrix.self_s": self_s.get("homological.adjoint_matrix", 0.0),
        "homological.lie_derivative.calls": calls.get("homological.lie_derivative", 0),
        "homological.lie_derivative.self_s": self_s.get("homological.lie_derivative", 0.0),
        "polyalg.multiply.calls": calls.get("polyalg.multiply", 0),
        "polyalg.multiply.self_s": self_s.get("polyalg.multiply", 0.0),
        "polyalg.compose_truncated.self_s": self_s.get("polyalg.compose_truncated", 0.0),
        "polyalg.directional_derivative.self_s": self_s.get("polyalg.directional_derivative", 0.0),
        "polyalg.HomPoly.init.calls": doc["counts"][INIT_COUNTER],
        "innerprod.project_coords.calls": calls.get("innerprod.project_coords", 0),
        "innerprod.project_coords.self_s": self_s.get("innerprod.project_coords", 0.0),
        "innerprod.project_coords.gram_cells": sum(a["gram_cells"] for a in attrs.get("innerprod.project_coords", [])),
        "control.operator.builds": calls.get("control.control_matrix", 0),
        "control.control_matrix.self_s": self_s.get("control.control_matrix", 0.0),
        "control.control_adjoint_matrix.self_s": self_s.get("control.control_adjoint_matrix", 0.0),
        "control.pushforward_control.self_s": self_s.get("control.pushforward_control", 0.0),
        "ode.solve_homological.total_s": total("ode.solve_homological"),
        "ode.pushforward_ode.calls": calls.get("ode.pushforward_ode", 0),
        "ode.pushforward_ode.self_s": self_s.get("ode.pushforward_ode", 0.0),
        "ode.flow_map.self_s": self_s.get("ode.flow_map", 0.0),
        "cert.lie_series_route.total_s": total("ode.pushforward_residuals"),
        "cert.flow_route.total_s": total("ode.flow_conjugacy_residuals"),
        "cert.conjugacy.total_s": total("ode.verify_conjugacy", "control.verify_control_conjugacy"),
        "cli.parse.self_s": self_s.get("cli.parse_system_object", 0.0) + self_s.get("cli.parse_report_object", 0.0),
        "cli.emit.self_s": sum(
            self_s.get(f"cli.{fn}", 0.0) for fn in ("ode_report_document", "control_report_document", "canonical_json")
        ),
        "cli.main.total_s": doc["main_s"] - sum(span[5] for span in spans),
    }


# ---------------------------------------------------------------------------
# the child process
# ---------------------------------------------------------------------------


def _run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="file that receives the CLI's stdout")
    parser.add_argument("--result", required=True, help="JSON file for exit code, wall time and spans")
    parser.add_argument("--run-id", help="trace the call and tag its spans with this id")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import normalforms
    import normalforms.cli as cli

    if Path(normalforms.__file__).resolve().parent != ROOT / "src" / "normalforms":
        print(f"error: imported normalforms from {normalforms.__file__}, not from this checkout", file=sys.stderr)
        return 3

    tracer = Tracer(args.run_id) if args.run_id else None
    if tracer:
        tracer.install()
    stdout = sys.stdout
    try:
        with open(args.out, "w", encoding="utf-8") as out:
            sys.stdout = out
            start = time.perf_counter()
            code = cli.main(cli_args)
            main_s = time.perf_counter() - start
    finally:
        sys.stdout = stdout
        if tracer:
            tracer.uninstall()
    result = {"exit": code, "main_s": main_s}
    if tracer:
        result.update(tracer.document())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(_run())
