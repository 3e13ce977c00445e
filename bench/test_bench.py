"""Tests of the benchmark itself, on systems small enough to run in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, system_document  # noqa: E402

TINY = {
    "ode-dense": dataclasses.replace(WORKLOADS["ode-dense"], n=2, a=(("1", "2"), ("3", "1/2"))),
    "ode-jordan": dataclasses.replace(WORKLOADS["ode-jordan"], degrees=(2, 3), order=3),
    "control-brunovsky": dataclasses.replace(
        WORKLOADS["control-brunovsky"], n=2, a=(("0", "1"), ("0", "0")), b=(("0",), ("1",)), degrees=(2, 3), order=3
    ),
}


def traced(w, verb, path, work, run_id="run"):
    child, out, doc = run.traced_call(w, verb, path, work, run.Deadline(120), run_id)
    assert child.code == 0, (work / f"{verb}-traced.err").read_text()
    return out, doc


def write_doc(w, work, seed=1):
    doc = work / "system.json"
    doc.write_text(json.dumps(system_document(w, seed)), encoding="utf-8")
    return doc


@pytest.mark.parametrize("name", sorted(TINY))
def test_trace_counts_repeat_and_cover_every_layer(name, tmp_path):
    w = TINY[name]
    ref = _tiny_reference(w)
    doc = write_doc(w, tmp_path)
    first, problems = run.trace_pass(w, 1, doc, tmp_path, ref, run.Deadline(120), plain_first=True)
    assert problems == []
    again, problems = run.trace_pass(w, 1, doc, tmp_path, ref, run.Deadline(120), plain_first=False)
    assert problems == []
    assert run.changed_counts(first, again) == []
    assert set(first) == set(run.layer_units())
    assert first["normalize.ratmat.rref.calls"] > 0
    assert run.changed_counts(first, {**again, "verify.polyalg.multiply.calls": -1}) == ["verify.polyalg.multiply.calls"]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    w = TINY["control-brunovsky"]
    result = run.run_traced(w, 1, 0, tmp_path, _tiny_reference(w))
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])


def test_self_time_excludes_children():
    spans = [["outer", 0.0, 10.0, -1, None, 0.0], ["inner", 1.0, 4.0, 0, None, 0.0], ["inner", 5.0, 6.0, 0, None, 0.0]]
    assert tracer.self_times(spans) == [6.0, 3.0, 1.0]
    nested = spans + [["outer", 2.0, 3.0, 1, None, 0.0]]
    assert tracer.outermost_total(nested, {"outer"}) == 10.0


def test_bookkeeping_is_charged_to_no_span():
    # the second child spent 0.5 s on its attributes, its own child 0.25 s
    spans = [
        ["outer", 0.0, 10.0, -1, None, 1.0],
        ["inner", 1.0, 4.0, 0, None, 0.0],
        ["inner", 5.0, 7.0, 0, None, 0.5],
        ["leaf", 5.5, 6.0, 2, None, 0.25],
    ]
    assert tracer.self_times(spans) == [4.5, 3.0, 1.25, 0.5]
    assert tracer.outermost_total(spans, {"outer"}) == 9.25
    assert tracer.outermost_total(spans, {"inner"}) == 4.75


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH.parent, env=run.child_env(), capture_output=True, text=True, timeout=60
    )


def test_rebinding_reaches_every_alias_and_is_undone():
    proc = _python(
        "import sys; sys.path.insert(0, 'bench')\n"
        "import tracer, normalforms.cli, normalforms.ratmat as rm, normalforms.homological as hom\n"
        "orig = id(rm.rref)  # an id: a second reference would fail the completeness check\n"
        "t = tracer.Tracer('x'); t.install()\n"
        "assert id(rm.rref) != orig and hom.rref is rm.rref\n"
        "rm.rank(((1, 2), (2, 4)))\n"
        "assert [s[0] for s in t.spans] == ['ratmat.rref'], t.spans\n"
        "t.uninstall()\n"
        "assert id(rm.rref) == orig and hom.rref is rm.rref\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_reference_the_trace_cannot_rebind_is_an_error():
    proc = _python(
        "import sys; sys.path.insert(0, 'bench')\n"
        "import tracer, normalforms.cli, normalforms.ratmat as rm\n"
        "rm._table = {'rref': rm.rref}\n"
        "tracer.Tracer('x').install()\n"
    )
    assert proc.returncode != 0
    assert "IncompleteTrace" in proc.stderr and "rref" in proc.stderr


def _tiny_reference(w):
    reference = pytest.importorskip("reference")
    return {"seed": DEFAULT_SEED, "normalize_sha256": "", "dimensions": reference.independent_dimensions(w)}


def _tamper_generator(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    gen = doc["report"]["generators"][0]
    term = (gen.get("terms") or gen["p_x"] or gen["p_u"])[0]
    term["coeff"] = str(Fraction(term["coeff"]) * 2)
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("name", ["ode-jordan", "control-brunovsky"])
def test_tampered_report_counts_as_failed(name, tmp_path, monkeypatch):
    w = TINY[name]
    ref = _tiny_reference(w)
    clean = run.run_untraced(w, 1, 0, tmp_path, ref)
    assert (clean["correct"], clean["attempted"], clean["failed"]) == (True, 1, 0)
    spawn = run.spawn

    def spawn_on_tampered_report(args, stdout, timeout):
        if "verify" in args:
            _tamper_generator(Path(args[args.index("--input") + 1]))
        return spawn(args, stdout, timeout)

    monkeypatch.setattr(run, "spawn", spawn_on_tampered_report)
    tampered = run.run_untraced(w, 1, 0, tmp_path, ref)
    assert (tampered["correct"], tampered["attempted"], tampered["failed"]) == (False, 1, 1)
    assert json.loads((tmp_path / "verdict.json").read_text())["verified"] is False


def test_wrong_dimensions_or_digest_are_failures(tmp_path):
    w = TINY["ode-jordan"]
    ref = _tiny_reference(w)
    doc = write_doc(w, tmp_path, seed=DEFAULT_SEED)
    report, _ = traced(w, "normalize", doc, tmp_path)
    text = report.read_bytes()
    assert run.check_normalize(w, 1, 0, text, ref) == []
    assert run.check_normalize(w, DEFAULT_SEED, 0, text, ref) == ["normalize output differs from the stored digest"]
    wrong = {**ref, "dimensions": {**ref["dimensions"], "2": {"space": 18, "range": 18, "complement": 0}}}
    assert run.check_normalize(w, 1, 0, text, wrong) == ["per-degree dimensions differ from the independent reference"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_independent_dimensions_agree_with_the_program(name, tmp_path):
    w = TINY[name]
    ref = _tiny_reference(w)
    report, _ = traced(w, "normalize", write_doc(w, tmp_path), tmp_path)
    assert json.loads(report.read_text())["report"]["dimensions"] == ref["dimensions"]


def test_generator_is_seeded_and_reference_covers_every_workload():
    stored = run.load_reference()
    for name, w in WORKLOADS.items():
        assert system_document(w, 3) == system_document(w, 3)
        assert system_document(w, 3)["terms"] != system_document(w, 4)["terms"]
        assert system_document(w, 3)["A"] == system_document(w, 4)["A"]
        assert sorted(stored[name]["dimensions"], key=int) == [str(k) for k in range(2, w.order + 1)]


def test_speed_scales_each_child_by_the_loops_around_it(monkeypatch):
    loops = iter([0.02, 0.06, 0.04])
    monkeypatch.setattr(run, "calibration_s", lambda: next(loops))
    speed = run.Speed()
    nominal = run.CALIBRATION_NOMINAL_S
    # a child between loops of 0.02 s and 0.06 s ran at 0.04 s per loop
    assert speed.scaled(2.0) == pytest.approx(2.0 * nominal / 0.04)
    assert speed.scaled(1.0) == pytest.approx(1.0 * nominal / 0.05)
    assert speed.loops == [0.02, 0.06, 0.04]
