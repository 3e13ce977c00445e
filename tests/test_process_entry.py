"""The process entry point, and a stdout that the reader closed early.

`cli.entry` is what `python -m normalforms` and the `normalforms` script
run: it calls `run`, freezes the heap with `gc.freeze()` and exits with
`run`'s code.  `run` and `main` stay free of that side effect, because the
tests and the bench's layer tracer call them in process.
"""

import ast
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from normalforms import CertificateError, cli, control, ode

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLOSED_STDOUT = "error: stdout closed before the output was written\n"


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_entry_freezes_once_after_run_and_exits_with_its_code(code, monkeypatch):
    events = []

    def fake_run():
        events.append("run")
        return code

    monkeypatch.setattr(cli, "run", fake_run)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert events == ["run", "freeze"]
    assert exc.value.code == code


def test_run_and_main_never_freeze_the_heap(monkeypatch, capsys):
    fired = []

    def refuse():
        # run turns an exception into exit 3, so the list is what shows a call
        fired.append("freeze")
        raise AssertionError("gc.freeze called in process")

    def refuted(*args, **kwargs):
        raise CertificateError("refuted")

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    system = json.dumps(cli._EXAMPLE_DOCS["brunovsky-quadratic"])
    monkeypatch.setattr(gc, "freeze", refuse)
    for call in (cli.run, cli.main):
        assert call(["examples"]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
        assert call(["normalize"]) == 1
    monkeypatch.setattr(control, "verify_control_conjugacy", refuted)
    for call in (cli.run, cli.main):
        monkeypatch.setattr(sys, "stdin", io.StringIO(system))
        assert call(["normalize", "--order", "2"]) == 2
    monkeypatch.setattr(ode, "normalize_ode", broken)
    ode_system = {"kind": "ode", "n": 1, "m": 0, "A": [["1"]], "terms": []}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(ode_system)))
    assert cli.run(["normalize"]) == 3
    assert fired == []


def test_console_script_and_module_run_the_same_entry_function():
    # read as text: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', scripts, re.M) == [("normalforms", "normalforms.cli", "entry")]

    tree = ast.parse((SRC / "normalforms" / "__main__.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom) and n.module == "cli" for a in n.names}
    called = {n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert imported & called == {"entry"}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("verb", ["examples", "normalize"])
def test_a_closed_stdout_exits_one_with_one_line_on_stderr(verb, unbuffered, tmp_path, monkeypatch):
    """The reader closes its end before the child starts.  `examples` is
    smaller than stdout's buffer, so buffered it fails at `run`'s flush; the
    ode-jordan bench report is larger, so it fails inside the verb."""
    if verb == "examples":
        args = ["examples", "brunovsky-quadratic"]
    else:
        monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the bench is not a package
        workloads = importlib.import_module("workloads")
        w = workloads.WORKLOADS["ode-jordan"]
        doc = tmp_path / "system.json"
        doc.write_text(json.dumps(workloads.system_document(w, workloads.DEFAULT_SEED)), encoding="utf-8")
        args = ["normalize", "--format", "json", "--order", str(w.order), "--input", str(doc)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "normalforms", *args],
            stdout=writer,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=300,
        )
    finally:
        os.close(writer)
    assert proc.returncode == 1
    assert proc.stderr == CLOSED_STDOUT
