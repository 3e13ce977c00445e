"""The package runs on the standard library alone.

A fresh `python -S` (no site-packages on the path) imports
`normalforms.cli`, which imports every layer, and reports each module the
import loaded.  Any module that is neither part of the package nor in
`sys.stdlib_module_names` is a runtime dependency.

The same import leaves out `normalforms.pretty` and `normalforms.integrals`,
and so does every JSON `normalize`, `verify` and `examples`: only a run that
writes pretty text, `first-integrals`, and `kernel` of a control system
load them.  It leaves out `normalforms.spectral` too, and so does a JSON
`normalize` or `verify` of a control system or of an ODE with a triangular
A: only a non-triangular A (the Sylvester solve) or a supplied split loads
it.

The import leaves out `argparse`, `gettext` and `locale` as well, and so
does a JSON `examples`, `normalize` and `verify` process: the CLI reads a
plain command line itself, and only `--help` or a bad command line builds
the argparse parser.  A module the interpreter's `site` already loads is
skipped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import normalforms.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_the_package_and_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)], capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "normalforms.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] != "normalforms" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_cli_import_leaves_dataclasses_unloaded():
    # every CLI process pays for what the import loads; the records are
    # NamedTuples, so the dataclasses module is never needed
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import normalforms.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_traceback_unloaded():
    # only the exit-3 path of cli.run prints a traceback; the import costs
    # every process a few milliseconds, so it is deferred to that path
    probe = (
        "import sys; before = 'traceback' in sys.modules; sys.path.insert(0, sys.argv[1]); "
        "import normalforms.cli; print(before, 'traceback' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True, check=True).stdout
    before, after = out.split()
    if before == "True":
        pytest.skip("this interpreter's site already imports traceback")
    assert after == "False"


# ---------------------------------------------------------------------------
# the command line: argparse only for help and errors
# ---------------------------------------------------------------------------

# argparse imports gettext, and building a parser runs the first locale import
ARGPARSE = ("argparse", "gettext", "locale")


def pinned(names=ARGPARSE):
    """The modules of ``names`` that this interpreter's `site` does not load."""
    probe = "import sys; print(' '.join(name for name in sys.argv[1:] if name in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe, *names], capture_output=True, text=True, check=True).stdout
    left = [name for name in names if name not in out.split()]
    if not left:
        pytest.skip(f"this interpreter's site already imports {', '.join(names)}")
    return left


def imported(argv, stdin=""):
    """stdout and every module imported by a `python -m normalforms` process, read off -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "normalforms", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "normalforms.cli" in names
    return proc.stdout, names


def test_cli_import_leaves_argparse_gettext_and_locale_unloaded():
    names = pinned()
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import normalforms.cli; print(*[n for n in sys.argv[2:] if n in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe, str(SRC), *names], capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def test_a_json_round_trip_and_examples_load_no_argparse_gettext_or_locale():
    names = set(pinned())
    example, loaded = imported(["examples"])
    assert not loaded & names
    report, loaded = imported(["normalize", "--format", "json"], example)
    assert not loaded & names
    verdict, loaded = imported(["verify", "--format", "json"], report)
    assert not loaded & names
    assert json.loads(verdict)["verified"] is True


def test_help_loads_argparse():
    pinned(("argparse",))
    out, loaded = imported(["--help"])
    assert out.startswith("usage: normalforms ")
    assert "argparse" in loaded


# ---------------------------------------------------------------------------
# what a verb loads: a JSON run compiles no pretty text and no worked example
# ---------------------------------------------------------------------------

LAZY = ("normalforms.integrals", "normalforms.pretty")

ODE = {
    "kind": "ode",
    "n": 2,
    "m": 0,
    "A": [["0", "1"], ["0", "0"]],
    "terms": [
        {"degree": 2, "component": 2, "exponents": [2, 0], "coeff": "1"},
        {"degree": 2, "component": 1, "exponents": [1, 1], "coeff": "1/2"},
    ],
}

VERBS_PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from contextlib import redirect_stdout
from normalforms import cli

out = ""
loaded = []
for argv, stdin in json.loads(sys.argv[2]):
    # stdin is a document, or null for the previous run's output
    sys.stdin = io.StringIO(out if stdin is None else json.dumps(stdin))
    with redirect_stdout(io.StringIO()) as buf:
        code = cli.main(argv)
    assert code == 0, (argv, code)
    out = buf.getvalue()
    loaded.append(sorted(name for name in sys.modules if name in sys.argv[3:]))
print(json.dumps(loaded))
"""


def loaded_after(*runs, lazy=LAZY):
    """The modules of ``lazy`` loaded after each `cli.main` run, the runs
    made in order in one fresh `python -S` process; a run's stdin is a
    document, or None for the output of the run before it."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", VERBS_PROBE, str(SRC), json.dumps(runs), *lazy],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def round_trip(system, order="3"):
    return [(["normalize", "--format", "json", "--order", order], system), (["verify", "--format", "json"], None)]


CONTROL = {"kind": "control", "n": 2, "m": 1, "A": [["0", "1"], ["0", "0"]], "B": [["0"], ["1"]], "terms": []}


def test_a_json_verb_loads_neither_the_pretty_text_nor_the_worked_examples():
    runs = [
        *round_trip(ODE),
        *round_trip(CONTROL),
        (["examples"], {}),
        (["examples", "uncontrollable"], {}),
        (["kernel", "--degree", "3", "--format", "json"], ODE),
    ]
    assert loaded_after(*runs) == [[]] * len(runs)


def test_a_pretty_report_loads_the_text_and_the_worked_examples_load_integrals():
    normalize = ["normalize", "--format", "pretty", "--order", "3"]
    assert loaded_after((normalize, ODE)) == [["normalforms.pretty"]]
    assert loaded_after((["kernel", "--degree", "2", "--format", "json"], CONTROL)) == [["normalforms.integrals"]]
    assert loaded_after((["first-integrals", "--format", "json"], {})) == [list(LAZY)]
    assert loaded_after((["first-integrals", "uncontrollable"], {})) == [list(LAZY)]


def test_the_lazy_modules_import_only_the_package_and_the_standard_library():
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import normalforms.cli; before = set(sys.modules); "
        "import normalforms.pretty, normalforms.integrals, normalforms.spectral; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert {*LAZY, *SPECTRAL} <= set(loaded)
    assert [name for name in loaded if name.split(".")[0] not in ("normalforms", *sys.stdlib_module_names)] == []


def test_the_package_resolves_the_names_of_the_worked_examples_on_first_access():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import normalforms; print('normalforms.integrals' in sys.modules); "
        "from normalforms import (brunovsky_first_integrals, uncontrollable_example, control_complement, FirstIntegral, "
        "UncontrollableExample, brunovsky_pair, integral_defect); from normalforms import integrals; "
        "print(brunovsky_first_integrals is integrals.brunovsky_first_integrals, "
        "FirstIntegral is integrals.FirstIntegral, UncontrollableExample is integrals.UncontrollableExample)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True", "True", "True"]


# ---------------------------------------------------------------------------
# the spectral module: only a non-triangular A or a supplied split loads it
# ---------------------------------------------------------------------------

SPECTRAL = ("normalforms.spectral",)

# a dense non-triangular A, non-resonant: every degree is a Sylvester solve
DENSE = {
    "kind": "ode",
    "n": 3,
    "m": 0,
    "A": [["-5/4", "-3/2", "-2/3"], ["1/2", "1/3", "-1/3"], ["3", "-1", "-1/2"]],
    "terms": [
        {"degree": 2, "component": 1, "exponents": [1, 1, 0], "coeff": "1"},
        {"degree": 3, "component": 2, "exponents": [0, 1, 2], "coeff": "2/3"},
    ],
}

# a triangular A with its split supplied: A_s = A, A_n = 0
SPLIT = {
    **ODE,
    "A": [["1", "1"], ["0", "2"]],
    "semisimple_part": [["1", "1"], ["0", "2"]],
    "nilpotent_part": [["0", "0"], ["0", "0"]],
}

# a lower-triangular A: triangular too, so the slice eliminates L_A itself
LOWER = {**ODE, "A": [["1", "0"], ["3", "2"]]}


def report_of(system, order="3"):
    """The JSON report of ``normalize`` on the system, from the command line."""
    out = subprocess.run(
        [sys.executable, "-S", "-m", "normalforms", "normalize", "--format", "json", "--order", order],
        input=json.dumps(system),
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    return json.loads(out)


def test_a_triangular_ode_and_a_control_system_leave_the_spectral_module_unloaded():
    runs = [
        *round_trip(ODE),
        *round_trip(LOWER),
        *round_trip(CONTROL),
        (["kernel", "--degree", "3", "--format", "json"], ODE),
        (["examples"], {}),
    ]
    assert loaded_after(*runs, lazy=SPECTRAL) == [[]] * len(runs)


def test_a_non_triangular_a_or_a_supplied_split_loads_the_spectral_module():
    for system in (DENSE, SPLIT):
        assert loaded_after((["normalize", "--format", "json", "--order", "3"], system), lazy=SPECTRAL) == [
            list(SPECTRAL)
        ]
        # a verify alone, in a fresh process, loads it as well
        verify = (["verify", "--format", "json"], report_of(system))
        assert loaded_after(verify, lazy=SPECTRAL) == [list(SPECTRAL)]


def test_the_package_resolves_the_split_check_on_first_access():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import normalforms; print('normalforms.spectral' in sys.modules); "
        "from normalforms import SplitReport, validate_split; from normalforms import spectral; "
        "print(SplitReport is spectral.SplitReport, validate_split is spectral.validate_split)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True", "True"]
