"""The package runs on the standard library alone.

A fresh `python -S` (no site-packages on the path) imports
`normalforms.cli`, which imports every layer, and reports each module the
import loaded.  Any module that is neither part of the package nor in
`sys.stdlib_module_names` is a runtime dependency.
"""

import json
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
