"""Golden text of what argparse alone prints: help, usage and errors.

`cli.main` reads a plain command line itself and hands `--help` and every
bad command line to the parser `cli.build_parser()` builds from the verb
table.  `goldens/argparse.json` holds stdout, stderr and the exit code of
`python -m normalforms` for the top-level `--help`, each verb's `--help`
and six bad command lines, recorded with ``COLUMNS=80`` from the
hand-written parser that the table replaced, on the Python named in the
file.  argparse's wording differs between Python versions, so every case
is also compared with that parser itself, kept in `slow_parser`, on
whatever Python runs the tests; the recorded text is compared on the
recording's version only.
"""

import json
import sys
from pathlib import Path

import pytest

import slow_parser
from normalforms import cli

GOLDEN = json.loads((Path(__file__).resolve().parent / "goldens" / "argparse.json").read_text(encoding="utf-8"))
CASES = GOLDEN["cases"]
IDS = [" ".join(case["argv"]) or "(no verb)" for case in CASES]
RECORDED_ON = tuple(int(part) for part in GOLDEN["python"].split(".")[:2])


def _exit(parse, argv, capsys, monkeypatch):
    """stdout, stderr and exit code of ``parse(argv)``, which must exit."""
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


def test_the_cases_cover_every_help_and_the_bad_command_lines():
    helps = {tuple(case["argv"]) for case in CASES if case["argv"][-1:] == ["--help"]}
    assert helps == {("--help",)} | {(verb.name, "--help") for verb in cli.VERBS}
    assert sorted(case["code"] for case in CASES) == [0] * 6 + [1] * 6


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_the_cli_prints_what_the_hand_written_parser_printed(case, capsys, monkeypatch):
    got = _exit(cli.main, case["argv"], capsys, monkeypatch)
    assert got == _exit(slow_parser.build_parser().parse_args, case["argv"], capsys, monkeypatch)
    assert got[2] == case["code"]
    if sys.version_info[:2] == RECORDED_ON:
        assert got == (case["stdout"], case["stderr"], case["code"])
