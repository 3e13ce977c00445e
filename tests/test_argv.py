"""The command-line reader against argparse.

`cli.read_argv` reads an argv from the verb table without argparse and
returns None for every form it does not read, which `cli.main` hands to
the parser that `cli.build_parser()` builds from the same table.  Here
argparse is the oracle: for each argv drawn from the table's verbs, flags
and values, with hostile tokens mixed in, a namespace the reader returns
must equal argparse's, and every argv that argparse rejects (help
included, which exits 0) must be declined.  A fixed list of the argvs the
benchmark and CI run must all be read, so the reader cannot pass by
declining everything.
"""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normalforms import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PARSER = cli.build_parser()


def argparse_reads(argv):
    """argparse's namespace for ``argv`` as a dict, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


HOSTILE = (
    "--",
    "-h",
    "--help",
    "--order=3",
    "--ord",
    "--form",
    "-1",
    " -1",
    "-",
    "",
    "٣",  # ARABIC-INDIC DIGIT THREE: int() reads it as 3
    "9" * 5000,  # past the int-conversion digit limit
    " 3",
    "3 ",
    "+3",
    "1_0",
    "0x3",
    "--n",
    "--degree",
    "json",
    "uncontrollable",
    "extra",
    "kernel",
)
TOKENS = sorted({arg.name for verb in cli.VERBS for arg in verb.args if not arg.positional} | {verb.name for verb in cli.VERBS})


def values(arg):
    """Values for one argument of the table: mostly valid, else a hostile token or any text."""
    if arg.choices is not None:
        valid = st.sampled_from(arg.choices)
    elif arg.type is int:
        valid = st.integers(-3, 12).map(str)
    else:
        valid = st.sampled_from(("doc.json", "a=b", "report json", "-"))
    hostile = st.one_of(st.sampled_from(HOSTILE), st.text(max_size=4))
    return st.sampled_from((True,) * 7 + (False,)).flatmap(lambda ok: valid if ok else hostile)


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(cli.VERBS))
    tokens = []
    positional = [arg for arg in verb.args if arg.positional]
    if positional and draw(st.booleans()):
        tokens.append(draw(values(positional[0])))
    flags = draw(st.permutations([arg for arg in verb.args if not arg.positional]))
    for arg in flags[: draw(st.integers(0, len(flags)))]:
        tokens += [arg.name, draw(values(arg))]
    # then, in about half the argvs, a hostile edit or two: a token
    # replaced, inserted or dropped (an inserted flag may repeat one)
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 1, 1, 2)))):
        token = draw(st.sampled_from(HOSTILE + tuple(TOKENS)))
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("replace", "insert", "drop")))
        if edit == "replace" and i < len(tokens):
            tokens[i] = token
        elif edit == "drop" and i < len(tokens):
            del tokens[i]
        else:
            tokens.insert(i, token)
    # the verb, now and then replaced by another token or left out
    first = draw(st.sampled_from((verb.name,) * 7 + (None,)))
    if first is None:
        first = draw(st.sampled_from(HOSTILE + tuple(TOKENS)))
    return [first, *tokens] if draw(st.sampled_from((True,) * 15 + (False,))) else tokens


@given(argvs())
@settings(
    max_examples=1500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_the_reader_reads_as_argparse_does_or_declines(argv):
    ours = cli.read_argv(argv)
    if ours is not None:
        assert vars(ours) == argparse_reads(argv)


def test_the_hostile_tokens_are_declined_where_argparse_rejects_them():
    for argv in (
        [],
        ["--help"],
        ["normalize", "-h"],
        ["normalize", "--help"],
        ["normalize", "--order"],
        ["normalize", "--order", "x"],
        ["normalize", "--order", "9" * 5000],
        ["normalize", "--format", "xml"],
        ["normalize", "stray"],
        ["kernel", "--degree", ""],
        ["examples", "nonesuch"],
        ["frobnicate"],
    ):
        assert argparse_reads(argv) is None, argv
        assert cli.read_argv(argv) is None, argv


def test_forms_argparse_reads_in_its_own_way_are_declined():
    # each is accepted by argparse, through a rule the reader does not copy
    for argv in (
        ["normalize", "--order=4"],  # an attached value
        ["normalize", "--ord", "4"],  # an abbreviation
        ["normalize", "--order", "3", "--order", "4"],  # a repeat: the last one wins
        ["normalize", "--order", "-1"],  # a value that starts with "-"
    ):
        assert argparse_reads(argv) is not None, argv
        assert cli.read_argv(argv) is None, argv
    # a positional after a flag, and "--": how argparse reads these has
    # changed between Python versions
    assert cli.read_argv(["first-integrals", "--format", "json", "uncontrollable"]) is None
    assert cli.read_argv(["first-integrals", "--", "uncontrollable"]) is None


def test_values_read_by_int_and_by_membership_match_argparse():
    for argv in (
        ["normalize", "--order", " -1"],
        ["normalize", "--order", "٣"],
        ["normalize", "--order", "1_0"],
        ["normalize", "--order", "+3"],
        ["normalize", "--input", ""],
        ["first-integrals", "uncontrollable", "--n", "3"],
        ["examples", "uncontrollable"],
    ):
        ours = cli.read_argv(argv)
        assert ours is not None, argv
        assert vars(ours) == argparse_reads(argv), argv


# every argv the benchmark runs and every one the CI console-script step
# passes to the installed script, except its --help and bad command lines
BENCH_ARGVS = [
    ["examples", "brunovsky-quadratic"],
    *(bench_run.cli_args(w, verb, Path("doc.json")) for w in WORKLOADS.values() for verb in ("normalize", "verify")),
]
CI_ARGVS = [
    ["examples"],
    ["examples", "brunovsky-quadratic"],
    ["examples", "uncontrollable"],
    ["normalize"],
    ["normalize", "--format", "json"],
    ["normalize", "--order", "2", "--format", "json"],
    ["normalize", "--order", "3"],
    ["normalize", "--order", "3", "--format", "json"],
    ["normalize", "--order", "4", "--format", "json"],
    ["normalize", "--order", "5", "--format", "json"],
    ["normalize", "--order", "3", "--format", "pretty"],
    ["normalize", "--order", "400", "--input", "probe-ode.json"],
    ["verify", "--format", "json"],
    ["verify", "--format", "pretty"],
    ["verify", "--format", "json", "--input", "report.json"],
    ["verify", "--input", "probe-report.json"],
    ["kernel", "--degree", "3", "--format", "json"],
    ["kernel", "--degree", "3", "--format", "pretty"],
    ["first-integrals"],
    ["first-integrals", "uncontrollable"],
    ["first-integrals", "--n", "4", "--format", "json"],
    ["first-integrals", "uncontrollable", "--format", "json"],
    ["first-integrals", "uncontrollable", "--n", "3"],
]


def test_every_bench_and_ci_invocation_is_read_without_argparse():
    assert len(BENCH_ARGVS) == 1 + 2 * len(WORKLOADS)
    for argv in BENCH_ARGVS + CI_ARGVS:
        ours = cli.read_argv(argv)
        assert ours is not None, argv
        assert vars(ours) == argparse_reads(argv), argv


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["normalforms", "examples", "uncontrollable"])
    assert cli.main() == 0
    assert '"n": 3' in capsys.readouterr().out
