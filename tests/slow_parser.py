"""The argparse parser as it was written by hand, before the verb table.

`cli.build_parser` now builds the parser from `cli.VERBS`.  This is the
parser it replaced, unchanged, for `test_golden_usage` to compare help,
usage and error texts and exit codes with on whatever Python runs the
tests, since argparse's wording differs between versions.
"""

import argparse
import sys

from normalforms.cli import (
    _EXAMPLE_DOCS,
    cmd_examples,
    cmd_first_integrals,
    cmd_kernel,
    cmd_normalize,
    cmd_verify,
)


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors: exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format_flag(sub):
    sub.add_argument(
        "--format", choices=("json", "pretty"), default="pretty", help="output format (default: pretty)"
    )


def _add_io_flags(sub):
    sub.add_argument(
        "--input",
        metavar="PATH",
        help="read the input document from PATH instead of stdin",
    )
    _add_format_flag(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normalforms",
        description=(
            "Exact inner-product normal forms of ODEs and control systems, "
            "with machine-checkable certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser(
        "kernel", help="complement (classification space) basis at one degree"
    )
    p_kernel.add_argument(
        "--degree", type=int, default=2, help="homogeneous degree (default: 2)"
    )
    _add_io_flags(p_kernel)
    p_kernel.set_defaults(func=cmd_kernel)

    p_norm = sub.add_parser("normalize", help="normal form with certificates")
    p_norm.add_argument(
        "--order", type=int, default=3, help="truncation order (default: 3)"
    )
    _add_io_flags(p_norm)
    p_norm.set_defaults(func=cmd_normalize)

    p_verify = sub.add_parser(
        "verify", help="re-check a {system, report} document from scratch"
    )
    _add_io_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_fi = sub.add_parser("first-integrals", help="certified polynomial first integrals")
    p_fi.add_argument(
        "target",
        nargs="?",
        choices=("brunovsky", "uncontrollable"),
        default="brunovsky",
        help="which characteristic field (default: brunovsky)",
    )
    p_fi.add_argument(
        "--n", type=int, help="number of states for brunovsky (default: 2)"
    )
    _add_format_flag(p_fi)
    p_fi.set_defaults(func=cmd_first_integrals)

    p_ex = sub.add_parser("examples", help="emit a built-in system document (JSON)")
    p_ex.add_argument(
        "which",
        nargs="?",
        choices=tuple(sorted(_EXAMPLE_DOCS)),
        default="brunovsky-quadratic",
        help="which example document (default: brunovsky-quadratic)",
    )
    p_ex.set_defaults(func=cmd_examples)

    return parser
