"""Command-line front end.

Subcommands: ``verify`` (identity verification), ``bijection`` (exhaustive
map checking and worked-example demos), ``eval`` (expression evaluation and
diffing), ``table`` (counting-function cross-checks) and ``list``.

This module holds the parser, ``main``, ``entry`` and what every command
shares.  Each command's handler is the function ``run`` of its own module,
``cli_<command>``, which ``main`` imports only for that command, and the
parser builds only the subparser of the command a launch names.  So a
launch compiles and executes only these modules, besides this one and
``errors``:

- ``eval``: ``cli_eval``, ``dsl``, ``budget``, ``syntax``, ``series`` and
  ``kernel``; then ``series_ops`` for a factor that is no Pochhammer or
  q-binomial power (a sum, or a power or inverse of one) or a Pochhammer
  product of such a base;
- ``bijection``: ``cli_bijection``, ``bijections`` and ``partitions``,
  ``capped`` for ``durfee_split`` and ``nu3``, and ``demos`` for
  ``--demo``;
- ``verify`` and ``table``: ``cli_verify`` or ``cli_table``,
  ``identities`` and those of ``eval`` but ``cli_eval``; then, for
  ``verify``, ``exact`` when a side is computed with no truncation order
  (its Gaussian binomials among it), ``recount`` for ``q1limit``, and
  ``recount`` and ``partitions`` when an enumeration side runs, with
  ``bijections`` for the ``p_gt`` recount of ``middle``; for ``table``,
  ``recount`` and ``series_ops``;
- ``list``: ``cli_list``, ``identities``, ``bijections`` and
  ``partitions``.

No command's output needs ``printing``, which holds the reprs and
``unparse``.

The argparse namespace is the only configuration: each subcommand accepts
only the flags its command reads, and ``main`` runs the handler of the
command the namespace names.  ``main`` also reports every ``QidentError``
a command raises, once.

Exit codes: 0 = success/equal, 1 = verified false, 2 = usage or parse error,
141 = stdout closed before the output was written (see ``entry``).  JSON
goes to stdout with ``--format json``; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Optional

from .errors import ParseError, QidentError

DEFAULT_TRUNC = 200
DEFAULT_CAP = 30

# the commands, in the order the help lists them
COMMANDS = ("verify", "bijection", "eval", "table", "list")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def build_parser(argv: Optional[list] = None) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``: with the subparser of the
    command argv[0] names alone, or with every command's when it names
    none (``-h``, no command or an unknown one).  Each subparser takes
    only the flags its command reads."""
    p = argparse.ArgumentParser(
        prog="qident",
        description="Verify q-series identities and partition bijections"
                    " with exact integer arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    names = COMMANDS
    if argv and argv[0] in COMMANDS:
        names = (argv[0],)
        # the usage an unrecognized argument prints still lists every command
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    shared = {
        "--trunc": dict(type=int,
                        help=f"q-truncation order (default {DEFAULT_TRUNC};"
                             " verify compares a polynomial identity in full"
                             " unless it is given)"),
        "--cap": dict(type=int, default=DEFAULT_CAP, dest="weight_cap",
                      help=f"weight cap for enumerations (default {DEFAULT_CAP})"),
        "--format": dict(choices=("text", "json"), default="text"),
    }

    def add_shared(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    if "verify" in names:
        v = sub.add_parser("verify", help="verify a registered identity")
        v.add_argument("id")
        v.add_argument("--n", type=int)
        v.add_argument("--no-comb", action="store_true",
                       help="skip enumeration-based sides")
        add_shared(v, "--trunc", "--cap", "--format")

    if "bijection" in names:
        b = sub.add_parser("bijection", help="check or demo a bijection")
        b.add_argument("name")
        b.add_argument("--n", type=int)
        b.add_argument("--k", type=int)
        b.add_argument("--max-nk", type=int, dest="max_nk",
                       help="sweep all (n, k) with n+k up to this bound (nu3)")
        b.add_argument("--demo", help="worked example, e.g. \"(5,3)|(2,2,2,1,1)\"")
        b.add_argument("--ferrers", action="store_true",
                       help="draw diagrams in demo mode")
        add_shared(b, "--cap", "--format")
        # no default cap here: the handler supplies it to the maps that take one
        b.set_defaults(weight_cap=None)

    if "eval" in names:
        e = sub.add_parser("eval", help="evaluate one expression or diff two")
        e.add_argument("exprs", nargs="+", metavar="EXPR")
        e.add_argument("--bind", action="append", default=[],
                       metavar="NAME=VALUE")
        add_shared(e, "--trunc", "--format")

    if "table" in names:
        t = sub.add_parser("table", help="counting-function cross-check table")
        t.add_argument("--max-n", type=int, dest="max_n", default=10)
        add_shared(t, "--format")

    if "list" in names:
        l = sub.add_parser("list", help="list identity ids and bijection names")
        add_shared(l, "--format")

    return p


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "trunc", None) is not None and args.trunc < 1:
        return _usage_error("--trunc must be >= 1")
    try:
        return import_module(f"{__package__}.cli_{args.command}").run(args)
    except ParseError as exc:
        print(f"parse error at {exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 2
    except QidentError as exc:
        return _usage_error(str(exc))


def entry() -> None:
    """Run ``main`` and exit with its code.  When stdout closes before the
    output is written (piped into ``head``), end quietly with 141, the
    status a shell reports for a process killed by SIGPIPE, since 0, 1 and
    2 carry verdicts."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let it write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
