"""Command-line front end.

Subcommands: ``verify`` (identity verification), ``bijection`` (exhaustive
map checking and worked-example demos), ``eval`` (expression evaluation and
diffing), ``table`` (counting-function cross-checks) and ``list``.

Each command imports the modules it runs inside its own function, so a
launch compiles and executes only those (besides this module and
``errors``):

- ``eval``: ``dsl``, ``budget``, ``syntax``, ``series`` and ``kernel``;
- ``bijection``: ``bijections`` and ``partitions``;
- ``verify`` and ``table``: ``identities`` and those of ``eval``, then
  ``partitions`` when an enumeration side runs, and ``bijections`` for
  the ``p_gt`` recount of ``middle``;
- ``list``: ``identities``, ``bijections`` and ``partitions``.

The argparse namespace is the only configuration: each subcommand accepts
only the flags its command reads, and ``main`` calls the command the
subparser names as ``run`` with the namespace.  ``main`` also reports every
``QidentError`` a command raises, once.  The demos render what the maps
compute; the nu3 demo prints the fold of ``bijections._fold``.

Exit codes: 0 = success/equal, 1 = verified false, 2 = usage or parse error,
141 = stdout closed before the output was written (see ``entry``).  JSON
goes to stdout with ``--format json``; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

from .errors import ParseError, QidentError

if TYPE_CHECKING:
    from .partitions import Partition, PartitionPair, SignedDistinctSet


DEFAULT_TRUNC = 200
DEFAULT_CAP = 30
# a table's cost is its two series sides at T = max_n + 1, since the counts
# are O(max_n^2) additions: --max-n 400 takes about 0.8 s and 35 MB of max
# RSS (Python 3.11.7), and the time grows about as max_n^2.5
MAX_TABLE_N = 400


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def part_str(p: Partition) -> str:
    return "(" + ",".join(str(v) for v in p.parts) + ")"


def set_str(s: SignedDistinctSet) -> str:
    return "{" + ",".join(str(v) for v in s.elements) + "}"


def ferrers(p: Partition, indent: str = "  ") -> str:
    return "\n".join(indent + "* " * v for v in p.parts)


def parse_partition(text: str) -> Partition:
    from .partitions import Partition

    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"partition must look like (5,3): {text!r}")
    inner = text[1:-1].strip()
    parts = tuple(int(v) for v in inner.split(",")) if inner else ()
    return Partition(parts)


def parse_signed_set(text: str, n: int) -> SignedDistinctSet:
    from .partitions import SignedDistinctSet

    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"signed set must look like {{-2,0,1}}: {text!r}")
    inner = text[1:-1].strip()
    elements = tuple(int(v) for v in inner.split(",")) if inner else ()
    return SignedDistinctSet(elements, n)


def parse_pair(text: str) -> PartitionPair:
    from .partitions import PartitionPair

    if "|" not in text:
        raise ValueError(f"pair must look like (5,3)|(2,2,1): {text!r}")
    a, b = text.split("|", 1)
    return PartitionPair(parse_partition(a), parse_partition(b))


def _dump_series(ms, fmt) -> None:
    """Print a series' terms by q-exponent, then monomial: one line each, or
    with ``fmt`` "json" the document {"trunc": ..., "terms": [{"monomial":
    ..., "exponent": ..., "coeff": ...}, ...]}.  The document is written
    term by term, in the bytes ``json.dumps`` gives for that dict, without
    building the dict.  Numbers of any length are printed (``int_str``)."""
    from .series import mono_str
    from .syntax import int_str

    names = {m: mono_str(m) for m in ms.monomials()}
    rows = sorted((e, names[m], c) for m, e, c in ms.terms())
    if fmt == "json":
        write = sys.stdout.write
        write(f'{{"trunc": {json.dumps(ms.trunc)}, "terms": [')
        sep = ""
        for e, m, c in rows:
            write(f'{sep}{{"monomial": {json.dumps(m)}, "exponent": {int_str(e)},'
                  f' "coeff": {int_str(c)}}}')
            sep = ", "
        write("]}\n")
        return
    if not rows:
        print("0")
    for e, m, c in rows:
        head = f"q^{int_str(e)}" if m == "1" else f"{m}*q^{int_str(e)}"
        print(f"{head}: {int_str(c)}")
    if ms.trunc is not None:
        print(f"(exact below q^{ms.trunc})")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    # a polynomial identity is compared in full unless --trunc is given
    trunc = args.trunc
    if trunc is None and identities.get_identity(args.id).kind == "truncated-series":
        trunc = DEFAULT_TRUNC
    report = identities.verify(
        args.id,
        {"n": args.n},
        trunc=trunc,
        comb_cap=args.weight_cap,
        include_comb=not args.no_comb,
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        status = "equal" if report.equal else "MISMATCH"
        scope = ("every coefficient compared" if report.complete
                 else f"coefficients below q^{report.trunc} compared")
        print(f"{report.id} {report.params or ''} trunc={report.trunc}:"
              f" {status} ({scope})")
        if report.first_mismatch:
            mm = report.first_mismatch
            print(
                f"  first mismatch between {mm.sides[0]} and {mm.sides[1]}"
                f" at {mm.monomial_str()}*q^{mm.exponent}:"
                f" {mm.lhs} != {mm.rhs}"
            )
    return 0 if report.equal else 1


def _demo_phi(args: argparse.Namespace) -> int:
    from . import bijections
    from .partitions import DistinctPartition, PartitionPair, b2_weight, staircase

    n = args.n
    pair = parse_pair(args.demo)
    pair = PartitionPair(DistinctPartition(pair.first.parts), pair.second)
    print(f"input: lambda={part_str(pair.first)} pi={part_str(pair.second)}"
          f" (weight {pair.weight})")
    ell = len(pair.first)
    print(f"number of parts of lambda: {ell}")
    t, nu = bijections.phi(n, pair)
    print(f"mu = staircase {part_str(staircase(t))} (t={t})")
    print(f"nu = {part_str(nu)}")
    print(f"output weight: {b2_weight((t, nu))}")
    if args.ferrers:
        print("nu as a diagram:")
        print(ferrers(nu))
    back = bijections.phi_inv(n, (t, nu))
    print(f"inverse check: {part_str(back.first)}|{part_str(back.second)}")
    return 0


def _demo_rho(args: argparse.Namespace) -> int:
    from . import bijections
    from .partitions import run_weight

    n = args.n
    lam = parse_signed_set(args.demo, n)
    print(f"input: lambda={set_str(lam)} (weight {lam.weight})")
    t, nu = bijections.rho(n, lam)
    print(f"t = {t}; mu = run {{{','.join(str(v) for v in range(-n, t + 1))}}}"
          f" (weight {run_weight(n, t)})")
    print(f"nu = {part_str(nu)} (weight {nu.weight})")
    back = bijections.rho_inv(n, (t, nu))
    print(f"inverse check: {set_str(back)}")
    return 0


def _demo_psi(args: argparse.Namespace) -> int:
    from . import bijections

    n = args.n
    mu = parse_signed_set(args.demo, n)
    print(f"input: mu={set_str(mu)} (weight {mu.weight})")
    out = bijections.psi(n, mu)
    print(f"psi(mu) = {part_str(out)} (weight {out.weight})")
    print(f"weight law: {mu.weight} = -{n * (n + 1) // 2} + {out.weight}")
    back = bijections.psi_inv(n, out)
    print(f"inverse check: {set_str(back)}")
    return 0


def _demo_tau(args: argparse.Namespace) -> int:
    from . import bijections

    n = args.n
    lam = parse_signed_set(args.demo, n)
    print(f"input: lambda={set_str(lam)} (weight {lam.weight})")
    out = bijections.tau(n, lam)
    print(f"tau(lambda) = {set_str(out)} (weight {out.weight})")
    back = bijections.tau_complement(n, out)
    print(f"inverse check: {set_str(back)}")
    return 0


def _demo_durfee(args: argparse.Namespace) -> int:
    from . import bijections

    lam = parse_partition(args.demo)
    print(f"input: lambda={part_str(lam)} (weight {lam.weight},"
          f" Durfee side {lam.durfee_size()})")
    if args.ferrers:
        print(ferrers(lam))
    pair = bijections.durfee_split(lam)
    print(f"mu = {part_str(pair.first)}  nu = {part_str(pair.second)}")
    back = bijections.durfee_join(pair)
    print(f"inverse check: {part_str(back)}")
    return 0


def _demo_nu3(args: argparse.Namespace) -> int:
    from . import bijections
    from .partitions import Partition, distinct_odd_to_selfconj

    n, k = args.n, args.k
    pair = parse_pair(args.demo)
    print(f"input: lambda={part_str(pair.first)} pi={part_str(pair.second)}"
          f" (weight {pair.weight})")
    # the map validates the input, which the fold below assumes
    out = bijections.nu3_forward(n, k, pair)
    for part in pair.second.parts:
        s = (part - 1) // 2
        print(f"  split {part} = {s + 1} + {s}: column of height {s + 1},"
              f" row of width {s}")
    nu_star = Partition(bijections._fold(n, pair.second.parts))
    print(f"folded diagram: {part_str(nu_star)}")
    if args.ferrers:
        print(ferrers(nu_star))
    nu_prime = distinct_odd_to_selfconj(out.second)
    print(f"mu = {part_str(out.first)}; self-conjugate residue ="
          f" {part_str(nu_prime)} (Durfee side {nu_prime.durfee_size()})")
    print(f"nu = hooks of residue = {part_str(out.second)}")
    back = bijections.nu3_inverse(n, k, out)
    print(f"inverse check: {part_str(back.first)}|{part_str(back.second)}")
    return 0


_DEMOS = {
    "phi": (_demo_phi, ("n",)),
    "rho": (_demo_rho, ("n",)),
    "psi": (_demo_psi, ("n",)),
    "tau": (_demo_tau, ("n",)),
    "durfee_split": (_demo_durfee, ()),
    "nu3": (_demo_nu3, ("n", "k")),
}


def cmd_bijection(args: argparse.Namespace) -> int:
    from . import bijections

    name = args.name
    if args.demo and name in _DEMOS:  # check_bijection refuses an unknown name
        demo, needed = _DEMOS[name]
        for param in needed:
            if getattr(args, param) is None:
                return _usage_error(f"demo of {name} requires --{param}")
        try:
            return demo(args)
        except (ValueError, QidentError) as exc:
            return _usage_error(str(exc))
    # --cap defaults to DEFAULT_CAP only for the maps that take a cap, so
    # check_bijection refuses a cap only when one was given
    cap = args.weight_cap
    spec = bijections._BIJECTIONS.get(name)
    if cap is None and spec and "weight_cap" in spec.params:
        cap = DEFAULT_CAP
    report = bijections.check_bijection(name, n=args.n, k=args.k,
                                        weight_cap=cap, max_nk=args.max_nk)
    ok = report.passed()
    if args.format == "json":
        print(json.dumps({**report._asdict(), "pass": ok}))
    else:
        print(
            f"{report.name}: domain {report.domain_size},"
            f" codomain {report.codomain_size},"
            f" roundtrip failures {report.roundtrip_failures},"
            f" weight violations {report.weight_violations},"
            f" membership failures {report.membership_failures}"
            f" -> {'PASS' if ok else 'FAIL'}"
        )
        if report.witness:
            print(f"  witness: {report.witness}")
    return 0 if ok else 1


def cmd_eval(args: argparse.Namespace) -> int:
    from . import dsl
    from .series import mono_str
    from .syntax import int_str, read_int

    if len(args.exprs) > 2:
        return _usage_error("eval takes one or two expressions")
    bindings = {}
    for b in args.bind:
        if "=" not in b:
            return _usage_error(f"--bind needs name=value: {b!r}")
        name, _, value = b.partition("=")
        try:
            bindings[name.strip()] = read_int(value)
        except ValueError as exc:
            return _usage_error(f"--bind {name.strip()}: {exc}")
    trunc = DEFAULT_TRUNC if args.trunc is None else args.trunc
    values = [dsl.evaluate(t, bindings, trunc) for t in args.exprs]
    if len(values) == 1:
        _dump_series(values[0], args.format)
        return 0
    lhs, rhs = values
    mm = lhs.first_mismatch(rhs, trunc)
    if mm is None:
        bound = min(t for t in (lhs.trunc, rhs.trunc, trunc) if t is not None)
        if args.format == "json":
            print(json.dumps({"equal": True, "trunc": bound}))
        else:
            print(f"equal below q^{bound}")
        return 0
    mono, e, lc, rc = mm
    m, e, lc, rc = mono_str(mono), int_str(e), int_str(lc), int_str(rc)
    if args.format == "json":
        # the bytes json.dumps gives, with numbers of any length
        print(f'{{"equal": false, "first_mismatch": {{"monomial": {json.dumps(m)},'
              f' "exponent": {e}, "lhs": {lc}, "rhs": {rc}}}}}')
    else:
        print(f"MISMATCH at {m}*q^{e}: {lc} != {rc}")
    return 1


def cmd_table(args: argparse.Namespace) -> int:
    from . import identities

    max_n = args.max_n
    if max_n < 1:
        return _usage_error("table requires --max-n >= 1")
    if max_n > MAX_TABLE_N:
        return _usage_error(f"table --max-n may not exceed {MAX_TABLE_N}")
    series_omega = identities.p_omega_series(max_n + 1)
    series_nu = identities.p_nu_series(max_n + 1)
    count_omega, count_nu = identities.counts(max_n), identities.counts(max_n, True)
    rows = []
    ok = True
    for N in range(1, max_n + 1):
        po, pn = count_omega[N], count_nu[N]
        co, cn = series_omega.coeff(N), series_nu.coeff(N)
        agree = po == co and pn == cn
        ok = ok and agree
        rows.append((N, po, co, pn, cn, agree))
    if args.format == "json":
        print(json.dumps({
            "rows": [
                {"n": N, "p_omega": po, "series_omega": co,
                 "p_nu": pn, "series_nu": cn, "agree": agree}
                for N, po, co, pn, cn, agree in rows
            ],
            "pass": ok,
        }))
    else:
        print(f"{'N':>4} {'p_omega':>8} {'gf':>8} {'p_nu':>8} {'gf':>8}  status")
        for N, po, co, pn, cn, agree in rows:
            print(f"{N:>4} {po:>8} {co:>8} {pn:>8} {cn:>8}  "
                  + ("ok" if agree else "DISAGREE"))
        print("all rows agree" if ok else "DISAGREEMENT found")
    return 0 if ok else 1


def cmd_list(args: argparse.Namespace) -> int:
    from . import bijections, identities

    if args.format == "json":
        print(json.dumps({
            "identities": list(identities.IDENTITY_IDS),
            "bijections": list(bijections.BIJECTION_NAMES),
        }))
        return 0
    print("identities:")
    for iid in identities.IDENTITY_IDS:
        case = identities.REGISTRY[iid]
        params = ", ".join(case.params) if case.params else "none"
        extra = ""
        if case.comb_builders:
            extra = f"; enumeration sides: {', '.join(case.comb_builders)}"
        print(f"  {iid:<11} params: {params}{extra}")
    print("bijections:")
    for name in bijections.BIJECTION_NAMES:
        print(f"  {name}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; each takes only the flags its command
    reads and names that command as ``run``."""
    p = argparse.ArgumentParser(
        prog="qident",
        description="Verify q-series identities and partition bijections"
                    " with exact integer arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)
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

    v = sub.add_parser("verify", help="verify a registered identity")
    v.set_defaults(run=cmd_verify)
    v.add_argument("id")
    v.add_argument("--n", type=int)
    v.add_argument("--no-comb", action="store_true",
                   help="skip enumeration-based sides")
    add_shared(v, "--trunc", "--cap", "--format")

    b = sub.add_parser("bijection", help="check or demo a bijection")
    b.set_defaults(run=cmd_bijection)
    b.add_argument("name")
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--max-nk", type=int, dest="max_nk",
                   help="sweep all (n, k) with n+k up to this bound (nu3)")
    b.add_argument("--demo", help="worked example, e.g. \"(5,3)|(2,2,2,1,1)\"")
    b.add_argument("--ferrers", action="store_true",
                   help="draw diagrams in demo mode")
    add_shared(b, "--cap", "--format")
    # no default cap here: cmd_bijection supplies it to the maps that take one
    b.set_defaults(weight_cap=None)

    e = sub.add_parser("eval", help="evaluate one expression or diff two")
    e.set_defaults(run=cmd_eval)
    e.add_argument("exprs", nargs="+", metavar="EXPR")
    e.add_argument("--bind", action="append", default=[],
                   metavar="NAME=VALUE")
    add_shared(e, "--trunc", "--format")

    t = sub.add_parser("table", help="counting-function cross-check table")
    t.set_defaults(run=cmd_table)
    t.add_argument("--max-n", type=int, dest="max_n", default=10)
    add_shared(t, "--format")

    l = sub.add_parser("list", help="list identity ids and bijection names")
    l.set_defaults(run=cmd_list)
    add_shared(l, "--format")

    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "trunc", None) is not None and args.trunc < 1:
        return _usage_error("--trunc must be >= 1")
    try:
        return args.run(args)
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
