"""The ``eval`` command: evaluate one expression and print its terms, or
diff two and print the first mismatch."""

from __future__ import annotations

import argparse
import json
import sys

from . import dsl
from .cli import DEFAULT_TRUNC, _usage_error
from .series import mono_str
from .syntax import int_str, read_int


def _dump_series(ms, fmt) -> None:
    """Print a series' terms by q-exponent, then monomial: one line each, or
    with ``fmt`` "json" the document {"trunc": ..., "terms": [{"monomial":
    ..., "exponent": ..., "coeff": ...}, ...]}.  The document is written
    term by term, in the bytes ``json.dumps`` gives for that dict, without
    building the dict.  Numbers of any length are printed (``int_str``)."""
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


def run(args: argparse.Namespace) -> int:
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
