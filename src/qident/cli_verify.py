"""The ``verify`` command: verify a registered identity and print its
report."""

from __future__ import annotations

import argparse
import json

from . import identities
from .cli import DEFAULT_TRUNC


def run(args: argparse.Namespace) -> int:
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
