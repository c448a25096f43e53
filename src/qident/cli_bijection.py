"""The ``bijection`` command: check a bijection over its whole domain, or
with ``--demo`` walk one worked example through the map and back; the
demos are in ``qident.demos``, which only a demo loads.
"""

from __future__ import annotations

import argparse
import json

from . import bijections
from .cli import DEFAULT_CAP


def run(args: argparse.Namespace) -> int:
    name = args.name
    # check_bijection refuses an unknown name
    if args.demo and name in bijections.BIJECTION_NAMES:
        from . import demos

        return demos.run(args)
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
