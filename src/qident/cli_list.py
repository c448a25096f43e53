"""The ``list`` command: list the identity ids and the bijection names."""

from __future__ import annotations

import argparse
import json

from . import bijections, identities


def run(args: argparse.Namespace) -> int:
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
