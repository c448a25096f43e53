import json
from pathlib import Path

import pytest

from qident.series import MultiSeries, QSeries

_GOLDEN = Path(__file__).with_name("golden_sides.json")


def _golden_value(v):
    if isinstance(v, int):
        return v
    acc: dict = {}
    for z, x, y, e, c in v["terms"]:
        acc.setdefault((z, x, y), {})[e] = c
    return MultiSeries({m: QSeries(d, v["trunc"]) for m, d in acc.items()},
                       v["trunc"])


@pytest.fixture(scope="session")
def golden():
    """Reference expansions of registry sides, frozen from the closed-form
    builders that preceded the text-backed evaluator, keyed by
    (id, side, n or None, trunc)."""
    doc = json.loads(_GOLDEN.read_text())
    return {
        (r["id"], r["side"], (r["params"] or {}).get("n"), r["trunc"]):
            _golden_value(r["value"])
        for r in doc["sides"]
    }
