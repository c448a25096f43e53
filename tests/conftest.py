import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

from qident.series import MultiSeries, QSeries

# CI keeps no example database, so a falsifying example found there is
# reported with the blob that replays it (@reproduce_failure).  The profile
# extends whatever profile is active (recent hypothesis versions load their
# own "ci" profile, which already prints blobs) and changes nothing else.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

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


def _factor_product(a, step, count, T):
    """prod (1 - a*q^(step*i)) over i < count (all i with a.min_exp +
    step*i < T when count is None), one MultiSeries.mul per factor,
    truncated at T after each."""
    out = MultiSeries.one()
    i = 0
    while (i < count) if count is not None else (a.min_exp + step * i < T):
        out = out.mul(MultiSeries.one() - a.shift(step * i)).truncate(T)
        i += 1
    return out


@pytest.fixture(scope="session")
def factor_product():
    """The generic reference for Pochhammer products: explicit factors
    multiplied one at a time by MultiSeries.mul."""
    return _factor_product


_NU3_SUBS = {"nu1": {"x": 1, "y": (-1, "z")}, "nu2": {"x": "z", "y": -1}}


def _nu3_specialized(target, side, trunc):
    """nu3's side, trusted below trunc, with x and y substituted to give
    the nu1 shape (x -> 1, y -> -z) or the nu2 shape (x -> z, y -> -1)."""
    from qident.identities import build_side

    return build_side("nu3", side, None, trunc).subst_aux(**_NU3_SUBS[target])


@pytest.fixture(scope="session")
def nu3_specialized():
    """nu3 specialized to the shape of nu1 or nu2, by target name."""
    return _nu3_specialized
