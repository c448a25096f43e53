"""The ``table`` command: p_omega(N) and p_nu(N), counted, against the
coefficients of their generating functions, for N = 1 .. --max-n."""

from __future__ import annotations

import argparse
import json

from .cli import _usage_error
from .recount import counts, p_nu_series, p_omega_series

# a table's cost is its two series sides at T = max_n + 1, since the counts
# are O(max_n^2) additions: --max-n 400 takes about 0.8 s and 35 MB of max
# RSS (Python 3.11.7), and the time grows about as max_n^2.5
MAX_TABLE_N = 400


def run(args: argparse.Namespace) -> int:
    max_n = args.max_n
    if max_n < 1:
        return _usage_error("table requires --max-n >= 1")
    if max_n > MAX_TABLE_N:
        return _usage_error(f"table --max-n may not exceed {MAX_TABLE_N}")
    series_omega = p_omega_series(max_n + 1)
    series_nu = p_nu_series(max_n + 1)
    count_omega, count_nu = counts(max_n), counts(max_n, True)
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
