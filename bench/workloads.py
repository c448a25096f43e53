"""The four workloads: fixed batches of ``qident`` command lines.

``batch(workload, seed)`` returns the batch as a list of operations.  The
seed picks each operation's size from the narrow range written beside it
and then the order of the batch; the same seed always gives the same
batch.  Where seven operations share a base size, the seed deals the
offsets -3..3 among them, so each operation's size changes with the seed
while the batch's total work hardly does.  Sizes whose cost grows steeply
(family sizes 4^n, the O-side enumeration, the brute-force counting
functions, the ay3 sum) are fixed, because one step in them changes an
operation's cost by 18 % to 300 %.

Each operation is a dict with the command line (``argv``, without the
program name), a ``kind`` that selects its check in ``checks.py``, and the
parameters that check needs.
"""

from __future__ import annotations

import random

WORKLOADS = ("series-verify", "dsl-eval", "enum-sweep", "recount")

SERIES_IDS = ("ay1", "ay2", "omega", "omega1", "nu1", "nu2", "nu3")

# Text forms of the identities, as the registry states them.  They are
# copied here so that the benchmark's input stays the same when the
# program's own texts are edited.
SERIES_TEXTS = {
    "ay1": ("sum(n, 1, N, q^n * poch(z*q^n, 1, n+1)^(-1)"
            " * poch(z*q^(2*n+2), 2, inf)^(-1))",
            "sum(n, 0, N, z^n * q^(2*n^2+2*n+1) * poch(q, 2, n+1)^(-1)"
            " * poch(z*q, 2, n+1)^(-1))"),
    "ay2": ("sum(n, 0, N, q^n * poch(-z*q^(n+1), 1, n)"
            " * poch(-z*q^(2*n+2), 2, inf))",
            "sum(n, 0, N, z^n * q^(n^2+n) * poch(q, 2, n+1)^(-1))"),
    "omega": ("sum(n, 0, N, z^n * q^(2*n^2+2*n) * poch(q, 2, n+1)^(-1)"
              " * poch(z*q, 2, n+1)^(-1))",
              "sum(n, 0, N, z^n * q^n * poch(q, 2, n+1)^(-1))"),
    "omega1": ("sum(n, 0, N, z^(2*n+1) * q^((2*n+1)^2) * poch(q^2, 4, n+1)^(-1)"
               " * poch(z^2*q^2, 4, n+1)^(-1))",
               "sum(n, 0, N, z^(2*n+1) * q^(2*n+1) * poch(q^2, 4, n+1)^(-1))"),
    "nu1": ("sum(n, 0, N, q^(n^2+n) * poch(-z*q, 2, n+1)^(-1))",
            "sum(n, 0, N, poch(q*z^(-1), 2, n) * (-z*q)^n)"),
    "nu2": ("sum(n, 0, N, z^n * q^(n^2+n) * poch(-q, 2, n+1)^(-1))",
            "sum(n, 0, N, poch(z*q, 2, n) * (-q)^n)"),
    "nu3": ("sum(n, 0, N, q^(n^2+n) * x^n * poch(y*q, 2, n+1)^(-1))",
            "sum(n, 0, N, poch(-x*q*y^(-1), 2, n) * (y*q)^n)"),
}

# The distinct polynomial-exact texts: thm21 lhs, (-q;q)_n^2 (thm21 and
# middle rhs), the staircase sum (lemma22 rhs, middle lhs), ay3 and the
# q-binomial theorem.  ``oracle`` names the reference in oracles.py.
EXACT_TEXTS = {
    "thm21_lhs": "sum(s, 0, n, q^s * poch(-q^(s+1), 1, n-s) * qbinom(n+s, s))",
    "neg_q_poch_sq": "poch(-q, 1, n)^2",
    "staircase_sum": "sum(t, 0, n, q^(binom(t+1, 2)) * qbinom(2*n+1, n+1+t))",
    "ay3_lhs": "sum(s, 0, n, q^s * poch(q, 1, n+s) * poch(q^2, 2, s)^(-1))",
    "ay3_rhs": "poch(q^2, 2, n)",
    "qbinom_thm_lhs": "poch(z, 1, n)",
    "qbinom_thm_rhs": "sum(t, 0, n, qbinom(n, t) * (-1)^t * z^t * q^(binom(t, 2)))",
}


def exact_degree(oracle: str, n: int) -> int:
    """q-degree of a polynomial-exact text at parameter n."""
    if oracle.startswith("qbinom_thm"):
        return n * (n - 1) // 2
    return n * (n + 1)


def _dealt(rng: random.Random, base: int, count: int) -> list:
    """The sizes base-3 .. base+3, one each, in the seed's order."""
    sizes = [base + offset for offset in range(-3, 4)]
    rng.shuffle(sizes)
    return sizes[:count]


def _series_verify(rng: random.Random) -> list:
    ops = []
    for iid, T in zip(SERIES_IDS, _dealt(rng, 100, len(SERIES_IDS))):
        ops.append({"kind": "verify", "id": iid, "trunc": T,
                    "argv": ["verify", iid, "--no-comb", "--trunc", str(T)]})
    return ops


def _dsl_eval(rng: random.Random) -> list:
    ops = []
    for iid, T in zip(SERIES_IDS, _dealt(rng, 45, len(SERIES_IDS))):
        lhs, rhs = SERIES_TEXTS[iid]
        ops.append({"kind": "eval_pair", "id": iid, "trunc": T,
                    "argv": ["eval", lhs, rhs, "--bind", f"N={T}",
                             "--trunc", str(T)]})
    for oracle, text in EXACT_TEXTS.items():
        n = 22
        trunc = exact_degree(oracle, n) + 1
        ops.append({"kind": "eval_exact", "oracle": oracle, "n": n,
                    "trunc": trunc,
                    "argv": ["eval", text, "--bind", f"n={n}",
                             "--trunc", str(trunc)]})
    return ops


def _enum_sweep(rng: random.Random) -> list:
    ops = []
    for name in ("phi", "rho", "tau"):
        ops.append({"kind": "bijection", "name": name, "n": 7,
                    "argv": ["bijection", name, "--n", "7"]})
    ops.append({"kind": "bijection", "name": "psi", "n": 13,
                "argv": ["bijection", "psi", "--n", "13"]})
    cap = 50 + rng.randint(-1, 1)
    ops.append({"kind": "bijection", "name": "durfee_split", "cap": cap,
                "argv": ["bijection", "durfee_split", "--cap", str(cap)]})
    cap = 80 + rng.randint(-2, 2)
    ops.append({"kind": "bijection", "name": "nu3", "max_nk": 11, "cap": cap,
                "argv": ["bijection", "nu3", "--max-nk", "11",
                         "--cap", str(cap)]})
    return ops


def _recount(rng: random.Random) -> list:
    ops = []
    for iid in ("thm21", "lemma22", "middle"):
        n = 7
        T = n * (n + 1) + 1
        ops.append({"kind": "verify", "id": iid, "trunc": T,
                    "argv": ["verify", iid, "--n", str(n), "--trunc", str(T)]})
    for iid, T in (("omega1", 48 + rng.randint(-3, 3)), ("nu3", 42)):
        ops.append({"kind": "verify", "id": iid, "trunc": T,
                    "argv": ["verify", iid, "--trunc", str(T),
                             "--cap", str(T - 1)]})
    ops.append({"kind": "table", "max_n": 34,
                "argv": ["table", "--max-n", "34"]})
    return ops


_BUILDERS = {
    "series-verify": _series_verify,
    "dsl-eval": _dsl_eval,
    "enum-sweep": _enum_sweep,
    "recount": _recount,
}


def batch(workload: str, seed: int) -> list:
    """The workload's batch for this seed, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    for op in ops:
        op["argv"] = op["argv"] + ["--format", "json"]
    return ops
