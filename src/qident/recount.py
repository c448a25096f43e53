"""The identities' recounts, loaded on first use: the enumeration sides,
the brute-force counting functions and the q = 1 limit's subset count,
with ``s_sum``, a closed form no registry side uses.

``qident.identities`` keeps the registry, the closed sides and
``verify``.  A registry case names each enumeration side by the builder
``_comb_<name>`` here, which ``identities._comb`` calls; ``verify``
imports ``q1_limit_check`` for the integer identity, and ``identities``
serves every public name of this module (PEP 562) to its callers.  So
only ``verify`` with enumeration sides, ``verify q1limit`` and ``table``
load this module.  The counts and the enumeration sides are made apart
from the evaluator, which is what makes them a check; ``s_sum`` and the
counting series evaluate texts.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb
from operator import add
from typing import Optional

from .identities import _require_trunc, build_side
from .series import MultiSeries, QSeries

# the largest n whose right side q1_limit_check recounts, in 4^n subsets
PIVOT_MAX_N = 7


# ---------------------------------------------------------------------------
# An integer identity recounted, and a closed form off the registry
# ---------------------------------------------------------------------------


def s_sum(n: int, i: int, trunc: Optional[int] = None) -> QSeries:
    """The polynomial sum over s of q^(i*s) * (q;q)_{n+s} / (q^2;q^2)_s.

    This is the ay3 left side with q^s generalised to q^(i*s), evaluated
    exactly as expression-language text: each summand's Pochhammer factors
    run on one kernel window, divisions last, and a remainder, which would
    signal a bug since every summand is a polynomial, raises DivisionInexact.
    """
    from .dsl import evaluate

    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    total = evaluate(
        "sum(s, 0, n, q^(i*s) * poch(q, 1, n+s) * poch(q^2, 2, s)^(-1))",
        {"n": n, "i": i}).qseries()
    return total if trunc is None else total.truncate(trunc)


def q1_limit_check(n: int) -> dict:
    """Integer identity sum_s 2^(n-s)*C(n+s,s) = sum_t C(2n+1,n+1+t) = 4^n.

    For small n the right side is also recounted by enumerating subsets of
    {1..2n+1} with at least n+1 elements, grouped by their (n+1)-th smallest
    element; each group must match the corresponding left-side term.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = sum(2 ** (n - s) * comb(n + s, s) for s in range(n + 1))
    rhs = sum(comb(2 * n + 1, n + 1 + t) for t in range(n + 1))
    power = 4**n
    pivot_ok = None
    if n <= PIVOT_MAX_N:
        counts: Counter = Counter()
        for r in range(n + 1, 2 * n + 2):
            for combo in combinations(range(1, 2 * n + 2), r):
                counts[combo[n]] += 1
        pivot_ok = sum(counts.values()) == rhs and all(
            counts.get(n + 1 + s, 0) == 2 ** (n - s) * comb(n + s, s)
            for s in range(n + 1)
        )
    return {"lhs": lhs, "rhs": rhs, "power": power, "pivot_ok": pivot_ok}


# ---------------------------------------------------------------------------
# Counting oracles
# ---------------------------------------------------------------------------


def _toggle(f, p, sign, up):
    """Add (sign 1) or remove (sign -1) the part p, p >= 0, in place, where
    f[w] counts the partitions of w into the allowed parts: f times
    (1 - q^p)^(-sign) when parts repeat, (1 + q^p)^sign when they are
    distinct.  Both are the step f[w] += sign * f[w - p] for w >= p: in
    increasing w (``up``) it reads the new f[w - p], which divides, else
    the old one, which multiplies.  Part 0 changes nothing."""
    ws = range(p, len(f)) if p else ()
    for w in ws if up else reversed(ws):
        f[w] += sign * f[w - p]


def counts(N: int, distinct: bool = False) -> list:
    """p_omega(n) for n = 0..N, or p_nu(n) when ``distinct``, in one pass
    over the smallest part s with O(N^2) integer additions; entry 0 is no
    value of either function.

    Besides one s, a partition counted at s has parts from A_s = {s, ...,
    2s - 1} and the even parts >= 2s, or, for p_nu, distinct parts from B_s,
    A_s without s.  So with f[w] counting the partitions of w into those
    parts, f shifted by s counts the partitions with smallest part s.  A_s
    is A_(s-1) without s - 1 and with 2s - 1, and B_s is B_(s-1) without s
    and with 2s - 1.  Taking A_0 and B_0 as the even parts, f starts as the
    partitions into even parts, and each s adds one part and removes one
    (``_toggle``); at s = 1, A_0 loses part 0 and B_0 gains part 1 and
    loses it again, which changes nothing.  For p_nu, s = 0 counts too: the
    partitions into distinct even parts, each with its zero part, which is
    where f starts.  Only lists of integers are used: nothing here reads
    the series side.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    f = [1] + [0] * N
    for p in range(2, N + 1, 2):
        _toggle(f, p, 1, not distinct)
    total = [distinct * x for x in f]
    for s in range(1, N + 1):
        _toggle(f, 2 * s - 1, 1, not distinct)
        _toggle(f, s - 1 + distinct, -1, distinct)
        total[s:] = map(add, total[s:], f)
    return total


def p_omega(N: int) -> int:
    """Partitions of N in which every odd part is less than twice the
    smallest part: entry N of ``counts(N)``."""
    return counts(N)[N]


def p_nu(N: int) -> int:
    """Partitions of N with distinct nonnegative parts in which every odd
    part is less than twice the smallest part: entry N of ``counts(N,
    True)``.

    A single part 0 is admissible; a partition carrying it has smallest part
    0, so it may not contain any odd part.  Dropping the zero-part convention
    would undercount by exactly the partitions into distinct even parts.
    """
    return counts(N, True)[N]


# ---------------------------------------------------------------------------
# Counting series
# ---------------------------------------------------------------------------


def p_omega_series(trunc: int) -> QSeries:
    """Single-variable counting series from the ay1 left side at z = 1."""
    return build_side("ay1", "lhs", None, trunc).subst_aux(z=1).qseries()


def p_nu_series(trunc: int) -> QSeries:
    """Single-variable counting series from the ay2 left side at z = 1."""
    return build_side("ay2", "lhs", None, trunc).subst_aux(z=1).qseries()


# ---------------------------------------------------------------------------
# Enumeration-based side builders
# ---------------------------------------------------------------------------


def _weights_gf(weights) -> MultiSeries:
    """Sum q^weight over an iterable of weights, as a MultiSeries."""
    from .partitions import weight_gf

    return MultiSeries.from_qseries(weight_gf(weights))


def _comb_b1(p, trunc):
    from .partitions import enumerate_domain

    return _weights_gf(e.weight for e in enumerate_domain("B1", n=p["n"]))


def _comb_b2(p, trunc):
    from .partitions import enumerate_domain

    return _weights_gf(t * (t + 1) // 2 + nu.weight
                       for t, nu in enumerate_domain("B2", n=p["n"]))


def _comb_p_gt(p, trunc):
    # recount the staircase side by pushing P_> elements through rho and
    # shifting the run weight back to zero
    from .bijections import rho
    from .partitions import b3_weight, enumerate_domain

    n = p["n"]
    off = n * (n + 1) // 2
    return _weights_gf(b3_weight(n, rho(n, lam)) + off
                       for lam in enumerate_domain("P_gt", n=n))


def _comb_omega1(domain, p, trunc):
    """z^(2k+1) q^weight over the DS or OE elements of every k."""
    from .partitions import enumerate_domain

    T = _require_trunc(trunc, f"{domain} enumeration")
    cap = T - 1
    return MultiSeries.from_terms(
        (((2 * k + 1, 0, 0), elt.weight, 1)
         for k in range((cap + 1) // 2)
         for elt in enumerate_domain(domain, k=k, weight_cap=cap)),
        T,
    )


def _comb_nu3(domain, p, trunc):
    """x^n y^k q^weight over the O or DO elements of every (n, k)."""
    from .partitions import enumerate_domain

    T = _require_trunc(trunc, f"{domain} enumeration")
    cap = T - 1
    terms = []
    n = 0
    while n * n + n <= cap:
        for k in range(cap - n * n - n + 1):
            for pair in enumerate_domain(domain, n=n, k=k, weight_cap=cap):
                terms.append(((0, n, k), pair.weight, 1))
        n += 1
    return MultiSeries.from_terms(terms, T)
