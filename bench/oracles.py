"""Reference values computed apart from the program.

Nothing here imports ``qident``.  Every function works from the
mathematical definition of the object it counts or expands, with plain
lists and dynamic programmes, so that a fault in the program's series
kernel, enumerators or counting functions cannot hide in its own check.

Polynomials are lists of integer coefficients indexed by the q-exponent.
Bivariate polynomials (in z and q) are dicts {(z_exp, q_exp): coeff}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate


# ---------------------------------------------------------------------------
# Polynomials in q as coefficient lists
# ---------------------------------------------------------------------------


def poly_mul(a: list, b: list) -> list:
    """Plain list convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_add(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_shift(a: list, k: int) -> list:
    return [0] * k + list(a)


def binomial_factor(sign: int, exp: int) -> list:
    """The polynomial 1 + sign*q^exp, exp >= 1."""
    return [1] + [0] * (exp - 1) + [sign]


def poly_div_one_minus(a: list, exp: int) -> list:
    """Exact quotient a / (1 - q^exp); raises ValueError on a remainder."""
    out = list(a)
    for i in range(exp, len(out)):
        out[i] += out[i - exp]
    if any(out[len(out) - exp:]):
        raise ValueError(f"not divisible by 1 - q^{exp}")
    return out[: len(out) - exp]


def trim(a: list) -> list:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


@lru_cache(maxsize=None)
def gauss_binom(m: int, k: int) -> tuple:
    """Gaussian binomial [m choose k]_q by the q-Pascal rule
    [m, k] = [m-1, k-1] + q^k [m-1, k]."""
    if k < 0 or k > m:
        return ()
    if k == 0 or k == m:
        return (1,)
    return tuple(poly_add(list(gauss_binom(m - 1, k - 1)),
                          poly_shift(gauss_binom(m - 1, k), k)))


def neg_q_poch_sq(n: int) -> list:
    """(-q;q)_n^2 = ((1+q)(1+q^2)...(1+q^n))^2."""
    p = [1]
    for j in range(1, n + 1):
        p = poly_mul(p, binomial_factor(1, j))
    return poly_mul(p, p)


def staircase_sum(n: int) -> list:
    """sum_t q^(t(t+1)/2) [2n+1 choose n+1+t]_q."""
    total: list = []
    for t in range(n + 1):
        total = poly_add(total, poly_shift(gauss_binom(2 * n + 1, n + 1 + t),
                                           t * (t + 1) // 2))
    return trim(total)


def thm21_lhs(n: int) -> list:
    """sum_s q^s (1+q^(s+1))...(1+q^n) [n+s choose s]_q."""
    total: list = []
    for s in range(n + 1):
        p = list(gauss_binom(n + s, s))
        for j in range(s + 1, n + 1):
            p = poly_mul(p, binomial_factor(1, j))
        total = poly_add(total, poly_shift(p, s))
    return trim(total)


def ay3_lhs(n: int) -> list:
    """sum_s q^s (q;q)_{n+s} / (q^2;q^2)_s, each quotient exact."""
    total: list = []
    for s in range(n + 1):
        p = [1]
        for j in range(1, n + s + 1):
            p = poly_mul(p, binomial_factor(-1, j))
        for j in range(1, s + 1):
            p = poly_div_one_minus(p, 2 * j)
        total = poly_add(total, poly_shift(p, s))
    return trim(total)


def ay3_rhs(n: int) -> list:
    """(q^2;q^2)_n = (1-q^2)(1-q^4)...(1-q^2n)."""
    p = [1]
    for j in range(1, n + 1):
        p = poly_mul(p, binomial_factor(-1, 2 * j))
    return p


# ---------------------------------------------------------------------------
# Bivariate polynomials in z and q
# ---------------------------------------------------------------------------


def qbinom_thm_lhs(n: int) -> dict:
    """(z;q)_n = (1-z)(1-zq)...(1-zq^(n-1)) as {(z_exp, q_exp): coeff}."""
    acc = {(0, 0): 1}
    for k in range(n):
        nxt: dict = {}
        for (a, e), c in acc.items():
            nxt[(a, e)] = nxt.get((a, e), 0) + c
            nxt[(a + 1, e + k)] = nxt.get((a + 1, e + k), 0) - c
        acc = nxt
    return {key: c for key, c in acc.items() if c}


def qbinom_thm_rhs(n: int) -> dict:
    """sum_t [n choose t]_q (-1)^t z^t q^(t(t-1)/2)."""
    out: dict = {}
    for t in range(n + 1):
        for e, c in enumerate(gauss_binom(n, t)):
            if c:
                out[(t, e + t * (t - 1) // 2)] = (-1) ** t * c
    return out


def as_bivariate(poly: list) -> dict:
    return {(0, e): c for e, c in enumerate(poly) if c}


# ---------------------------------------------------------------------------
# Sizes of the finite and weight-capped families
# ---------------------------------------------------------------------------


def size_4n(n: int) -> int:
    """|B1(n)| = |B2(n)| = |B3(n)| = |P_gt(n)| = 4^n."""
    return 4 ** n


def size_p(n: int) -> int:
    """|P(n)|: all subsets of {-n, ..., n}."""
    return 2 ** (2 * n + 1)


def size_psi_side(n: int) -> int:
    """Each side of psi: the subsets of an n-element set."""
    return 2 ** n


def _blocks_table(parts, cap: int, block: int, max_len: int) -> list:
    """t[w][l]: multisets of the given part sizes, each part taken in
    blocks of ``block`` equal copies, by weight w <= cap and length
    l <= max_len."""
    t = [[0] * (max_len + 1) for _ in range(cap + 1)]
    t[0][0] = 1
    for p in parts:
        dw, dl = block * p, block
        for w in range(dw, cap + 1):
            row, prev = t[w], t[w - dw]
            for l in range(dl, max_len + 1):
                row[l] += prev[l - dl]
    return t


def _blocks_by_weight(parts, cap: int, block: int) -> list:
    """u[w]: the same multisets as _blocks_table, of any length."""
    u = [0] * (cap + 1)
    u[0] = 1
    for p in parts:
        for w in range(block * p, cap + 1):
            u[w] += u[w - block * p]
    return u


def _distinct_table(parts, cap: int, max_len: int) -> list:
    """t[w][l]: sets of distinct part sizes by weight w <= cap and length
    l <= max_len."""
    t = [[0] * (max_len + 1) for _ in range(cap + 1)]
    t[0][0] = 1
    for p in parts:
        for w in range(cap, p - 1, -1):
            row, prev = t[w], t[w - p]
            for l in range(max_len, 0, -1):
                row[l] += prev[l - 1]
    return t


def _odd_upto(m: int) -> range:
    return range(1, m + 1, 2)


def size_oe(k: int, cap: int) -> int:
    """OE(k): pairs ((2k+1), nu), nu with odd parts <= 2k+1 each of even
    multiplicity, total weight <= cap."""
    room = cap - (2 * k + 1)
    if room < 0:
        return 0
    return sum(_blocks_by_weight(_odd_upto(2 * k + 1), room, 2))


def size_ds(k: int, cap: int) -> int:
    """DS(k): partitions with largest part 2k+1, odd Durfee side d, the
    parts below the square odd with even multiplicities, and the conjugate
    of the cells right of the square likewise; weight <= cap.

    With Durfee side d the partition is the d x d square, a partition c
    (the conjugate of the right-hand cells) with exactly 2k+1-d parts,
    each at most d, and a partition b below the square with parts at most
    d.  Both c and b have odd parts of even multiplicity, and every such
    choice gives a distinct member of weight d^2 + |c| + |b|.
    """
    total = 0
    for d in _odd_upto(2 * k + 1):
        room = cap - d * d
        cols = 2 * k + 1 - d
        if room < cols:
            continue
        c = _blocks_table(_odd_upto(d), room, 2, cols)
        upto = list(accumulate(_blocks_by_weight(_odd_upto(d), room, 2)))
        total += sum(c[w][cols] * upto[room - w] for w in range(room + 1))
    return total


def size_o(n: int, k: int, cap: int) -> int:
    """O(n, k): the (n+1) x n rectangle paired with a partition into exactly
    k odd parts, each at most 2n+1; weight <= cap."""
    room = cap - n * (n + 1)
    if room < k:
        return 0
    t = _blocks_table(_odd_upto(2 * n + 1), room, 1, k)
    return sum(row[k] for row in t)


def size_do(n: int, k: int, cap: int) -> int:
    """DO(n, k): the one-part partition (n+k) paired with n distinct odd
    parts, each at most 2(n+k)-1; weight <= cap."""
    room = cap - (n + k)
    if room < n:
        return 0
    t = _distinct_table(_odd_upto(2 * (n + k) - 1), room, n)
    return sum(row[n] for row in t)


def size_durfee_sweep(cap: int) -> tuple:
    """Sizes (|DS|, |OE|) summed over every k with 2k+1 <= cap."""
    ks = range((cap - 1) // 2 + 1)
    return sum(size_ds(k, cap) for k in ks), sum(size_oe(k, cap) for k in ks)


def size_nu3_sweep(max_nk: int, cap: int) -> tuple:
    """Sizes (|O|, |DO|) summed over every (n, k) with n + k <= max_nk."""
    pairs = [(n, k) for n in range(max_nk + 1) for k in range(max_nk - n + 1)]
    return (sum(size_o(n, k, cap) for n, k in pairs),
            sum(size_do(n, k, cap) for n, k in pairs))


def domain_size(name: str, n=None, k=None, cap=None) -> int:
    """Size of one named family, by the program's family names."""
    if name in ("B1", "B2", "B3", "P_gt"):
        return size_4n(n)
    if name == "P":
        return size_p(n)
    if name == "DS":
        return size_ds(k, cap)
    if name == "OE":
        return size_oe(k, cap)
    if name == "O":
        return size_o(n, k, cap)
    if name == "DO":
        return size_do(n, k, cap)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Counting functions p_omega and p_nu
# ---------------------------------------------------------------------------


def _admissible(s: int, limit: int) -> list:
    """Parts p >= s allowed when the smallest part is s: every odd part
    must be less than 2s."""
    return [p for p in range(s, limit + 1) if p % 2 == 0 or p < 2 * s]


def p_omega_table(max_n: int) -> list:
    """p_omega(N) for N = 0..max_n: partitions of N whose odd parts are all
    less than twice the smallest part.  Entry 0 is unused."""
    out = [0] * (max_n + 1)
    for s in range(1, max_n + 1):
        # partitions with smallest part exactly s: one s, then any
        # admissible parts
        ways = [0] * (max_n - s + 1)
        ways[0] = 1
        for p in _admissible(s, max_n):
            for w in range(p, len(ways)):
                ways[w] += ways[w - p]
        for w, c in enumerate(ways):
            out[w + s] += c
    return out


def p_nu_table(max_n: int) -> list:
    """p_nu(N) for N = 0..max_n: partitions of N into distinct nonnegative
    parts whose odd parts are all less than twice the smallest part.

    A single part 0 is allowed; it makes 0 the smallest part, so those
    partitions are the partitions of N into distinct even parts.
    """
    out = [0] * (max_n + 1)
    for s in range(1, max_n + 1):
        ways = [0] * (max_n - s + 1)
        ways[0] = 1
        for p in _admissible(s, max_n)[1:]:
            for w in range(len(ways) - 1, p - 1, -1):
                ways[w] += ways[w - p]
        for w, c in enumerate(ways):
            out[w + s] += c
    even = [0] * (max_n + 1)
    even[0] = 1
    for p in range(2, max_n + 1, 2):
        for w in range(max_n, p - 1, -1):
            even[w] += even[w - p]
    return [a + b for a, b in zip(out, even)]
