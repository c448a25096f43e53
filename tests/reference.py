"""A truncated evaluator written apart from qident, the reference that
``test_reference.py`` holds qident's evaluator to, and ``partitions_of``,
the brute-force enumeration the counting tests hold qident's counts to.

It imports nothing from qident and shares none of its rules.  A value is
a Laurent series in q whose coefficients are Laurent polynomials in z and
x, and every operation is written out from its definition: the schoolbook
product, the geometric series for an inverse, Pascal's rule for the
Gaussian binomial.

A value is a triple (lo, hi, rows).  ``rows`` maps an aux exponent pair
(z, x) to a dense list of ints, the coefficients of q^lo, q^(lo+1), ...,
every list of one length.  ``hi`` is None for an exact value, whose lists
end at its last nonzero coefficient; otherwise the value is trusted below
q^hi, its lists end at q^(hi-1), and lo <= hi.  ``canon`` keeps lo at the
lowest nonzero coefficient, so lo is the value's valuation.
"""

ZERO = (0, None, {})
ONE = (0, None, {(0, 0): [1]})


def _min(a, b):
    return b if a is None else a if b is None else min(a, b)


def _width(rows):
    return len(next(iter(rows.values()), ()))


def canon(lo, hi, rows):
    """(lo, hi, rows) with zero rows dropped and the lists cut to run from
    the lowest nonzero coefficient up to hi - 1, or to the last nonzero
    one when exact."""
    rows = {a: r for a, r in rows.items() if any(r)}
    if not rows:
        return ZERO if hi is None else (hi, hi, {})
    first = min(next(i for i, c in enumerate(r) if c) for r in rows.values())
    if hi is None:
        end = max(max(i for i, c in enumerate(r) if c) for r in rows.values()) + 1
    else:
        end = hi - lo
    return lo + first, hi, {a: r[first:end] for a, r in rows.items()}


def term(c, aux, e):
    """The exact monomial c * z^aux[0] * x^aux[1] * q^e."""
    return canon(e, None, {aux: [c]})


def truncate(v, hi):
    lo, old, rows = v
    hi = _min(old, hi)
    lo = min(lo, hi)
    return canon(lo, hi, {a: (r + [0] * (hi - lo))[:hi - lo] for a, r in rows.items()})


def add(a, b):
    lo, hi = min(a[0], b[0]), _min(a[1], b[1])
    end = hi if hi is not None else max(a[0] + _width(a[2]), b[0] + _width(b[2]))
    lo = min(lo, end)
    rows = {}
    for start, _, rs in (a, b):
        for aux, r in rs.items():
            row = rows.setdefault(aux, [0] * (end - lo))
            for i, c in enumerate(r[:max(end - start, 0)]):
                row[start - lo + i] += c
    return canon(lo, hi, rows)


def mul(a, b):
    """The product; an exact zero factor makes it the exact zero."""
    if a == ZERO or b == ZERO:
        return ZERO
    (la, ha, ra), (lb, hb, rb) = a, b
    lo = la + lb
    hi = _min(None if ha is None else ha + lb, None if hb is None else hb + la)
    n = hi - lo if hi is not None else _width(ra) + _width(rb) - 1
    rows = {}
    for xa, r in ra.items():
        for xb, s in rb.items():
            row = rows.setdefault((xa[0] + xb[0], xa[1] + xb[1]), [0] * n)
            for i, c in enumerate(r[:n]):
                if c:
                    part = s[:n - i]
                    row[i:i + len(part)] = [x + c * d for x, d in zip(row[i:], part)]
    return canon(lo, hi, rows)


def inverse(v, order):
    """1 / v, for v whose lowest q-layer is one term +-m*q^lo: exact when v
    is that term alone; else v = +-m*q^lo * u, u = 1 + O(q), is trusted
    below N = hi - lo (order - lo when v is exact), 1/u is solved below q^N
    from u * (1/u) = 1, one q-order at a time, and 1/v is trusted below
    N - lo."""
    lo, hi, rows = v
    (aux0, c0), = ((a, r[0]) for a, r in rows.items() if r[0])
    assert c0 in (1, -1), v
    n = max((order if hi is None else hi) - lo, 0)
    if hi is None and _width(rows) == 1 and len(rows) == 1:
        n, hi = 1, None
    else:
        hi = n - lo
    # u's terms at each q-order i >= 1, shifted by m^-1 and scaled by c0 = 1/c0
    u = [[] for _ in range(n)]
    for a, r in rows.items():
        for i, x in enumerate(r[1:n], 1):
            if x:
                u[i].append(((a[0] - aux0[0], a[1] - aux0[1]), c0 * x))
    # 1/u one q-order at a time: y_k = -sum u_i y_(k-i) over 1 <= i <= k
    y = [{(0, 0): 1}] if n else []
    for k in range(1, n):
        yk = {}
        for i in range(1, k + 1):
            for (bz, bx), c in u[i]:
                for (yz, yx), d in y[k - i].items():
                    key = bz + yz, bx + yx
                    yk[key] = yk.get(key, 0) - c * d
        y.append({a: c for a, c in yk.items() if c})
    rows = {}
    for k, yk in enumerate(y):
        for a, c in yk.items():
            rows.setdefault((a[0] - aux0[0], a[1] - aux0[1]), [0] * n)[k] = c0 * c
    return canon(-lo, hi, rows)


def power(v, k, order):
    """v^k; a negative k inverts v first (``inverse``)."""
    if k < 0:
        v, k = inverse(v, order), -k
    out = ONE
    for _ in range(k):
        out = mul(out, v)
    return out


def poch(base, step, count, order):
    """prod (1 - a * q^(step*i)) over i < count, a the sum of the terms
    c * z^aux[0] x^aux[1] q^v of base, a list of (c, aux, v); count None
    runs over every i with min(v) + step*i < order, every v >= 1, and the
    product is trusted below q^order."""
    out, i = ONE if count is not None else truncate(ONE, order), 0
    low = min(v for _, _, v in base)
    while i < count if count is not None else low + step * i < order:
        factor = ONE
        for c, aux, v in base:
            factor = add(factor, term(-c, aux, v + step * i))
        out = mul(out, factor)
        i += 1
    return out


def qbinom(m, k):
    """The Gaussian binomial [m, k] by Pascal's rule [m, k] = [m-1, k-1] +
    q^k [m-1, k]; zero unless 0 <= k <= m."""
    if not 0 <= k <= m:
        return ZERO
    rows = [[1]]  # rows[j] is [i, j] for the current i
    for i in range(1, m + 1):
        new = []
        for j in range(min(i, k) + 1):
            left = rows[j - 1] if j else []
            right = [0] * j + rows[j] if j < len(rows) else []
            width = max(len(left), len(right))
            new.append([(left[e] if e < len(left) else 0)
                        + (right[e] if e < len(right) else 0) for e in range(width)])
        rows = new
    return canon(0, None, {(0, 0): rows[k]})


def terms(v):
    """{((z, x), q-exponent): coefficient} of v's nonzero coefficients."""
    lo, _, rows = v
    return {(a, lo + i): c for a, r in rows.items() for i, c in enumerate(r) if c}


def partitions_of(n, max_part=None):
    """All partitions of n as decreasing tuples, largest part <= max_part."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest
