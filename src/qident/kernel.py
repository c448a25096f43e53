"""The factor kernel: one dense accumulator for Pochhammer products, their
inverses, series inversion and the Gaussian binomial, and under the exact
products and divisions of ``qident.exact``.

It works on plain rows, the storage of every series: a map {aux monomial:
{q-exponent: nonzero coefficient}}, with a truncation order beside it
(None when every coefficient is exact).  It imports nothing from
``qident.series``, which builds its values from what this module returns,
and it holds the row and truncation-order helpers that ``series`` imports
back.

The accumulator follows the product-form approach of F. Garvan's q-series
package.  ``_Rows`` holds one list of coefficients per aux monomial over a
fixed window of q-exponents, and multiplies or divides it in place by a
single factor 1 - a.  Multiplying takes every term of a at q^0 or above
and subtracts a shifted, scaled copy of each row.  Dividing takes every
term of a at q^1 or above and runs the recurrence y = x + a*y in
increasing q-order, which then reads only finished coefficients; it
refuses any other a, on which it would never finish.  Each factor costs
O(rows * T) for T exponents, where a generic product or inverse costs
O(T^2) per pair of rows.  ``_Rows.apply`` takes a chain as a map
{factor: net power}, which ``_chain_factors`` lists for Pochhammer powers
of a monomial, and takes each factor to its power k in one step: for a =
c*m*q^j, (1 - a)^k is one factor 1 - b whose min(|k|, T/j) terms are the
binomial series below the window (``_factor_power``), so it costs
O(rows * T * min(|k|, T/j)), not |k| times a factor's cost.  Series
inversion, Gaussian binomials, the factors of a Pochhammer product after
those that reach q^0 (``series_ops._poch``) and the expression language's
Pochhammer and q-binomial powers are each one such chain.  A power k < 0
or k > 1 whose coefficients in the window could pass MAX_POWER_BITS bits
is refused before its step (``budget._check_power``, loaded on first
use).  ``_Total`` sums rows and accumulators as they are made,
accumulators trusted below a truncation order into one dense window, so a
sum of many of them costs the memory of its result.

The accumulator is the only mutable value, and it never leaves this
module, ``qident.exact`` and the evaluator (``qident.dsl``): what leaves
them are plain rows, which ``series`` and the evaluator wrap in immutable
values.
"""

from __future__ import annotations

from itertools import accumulate, chain, groupby
from operator import add, itemgetter
from typing import Optional

TRIVIAL_MONO = (0, 0, 0)

Mono = tuple  # exponent vector over the aux variables z, x, y

# the plain rows of the constant 1
_ONE = {TRIVIAL_MONO: {0: 1}}


def _min_trunc(*truncs: Optional[int]) -> Optional[int]:
    """Minimum of truncation orders, treating None as +infinity."""
    finite = [t for t in truncs if t is not None]
    return min(finite) if finite else None


def _shift_trunc(t: Optional[int], k: int) -> Optional[int]:
    return None if t is None else t + k


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


def _terms(rows: dict):
    """The terms (monomial, q-exponent, coefficient) of plain rows."""
    return ((m, e, c) for m, row in rows.items() for e, c in row.items())


def _clean(rows: dict, trunc: Optional[int]) -> dict:
    """The rows made clean: without zero coefficients, coefficients at or
    beyond trunc, and rows left empty."""
    out = {}
    for m, row in rows.items():
        row = {e: c for e, c in row.items() if c and (trunc is None or e < trunc)}
        if row:
            out[m] = row
    return out


def _gather(terms, rows: Optional[dict] = None,
            trunc: Optional[int] = None) -> dict:
    """The merge-add: clean rows {monomial: row}, new or changed in place,
    with the terms (monomial, q-exponent, coefficient) below trunc added
    in.  They stay clean (see ``_clean``): a coefficient that sums to zero
    and a row left empty are dropped.  A row is looked up once per run of
    terms of one monomial, as ``_terms`` lists them."""
    rows = {} if rows is None else rows
    for m, run in groupby(terms, itemgetter(0)):
        row = rows.setdefault(m, {})
        for _, e, c in run:
            if trunc is None or e < trunc:
                c += row.get(e, 0)
                if c:
                    row[e] = c
                else:
                    row.pop(e, None)
        if not row:
            del rows[m]
    return rows


# ---------------------------------------------------------------------------
# Dense factor kernel
# ---------------------------------------------------------------------------


def _solve_row(row: list, low: int, own: list) -> None:
    """Divide one dense row, zero below index ``low``, in place by 1 - a,
    a = sum(c * q^e) over own's (e, c), every e >= 1, in increasing
    q-order."""
    if len(own) == 1:
        ((e, c),) = own
        step = add if c == 1 else (lambda acc, x: x + c * acc)
        # the recurrence row[i] += c * row[i - e] runs apart on each residue
        # class mod e
        for r in range(low, low + e):
            row[r::e] = accumulate(row[r::e], step)
    elif own:
        for i in range(low + 1, len(row)):
            row[i] += sum(c * row[i - e] for e, c in own if e <= i)


class _Rows:
    """The dense accumulator of the factor kernel.

    ``rows`` maps an aux monomial to a list of ``size`` integers, the
    coefficients of q^lo .. q^(lo + size - 1); ``low`` maps it to an index
    below which that list is zero, so the work on a row starts there.
    ``mul`` and ``div`` multiply and divide in place by one factor 1 - a,
    given as the terms of a; whatever falls outside the window is dropped,
    so every coefficient in it is exact.  ``apply`` runs a chain of such
    steps.  ``load`` fills it from plain rows and ``gather`` reads it back
    into them.
    """

    __slots__ = ("rows", "low", "lo", "size")

    def __init__(self, lo: int, size: int):
        self.rows: dict = {}
        self.low: dict = {}
        self.lo = lo
        self.size = max(size, 0)

    @staticmethod
    def load(rows: dict, lo: int, size: int) -> "_Rows":
        """The plain rows' coefficients inside the window of ``size``
        q-exponents from q^lo."""
        acc = _Rows(lo, size)
        for m, coeffs in rows.items():
            inside = {e - lo: c for e, c in coeffs.items() if 0 <= e - lo < acc.size}
            if inside:
                row = acc.rows[m] = [0] * acc.size
                for i, c in inside.items():
                    row[i] = c
                acc.low[m] = min(inside)
        return acc

    def shrink(self, size: int) -> None:
        """Cut the window to its first ``size`` q-exponents, size >= 1, and
        drop the rows that are zero in it."""
        self.size = size
        for m, row in list(self.rows.items()):
            del row[size:]
            if not any(row):
                del self.rows[m], self.low[m]

    def _target(self, m: Mono) -> list:
        """The row of m, made (zero) if it is absent."""
        if m not in self.rows:
            self.rows[m] = [0] * self.size
            self.low[m] = self.size
        return self.rows[m]

    def mul(self, a: list) -> None:
        """Multiply by 1 - a, where every term of a has q-exponent >= 0:
        subtract a shifted, scaled copy of each row for each term of a."""
        size, rows, low = self.size, self.rows, self.low
        old, old_low = dict(rows), dict(low)
        for ma, e, c in a:
            if not c:
                continue
            for m, src in old.items():
                s = old_low[m] + e
                if s >= size:
                    continue
                t = _mono_mul(m, ma)
                dst = self._target(t)
                if dst is old.get(t):
                    dst = rows[t] = dst.copy()
                dst[s:] = [d - c * x for d, x in zip(dst[s:], src[s - e:])]
                low[t] = min(low[t], s)

    def div(self, a: list) -> None:
        """Divide by 1 - a, where every term of a has q-exponent >= 1 and
        no negative aux exponent.

        The quotient y solves y = x + a*y.  Rows are finished in
        increasing total aux degree: a row takes the terms of a with the
        trivial monomial by the recurrence in increasing q-order, which
        reads only coefficients already final, and then adds its share to
        the rows of higher degree.
        """
        size, rows, low = self.size, self.rows, self.low
        own = [(e, c) for m, e, c in a if m == TRIVIAL_MONO and c]
        cross = [(m, e, c) for m, e, c in a if m != TRIVIAL_MONO and c]
        # a row zero below size - e_min is left as it is; a term below
        # q^1 would hand rows on to each other without end
        e_min = min((e for _, e, c in a if c), default=max(size, 1))
        if e_min < 1:
            raise ValueError(f"cannot divide by a factor with a term at q^{e_min}")
        last = size - e_min
        pending: dict = {}  # total aux degree -> rows to finish
        for m in rows:
            if low[m] < last:
                pending.setdefault(sum(m), []).append(m)
        while pending:
            for m in pending.pop(min(pending)):
                row = rows[m]
                _solve_row(row, low[m], own)
                for ma, e, c in cross:
                    s = low[m] + e
                    if s >= size:
                        continue
                    t = _mono_mul(m, ma)
                    fresh = low.get(t, size) >= last
                    dst = self._target(t)
                    dst[s:] = [d + c * x for d, x in zip(dst[s:], row[low[m]:])]
                    low[t] = min(low[t], s)
                    if fresh and s < last:
                        pending.setdefault(sum(t), []).append(t)

    def apply(self, powers: dict) -> None:
        """Multiply by each factor 1 - a to its net power k in powers, a map
        {the terms of a: k}, in one step each: ``mul`` for k > 0 and ``div``
        for k < 0 by 1 - a, or for |k| > 1, a then one term, by (1 - a)^|k|
        (``_factor_power``).  A power k < 0 or k > 1 is checked
        (``budget._check_power``) before its step."""
        for a, k in powers.items():
            if k < 0 or k > 1:
                from .budget import _check_power

                _check_power(a, k, self.size)
            if abs(k) > 1:
                a = _factor_power(a, k, self.size)
            if k:
                (self.mul if k > 0 else self.div)(a)

    def add(self, other: "_Rows", scale: int, mono: Mono, shift: int) -> None:
        """Add other times scale * mono * q^shift in place.  The window
        first reaches down to other's lowest exponent; what lies at or
        above its top is dropped."""
        start = other.lo + shift
        if start < self.lo:
            pad = [0] * (self.lo - start)
            for m, row in self.rows.items():
                row[:0] = pad
                self.low[m] += len(pad)
            self.lo, self.size = start, self.size + len(pad)
        d = start - self.lo
        end = min(self.size, d + other.size)
        for m, src in other.rows.items():
            s = d + other.low[m]
            if s < end:
                t = _mono_mul(m, mono)
                dst = self._target(t)
                dst[s:end] = [x + scale * y for x, y in zip(dst[s:end], src[s - d:])]
                self.low[t] = min(self.low[t], s)

    def gather(self, rows: dict, trunc: Optional[int], scale: int = 1,
               mono: Mono = TRIVIAL_MONO, shift: int = 0) -> dict:
        """The clean rows {monomial: row}, changed in place, with the
        accumulator times scale * mono * q^shift, scale nonzero, added in
        below trunc."""
        off = self.lo + shift
        stop = self.size if trunc is None else max(min(self.size, trunc - off), 0)
        for m, row in self.rows.items():
            low = self.low[m]
            out = {i + off: scale * c for i, c in enumerate(row[low:stop], low) if c}
            if out:
                t = _mono_mul(m, mono)
                if t in rows:
                    _gather(((t, e, c) for e, c in out.items()), rows)
                else:
                    rows[t] = out
        return rows


def _factor_power(a: tuple, k: int, size: int) -> list:
    """The terms of b, 1 - b = (1 - a)^|k| below q^size, for a one term
    c*m*q^j: b = -sum_{i >= 1} C(|k|, i) (-a)^i, of min(|k|, (size - 1) // j)
    terms (|k| for j = 0)."""
    ((m, j, c),), n = a, abs(k)
    b, coef = [], -1
    for i in range(1, min(n, (size - 1) // j if j else n) + 1):
        coef = coef * (n - i + 1) * -c // i
        b.append((tuple(i * e for e in m), i * j, coef))
    return b


def _chain_factors(chains: list, size: Optional[int]) -> dict:
    """{((m, j, c),): net power}, the factors 1 - c*m*q^j, j < size, of chains,
    a list per factor of ((c, m, v, step, count), k) = poch(c*m*q^v, step,
    count)^k: j = v + step*i, i < count (any i for count None)."""
    powers: dict = {}
    for (c, mono, v, step, count), k in chain.from_iterable(chains):
        stop = size if count is None else v + step * count
        for j in range(v, stop if size is None else min(stop, size), step):
            a = ((mono, j, c),)
            powers[a] = powers.get(a, 0) + k
    return powers


def _qbinom_chains(m: int, k: int) -> list:
    """[m, k], 0 <= k <= m, as its factors (1 - q^(m-j+i)) / (1 - q^i), i = 1..j,
    j = min(k, m - k), one chain each: applied in turn at a truncation order,
    the partial products [m-j+i, i] stay small; exactly, divisions run last."""
    j = min(k, m - k)
    return [((1, TRIVIAL_MONO, e, 1, 1), p) for i in range(1, j + 1)
            for e, p in ((m - j + i, 1), (i, -1))]


class _Total:
    """The running sum of plain rows and accumulators, each added as soon
    as it is made, so that no addend outlives its addition.

    Plain rows go into sparse rows, as ``_gather`` makes them.
    An accumulator trusted below a truncation order goes into one dense
    total, a ``_Rows`` whose window runs from the lowest exponent of any
    such accumulator up to the least truncation order seen so far: an
    accumulator that starts below the window extends it, and an addend
    trusted below a lower order cuts it.  An exact accumulator goes into
    the sparse rows, since a dense window over an exact sum's exponents
    could cost far more than its terms.  ``value`` turns both into one set
    of plain rows, once; their truncation order is the least of the
    addends', None when all are exact.
    """

    __slots__ = ("rows", "dense", "trunc")

    def __init__(self):
        self.rows: dict = {}
        self.dense: Optional[_Rows] = None
        self.trunc: Optional[int] = None

    def _lower(self, trunc: Optional[int]) -> None:
        if trunc is None or (self.trunc is not None and trunc >= self.trunc):
            return
        self.trunc, dense = trunc, self.dense
        if dense is not None:
            if trunc > dense.lo:
                dense.shrink(trunc - dense.lo)
            else:
                self.dense = None

    def add(self, rows: dict, trunc: Optional[int]) -> None:
        """Add plain rows trusted below trunc."""
        self._lower(trunc)
        _gather(_terms(rows), self.rows)

    def add_rows(self, acc: _Rows, trunc: Optional[int], scale: int,
                 mono: Mono, shift: int) -> None:
        """Add acc times scale * mono * q^shift, trusted below trunc (None
        for an exact accumulator), scale nonzero."""
        if trunc is None:
            acc.gather(self.rows, None, scale, mono, shift)
            return
        self._lower(trunc)
        if self.dense is None:
            self.dense = _Rows(self.trunc, 0)
        self.dense.add(acc, scale, mono, shift)

    def value(self) -> tuple:
        """The sum as (clean rows, truncation order)."""
        t, rows = self.trunc, self.rows
        if t is not None:
            dense = {} if self.dense is None else self.dense.gather({}, t)
            rows = _gather(_terms(rows), dense, t)
        return rows, t
