"""Exact truncated Laurent-series arithmetic in q over arbitrary-precision integers.

A series maps aux-variable monomials z^a * x^b * y^d (exponents may be
negative) to rows, each a sparse Laurent series in q stored as a plain map
from exponent to nonzero integer coefficient, and has one truncation order
for all its rows.  This is the only storage.  ``MultiSeries`` holds any
number of rows; ``QSeries`` is its subclass for the case whose only
monomial is the trivial one, and is also the view ``qseries()`` gives of a
series free of z, x and y.  Every operation and row primitive is written
once, on ``MultiSeries``; the classes differ only in the class of a result
(a QSeries when every operand is one, a MultiSeries otherwise) and in
their accessors (``QSeries.coeffs``; ``MultiSeries.entries``, a read-only
{monomial: QSeries} view) and reprs.  Other modules read a value only as
its (monomial, q-exponent, coefficient) ``terms()`` and build one only by
``MultiSeries.from_terms``, which sums duplicate terms.

Truncation semantics: ``trunc`` is an exclusive upper bound on the q-exponents
whose coefficients the value guarantees exact.  ``trunc is None`` means every
coefficient is exact (the value is a genuine Laurent polynomial).  Every
operation computes the tightest valid truncation of its result, so garbage
high-order coefficients are never silently trusted.  An int stands for an
exact constant: ``QSeries({0: 1}) == 1``, but ``QSeries({0: 1}, 5) != 1``,
and equal values hash alike across QSeries, MultiSeries and int.

Pochhammer products, their inverses, series inversion, the Gaussian
binomial and exact division run on one factor kernel (the product-form
approach of F. Garvan's q-series package).  A private dense accumulator,
``_Rows``, holds one list of coefficients per aux monomial over a fixed
window of q-exponents, and multiplies or divides it in place by a single
factor 1 - a: multiplying subtracts a shifted, scaled copy of each row,
dividing runs the recurrence y = x + a*y in increasing q-order, which for a
of q-valuation >= 1 reads only finished coefficients.  Each factor costs
O(rows * T) for T exponents, where a generic product or inverse costs
O(T^2) per pair of rows.  ``_Rows.apply`` takes a chain as a map {factor:
net power}; ``poch_finite``, ``poch_infinite``, ``invert_unit``, ``qbinom``
(k(m-k)+1 exponents, k numerator and k denominator factors) and the
expression language's Pochhammer powers are each one such chain, and exact
division divides by factors lead - a (``_exact_quotient``).  ``_Total``
sums series and accumulators as they are made, accumulators trusted below
a truncation order into one dense window, so a sum of many of them costs
the memory of its result.

All values are immutable after construction and all operations are pure;
only the kernel's accumulator, which never leaves this module and the
evaluator, is mutated.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, groupby
from operator import add, itemgetter
from typing import Iterator, Optional

from .errors import (
    DivisionInexact,
    NonConvergent,
    NonUnitConstantTerm,
    TruncationRequired,
)

AUX_VARS = ("z", "x", "y")
TRIVIAL_MONO = (0, 0, 0)

Mono = tuple  # exponent vector over AUX_VARS


def _min_trunc(*truncs: Optional[int]) -> Optional[int]:
    """Minimum of truncation orders, treating None as +infinity."""
    finite = [t for t in truncs if t is not None]
    return min(finite) if finite else None


def _shift_trunc(t: Optional[int], k: int) -> Optional[int]:
    return None if t is None else t + k


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


def mono_str(m: Mono) -> str:
    """Render an aux monomial, e.g. (2,0,-1) -> 'z^2*y^-1'; trivial -> '1'."""
    pieces = []
    for var, e in zip(AUX_VARS, m):
        if e == 1:
            pieces.append(var)
        elif e != 0:
            pieces.append(f"{var}^{e}")
    return "*".join(pieces) if pieces else "1"


# ---------------------------------------------------------------------------
# The arithmetic.  A value stores {monomial: row} in ``_rows``; the classes
# differ only in the result class an operation picks and in what they show.
# ---------------------------------------------------------------------------


def _clean(rows: dict, trunc: Optional[int]) -> dict:
    """The rows without zero coefficients, coefficients at or beyond
    trunc, and rows left empty."""
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
    terms of one monomial, as ``terms()`` lists them."""
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


def _product_trunc(t1: Optional[int], v1: int, t2: Optional[int],
                   v2: int) -> Optional[int]:
    """The truncation order of a product of two factors trusted below t1
    and t2 whose q-valuations are at least v1 and v2."""
    return _min_trunc(_shift_trunc(t1, v2), _shift_trunc(t2, v1))


def _lift(v) -> "MultiSeries":
    """A series as it is; an int as the exact constant QSeries."""
    if isinstance(v, MultiSeries):
        return v
    if isinstance(v, int):
        return QSeries({0: v})
    raise TypeError(f"cannot treat {type(v).__name__} as a series")


def _cls(*values) -> type:
    """The class of a result computed from values: QSeries when every one
    is a QSeries, else MultiSeries."""
    return QSeries if all(isinstance(v, QSeries) for v in values) else MultiSeries


def _row_repr(row: dict, trunc: Optional[int]) -> str:
    parts = []
    for e, c in sorted(row.items()):
        mag = "" if abs(c) == 1 and e != 0 else str(abs(c))
        pow_ = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
        star = "*" if mag and pow_ else ""
        parts.append(("- " if c < 0 else "+ ") + mag + star + pow_)
    body = " ".join(parts).lstrip("+ ") or "0"
    tail = "" if trunc is None else f" + O(q^{trunc})"
    return f"<{body}{tail}>"


class MultiSeries:
    """A finite sum of aux-variable monomials, each weighted by a Laurent
    series in q.

    A value stores {monomial: {q-exponent: nonzero coefficient}} and the
    global q-truncation ``trunc``.  ``entries`` gives the rows as
    {monomial: QSeries}, a read-only view.
    """

    __slots__ = ("_rows", "trunc")

    def __init__(self, entries=None, trunc: Optional[int] = None):
        entries = entries or {}
        t = _min_trunc(trunc, *[s.trunc for s in entries.values()])
        self._rows = _clean({tuple(m): s.coeffs for m, s in entries.items()}, t)
        self.trunc = t

    @classmethod
    def _new(cls, rows: dict, trunc: Optional[int]) -> "MultiSeries":
        """A value of cls holding rows, which must already be clean."""
        s = object.__new__(cls)
        s._rows, s.trunc = rows, trunc
        return s

    @classmethod
    def _from_rows(cls, rows: dict, trunc: Optional[int]) -> "MultiSeries":
        return cls._new(_clean(rows, trunc), trunc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: Optional[int] = None) -> "MultiSeries":
        return cls._new({}, trunc)

    @classmethod
    def one(cls, trunc: Optional[int] = None) -> "MultiSeries":
        return cls._from_rows({TRIVIAL_MONO: {0: 1}}, trunc)

    @classmethod
    def q(cls, exp: int = 1) -> "MultiSeries":
        return cls._new({TRIVIAL_MONO: {exp: 1}}, None)

    @staticmethod
    def from_qseries(qs: "QSeries", mono: Mono = TRIVIAL_MONO) -> "MultiSeries":
        return MultiSeries._new({tuple(mono): qs.coeffs} if qs._rows else {},
                                qs.trunc)

    @staticmethod
    def from_terms(terms, trunc: Optional[int] = None) -> "MultiSeries":
        """The sum of the terms (monomial, q-exponent, coefficient), with
        the truncation order trunc; terms at or beyond it are dropped."""
        return MultiSeries._new(_gather(terms, None, trunc), trunc)

    @staticmethod
    def gen(var: str) -> "MultiSeries":
        """The generator z, x or y as an exact series."""
        i = AUX_VARS.index(var)
        mono = tuple(1 if j == i else 0 for j in range(3))
        return MultiSeries._new({mono: {0: 1}}, None)

    @staticmethod
    def term(coeff: int = 1, qexp: int = 0, z: int = 0, x: int = 0, y: int = 0,
             trunc: Optional[int] = None) -> "MultiSeries":
        return MultiSeries._from_rows({(z, x, y): {qexp: coeff}}, trunc)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._rows

    def min_qexp(self) -> int:
        """Lower bound on q-exponents where any row can be nonzero."""
        if not self._rows:
            return self.trunc if self.trunc is not None else 0
        return min(min(row) for row in self._rows.values())

    min_exp = property(min_qexp)

    def series(self, mono: Mono) -> "QSeries":
        row = self._rows.get(tuple(mono))
        return QSeries._new({TRIVIAL_MONO: row} if row else {}, self.trunc)

    @property
    def entries(self) -> dict:
        """The rows as {monomial: QSeries}, a read-only view."""
        return {m: self.series(m) for m in self._rows}

    def qseries(self) -> "QSeries":
        """View as a plain QSeries; requires no non-trivial aux monomials."""
        extra = [m for m in self._rows if m != TRIVIAL_MONO]
        if extra:
            raise ValueError(f"series involves aux monomial {mono_str(extra[0])}")
        return QSeries._new(self._rows, self.trunc)

    def coefficient(self, mono: Mono, e: int) -> int:
        return self.series(mono).coeff(e)

    def monomials(self):
        return sorted(self._rows)

    def terms(self) -> list:
        """The nonzero terms as (monomial, q-exponent, coefficient)."""
        return [(m, e, c) for m, row in self._rows.items() for e, c in row.items()]

    # -- row primitives, applied to each monomial's row --------------------

    def neg(self) -> "MultiSeries":
        return self._new({m: {e: -c for e, c in row.items()}
                          for m, row in self._rows.items()}, self.trunc)

    def shift_q(self, k: int) -> "MultiSeries":
        """Multiply by q^k (Laurent shift)."""
        return self._new({m: {e + k: c for e, c in row.items()}
                          for m, row in self._rows.items()},
                         _shift_trunc(self.trunc, k))

    shift = shift_q

    def scale(self, c: int) -> "MultiSeries":
        return self._from_rows({m: {e: c * v for e, v in row.items()}
                                for m, row in self._rows.items()}, self.trunc)

    def truncate(self, trunc: Optional[int]) -> "MultiSeries":
        t = _min_trunc(self.trunc, trunc)
        return self if t == self.trunc else self._from_rows(self._rows, t)

    def exact_div(self, divisor) -> "MultiSeries":
        """Each monomial's row divided exactly by a divisor free of z, x
        and y; raises DivisionInexact on any remainder."""
        divisor = _lift(divisor).qseries()
        if self.trunc is not None or divisor.trunc is not None:
            raise TruncationRequired("exact division needs exact polynomials")
        acc, shift = _exact_quotient(self, {}, [(divisor, 1)])
        return acc.series(None, shift=shift, cls=type(self))

    def invert_unit(self, trunc: Optional[int] = None) -> "MultiSeries":
        """Inverse of a series whose q^0 layer is exactly the constant 1.

        Preconditions: no negative q-exponents, no negative aux exponents, and
        the whole coefficient of q^0 equal to the trivial monomial with
        coefficient 1 (so the inverse is again a power series in q).
        """
        t = _min_trunc(self.trunc, trunc)
        terms = self.terms()
        if terms and self.min_exp < 0:
            raise NonUnitConstantTerm("series has terms below q^0")
        for m in self._rows:
            if any(e < 0 for e in m):
                raise NonUnitConstantTerm(
                    f"negative aux exponent in {mono_str(m)} is not invertible"
                )
        if {m: c for m, e, c in terms if e == 0} != {TRIVIAL_MONO: 1}:
            raise NonUnitConstantTerm("q^0 layer is not the constant 1")
        if t is None:
            if len(terms) == 1:
                return self.one()
            raise TruncationRequired("inverse of a non-trivial series is infinite")
        # self = 1 - a, where a holds every term of self above q^0, negated
        acc = _Rows.load(MultiSeries.one(), 0, t)
        acc.apply({tuple((m, e, -c) for m, e, c in terms if e): -1})
        return acc.series(t, cls=type(self))

    invert = invert_unit

    def subst_aux(self, **subs) -> "MultiSeries":
        """Substitute aux variables by +-1 or +-(another variable).

        Accepted values per variable: 1, -1, a variable name, or a pair
        (sign, variable name).  E.g. ``subst_aux(x=1, y=(-1, "z"))`` performs
        x -> 1, y -> -z.
        """
        norm = {}
        for var, val in subs.items():
            idx = AUX_VARS.index(var)
            if val in (1, -1):
                norm[idx] = (val, (0, 0, 0))
            else:
                if isinstance(val, str):
                    sign, target = 1, val
                else:
                    sign, target = val
                j = AUX_VARS.index(target)
                norm[idx] = (sign, tuple(1 if i == j else 0 for i in range(3)))
        image = {}  # monomial -> (its image, sign)
        for mono in self._rows:
            sign_total = 1
            new = [0, 0, 0]
            for i in range(3):
                e = mono[i]
                if e and i in norm:
                    sg, vec = norm[i]
                    if sg == -1 and e % 2:
                        sign_total = -sign_total
                    for j in range(3):
                        new[j] += e * vec[j]
                else:
                    new[i] += e
            image[mono] = tuple(new), sign_total
        return MultiSeries.from_terms(
            [(image[m][0], e, image[m][1] * c) for m, e, c in self.terms()],
            self.trunc,
        )

    # -- arithmetic ----------------------------------------------------------

    def add(self, other) -> "MultiSeries":
        b = _lift(other)
        rows = {m: dict(row) for m, row in self._rows.items()}
        return _cls(self, b)._from_rows(_gather(b.terms(), rows),
                                        _min_trunc(self.trunc, b.trunc))

    def mul(self, other) -> "MultiSeries":
        b = _lift(other)
        cls = _cls(self, b)
        # an exact zero annihilates regardless of the other operand's trunc
        if (not self._rows and self.trunc is None) or (not b._rows and b.trunc is None):
            return cls.zero()
        t = _product_trunc(self.trunc, self.min_exp, b.trunc, b.min_exp)
        rows: dict = {}
        b_rows = [(m, sorted(r.items())) for m, r in b._rows.items()]
        for m1, r1 in self._rows.items():
            for m2, items2 in b_rows:
                acc = rows.setdefault(_mono_mul(m1, m2), {})
                for e1, c1 in r1.items():
                    for e2, c2 in items2:
                        e = e1 + e2
                        if t is not None and e >= t:
                            break
                        acc[e] = acc.get(e, 0) + c1 * c2
        return cls._from_rows(rows, t)

    def power(self, n: int) -> "MultiSeries":
        if n < 0:
            raise ValueError("negative power; use invert or invert_unit")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def first_mismatch(self, other, bound: Optional[int] = None):
        """First differing coefficient below the common truncation.

        Returns (exponent, self-coeff, other-coeff) between two QSeries and
        (monomial, exponent, self-coeff, other-coeff) otherwise, the lowest by
        exponent then monomial, or None when the sides agree.
        """
        b = _lift(other)
        t = _min_trunc(self.trunc, b.trunc, bound)
        ra, rb = self._rows, b._rows
        bad = []
        for m in ra.keys() | rb.keys():
            r1, r2 = ra.get(m, {}), rb.get(m, {})
            if r1 != r2:
                bad += [(e, m, r1.get(e, 0), r2.get(e, 0)) for e in r1.keys() | r2.keys()
                        if (t is None or e < t) and r1.get(e, 0) != r2.get(e, 0)]
        if not bad:
            return None
        e, m, lc, rc = min(bad)
        return (e, lc, rc) if _cls(self, b) is QSeries else (m, e, lc, rc)

    def agrees_below(self, other, bound: Optional[int] = None) -> bool:
        return self.first_mismatch(other, bound) is None

    def __eq__(self, other):
        """An int is an exact constant: it equals an exact series with that
        constant term and no other, and hashes alike.  A series free of z,
        x and y equals, and hashes as, its QSeries."""
        if not isinstance(other, (int, MultiSeries)):
            return NotImplemented
        other = _lift(other)
        return self.trunc == other.trunc and self._rows == other._rows

    def __hash__(self):
        terms = self.terms()
        if self.trunc is None and all(m == TRIVIAL_MONO and e == 0 for m, e, _ in terms):
            return hash(sum(c for _, _, c in terms))
        return hash((frozenset(terms), self.trunc))

    def __sub__(self, other):
        return self.add(_lift(other).neg())

    def __rsub__(self, other):
        return _lift(other).add(self.neg())

    __add__ = __radd__ = add
    __mul__ = __rmul__ = mul
    __pow__, __neg__ = power, neg

    def __repr__(self):
        body = " + ".join(f"{mono_str(m)}*{_row_repr(self._rows[m], self.trunc)}"
                          for m in sorted(self._rows)) or "0"
        tail = "" if self.trunc is None else f" [trunc {self.trunc}]"
        return f"MultiSeries({body}{tail})"


class QSeries(MultiSeries):
    """A Laurent series in q with exact integer coefficients: a MultiSeries
    whose only monomial is the trivial one.

    ``coeffs`` maps exponent -> nonzero coefficient, ``min_exp`` is a lower
    bound on exponents where the represented series can be nonzero, and
    ``trunc`` is the exclusive bound on trusted exponents (None = exact).
    """

    __slots__ = ()

    def __init__(self, coeffs=None, trunc: Optional[int] = None):
        self._rows = _clean({TRIVIAL_MONO: coeffs or {}}, trunc)
        self.trunc = trunc

    @property
    def coeffs(self) -> dict:
        return self._rows.get(TRIVIAL_MONO, {})

    @staticmethod
    def term(coeff: int, exp: int = 0, trunc: Optional[int] = None) -> "QSeries":
        return QSeries({exp: coeff}, trunc)

    def degree(self) -> Optional[int]:
        """Largest stored exponent, or None for the zero series."""
        return max(self.coeffs) if self._rows else None

    def coeff(self, e: int) -> int:
        """Coefficient at exponent e; refuses exponents beyond the truncation."""
        if self.trunc is not None and e >= self.trunc:
            raise TruncationRequired(
                f"coefficient at q^{e} is not trusted (trunc={self.trunc})"
            )
        return self.coeffs.get(e, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.coeffs.items()))

    def eval_at_one(self) -> int:
        """Sum of coefficients (the q -> 1 value); exact polynomials only."""
        if self.trunc is not None:
            raise TruncationRequired("q=1 evaluation needs an exact polynomial")
        return sum(self.coeffs.values())

    def __repr__(self):
        return _row_repr(self.coeffs, self.trunc)


# ---------------------------------------------------------------------------
# Dense factor kernel
# ---------------------------------------------------------------------------


def _solve_row(row: list, low: int, own: list, lead: int = 1) -> None:
    """Divide one dense row, zero below index ``low``, in place by
    lead - sum(c * q^e) over own's (e, c), every e >= 1, in increasing
    q-order; a remainder raises DivisionInexact."""
    if lead != 1:
        for i in range(low, len(row)):
            x = row[i] + sum(c * row[i - e] for e, c in own if e <= i)
            row[i], r = divmod(x, lead)
            if r:
                raise DivisionInexact(f"coefficient {x} not divisible by {lead}")
    elif len(own) == 1:
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
    steps.  The accumulator is private and mutable; ``series`` hands out an
    immutable value.
    """

    __slots__ = ("rows", "low", "lo", "size")

    def __init__(self, lo: int, size: int):
        self.rows: dict = {}
        self.low: dict = {}
        self.lo = lo
        self.size = max(size, 0)

    @staticmethod
    def load(ms: MultiSeries, lo: int, size: int) -> "_Rows":
        acc = _Rows(lo, size)
        for m, coeffs in ms._rows.items():
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
        """Multiply by 1 - a: subtract a shifted, scaled copy of each row
        for each term of a."""
        size, rows, low = self.size, self.rows, self.low
        old, old_low = dict(rows), dict(low)
        for ma, e, c in a:
            if not c:
                continue
            end = size + min(e, 0)
            for m, src in old.items():
                s = max(old_low[m] + e, 0)
                if s >= end:
                    continue
                t = _mono_mul(m, ma)
                dst = self._target(t)
                if dst is old.get(t):
                    dst = rows[t] = dst.copy()
                dst[s:end] = [d - c * x for d, x in zip(dst[s:end], src[s - e:])]
                low[t] = min(low[t], s)

    def div(self, a: list, lead: int = 1) -> None:
        """Divide by lead - a, where every term of a has q-exponent >= 1
        and no negative aux exponent; lead != 1 only in exact division.

        The quotient y solves lead*y = x + a*y.  Rows are finished in
        increasing total aux degree: a row takes the terms of a with the
        trivial monomial by the recurrence in increasing q-order, which
        reads only coefficients already final, and then adds its share to
        the rows of higher degree.
        """
        size, rows, low = self.size, self.rows, self.low
        own = [(e, c) for m, e, c in a if m == TRIVIAL_MONO and c]
        cross = [(m, e, c) for m, e, c in a if m != TRIVIAL_MONO and c]
        # with lead 1, a row zero below size - e_min is left as it is
        last = size if lead != 1 else size - min((e for _, e, c in a if c),
                                                 default=size)
        pending: dict = {}  # total aux degree -> rows to finish
        for m in rows:
            if low[m] < last:
                pending.setdefault(sum(m), []).append(m)
        while pending:
            for m in pending.pop(min(pending)):
                row = rows[m]
                _solve_row(row, low[m], own, lead)
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
        """Multiply by each factor 1 - a to its net power in powers, a map
        {the terms of a: power}: ``mul`` for a positive power, ``div`` for
        a negative one, once per unit of it."""
        for a, k in powers.items():
            step = self.mul if k > 0 else self.div
            for _ in range(abs(k)):
                step(a)

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

    def series(self, trunc: Optional[int], scale: int = 1,
               mono: Mono = TRIVIAL_MONO, shift: int = 0,
               cls: type = MultiSeries) -> MultiSeries:
        """The accumulator times scale * mono * q^shift, scale nonzero, as a
        value of cls with the given truncation order."""
        return cls._new(self.gather({}, trunc, scale, mono, shift), trunc)


class _Total:
    """The running sum of series and accumulators, each added as soon as it
    is made, so that no addend outlives its addition.

    The terms of a series go into sparse rows, as ``_gather`` makes them.
    An accumulator trusted below a truncation order goes into one dense
    total, a ``_Rows`` whose window runs from the lowest exponent of any
    such accumulator up to the least truncation order seen so far: an
    accumulator that starts below the window extends it, and an addend
    trusted below a lower order cuts it.  An exact accumulator goes into
    the sparse rows, since a dense window over an exact sum's exponents
    could cost far more than its terms.  ``value`` turns both into one
    series, once; its truncation order is the least of the addends', None
    when all are exact.
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

    def add(self, value: MultiSeries) -> None:
        self._lower(value.trunc)
        _gather(value.terms(), self.rows)

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

    def value(self) -> MultiSeries:
        t, rows = self.trunc, self.rows
        if t is not None:
            dense = {} if self.dense is None else self.dense.gather({}, t)
            rows = _gather(((m, e, c) for m, row in rows.items()
                            for e, c in row.items()), dense, t)
        return MultiSeries._new(rows, t)


def _span(a) -> int:
    """The q-degree of 1 - a, for a whose terms have q-exponent >= 1."""
    return max((e for _, e, c in a if c), default=0)


def _exact_quotient(value: MultiSeries, powers: dict, divisors: list) -> tuple:
    """(acc, shift): the exact value times each factor 1 - a to its net
    power in powers ({a: power}), divided by each d^k in divisors ([(d, k)],
    d free of z, x and y), as acc read at q^shift.  The window holds the
    undivided product and the divisions come last, so a quotient vanishing
    above its degree is exact; any other, or a zero d, is DivisionInexact."""
    steps, shift = [(a, 1, -k) for a, k in powers.items() if k < 0], 0
    for d, k in divisors:
        if d.is_zero():
            raise DivisionInexact("division by zero")
        (v, lead), *rest = sorted(d.qseries().coeffs.items())  # q^v (lead - a)
        steps.append((tuple((TRIVIAL_MONO, e - v, -c) for e, c in rest), lead, k))
        shift -= k * v
    if value.is_zero():
        return _Rows(0, 0), 0
    grown = {a: k for a, k in powers.items() if k > 0}
    lo, span = value.min_qexp(), sum(k * _span(a) for a, _, k in steps)
    size = (max(max(row) for row in value._rows.values()) - lo + 1
            + sum(k * _span(a) for a, k in grown.items()))
    if span >= size:
        raise DivisionInexact("dividend degree span below divisor's")
    acc = _Rows.load(value, lo, size)
    acc.apply(grown)
    for a, lead, k in steps:
        for _ in range(k):
            acc.div(a, lead)
    if any(any(row[size - span:]) for row in acc.rows.values()):
        raise DivisionInexact("nonzero remainder")
    return acc, shift


# ---------------------------------------------------------------------------
# Pochhammer products and the Gaussian binomial
# ---------------------------------------------------------------------------


def _factor_valuation(a: list, j: int) -> Optional[int]:
    """Lowest q-exponent with a nonzero coefficient in 1 - a*q^j, or None
    when it is zero.  Only the 1 can cancel, against a term 1*q^(-j)."""
    one = (TRIVIAL_MONO, -j, 1)
    exps = [e + j for m, e, c in a if (m, e, c) != one]
    if one not in a:
        exps.append(0)
    return min(exps, default=None)


def poch_finite(a, step: int, count: int, trunc: Optional[int] = None):
    """The finite product prod_{k=0}^{count-1} (1 - a*q^(step*k)).

    Exact (a polynomial) when ``a`` is exact and ``trunc`` is None; passing a
    truncation order merely prunes high-order terms early.  The factors are
    applied one by one to a dense accumulator.
    """
    if step <= 0:
        raise ValueError("step must be a positive integer")
    if count < 0:
        raise ValueError("count must be nonnegative")
    ms = _lift(a)
    terms = ms.terms()
    shifts = [step * k for k in range(count)]
    # the truncation order a factor-by-factor product would derive
    t, low, lo, hi = None, 0, 0, 1
    for j in shifts:
        v = _factor_valuation(terms, j)
        f_t = _shift_trunc(ms.trunc, j)
        if v is None and f_t is None:  # an exact zero factor
            t = None
        else:
            v = f_t if v is None else v
            t = _product_trunc(t, low, f_t, v)
        if trunc is not None:
            t = trunc if t is None else min(t, trunc)
        low += v or 0
        lo += min(v or 0, 0)
        hi += max([0] + [e + j for _, e, _ in terms])
    # a coefficient below t is a sum of products whose partial products lie
    # below t - lo, so the window [lo, t - lo) keeps them all
    acc = _Rows.load(MultiSeries.one(), lo, (hi if t is None else t - lo) - lo)
    acc.apply({tuple((m, e + j, c) for m, e, c in terms): 1 for j in shifts})
    return acc.series(t, cls=_cls(a))


def poch_infinite(a, step: int, trunc: int):
    """The infinite product prod_{k>=0} (1 - a*q^(step*k)), truncated.

    Requires ``a`` to carry strictly positive q-degree so that all but
    finitely many factors are 1 modulo q^trunc; the others are applied one
    by one to a dense accumulator.
    """
    if step <= 0:
        raise ValueError("step must be a positive integer")
    ms = _lift(a)
    d = ms.min_exp
    if not ms.is_zero() and d <= 0:
        raise NonConvergent(f"factor base has q-degree {d} <= 0")
    # 1 - a is trusted below a's own order even where a has no terms
    t = _min_trunc(trunc, ms.trunc)
    terms = ms.terms()
    acc = _Rows.load(MultiSeries.one(), 0, t)
    acc.apply({tuple((m, e + j, c) for m, e, c in terms): 1
               for j in range(0, trunc - d, step)})
    return acc.series(t, cls=_cls(a))


@lru_cache(maxsize=None)
def qbinom(m: int, k: int) -> QSeries:
    """The Gaussian binomial coefficient as an exact polynomial in q.

    Zero when k < 0 or k > m; otherwise a polynomial with nonnegative
    coefficients and degree k*(m-k).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 0 or k > m:
        return QSeries.zero()
    k = min(k, m - k)
    # the product of the (1 - q^(m-k+i)) / (1 - q^i) over i = 1..k, a
    # polynomial of degree k(m-k), so exact on the window of that many + 1
    # exponents; for k <= m - k no numerator factor cancels a denominator
    acc = _Rows.load(QSeries.one(), 0, k * (m - k) + 1)
    acc.apply({((TRIVIAL_MONO, j, 1),): power for i in range(1, k + 1)
               for j, power in ((m - k + i, 1), (i, -1))})
    return acc.series(None, cls=QSeries)


@lru_cache(maxsize=None)
def qq_factorial(m: int) -> QSeries:
    """The product (1-q)(1-q^2)...(1-q^m) as an exact polynomial."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return poch_finite(QSeries.q(), 1, m)
