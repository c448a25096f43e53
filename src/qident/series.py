"""Exact truncated Laurent-series arithmetic in q over arbitrary-precision integers.

A series maps aux-variable monomials z^a * x^b * y^d (exponents may be
negative) to rows, each a sparse Laurent series in q stored as a map from
exponent to nonzero integer coefficient.  ``MultiSeries`` holds any number
of rows; ``QSeries``, the univariate case, holds one row and is also the
view ``MultiSeries.qseries`` gives of a series free of z, x and y.  There
is one arithmetic: each operation (add, mul, power, comparison, ==, hash,
the operators) is one function shared by both classes, working per
monomial or pair of monomials.  A QSeries and a MultiSeries combine, in
either order, to a MultiSeries.  Other modules read a value only as its
(monomial, q-exponent, coefficient) ``terms()`` and build one only by
``MultiSeries.from_terms``, which sums duplicate terms.

Truncation semantics: ``trunc`` is an exclusive upper bound on the q-exponents
whose coefficients the value guarantees exact.  ``trunc is None`` means every
coefficient is exact (the value is a genuine Laurent polynomial).  Every
operation computes the tightest valid truncation of its result, so garbage
high-order coefficients are never silently trusted.  An int stands for an
exact constant: ``QSeries({0: 1}) == 1``, but ``QSeries({0: 1}, 5) != 1``,
and equal values hash alike across QSeries, MultiSeries and int.

Pochhammer products, their inverses and series inversion run on one factor
kernel (the product-form approach of F. Garvan's q-series package).  A
private dense accumulator, ``_Rows``, holds one list of coefficients per
aux monomial over a fixed window of q-exponents, and multiplies or divides
it in place by a single factor 1 - a: multiplying subtracts a shifted,
scaled copy of each row, dividing runs the recurrence y = x + a*y in
increasing q-order, which for a of q-valuation >= 1 reads only finished
coefficients.  Each factor costs O(rows * T) for T exponents, where a
generic product or inverse costs O(T^2) per pair of rows.
``poch_finite``, ``poch_infinite`` and ``invert_unit`` are chains of such
factors, and the expression language applies powers of Pochhammer products
to one accumulator the same way.

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
# The arithmetic of both classes.  Each class gives its (monomial, row)
# pairs by ``_rows`` and builds a value from {monomial: row} by ``_from_rows``.
# ---------------------------------------------------------------------------


def _gather(terms, rows: Optional[dict] = None) -> dict:
    """The merge-add: rows {monomial: row}, new or changed in place, with
    the terms (monomial, q-exponent, coefficient) added in; a row is looked
    up once per run of terms of one monomial, as ``terms()`` lists them."""
    rows = {} if rows is None else rows
    for m, run in groupby(terms, itemgetter(0)):
        row = rows.setdefault(m, {})
        for _, e, c in run:
            row[e] = row.get(e, 0) + c
    return rows


def _product_trunc(t1: Optional[int], v1: int, t2: Optional[int],
                   v2: int) -> Optional[int]:
    """The truncation order of a product of two factors trusted below t1
    and t2 whose q-valuations are at least v1 and v2."""
    return _min_trunc(_shift_trunc(t1, v2), _shift_trunc(t2, v1))


def _lift(v):
    """A series as it is; an int as the exact constant QSeries."""
    if isinstance(v, (QSeries, MultiSeries)):
        return v
    if isinstance(v, int):
        return QSeries({0: v})
    raise TypeError(f"cannot treat {type(v).__name__} as a series")


def _multi(v) -> "MultiSeries":
    v = _lift(v)
    return v if isinstance(v, MultiSeries) else MultiSeries.from_qseries(v)


def _operands(a, b) -> tuple:
    """The series a and b lifted to one type: MultiSeries when either one
    is."""
    b = _lift(b)
    if type(a) is type(b):
        return a, b
    return _multi(a), _multi(b)


def _terms(self) -> list:
    """The nonzero terms as (monomial, q-exponent, coefficient)."""
    return [(m, e, c) for m, row in self._rows() for e, c in row.items()]


def _truncate(self, trunc: Optional[int]):
    t = _min_trunc(self.trunc, trunc)
    return self if t == self.trunc else self._from_rows(dict(self._rows()), t)


def _add(self, other):
    a, b = _operands(self, other)
    rows = {m: dict(row) for m, row in a._rows()}
    return a._from_rows(_gather(b.terms(), rows), _min_trunc(a.trunc, b.trunc))


def _mul(self, other):
    a, b = _operands(self, other)
    a_rows, b_rows = a._rows(), b._rows()
    # an exact zero annihilates regardless of the other operand's trunc
    if (not a_rows and a.trunc is None) or (not b_rows and b.trunc is None):
        return a._from_rows({}, None)
    t = _product_trunc(a.trunc, a.min_exp, b.trunc, b.min_exp)
    rows: dict = {}
    b_rows = [(m, sorted(r.items())) for m, r in b_rows]
    for m1, r1 in a_rows:
        for m2, items2 in b_rows:
            acc = rows.setdefault(_mono_mul(m1, m2), {})
            for e1, c1 in r1.items():
                for e2, c2 in items2:
                    e = e1 + e2
                    if t is not None and e >= t:
                        break
                    acc[e] = acc.get(e, 0) + c1 * c2
    return a._from_rows(rows, t)


def _power(self, n: int):
    if n < 0:
        raise ValueError("negative power; use invert or invert_unit")
    result = type(self).one()
    base = self
    while n:
        if n & 1:
            result = result.mul(base)
        n >>= 1
        if n:
            base = base.mul(base)
    return result


def _first_mismatch(self, other, bound: Optional[int] = None):
    """First differing coefficient below the common truncation.

    Returns (exponent, self-coeff, other-coeff) between two QSeries and
    (monomial, exponent, self-coeff, other-coeff) otherwise, the lowest by
    exponent then monomial, or None when the sides agree.
    """
    a, b = _operands(self, other)
    t = _min_trunc(a.trunc, b.trunc, bound)
    ra, rb = dict(a._rows()), dict(b._rows())
    bad = []
    for m in ra.keys() | rb.keys():
        r1, r2 = ra.get(m, {}), rb.get(m, {})
        if r1 != r2:
            bad += [(e, m, r1.get(e, 0), r2.get(e, 0)) for e in r1.keys() | r2.keys()
                    if (t is None or e < t) and r1.get(e, 0) != r2.get(e, 0)]
    if not bad:
        return None
    e, m, lc, rc = min(bad)
    return (e, lc, rc) if isinstance(a, QSeries) else (m, e, lc, rc)


def _agrees_below(self, other, bound: Optional[int] = None) -> bool:
    return self.first_mismatch(other, bound) is None


def _eq(self, other):
    """An int is an exact constant: it equals an exact series with that
    constant term and no other, and hashes alike.  A series free of z, x
    and y equals, and hashes as, its QSeries."""
    if not isinstance(other, (int, QSeries, MultiSeries)):
        return NotImplemented
    other = _lift(other)
    return self.trunc == other.trunc and dict(self._rows()) == dict(other._rows())


def _hash(self):
    terms = self.terms()
    if self.trunc is None and all(m == TRIVIAL_MONO and e == 0 for m, e, _ in terms):
        return hash(sum(c for _, _, c in terms))
    return hash((frozenset(terms), self.trunc))


def _sub(self, other):
    return self.add(_lift(other).neg())


def _rsub(self, other):
    return _lift(other).add(self.neg())


class QSeries:
    """A Laurent series in q with exact integer coefficients.

    ``coeffs`` maps exponent -> nonzero coefficient, ``min_exp`` is a lower
    bound on exponents where the represented series can be nonzero, and
    ``trunc`` is the exclusive bound on trusted exponents (None = exact).
    """

    __slots__ = ("coeffs", "trunc", "min_exp")

    def __init__(self, coeffs=None, trunc: Optional[int] = None):
        clean = {}
        for e, c in (coeffs or {}).items():
            if c != 0 and (trunc is None or e < trunc):
                clean[e] = c
        self.coeffs = clean
        self.trunc = trunc
        if clean:
            self.min_exp = min(clean)
        else:
            self.min_exp = trunc if trunc is not None else 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: Optional[int] = None) -> "QSeries":
        return QSeries({}, trunc)

    @staticmethod
    def one(trunc: Optional[int] = None) -> "QSeries":
        return QSeries({0: 1}, trunc)

    @staticmethod
    def term(coeff: int, exp: int = 0, trunc: Optional[int] = None) -> "QSeries":
        return QSeries({exp: coeff}, trunc)

    @staticmethod
    def q(exp: int = 1) -> "QSeries":
        return QSeries({exp: 1})

    def _rows(self) -> tuple:
        return ((TRIVIAL_MONO, self.coeffs),) if self.coeffs else ()

    @staticmethod
    def _from_rows(rows: dict, trunc: Optional[int]) -> "QSeries":
        return QSeries(rows.get(TRIVIAL_MONO), trunc)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        """Largest stored exponent, or None for the zero series."""
        return max(self.coeffs) if self.coeffs else None

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

    # -- row primitives ----------------------------------------------------

    def neg(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (Laurent shift)."""
        return QSeries(
            {e + k: c for e, c in self.coeffs.items()}, _shift_trunc(self.trunc, k)
        )

    def scale(self, c: int) -> "QSeries":
        return QSeries({e: c * v for e, v in self.coeffs.items()}, self.trunc)

    # -- division ----------------------------------------------------------

    def invert(self, trunc: Optional[int] = None) -> "QSeries":
        """Multiplicative inverse up to the truncation order.

        Requires a unit constant term: no nonzero coefficient below q^0 and
        the coefficient at q^0 equal to 1.
        """
        return MultiSeries.from_qseries(self).invert_unit(trunc).qseries()

    def exact_div(self, divisor) -> "QSeries":
        """Exact polynomial division; raises DivisionInexact on any remainder."""
        divisor = _lift(divisor)
        if isinstance(divisor, MultiSeries):
            divisor = divisor.qseries()
        if self.trunc is not None or divisor.trunc is not None:
            raise TruncationRequired("exact division needs exact polynomials")
        if divisor.is_zero():
            raise DivisionInexact("division by zero")
        if self.is_zero():
            return QSeries({})
        lo, hi = self.min_exp, self.degree()
        dlo, dhi = divisor.min_exp, divisor.degree()
        if hi - lo < dhi - dlo:
            raise DivisionInexact("dividend degree span below divisor's")
        arr = [0] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            arr[e - lo] = c
        dlead = divisor.coeffs[dlo]
        dtail = sorted((e - dlo, c) for e, c in divisor.coeffs.items())
        out_len = (hi - lo) - (dhi - dlo) + 1
        out = [0] * out_len
        for i in range(out_len):
            c = arr[i]
            if c == 0:
                continue
            qc, r = divmod(c, dlead)
            if r:
                raise DivisionInexact(f"coefficient {c} not divisible by {dlead}")
            out[i] = qc
            for ed, cd in dtail:
                arr[i + ed] -= qc * cd
        if any(arr[out_len:]):
            raise DivisionInexact("nonzero remainder")
        return QSeries({i + lo - dlo: c for i, c in enumerate(out) if c})

    # -- the shared arithmetic ---------------------------------------------

    terms, truncate = _terms, _truncate
    first_mismatch, agrees_below = _first_mismatch, _agrees_below
    add = __add__ = __radd__ = _add
    mul = __mul__ = __rmul__ = _mul
    power = __pow__ = _power
    __sub__, __rsub__, __neg__, __eq__, __hash__ = _sub, _rsub, neg, _eq, _hash

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e, c in sorted(self.coeffs.items()):
                mag = "" if abs(c) == 1 and e != 0 else str(abs(c))
                pow_ = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
                star = "*" if mag and pow_ else ""
                parts.append(("- " if c < 0 else "+ ") + mag + star + pow_)
            body = " ".join(parts).lstrip("+ ")
        tail = "" if self.trunc is None else f" + O(q^{self.trunc})"
        return f"<{body}{tail}>"


class MultiSeries:
    """A finite sum of aux-variable monomials, each weighted by a QSeries.

    ``entries`` maps an exponent vector over (z, x, y) to a QSeries; all
    entries share the global q-truncation ``trunc``.
    """

    __slots__ = ("entries", "trunc")

    def __init__(self, entries=None, trunc: Optional[int] = None):
        t = _min_trunc(trunc, *[s.trunc for s in (entries or {}).values()])
        clean = {}
        for mono, qs in (entries or {}).items():
            qs = qs.truncate(t)
            if not qs.is_zero():
                clean[tuple(mono)] = qs
        self.entries = clean
        self.trunc = t

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: Optional[int] = None) -> "MultiSeries":
        return MultiSeries({}, trunc)

    @staticmethod
    def one(trunc: Optional[int] = None) -> "MultiSeries":
        return MultiSeries({TRIVIAL_MONO: QSeries.one()}, trunc)

    @staticmethod
    def const(c: int) -> "MultiSeries":
        return MultiSeries({TRIVIAL_MONO: QSeries.term(c)})

    @staticmethod
    def from_qseries(qs: QSeries, mono: Mono = TRIVIAL_MONO) -> "MultiSeries":
        return MultiSeries({tuple(mono): qs}, qs.trunc)

    @staticmethod
    def from_terms(terms, trunc: Optional[int] = None) -> "MultiSeries":
        """The sum of the terms (monomial, q-exponent, coefficient), with
        the truncation order trunc; terms at or beyond it are dropped."""
        return MultiSeries._from_rows(_gather(terms), trunc)

    @staticmethod
    def q(exp: int = 1) -> "MultiSeries":
        return MultiSeries({TRIVIAL_MONO: QSeries.q(exp)})

    @staticmethod
    def gen(var: str) -> "MultiSeries":
        """The generator z, x or y as an exact series."""
        i = AUX_VARS.index(var)
        mono = tuple(1 if j == i else 0 for j in range(3))
        return MultiSeries({mono: QSeries.one()})

    @staticmethod
    def term(coeff: int = 1, qexp: int = 0, z: int = 0, x: int = 0, y: int = 0,
             trunc: Optional[int] = None) -> "MultiSeries":
        return MultiSeries({(z, x, y): QSeries.term(coeff, qexp)}, trunc)

    def _rows(self) -> list:
        return [(m, s.coeffs) for m, s in self.entries.items()]

    @staticmethod
    def _from_rows(rows: dict, trunc: Optional[int]) -> "MultiSeries":
        return MultiSeries({m: QSeries(r, trunc) for m, r in rows.items()}, trunc)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def min_qexp(self) -> int:
        """Lower bound on q-exponents where any entry can be nonzero."""
        if not self.entries:
            return self.trunc if self.trunc is not None else 0
        return min(s.min_exp for s in self.entries.values())

    min_exp = property(min_qexp)

    def series(self, mono: Mono) -> QSeries:
        return self.entries.get(tuple(mono), QSeries.zero(self.trunc))

    def qseries(self) -> QSeries:
        """View as a plain QSeries; requires no non-trivial aux monomials."""
        extra = [m for m in self.entries if m != TRIVIAL_MONO]
        if extra:
            raise ValueError(f"series involves aux monomial {mono_str(extra[0])}")
        return self.entries.get(TRIVIAL_MONO, QSeries.zero(self.trunc))

    def coefficient(self, mono: Mono, e: int) -> int:
        return self.series(mono).coeff(e)

    def monomials(self):
        return sorted(self.entries)

    # -- row primitives, applied to each monomial's row --------------------

    def neg(self) -> "MultiSeries":
        return MultiSeries(
            {m: s.neg() for m, s in self.entries.items()}, self.trunc
        )

    def shift_q(self, k: int) -> "MultiSeries":
        return MultiSeries(
            {m: s.shift(k) for m, s in self.entries.items()},
            _shift_trunc(self.trunc, k),
        )

    def scale(self, c: int) -> "MultiSeries":
        return MultiSeries(
            {m: s.scale(c) for m, s in self.entries.items()}, self.trunc
        )

    def exact_div(self, divisor) -> "MultiSeries":
        """Each monomial's row divided exactly by a divisor free of z, x
        and y; raises DivisionInexact on any remainder."""
        return MultiSeries(
            {m: s.exact_div(divisor) for m, s in self.entries.items()}, self.trunc
        )

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
        for m in self.entries:
            if any(e < 0 for e in m):
                raise NonUnitConstantTerm(
                    f"negative aux exponent in {mono_str(m)} is not invertible"
                )
        if {m: c for m, e, c in terms if e == 0} != {TRIVIAL_MONO: 1}:
            raise NonUnitConstantTerm("q^0 layer is not the constant 1")
        if t is None:
            if len(terms) == 1:
                return MultiSeries.one()
            raise TruncationRequired("inverse of a non-trivial series is infinite")
        # self = 1 - a, where a holds every term of self above q^0, negated
        acc = _Rows.load(MultiSeries.one(), 0, t)
        acc.div([(m, e, -c) for m, e, c in terms if e])
        return acc.series(t)

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
        for mono in self.entries:
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

    # -- the shared arithmetic ---------------------------------------------

    terms, truncate = _terms, _truncate
    first_mismatch, agrees_below = _first_mismatch, _agrees_below
    add = __add__ = __radd__ = _add
    mul = __mul__ = __rmul__ = _mul
    power = __pow__ = _power
    __sub__, __rsub__, __neg__, __eq__, __hash__ = _sub, _rsub, neg, _eq, _hash

    def __repr__(self):
        if not self.entries:
            body = "0"
        else:
            body = " + ".join(
                f"{mono_str(m)}*{self.entries[m]!r}" for m in sorted(self.entries)
            )
        tail = "" if self.trunc is None else f" [trunc {self.trunc}]"
        return f"MultiSeries({body}{tail})"


# ---------------------------------------------------------------------------
# Dense factor kernel
# ---------------------------------------------------------------------------


def _solve_row(row: list, low: int, own: list) -> None:
    """Divide one dense row, zero below index ``low``, in place by
    1 - sum(c * q^e) over own's (e, c), every e >= 1, in increasing
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
    so every coefficient in it is exact.  The accumulator is private and
    mutable; ``series`` hands out an immutable MultiSeries.
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
        for m, coeffs in ms._rows():
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

    def div(self, a: list) -> None:
        """Divide by 1 - a, where every term of a has q-exponent >= 1 and
        no negative aux exponent.

        The quotient y solves y = x + a*y.  Rows are finished in increasing
        total aux degree: a row takes the terms of a with the trivial
        monomial by the recurrence in increasing q-order, which reads only
        coefficients already final, and then adds its share to the rows of
        higher degree.
        """
        size, rows, low = self.size, self.rows, self.low
        own = [(e, c) for m, e, c in a if m == TRIVIAL_MONO and c]
        cross = [(m, e, c) for m, e, c in a if m != TRIVIAL_MONO and c]
        # a row zero below size - e_min is left as it is
        last = size - min((e for _, e, c in a if c), default=size)
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

    def series(self, trunc: Optional[int], scale: int = 1,
               mono: Mono = TRIVIAL_MONO, shift: int = 0) -> MultiSeries:
        """The accumulator times scale * mono * q^shift, with the given
        truncation order."""
        off = self.lo + shift
        rows = {}
        for m, row in self.rows.items():
            rows[_mono_mul(m, mono)] = {
                i + off: scale * c
                for i, c in enumerate(row[self.low[m]:], self.low[m]) if c}
        return MultiSeries._from_rows(rows, trunc)


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


def _factor_chain(a, terms: list, shifts, lo: int, size: int,
                  t: Optional[int]):
    """The product of the factors 1 - a*q^j over j in shifts, a given also
    by its terms, on a dense window of ``size`` q-exponents from q^lo, with
    the truncation order t; a QSeries when a is one."""
    acc = _Rows.load(MultiSeries.one(), lo, size)
    for j in shifts:
        acc.mul([(m, e + j, c) for m, e, c in terms])
    out = acc.series(t)
    return out.qseries() if isinstance(a, QSeries) else out


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
    ms = _multi(a)
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
    return _factor_chain(a, terms, shifts, lo, (hi if t is None else t - lo) - lo, t)


def poch_infinite(a, step: int, trunc: int):
    """The infinite product prod_{k>=0} (1 - a*q^(step*k)), truncated.

    Requires ``a`` to carry strictly positive q-degree so that all but
    finitely many factors are 1 modulo q^trunc; the others are applied one
    by one to a dense accumulator.
    """
    if step <= 0:
        raise ValueError("step must be a positive integer")
    ms = _multi(a)
    d = ms.min_exp
    if not ms.is_zero() and d <= 0:
        raise NonConvergent(f"factor base has q-degree {d} <= 0")
    # 1 - a is trusted below a's own order even where a has no terms
    t = _min_trunc(trunc, ms.trunc)
    return _factor_chain(a, ms.terms(), range(0, trunc - d, step), 0, t, t)


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
    result = QSeries.one()
    for i in range(1, k + 1):
        result = result.mul(QSeries.one() - QSeries.q(m - k + i))
        result = result.exact_div(QSeries.one() - QSeries.q(i))
    return result


@lru_cache(maxsize=None)
def qq_factorial(m: int) -> QSeries:
    """The product (1-q)(1-q^2)...(1-q^m) as an exact polynomial."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return poch_finite(QSeries.q(), 1, m)
