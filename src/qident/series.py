"""Exact truncated Laurent-series arithmetic in q over arbitrary-precision integers.

Two value types:

* ``QSeries`` -- a sparse Laurent series in the single variable q, stored as a
  map from integer exponent to integer coefficient.
* ``MultiSeries`` -- finitely many auxiliary-variable monomials (z, x, y, with
  possibly negative exponents), each carrying a QSeries.

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
from itertools import accumulate
from operator import add
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

    @staticmethod
    def _lift(x) -> "QSeries":
        if isinstance(x, QSeries):
            return x
        if isinstance(x, int):
            return QSeries({0: x})
        raise TypeError(f"cannot treat {type(x).__name__} as a QSeries")

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

    # -- arithmetic --------------------------------------------------------

    def add(self, other) -> "QSeries":
        other = QSeries._lift(other)
        t = _min_trunc(self.trunc, other.trunc)
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = acc.get(e, 0) + c
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
        return QSeries(acc, t)

    def neg(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def mul(self, other) -> "QSeries":
        other = QSeries._lift(other)
        # an exact zero annihilates regardless of the other operand's trunc
        if not self.coeffs and self.trunc is None:
            return QSeries({}, None)
        if not other.coeffs and other.trunc is None:
            return QSeries({}, None)
        t = _min_trunc(
            _shift_trunc(self.trunc, other.min_exp),
            _shift_trunc(other.trunc, self.min_exp),
        )
        acc: dict = {}
        items2 = sorted(other.coeffs.items())
        for e1, c1 in self.coeffs.items():
            for e2, c2 in items2:
                e = e1 + e2
                if t is not None and e >= t:
                    break
                acc[e] = acc.get(e, 0) + c1 * c2
        return QSeries(acc, t)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (Laurent shift)."""
        return QSeries(
            {e + k: c for e, c in self.coeffs.items()}, _shift_trunc(self.trunc, k)
        )

    def scale(self, c: int) -> "QSeries":
        return QSeries({e: c * v for e, v in self.coeffs.items()}, self.trunc)

    def truncate(self, trunc: Optional[int]) -> "QSeries":
        t = _min_trunc(self.trunc, trunc)
        if t == self.trunc:
            return self
        return QSeries(self.coeffs, t)

    def power(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("negative power; use invert")
        result = QSeries.one()
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def invert(self, trunc: Optional[int] = None) -> "QSeries":
        """Multiplicative inverse up to the truncation order.

        Requires a unit constant term: no nonzero coefficient below q^0 and
        the coefficient at q^0 equal to 1.
        """
        return MultiSeries.from_qseries(self).invert_unit(trunc).qseries()

    def exact_div(self, divisor) -> "QSeries":
        """Exact polynomial division; raises DivisionInexact on any remainder."""
        divisor = QSeries._lift(divisor)
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

    # -- comparison --------------------------------------------------------

    def first_mismatch(self, other, bound: Optional[int] = None):
        """Lowest exponent below the common truncation where coefficients differ."""
        other = QSeries._lift(other)
        b = _min_trunc(self.trunc, other.trunc, bound)
        exps = set(self.coeffs) | set(other.coeffs)
        bad = []
        for e in exps:
            if b is not None and e >= b:
                continue
            lc, rc = self.coeffs.get(e, 0), other.coeffs.get(e, 0)
            if lc != rc:
                bad.append((e, lc, rc))
        return min(bad) if bad else None

    def agrees_below(self, other, bound: Optional[int] = None) -> bool:
        return self.first_mismatch(other, bound) is None

    # An int is an exact constant: it equals an exact series with that
    # constant term and no other, and hashes alike.

    def __eq__(self, other):
        if isinstance(other, int):
            other = QSeries._lift(other)
        if isinstance(other, QSeries):
            return self.coeffs == other.coeffs and self.trunc == other.trunc
        return NotImplemented

    def __hash__(self):
        if self.trunc is None and set(self.coeffs) <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash((tuple(sorted(self.coeffs.items())), self.trunc))

    # -- operators ---------------------------------------------------------

    __add__ = add
    __radd__ = add
    __mul__ = mul
    __rmul__ = mul
    __pow__ = power

    def __sub__(self, other):
        return self.add(QSeries._lift(other).neg())

    def __rsub__(self, other):
        return QSeries._lift(other).add(self.neg())

    def __neg__(self):
        return self.neg()

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

    @staticmethod
    def _lift(v) -> "MultiSeries":
        if isinstance(v, MultiSeries):
            return v
        if isinstance(v, QSeries):
            return MultiSeries.from_qseries(v)
        if isinstance(v, int):
            return MultiSeries.const(v)
        raise TypeError(f"cannot treat {type(v).__name__} as a MultiSeries")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def min_qexp(self) -> int:
        """Lower bound on q-exponents where any entry can be nonzero."""
        if not self.entries:
            return self.trunc if self.trunc is not None else 0
        return min(s.min_exp for s in self.entries.values())

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

    # -- arithmetic --------------------------------------------------------

    def add(self, other) -> "MultiSeries":
        other = MultiSeries._lift(other)
        t = _min_trunc(self.trunc, other.trunc)
        acc = {m: dict(s.coeffs) for m, s in self.entries.items()}
        for m, s in other.entries.items():
            d = acc.setdefault(m, {})
            for e, c in s.coeffs.items():
                v = d.get(e, 0) + c
                if v:
                    d[e] = v
                else:
                    d.pop(e, None)
        return MultiSeries({m: QSeries(d, t) for m, d in acc.items()}, t)

    def neg(self) -> "MultiSeries":
        return MultiSeries(
            {m: s.neg() for m, s in self.entries.items()}, self.trunc
        )

    def mul(self, other) -> "MultiSeries":
        other = MultiSeries._lift(other)
        if (not self.entries and self.trunc is None) or (
            not other.entries and other.trunc is None
        ):
            return MultiSeries.zero()
        t = _min_trunc(
            _shift_trunc(self.trunc, other.min_qexp()),
            _shift_trunc(other.trunc, self.min_qexp()),
        )
        acc: dict = {}
        for m1, s1 in self.entries.items():
            for m2, s2 in other.entries.items():
                d = acc.setdefault(_mono_mul(m1, m2), {})
                items2 = sorted(s2.coeffs.items())
                for e1, c1 in s1.coeffs.items():
                    for e2, c2 in items2:
                        e = e1 + e2
                        if t is not None and e >= t:
                            break
                        d[e] = d.get(e, 0) + c1 * c2
        return MultiSeries({m: QSeries(d, t) for m, d in acc.items()}, t)

    def shift_q(self, k: int) -> "MultiSeries":
        return MultiSeries(
            {m: s.shift(k) for m, s in self.entries.items()},
            _shift_trunc(self.trunc, k),
        )

    def scale(self, c: int) -> "MultiSeries":
        return MultiSeries(
            {m: s.scale(c) for m, s in self.entries.items()}, self.trunc
        )

    def truncate(self, trunc: Optional[int]) -> "MultiSeries":
        t = _min_trunc(self.trunc, trunc)
        if t == self.trunc:
            return self
        return MultiSeries(self.entries, t)

    def power(self, n: int) -> "MultiSeries":
        if n < 0:
            raise ValueError("negative power; use invert_unit")
        result = MultiSeries.one()
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def invert_unit(self, trunc: Optional[int] = None) -> "MultiSeries":
        """Inverse of a series whose q^0 layer is exactly the constant 1.

        Preconditions: no negative q-exponents, no negative aux exponents, and
        the whole coefficient of q^0 equal to the trivial monomial with
        coefficient 1 (so the inverse is again a power series in q).
        """
        t = _min_trunc(self.trunc, trunc)
        if self.entries and self.min_qexp() < 0:
            raise NonUnitConstantTerm("series has terms below q^0")
        for m in self.entries:
            if any(e < 0 for e in m):
                raise NonUnitConstantTerm(
                    f"negative aux exponent in {mono_str(m)} is not invertible"
                )
        layer0 = {
            m: s.coeffs[0] for m, s in self.entries.items() if 0 in s.coeffs
        }
        if layer0 != {TRIVIAL_MONO: 1}:
            raise NonUnitConstantTerm("q^0 layer is not the constant 1")
        if t is None:
            if all(s.coeffs == {0: 1} for s in self.entries.values()):
                return MultiSeries.one()
            raise TruncationRequired("inverse of a non-trivial series is infinite")
        # self = 1 - a, where a holds every term of self above q^0, negated
        acc = _Rows.one(0, t)
        acc.div([(m, e, -c) for m, e, c in _terms(self) if e])
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
        acc: dict = {}
        for mono, qs in self.entries.items():
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
            d = acc.setdefault(tuple(new), {})
            for e, c in qs.coeffs.items():
                v = d.get(e, 0) + sign_total * c
                if v:
                    d[e] = v
                else:
                    d.pop(e, None)
        return MultiSeries(
            {m: QSeries(d, self.trunc) for m, d in acc.items()}, self.trunc
        )

    # -- comparison --------------------------------------------------------

    def first_mismatch(self, other, bound: Optional[int] = None):
        """First differing coefficient below the common truncation.

        Returns (monomial, exponent, self-coeff, other-coeff) ordered by
        exponent then monomial, or None when the sides agree.
        """
        other = MultiSeries._lift(other)
        b = _min_trunc(self.trunc, other.trunc, bound)
        bad = []
        for m in set(self.entries) | set(other.entries):
            s1 = self.entries.get(m)
            s2 = other.entries.get(m)
            exps = set(s1.coeffs if s1 else ()) | set(s2.coeffs if s2 else ())
            for e in exps:
                if b is not None and e >= b:
                    continue
                lc = s1.coeffs.get(e, 0) if s1 else 0
                rc = s2.coeffs.get(e, 0) if s2 else 0
                if lc != rc:
                    bad.append((e, m, lc, rc))
        if not bad:
            return None
        e, m, lc, rc = min(bad)
        return (m, e, lc, rc)

    def agrees_below(self, other, bound: Optional[int] = None) -> bool:
        return self.first_mismatch(other, bound) is None

    # A series free of z, x and y equals, and hashes as, its QSeries.

    def __eq__(self, other):
        if isinstance(other, (int, QSeries)):
            other = MultiSeries._lift(other)
        if isinstance(other, MultiSeries):
            return self.entries == other.entries and self.trunc == other.trunc
        return NotImplemented

    def __hash__(self):
        if set(self.entries) <= {TRIVIAL_MONO}:
            return hash(self.series(TRIVIAL_MONO))
        return hash(
            (frozenset((m, hash(s)) for m, s in self.entries.items()), self.trunc)
        )

    # -- operators ---------------------------------------------------------

    __add__ = add
    __radd__ = add
    __mul__ = mul
    __rmul__ = mul
    __pow__ = power

    def __sub__(self, other):
        return self.add(MultiSeries._lift(other).neg())

    def __rsub__(self, other):
        return MultiSeries._lift(other).add(self.neg())

    def __neg__(self):
        return self.neg()

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


def _terms(ms: MultiSeries) -> list:
    """The nonzero terms of ms as (monomial, q-exponent, coefficient)."""
    return [(m, e, c) for m, s in ms.entries.items() for e, c in s.coeffs.items()]


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
    def one(lo: int, size: int) -> "_Rows":
        return _Rows.load(MultiSeries.one(), lo, size)

    @staticmethod
    def load(ms: MultiSeries, lo: int, size: int) -> "_Rows":
        acc = _Rows(lo, size)
        for m, s in ms.entries.items():
            inside = {e - lo: c for e, c in s.coeffs.items() if 0 <= e - lo < acc.size}
            if inside:
                row = acc.rows[m] = [0] * acc.size
                for i, c in inside.items():
                    row[i] = c
                acc.low[m] = min(inside)
        return acc

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
        entries = {}
        for m, row in self.rows.items():
            d = {i + off: scale * c
                 for i, c in enumerate(row[self.low[m]:], self.low[m]) if c}
            if d:
                entries[_mono_mul(m, mono)] = QSeries(d, trunc)
        return MultiSeries(entries, trunc)


# ---------------------------------------------------------------------------
# Pochhammer products and the Gaussian binomial
# ---------------------------------------------------------------------------


def _one_like(a):
    return QSeries.one() if isinstance(a, QSeries) else MultiSeries.one()


def _like(a, ms: MultiSeries):
    """ms as the type of the argument a: a QSeries for a QSeries."""
    return ms.qseries() if isinstance(a, QSeries) else ms


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
    if count == 0:
        return _one_like(a)
    ms = MultiSeries._lift(a)
    terms = _terms(ms)
    shifts = [step * k for k in range(count)]
    # the truncation order a factor-by-factor product would derive: the
    # product of factors trusted below t1 and t2, with valuations v1 and
    # v2, is trusted below min(t1 + v2, t2 + v1)
    t, low, lo, hi = None, 0, 0, 1
    for j in shifts:
        v = _factor_valuation(terms, j)
        if ms.trunc is None:
            if v is None:  # an exact zero factor
                t = None
            elif t is not None:
                t += v
        else:
            f_t = ms.trunc + j
            v = f_t if v is None else v
            t = f_t + low if t is None else min(t + v, f_t + low)
        if trunc is not None:
            t = trunc if t is None else min(t, trunc)
        low += v or 0
        lo += min(v or 0, 0)
        hi += max([0] + [e + j for _, e, _ in terms])
    # a coefficient below t is a sum of products whose partial products lie
    # below t - lo, so the window [lo, t - lo) keeps them all
    acc = _Rows.one(lo, (hi if t is None else t - lo) - lo)
    for j in shifts:
        acc.mul([(m, e + j, c) for m, e, c in terms])
    return _like(a, acc.series(t))


def poch_infinite(a, step: int, trunc: int):
    """The infinite product prod_{k>=0} (1 - a*q^(step*k)), truncated.

    Requires ``a`` to carry strictly positive q-degree so that all but
    finitely many factors are 1 modulo q^trunc; the others are applied one
    by one to a dense accumulator.
    """
    if step <= 0:
        raise ValueError("step must be a positive integer")
    ms = MultiSeries._lift(a)
    d = ms.min_qexp()
    if not ms.is_zero() and d <= 0:
        raise NonConvergent(f"factor base has q-degree {d} <= 0")
    # 1 - a is trusted below a's own order even where a has no terms
    t = _min_trunc(trunc, ms.trunc)
    acc = _Rows.one(0, t)
    terms = _terms(ms)
    for j in range(0, trunc - d, step):
        acc.mul([(m, e + j, c) for m, e, c in terms])
    return _like(a, acc.series(t))


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
    if m == 0:
        return QSeries.one()
    return qq_factorial(m - 1).mul(QSeries.one() - QSeries.q(m))
