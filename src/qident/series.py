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
``MultiSeries.from_terms``, which sums duplicate terms.  Each operation
has one name: ``shift`` by q^k, ``invert_unit``, the property ``min_exp``.

Truncation semantics: ``trunc`` is an exclusive upper bound on the q-exponents
whose coefficients the value guarantees exact.  ``trunc is None`` means every
coefficient is exact (the value is a genuine Laurent polynomial).  Every
operation computes the tightest valid truncation of its result, so garbage
high-order coefficients are never silently trusted.  An int stands for an
exact constant: ``QSeries({0: 1}) == 1``, but ``QSeries({0: 1}, 5) != 1``,
and equal values hash alike across QSeries, MultiSeries and int.

Pochhammer products (``poch_finite``, ``poch_infinite``,
``qq_factorial``), series inversion, the Gaussian binomial (``qbinom``) and
exact division run on the dense factor kernel of ``qident.kernel``, which
this module imports (exact products and division through
``qident.exact``, imported on first use): it hands the kernel its plain
rows and wraps the plain rows the kernel returns in its own values.  Every Pochhammer
product, whatever its base, is ``_poch``: the factors whose terms can
reach q^0 or below are multiplied one by one and cut at the truncation
order, and the rest, each of constant term 1, are one chain on the
kernel, so its truncation order is the one a factor-by-factor product
derives.  The kernel also holds the row
helpers this module builds on (``_clean``, ``_gather``, ``_mono_mul``, the
truncation-order arithmetic).  All values are immutable after construction
and all operations are pure.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import NonConvergent, NonUnitConstantTerm, TruncationRequired
from .kernel import (
    _ONE,
    TRIVIAL_MONO,
    Mono,
    _chain_factors,
    _clean,
    _gather,
    _min_trunc,
    _mono_mul,
    _product_trunc,
    _qbinom_chains,
    _Rows,
    _shift_trunc,
)

AUX_VARS = ("z", "x", "y")


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
    def term(coeff: int = 1, qexp: int = 0, z: int = 0, x: int = 0, y: int = 0,
             trunc: Optional[int] = None) -> "MultiSeries":
        return MultiSeries._from_rows({(z, x, y): {qexp: coeff}}, trunc)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._rows

    @property
    def min_exp(self) -> int:
        """Lower bound on q-exponents where any row can be nonzero."""
        if not self._rows:
            return self.trunc if self.trunc is not None else 0
        return min(min(row) for row in self._rows.values())

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

    def shift(self, k: int) -> "MultiSeries":
        """Multiply by q^k (Laurent shift)."""
        return self._new({m: {e + k: c for e, c in row.items()}
                          for m, row in self._rows.items()},
                         _shift_trunc(self.trunc, k))

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
        from .exact import _exact_quotient

        acc, shift = _exact_quotient(self._rows, {}, [(divisor.coeffs, 1)])
        return self._new(acc.gather({}, None, shift=shift), None)

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
        acc = _Rows.load(_ONE, 0, t)
        acc.apply({tuple((m, e, -c) for m, e, c in terms if e): -1})
        return self._new(acc.gather({}, t), t)

    def subst_aux(self, **subs) -> "MultiSeries":
        """Substitute aux variables by +-1 or +-(another variable).

        Accepted values per variable: 1, -1, a variable name, or a pair
        (sign, variable name).  E.g. ``subst_aux(x=1, y=(-1, "z"))`` performs
        x -> 1, y -> -z.
        """
        norm = {}  # aux index -> (sign, exponent vector) of its image
        for var, val in subs.items():
            sign, target = ((val, None) if val in (1, -1) else
                            (1, val) if isinstance(val, str) else val)
            norm[AUX_VARS.index(var)] = sign, [int(v == target) for v in AUX_VARS]
        image = {}  # monomial -> (its image, sign)
        for mono in self._rows:
            new, sign_total = list(mono), 1
            for i, (sign, vec) in norm.items():
                e, new[i] = mono[i], new[i] - mono[i]
                new = [n + e * v for n, v in zip(new, vec)]
                sign_total *= sign ** (e % 2)
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
            raise ValueError("negative power; use invert_unit")
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
        # imported here: at the top it would load syntax before dsl does and
        # change the order, and so the memory peak, of every launch
        from .syntax import _row_repr

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

    def __repr__(self):
        from .syntax import _row_repr

        return _row_repr(self.coeffs, self.trunc)


# ---------------------------------------------------------------------------
# Pochhammer products and the Gaussian binomial, each one chain of factors
# on the kernel's accumulator
# ---------------------------------------------------------------------------


def _poch(a, step: int, count: Optional[int], trunc: Optional[int]):
    """prod_{k=0}^{count-1} (1 - a*q^(step*k)), or over every k >= 0 for
    count None, truncated at trunc (required for count None) once there is
    a factor.  The truncation order is the one a factor-by-factor product
    derives.

    The head, the factors whose terms can reach q^0 or below, is multiplied
    factor by factor and cut at trunc.  Every later factor has constant
    term 1, so the tail is one chain on the kernel: applied to the head
    inside the window the product is trusted in, or exactly, with no
    truncation anywhere, through ``exact._exact_quotient``.
    """
    ms = _lift(a)
    terms, d = ms.terms(), ms.min_exp
    if count is None and terms and d <= 0:
        raise NonConvergent(f"factor base has q-degree {d} <= 0")
    stop = None if count is None else step * count
    head, j = ms.one(), 0
    while d + j < 1 and (stop is None or j < stop):
        head = head.mul(ms.one() - ms.shift(j)).truncate(trunc)
        j += step
    t, lo = head.trunc, head.min_exp
    if stop is None or j < stop:
        # the tail, of valuation 0, is trusted below a's order times its
        # first factor's q^j; the head has valuation lo
        t =_min_trunc(t, _shift_trunc(ms.trunc, j + lo), trunc)
    end = stop if t is None else _min_trunc(stop, t - lo - d)
    tail = {tuple((m, e + i, c) for m, e, c in terms): 1 for i in range(j, end, step)}
    if t is None:
        from .exact import _exact_quotient

        acc, _ = _exact_quotient(head._rows, tail, [])
    else:
        acc = _Rows.load(head._rows, lo, t - lo)
        acc.apply(tail)
    return _cls(a)._new(acc.gather({}, t), t)


def poch_finite(a, step: int, count: int, trunc: Optional[int] = None):
    """The finite product prod_{k=0}^{count-1} (1 - a*q^(step*k)).

    Exact (a polynomial) when ``a`` is exact and ``trunc`` is None.  With a
    truncation order, or a truncated ``a``, the product is trusted below
    the order a factor-by-factor product derives, which a factor of
    negative valuation lowers below ``trunc`` (see ``_poch``).
    """
    if step <= 0:
        raise ValueError("step must be a positive integer")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _poch(a, step, count, trunc)


def poch_infinite(a, step: int, trunc: int):
    """The infinite product prod_{k>=0} (1 - a*q^(step*k)), truncated.

    Requires ``a`` to carry strictly positive q-degree so that all but
    finitely many factors are 1 modulo q^trunc (see ``_poch``).
    """
    if step <= 0:
        raise ValueError("step must be a positive integer")
    return _poch(a, step, None, trunc)


def qbinom(m: int, k: int) -> QSeries:
    """The Gaussian binomial coefficient as an exact polynomial in q.

    Zero when k < 0 or k > m; otherwise a polynomial with nonnegative
    coefficients and degree k*(m-k).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 0 or k > m:
        return QSeries.zero()
    # a polynomial of degree k(m-k), exact on a window of that many + 1 exponents
    acc = _Rows.load(_ONE, 0, k * (m - k) + 1)
    acc.apply(_chain_factors(_qbinom_chains(m, k), None))
    return QSeries._new(acc.gather({}, None), None)


def qq_factorial(m: int) -> QSeries:
    """The product (1-q)(1-q^2)...(1-q^m) as an exact polynomial."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _poch(QSeries.q(), 1, m, None)
