"""Exact truncated Laurent-series arithmetic in q over arbitrary-precision integers.

A series maps aux-variable monomials z^a * x^b * y^d (exponents may be
negative) to rows, each a sparse Laurent series in q stored as a plain map
from exponent to nonzero integer coefficient, and has one truncation order
for all its rows.  This is the only storage.  ``MultiSeries`` holds any
number of rows; ``QSeries`` is its subclass for the case whose only
monomial is the trivial one, and is also the view ``qseries()`` gives of a
series free of z, x and y.  Every operation and row primitive is a method
of ``MultiSeries`` and has one body; the classes differ only in the class
of a result (a QSeries when every operand is one, a MultiSeries
otherwise) and in their accessors (``QSeries.coeffs``;
``MultiSeries.entries``, a read-only {monomial: QSeries} view).  Other
modules read a value only as its (monomial, q-exponent, coefficient)
``terms()`` and build one only by ``MultiSeries.from_terms``, which sums
duplicate terms.  Each operation has one name: ``shift`` by q^k,
``invert_unit``, the property ``min_exp``.

This module holds the bodies the evaluator runs: the storage, the
constructors, the queries, the row primitives, ``add`` and the
comparison.  The others are one-line delegations to modules loaded on
first use, so that a launch compiles only what it runs: ``mul``,
``power``, ``invert_unit``, ``subst_aux`` and the functions
``poch_finite``, ``poch_infinite`` and ``qq_factorial`` to
``qident.series_ops``, ``exact_div`` and ``qbinom`` to ``qident.exact``,
and the reprs to ``qident.printing``.

Truncation semantics: ``trunc`` is an exclusive upper bound on the q-exponents
whose coefficients the value guarantees exact.  ``trunc is None`` means every
coefficient is exact (the value is a genuine Laurent polynomial).  Every
operation computes the tightest valid truncation of its result, so garbage
high-order coefficients are never silently trusted.  An int stands for an
exact constant: ``QSeries({0: 1}) == 1``, but ``QSeries({0: 1}, 5) != 1``,
and equal values hash alike across QSeries, MultiSeries and int.

Pochhammer products, series inversion, the Gaussian binomial and exact
division run on the dense factor kernel of ``qident.kernel``: this module
and those it delegates to hand the kernel plain rows and wrap the plain
rows it returns in values.  The kernel also holds the row helpers this
module builds on (``_clean``, ``_gather``, the truncation-order
arithmetic).  All values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import TruncationRequired
from .kernel import TRIVIAL_MONO, Mono, _clean, _gather, _min_trunc, _shift_trunc

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
        from .exact import exact_div

        return exact_div(self, divisor)

    def invert_unit(self, trunc: Optional[int] = None) -> "MultiSeries":
        """Inverse of a series whose q^0 layer is exactly the constant 1.

        Preconditions: no negative q-exponents, no negative aux exponents, and
        the whole coefficient of q^0 equal to the trivial monomial with
        coefficient 1 (so the inverse is again a power series in q).
        """
        from .series_ops import invert_unit

        return invert_unit(self, trunc)

    def subst_aux(self, **subs) -> "MultiSeries":
        """Substitute aux variables by +-1 or +-(another variable).

        Accepted values per variable: 1, -1, a variable name, or a pair
        (sign, variable name).  E.g. ``subst_aux(x=1, y=(-1, "z"))`` performs
        x -> 1, y -> -z.
        """
        from .series_ops import subst_aux

        return subst_aux(self, **subs)

    # -- arithmetic ----------------------------------------------------------

    def add(self, other) -> "MultiSeries":
        b = _lift(other)
        rows = {m: dict(row) for m, row in self._rows.items()}
        return _cls(self, b)._from_rows(_gather(b.terms(), rows),
                                        _min_trunc(self.trunc, b.trunc))

    def mul(self, other) -> "MultiSeries":
        from .series_ops import mul

        return mul(self, other)

    def power(self, n: int) -> "MultiSeries":
        from .series_ops import power

        return power(self, n)

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
        from .printing import series_repr

        return series_repr(self)


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


# ---------------------------------------------------------------------------
# Pochhammer products (``qident.series_ops``) and the Gaussian binomial
# ---------------------------------------------------------------------------


def poch_finite(a, step: int, count: int, trunc: Optional[int] = None):
    """The finite product prod_{k=0}^{count-1} (1 - a*q^(step*k)).

    Exact (a polynomial) when ``a`` is exact and ``trunc`` is None.  With a
    truncation order, or a truncated ``a``, the product is trusted below
    the order a factor-by-factor product derives, which a factor of
    negative valuation lowers below ``trunc`` (see ``series_ops._poch``).
    """
    from .series_ops import poch_finite

    return poch_finite(a, step, count, trunc)


def poch_infinite(a, step: int, trunc: int):
    """The infinite product prod_{k>=0} (1 - a*q^(step*k)), truncated.

    Requires ``a`` to carry strictly positive q-degree so that all but
    finitely many factors are 1 modulo q^trunc (see ``series_ops._poch``).
    """
    from .series_ops import poch_infinite

    return poch_infinite(a, step, trunc)


def qbinom(m: int, k: int) -> QSeries:
    """The Gaussian binomial coefficient as an exact polynomial in q: zero
    when k < 0 or k > m, else of nonnegative coefficients and degree k*(m-k)."""
    from .exact import qbinom

    return qbinom(m, k)


def qq_factorial(m: int) -> QSeries:
    """The product (1-q)(1-q^2)...(1-q^m) as an exact polynomial."""
    from .series_ops import qq_factorial

    return qq_factorial(m)
