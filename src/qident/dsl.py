"""The evaluator of a small expression language for q-series.

The language's syntax (its grammar, AST, tokenizer, parser and
``unparse``) is in ``qident.syntax``; this module re-exports those names
and evaluates what ``parse`` returns.

Built-in calls: ``poch(a, step, count|inf)``, ``qbinom(m, k)``,
``binom(m, k)`` and ``sum(var, lo, hi, body)``.  Exponents, Pochhammer
steps/counts, binom arguments and sum bounds live in integer context; q
and the aux variables z, x, y are series-valued and may not appear there.
A negative exponent on a series denotes the multiplicative inverse.

The texts in the identity registry are the only closed-form definitions of
the identities' sides, so evaluation passes precision down on demand, as
lazy power series do.  Everything but a sum is a product, and a call alone
is a product of one factor.  A product first folds its monomial factors
into c * z^a * x^b * y^d * q^v; the other factors are evaluated only to
q-order ``trunc - v``, and not at all once the product's valuation is known
to reach ``trunc``.  Powers of Pochhammer products of a monomial, and those
of qbinom(m, k) = (q^(m-k+1); q)_k / (q; q)_k, are not expanded on their
own: the factor kernel (``qident.kernel``) multiplies or divides one dense
accumulator by each factor 1 - c*m*q^j to its power, in one step, inside
its window.  At a truncation order, summands of a ``sum`` that are a
monomial times such powers share one accumulator: consecutive summands
differ in a few factors, so each applies only the change from the one
before, and a sum of N summands costs O(N) kernel steps rather than
O(N^2).  With no truncation order the accumulator holds the product's
known polynomials, and divides it exactly by the negative powers of
Pochhammer products, of qbinoms and of q-polynomials free of z, x and y
(``qident.exact``).

A ``sum`` adds each summand into one running total as soon as it is
evaluated, so its memory is the size of its result, not that times its
number of summands.  At a truncation order the total is one dense
accumulator: a summand that ends on the kernel adds its accumulator,
times its monomial, straight into it, and any other adds its terms to
sparse rows; the two are turned into one series at the end.  With no
truncation order every summand goes to the sparse rows, since a dense
window over an exact sum's exponents could cost far more than its terms
(``sum(n, 0, 3, q^(1000000*n))``).  The presence of a truncation order is
the only thing that picks the dense total.  The integer context
(``eval_int``) and every size limit and refusal are in ``qident.budget``.
A factor that is neither a monomial nor such a power (a sum, or a power
or inverse of one) is multiplied in by ``series_ops._times_power``, which
checks its power and loads on first use, as ``qident.exact`` does for an
exact product.
"""

from __future__ import annotations

from typing import Optional

from .errors import DslError, UnboundVariable
# the kernel first: its parse tree is larger than the series', so it is
# compiled while less is in memory (see MAX_AST_NODES in
# tests/test_imports.py)
from .kernel import _ONE, TRIVIAL_MONO, _chain_factors, _mono_mul, _qbinom_chains, _Rows, _Total
from .series import MultiSeries
# the integer context and the size limits, eval_int and the limits re-exported
from .budget import (MAX_EXACT_DEGREE, MAX_SUM_TERMS, RESERVED, _int_power, _poch_args,
                     _qbinom_args, _sum_args, eval_int)
# the syntax this module evaluates, and re-exports
from .syntax import (MAX_POWER_BITS, BinOp, Call, Expr, Int, Name, Neg, Pow, Token, parse,
                     unparse)


_GENERATORS = {"z": (1, 0, 0), "x": (0, 1, 0), "y": (0, 0, 1)}


def _split(e: Expr, bindings: dict, rest: list) -> tuple:
    """Fold the monomial factors of a product into (c, aux exponents, v).

    The monomial is c * z^a * x^b * y^d * q^v.  Monomial factors are
    integers, bound names, q, z, x, y, binom calls, and their products,
    negations and integer powers (negative ones only when c is +-1).  Every
    other factor is appended to ``rest``.
    """
    if isinstance(e, BinOp) and e.op == "*":
        c1, m1, v1 = _split(e.left, bindings, rest)
        c2, m2, v2 = _split(e.right, bindings, rest)
        return c1 * c2, _mono_mul(m1, m2), v1 + v2
    if isinstance(e, Neg):
        c, mono, v = _split(e.operand, bindings, rest)
        return -c, mono, v
    if isinstance(e, Int):
        return e.value, TRIVIAL_MONO, 0
    if isinstance(e, Name):
        if e.ident == "q":
            return 1, TRIVIAL_MONO, 1
        if e.ident in _GENERATORS:
            return 1, _GENERATORS[e.ident], 0
        if e.ident == "inf":
            raise DslError("'inf' is only valid as the count argument of poch")
        if e.ident not in bindings:
            raise UnboundVariable(f"unbound variable {e.ident!r}")
        return bindings[e.ident], TRIVIAL_MONO, 0
    if isinstance(e, Pow):
        inner: list = []
        c, mono, v = _split(e.base, bindings, inner)
        if not inner:
            k = eval_int(e.exponent, bindings)
            if k >= 0 or c in (1, -1):
                return _int_power(c, abs(k)), tuple(k * a for a in mono), k * v
    elif isinstance(e, Call) and e.func == "binom":
        return eval_int(e, bindings), TRIVIAL_MONO, 0
    rest.append(e)
    return 1, TRIVIAL_MONO, 0


def _low_bound(e: Expr, bindings: dict) -> Optional[int]:
    """A lower bound on the q-valuation of e's value, found without
    expanding any series; None when no bound is known that way.

    A factor given a bound may be skipped rather than evaluated, so a
    malformed call, or an inverse that would fail, gets no bound.
    """
    rest: list = []
    _, _, low = _split(e, bindings, rest)
    return _factors_low(rest, low, bindings, [])


def _factors_low(rest: list, low: int, bindings: dict, walked: list) -> Optional[int]:
    """low plus ``_low_bound`` of each factor in rest, None at the first of
    none; each factor's chains at a truncation order are appended to
    ``walked`` as the walk reaches it."""
    for f in rest:
        walked.append(chain := _chains(f, bindings, False))
        if chain is not None:  # of valuation 0
            continue
        if isinstance(f, BinOp):  # "+" or "-"
            lows = (_low_bound(f.left, bindings), _low_bound(f.right, bindings))
            b = None if None in lows else min(lows)
        elif isinstance(f, Pow) and (k := eval_int(f.exponent, bindings)) >= 0:
            b = _low_bound(f.base, bindings)
            b = None if b is None else k * b
        else:
            return None
        if b is None:
            return None
        low += b
    return low


def _chains(f: Expr, bindings: dict, exact: bool) -> Optional[list]:
    """The chains of f (see ``_chain_factors``) when the kernel applies f =
    P^k factor by factor, else None; a malformed call raises.  P is qbinom(m,
    j), 0 <= j <= m, or a poch of a monomial of q-valuation v >= 1, or for k
    = 1 of v = 0 in z, x or y with a finite count; for k < 0 the monomial
    has no negative z, x or y exponent (none when ``exact``)."""
    base = f.base if isinstance(f, Pow) else f
    if not (isinstance(base, Call) and base.func in ("poch", "qbinom")):
        return None
    k = eval_int(f.exponent, bindings) if base is not f else 1
    if base.func == "qbinom":
        m, j = _qbinom_args(base, bindings)
        if not 0 <= j <= m:
            return None
        return [(a, k * s) for a, s in _qbinom_chains(m, j)]
    step, count = _poch_args(base, bindings, exact, k)
    rest: list = []
    c, mono, v = _split(base.args[0], bindings, rest)
    if rest or v < 0 or not v and (k != 1 or count is None or not any(mono)):
        return None
    if k < 0 and (any(mono) if exact else min(mono) < 0):
        return None
    return [((c, mono, v, step, count), k)]


class _Carry:
    """One sum's summands: their running total, and their Pochhammer
    powers on one accumulator, carried from summand to summand.

    ``total`` is a series ``_Total``.  A summand that ends on the kernel
    adds its accumulator, times its monomial, straight into it; any other
    adds its terms.  So no summand outlives its addition, and at a
    truncation order the sum holds one dense total, not its summands.

    ``rows`` gives the product of a summand's chains below q^size, the
    summand's window.  Consecutive summands share most of their factors,
    so only the change in each factor's net power is applied, exactly
    inside the window: ``mul`` for a power that rises, ``div`` for one that
    falls.  A smaller window cuts the rows and forgets the factors with
    j >= size, which are 1 below q^size.  A larger window, or a fall in the
    power of a factor ``div`` does not take (j = 0, as in poch(z, 1, n), or
    a negative aux exponent), starts afresh.
    """

    __slots__ = ("acc", "powers", "total")

    def __init__(self):
        self.acc: Optional[_Rows] = None
        self.powers: dict = {}
        self.total = _Total()

    def rows(self, chains: list, size: int) -> _Rows:
        acc, old = self.acc, self.powers
        powers = _chain_factors(chains, size)
        if acc is not None and size < acc.size:
            acc.shrink(size)
            old = {a: k for a, k in old.items() if a[0][1] < size}
        change = {a: powers.get(a, 0) - old.get(a, 0)
                  for a in {**old, **powers}}
        if acc is None or size > acc.size or any(  # a division div does not take
                k < 0 and (not a[0][1] or min(a[0][0]) < 0) for a, k in change.items()):
            acc, change = _Rows.load(_ONE, 0, size), powers
        acc.apply(change)
        self.acc, self.powers = acc, powers
        return acc


def _eval_product(e: Expr, bindings: dict, trunc: Optional[int],
                  carry: Optional[_Carry] = None) -> Optional[MultiSeries]:
    """A product, valuation first.

    The monomial factors fold into c * m * q^v.  When v plus the known
    valuations of the other factors reaches ``trunc``, the product is zero
    below ``trunc`` and the other factors are not evaluated.  Otherwise they
    are evaluated at ``trunc - v``, but at least 1 so that the constant term
    an inverse needs is kept, multiplied and shifted by q^v; a call that is
    no chain (``_chains``) goes to ``_eval_call``.  The chains are applied
    factor by factor to one dense accumulator over the window they are
    trusted in, or, when they are the only factors besides the monomial, to
    the accumulator ``carry`` keeps for a sum.  In an exact context
    (``trunc`` None) the accumulator holds c times the product of the
    powers that are known polynomials, and divides it by the others and by
    each X^(-k) with X free of z, x and y (``exact._exact_product``).
    With ``carry``, a product that ends on the kernel is added to the
    carry's total, returning None.
    """
    rest: list = []
    c, mono, v = _split(e, bindings, rest)
    monomial = MultiSeries.term(c, v, *mono)
    if not rest:
        return monomial if trunc is None or v < trunc else MultiSeries.zero(trunc)
    # each factor's chains, worked out once in factor order, at a
    # truncation order first by the valuation walk, up to where it stops
    inner, walked = None, []
    if trunc is not None:
        if (low := _factors_low(rest, v, bindings, walked)) is not None and low >= trunc:
            return MultiSeries.zero(trunc)
        inner = max(trunc - v, 1)
    value = MultiSeries.one()
    chains, divisors, others = [], [], 0
    for i, f in enumerate(rest):
        chain = walked[i] if i < len(walked) else _chains(f, bindings, inner is None)
        if chain is not None:
            chains.append(chain)
            continue
        others += 1
        if isinstance(f, Pow):
            base, k = eval_series(f.base, bindings, inner), eval_int(f.exponent, bindings)
        else:
            ev = _eval_call if isinstance(f, Call) else eval_series
            base, k = ev(f, bindings, inner), 1
        from .series_ops import _times_power

        value = _times_power(value, base, k, inner, divisors)
    if inner is None and (chains or divisors):
        from .exact import _exact_product

        acc, shift = _exact_product(value, c, chains, divisors)
        t, c, v = None, 1, v + shift
    else:
        if others == len(rest) or not c or (value.is_zero() and value.trunc is None):
            return value.mul(monomial)
        if carry is not None and not others:
            acc = carry.rows(chains, inner)
        else:
            # the powers have constant term 1 and are trusted below inner,
            # so the product is trusted below min(value.trunc, inner +
            # value's valuation), the window the accumulator keeps
            lo = value.min_exp
            acc = _Rows.load(value._rows, lo, inner if value.trunc is None
                             else min(value.trunc - lo, inner))
            acc.apply(_chain_factors(chains, acc.size))
        t = acc.lo + acc.size + v
    # acc times c * mono * q^v, trusted below t
    if carry is None:
        return MultiSeries._new(acc.gather({}, t, c, mono, v), t)
    carry.total.add_rows(acc, t, c, mono, v)
    return None


def eval_series(e: Expr, bindings: dict, trunc: Optional[int],
                carry: Optional[_Carry] = None) -> Optional[MultiSeries]:
    """Evaluate an expression in series context; ``carry``, used only when
    e is a product, is what a sum keeps for its summands, and a product
    added to its total returns None."""
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        l = eval_series(e.left, bindings, trunc)
        r = eval_series(e.right, bindings, trunc)
        return l.add(r) if e.op == "+" else l.add(r.neg())
    if isinstance(e, Call) and e.func == "sum":
        return _eval_call(e, bindings, trunc)
    if isinstance(e, (Int, Name, Neg, BinOp, Pow, Call)):
        return _eval_product(e, bindings, trunc, carry)
    raise DslError(f"cannot evaluate {e!r} as a series")


def _eval_call(e: Call, bindings: dict, trunc: Optional[int]) -> MultiSeries:
    if e.func == "poch":
        from .series_ops import _poch

        step, count = _poch_args(e, bindings, trunc is None)
        return _poch(eval_series(e.args[0], bindings, trunc), step, count, trunc)
    if e.func == "qbinom":  # j outside [0, m]: every other qbinom is a chain
        _qbinom_args(e, bindings)
        return MultiSeries.zero()
    if e.func == "sum":
        var, lo, hi = _sum_args(e, bindings)
        # each summand is added into one total as soon as it is evaluated
        # (see _Carry), and a zero summand only lowers the truncation
        inner, carry = dict(bindings), _Carry()
        for v in range(lo, hi + 1):
            inner[var] = v
            value = eval_series(e.args[3], inner, trunc, carry)
            if value is not None:
                carry.total.add(value._rows, value.trunc)
        return MultiSeries._new(*carry.total.value())
    raise DslError(f"unknown function {e.func!r}")


def evaluate(text: str, bindings: Optional[dict] = None,
             trunc: Optional[int] = None) -> MultiSeries:
    """Parse and evaluate source text in one step.  A binding may not name
    q, z, x, y or inf, which the text would read as the series value."""
    bindings = dict(bindings or {})
    for name in bindings:
        if name in RESERVED:
            raise DslError(f"binding may not shadow reserved name {name!r}")
    return eval_series(parse(text), bindings, trunc)
