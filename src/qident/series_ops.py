"""The series operations the evaluator's main route never runs, loaded on
first use.

``qident.series`` keeps every name: its methods ``mul``, ``power``,
``invert_unit`` and ``subst_aux`` and its functions ``poch_finite``,
``poch_infinite`` and ``qq_factorial`` call the function of the same name
here.  The evaluator (``qident.dsl``) multiplies Pochhammer and q-binomial
powers on the kernel's rows, so it imports from here only ``_poch``, for a
Pochhammer product of any other base, and ``_times_power``, for any other
factor.

Every Pochhammer product, whatever its base, is ``_poch``: the factors
whose terms can reach q^0 or below are multiplied one by one and cut at
the truncation order, and the rest, each of constant term 1, are one
chain on the kernel, so its truncation order is the one a
factor-by-factor product derives.  Series inversion is one chain."""

from __future__ import annotations

from math import log2
from typing import Optional

from .errors import DslError, NonConvergent, NonUnitConstantTerm, TruncationRequired
from .kernel import _ONE, TRIVIAL_MONO, _min_trunc, _mono_mul, _Rows, _shift_trunc
from .series import AUX_VARS, MultiSeries, QSeries, _cls, _lift, mono_str


def mul(a: MultiSeries, other) -> MultiSeries:
    """a times other, trusted below the order each factor's truncation
    order and the other's valuation allow."""
    b = _lift(other)
    cls = _cls(a, b)
    # an exact zero annihilates regardless of the other operand's trunc
    if (not a._rows and a.trunc is None) or (not b._rows and b.trunc is None):
        return cls.zero()
    t = _min_trunc(_shift_trunc(a.trunc, b.min_exp), _shift_trunc(b.trunc, a.min_exp))
    rows: dict = {}
    b_rows = [(m, sorted(r.items())) for m, r in b._rows.items()]
    for m1, r1 in a._rows.items():
        for m2, items2 in b_rows:
            acc = rows.setdefault(_mono_mul(m1, m2), {})
            for e1, c1 in r1.items():
                for e2, c2 in items2:
                    e = e1 + e2
                    if t is not None and e >= t:
                        break
                    acc[e] = acc.get(e, 0) + c1 * c2
    return cls._from_rows(rows, t)


def power(a: MultiSeries, n: int) -> MultiSeries:
    if n < 0:
        raise ValueError("negative power; use invert_unit")
    result = a.one()
    base = a
    while n:
        if n & 1:
            result = result.mul(base)
        n >>= 1
        if n:
            base = base.mul(base)
    return result


def invert_unit(a: MultiSeries, trunc: Optional[int] = None) -> MultiSeries:
    t = _min_trunc(a.trunc, trunc)
    terms = a.terms()
    if terms and a.min_exp < 0:
        raise NonUnitConstantTerm("series has terms below q^0")
    for m in a._rows:
        if any(e < 0 for e in m):
            raise NonUnitConstantTerm(
                f"negative aux exponent in {mono_str(m)} is not invertible"
            )
    if {m: c for m, e, c in terms if e == 0} != {TRIVIAL_MONO: 1}:
        raise NonUnitConstantTerm("q^0 layer is not the constant 1")
    if t is None:
        if len(terms) == 1:
            return a.one()
        raise TruncationRequired("inverse of a non-trivial series is infinite")
    # a = 1 - b, where b holds every term of a above q^0, negated
    acc = _Rows.load(_ONE, 0, t)
    acc.apply({tuple((m, e, -c) for m, e, c in terms if e): -1})
    return a._new(acc.gather({}, t), t)


def _reciprocal(ms: MultiSeries, trunc: Optional[int]) -> MultiSeries:
    """The evaluator's ms^(-1), trusted below trunc."""
    # a single monomial c*m*q^e with c = +-1 has a Laurent reciprocal; when
    # ms is trusted only below t, ms = c*m*q^e * (1 + O(q^(t - e))), so the
    # reciprocal is trusted only below t - 2e.  Anything else needs a unit
    # constant term.
    terms = ms.terms()
    if len(terms) == 1:
        (mono, e, c), = terms
        if c in (1, -1):
            return MultiSeries.from_terms(
                [(tuple(-v for v in mono), -e, c)],
                None if ms.trunc is None else ms.trunc - 2 * e)
    return ms.invert_unit(trunc)


def _times_power(value: MultiSeries, base: MultiSeries, k: int, inner: Optional[int],
                 divisors: list) -> MultiSeries:
    """value times base^k below q^inner, or exactly for inner None: the
    evaluator's step for a factor that is no chain, refused first when
    the power could pass a size limit (``_power_check``).  An exact base^k
    with k < 0 and base free of z, x and y is not multiplied in: (base's
    row, -k) is appended to divisors, for ``exact._exact_quotient``."""
    series = inner is not None and base.min_exp >= 0
    if abs(k) > 1 and (inner is None or k > 0 or series):
        # a power series' power below inner needs only its terms below
        # inner; otherwise the power is expanded exactly.  Either way
        # the q-truncation does not bound the degree in z, x and y.
        _power_check(base, k, with_q=base.trunc is None and not series,
                     layers=inner if series else None)
        if series and k > 0:
            base = base.truncate(inner)
    if k < 0 and inner is None and set(base.monomials()) <= {TRIVIAL_MONO}:
        divisors.append((base.qseries().coeffs, -k))
        return value
    if k < 0:
        base, k = _reciprocal(base, inner), -k
    x = base if k == 1 else base.power(k)
    return value.mul(x if inner is None else x.truncate(inner))


def subst_aux(a: MultiSeries, **subs) -> MultiSeries:
    norm = {}  # aux index -> (sign, exponent vector) of its image
    for var, val in subs.items():
        sign, target = ((val, None) if val in (1, -1) else
                        (1, val) if isinstance(val, str) else val)
        norm[AUX_VARS.index(var)] = sign, [int(v == target) for v in AUX_VARS]
    image = {}  # monomial -> (its image, sign)
    for mono in a._rows:
        new, sign_total = list(mono), 1
        for i, (sign, vec) in norm.items():
            e, new[i] = mono[i], new[i] - mono[i]
            new = [n + e * v for n, v in zip(new, vec)]
            sign_total *= sign ** (e % 2)
        image[mono] = tuple(new), sign_total
    return MultiSeries.from_terms(
        [(image[m][0], e, image[m][1] * c) for m, e, c in a.terms()],
        a.trunc,
    )


def _power_check(base: MultiSeries, k: int, with_q: bool, layers: int | None) -> None:
    """Refuse the power base^k of a series when its exponent range in z, x
    or y, or in q when ``with_q``, |k| times that of base, would pass
    MAX_EXACT_DEGREE; then, for k > 0 or below q^layers (None: all of it),
    when its largest coefficient could pass MAX_POWER_BITS bits.  The
    limits and the other refusals are in ``qident.budget``.

    Each coefficient of base^k, k > 0, is at most S^k, S the sum of |c|
    over base's terms.  When the power is wanted only below q^layers, base
    being a power series, each wanted coefficient takes at most
    min(k, layers - 1) of its k factors from above base's lowest q-layer:
    it is at most S_low^k (k * S_high)^min(k, layers - 1), S_low and
    S_high the sums of |c| in that layer and in the layers above it below
    q^layers.  For k < 0 the q^0 layer is 1 (else the inverse is refused
    later), the exponent range in z, x and y is that of the wanted layers,
    and base^k = (1 - a)^k, a of |c| summing to S_high, is at most
    sum_{r <= i} C(-k + r - 1, r) S_high^r <= C(i - k, i) S_high^i at q^i:
    the bound of one term to the power k - 1 (``budget._inverse_bits``).
    """
    from .budget import MAX_EXACT_DEGREE, _bits, _inverse_bits, _refuse_bits
    from .syntax import int_str

    terms = base.terms()
    if not terms:
        return
    if k < 0 and layers is not None:
        s_high = sum(abs(c) for _, e, c in terms if 0 < e < layers)
        bits = _inverse_bits(layers - 1, s_high, 1 - k)
    else:
        ranges = [max(col) - min(col) for col in zip(*(m for m, _, _ in terms))]
        if with_q:
            exps = [e for _, e, _ in terms]
            ranges.append(max(exps) - min(exps))
        degree = max(ranges)
        if degree * abs(k) > MAX_EXACT_DEGREE:
            what, of = (("polynomial", " of exact powers") if base.trunc is None
                        else ("truncated series", ""))
            raise DslError(
                f"power {int_str(k)} of a {what} of degree {degree} exceeds the"
                f" {MAX_EXACT_DEGREE}-degree limit{of}")
        if k < 0:
            return
        if layers is None:
            bits = _bits(k, sum(abs(c) for _, _, c in terms))
        else:
            low = min(e for _, e, _ in terms)
            s_low = sum(abs(c) for _, e, c in terms if e == low)
            s_high = sum(abs(c) for _, e, c in terms if low < e < layers)
            bits = _bits(k, s_low) + min(k, layers - 1) * log2(max(k * s_high, 1))
    _refuse_bits(k, bits)


# ---------------------------------------------------------------------------
# Pochhammer products, each one chain of factors on the kernel's accumulator
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
        t = _min_trunc(t, _shift_trunc(ms.trunc, j + lo), trunc)
    end = stop if t is None else _min_trunc(stop, t - lo - d)
    tail = {tuple((m, e + i, c) for m, e, c in terms): 1 for i in range(j, end, step)}
    if t is None:
        from .exact import _exact_quotient, _span

        acc, _ = _exact_quotient(head._rows, tail, [], list(map(_span, tail)))
    else:
        acc = _Rows.load(head._rows, lo, t - lo)
        acc.apply(tail)
    return _cls(a)._new(acc.gather({}, t), t)


def poch_finite(a, step: int, count: int, trunc: Optional[int] = None):
    if step <= 0:
        raise ValueError("step must be a positive integer")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _poch(a, step, count, trunc)


def poch_infinite(a, step: int, trunc: int):
    if step <= 0:
        raise ValueError("step must be a positive integer")
    return _poch(a, step, None, trunc)


def qq_factorial(m: int) -> QSeries:
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _poch(QSeries.q(), 1, m, None)
