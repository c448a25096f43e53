"""Exact products and exact division on the factor kernel, with no
truncation order anywhere.

The window rule: ``_exact_quotient`` sizes one ``kernel._Rows`` window to
the span of the known-polynomial numerator M: the series value, the
Pochhammer factors of positive power and each qbinom(m, j)^k with k > 0,
counted by its degree k*j(m - j).  Its top, the remainder region, is the
degree of the genuine divisions D: the other Pochhammer factors and qbinom
powers and the q-polynomial divisors.  Each kernel step is exact below the
window, so in any order it ends holding M/D there, the exact quotient when
it is zero in the region.  Both are counted before the chains merge:
merged, qbinom(2,1)*qbinom(4,2) cancels a factor 1 - q^2 its window needs.
A divisor lead - a of lead +-1 and one term a runs on the kernel's own
division, after ``budget._check_power``; any other runs ``_divide``, which
checks each coefficient for a remainder and, for a lead of +-1, for bits.
Exact products, ``series.qbinom``, ``series_ops._poch`` with no truncation
order and ``MultiSeries.exact_div`` load this module on first use.
"""

from __future__ import annotations

from .errors import DivisionInexact, DslError, TruncationRequired
from .kernel import TRIVIAL_MONO, _chain_factors, _qbinom_chains, _Rows


def _exact_product(value, c: int, chains: list, divisors: list) -> tuple:
    """(acc, shift) of c * value * chains (a list per factor) / divisors,
    as ``_exact_quotient`` gives them.  Pochhammer powers merge; a qbinom
    power, whose chains multiply and divide, counts by its own degree.
    Refused first when the value's span, |k| * max(j, |aux|) over the net
    Pochhammer factors and the qbinom degrees above 0 pass MAX_EXACT_DEGREE."""
    from .budget import MAX_EXACT_DEGREE

    qbinoms = [chain for chain in chains if len({k > 0 for _, k in chain}) > 1]
    nets = [sum(k * _span(a) for a, k in _chain_factors([q], None).items()) for q in qbinoms]
    own = _chain_factors([chain for chain in chains if chain not in qbinoms], None)
    exps = [e for _, e, _ in value.terms()] or [0]
    degree = max(exps) - min(exps) + sum(n for n in nets if n > 0) + sum(
        abs(k) * max(j, *map(abs, m)) for ((m, j, cj),), k in own.items() if cj)
    if degree > MAX_EXACT_DEGREE:
        raise DslError(f"exact product of degree {degree} exceeds the"
                       f" {MAX_EXACT_DEGREE}-degree limit")
    nets += [k * _span(a) for a, k in own.items()]
    return _exact_quotient(value.scale(c)._rows, _chain_factors(chains, None), divisors, nets)


def _span(a) -> int:
    """The q-degree of 1 - a, for a whose terms have q-exponent >= 1."""
    return max((e for _, e, c in a if c), default=0)


def _divide(acc: _Rows, a: tuple, lead: int, power: int, top: int) -> None:
    """Divide each row of acc in place by lead - a, a free of z, x and y
    with every q-exponent >= 1, in increasing total aux degree and, in a
    row, in increasing q-order; a remainder raises DivisionInexact.  For
    power != 0, a step of that power, a coefficient past top +
    MAX_POWER_BITS bits is refused."""
    if power:
        from .budget import MAX_POWER_BITS, _refuse_bits
    own = [(e, c) for _, e, c in a if c]
    for m in sorted(acc.rows, key=sum):
        row = acc.rows[m]
        for i in range(acc.low[m], len(row)):
            x = row[i] + sum(c * row[i - e] for e, c in own if e <= i)
            row[i], r = divmod(x, lead)
            if r:
                from .syntax import int_str

                raise DivisionInexact(f"coefficient {int_str(x)} not divisible"
                                      f" by {int_str(lead)}")
            if power and (bits := x.bit_length() - top) > MAX_POWER_BITS:
                _refuse_bits(power, bits)


def _exact_quotient(rows: dict, powers: dict, divisors: list, nets: list) -> tuple:
    """(acc, shift): the exact plain rows times each factor 1 - a to its
    net power in powers ({a: power}), divided by each d^k in divisors
    ([(d, k)], d a plain row {q-exponent: coefficient} free of z, x and y),
    as acc read at q^shift.  ``nets`` are the q-degrees of the factors
    whose product is powers: those above 0 widen the window, the others
    and the divisors make the remainder region.  A d = +-1 - a is checked
    by ``budget._check_power`` for one term a, a lead of -1 divided as lead
    1 and a sign, -1 - a = -(1 - (-a)); else on each coefficient."""
    steps, shift = [], 0
    for d, k in divisors:
        if not d:
            raise DivisionInexact("division by zero")
        (v, lead), *rest = sorted(d.items())  # q^v (lead - a)
        steps.append((tuple((TRIVIAL_MONO, e - v, -c) for e, c in rest), lead, k))
        shift -= k * v
    if not rows:
        return _Rows(0, 0), 0
    spans = nets + [-k * _span(a) for a, _, k in steps]
    lo, span = min(map(min, rows.values())), -sum(s for s in spans if s < 0)
    size = max(map(max, rows.values())) - lo + 1 + sum(s for s in spans if s > 0)
    if span >= size:
        raise DivisionInexact("dividend degree span below divisor's")
    acc = _Rows.load(rows, lo, size)
    acc.apply({a: k for a, k in powers.items() if k > 0})
    acc.apply({a: k for a, k in powers.items() if k < 0})
    for a, lead, k in steps:
        if lead in (1, -1) and len(a) == 1:
            from .budget import _check_power

            _check_power(a, -k, size)
            if lead == -1:  # (-1 - a)^k = (-1)^k (1 - (-a))^k
                a = tuple((m, e, -c) for m, e, c in a)
                if k % 2:
                    for row in acc.rows.values():
                        row[:] = [-x for x in row]
            for _ in range(k):
                acc.div(a)
        else:
            # a lead past +-1 checks its remainder at each step, a lead of
            # +-1 each coefficient's bits against the dividend's largest
            power = top = 0
            if lead in (1, -1):
                power, top = -k, max(max(map(int.bit_length, r)) for r in acc.rows.values())
            for _ in range(k):
                _divide(acc, a, lead, power, top)
    if any(any(row[size - span:]) for row in acc.rows.values()):
        raise DivisionInexact("nonzero remainder")
    return acc, shift


def exact_div(s, divisor):
    """``MultiSeries.exact_div``: each row of s divided exactly by divisor."""
    from .series import _lift

    divisor = _lift(divisor).qseries()
    if s.trunc is not None or divisor.trunc is not None:
        raise TruncationRequired("exact division needs exact polynomials")
    acc, shift = _exact_quotient(s._rows, {}, [(divisor.coeffs, 1)], [])
    return s._new(acc.gather({}, None, shift=shift), None)


def qbinom(m: int, k: int):
    """``series.qbinom``: c * [m, k] from its chains, c = 0 unless 0 <= k <= m."""
    from .series import QSeries

    if m < 0:
        raise ValueError("m must be nonnegative")
    acc, _ = _exact_product(QSeries.one(), int(0 <= k <= m), [_qbinom_chains(m, k)], [])
    return QSeries._new(acc.gather({}, None), None)
