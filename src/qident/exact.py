"""Exact products and exact division on the factor kernel, with no
truncation order anywhere.

``_exact_quotient`` sizes one ``kernel._Rows`` window to hold a whole
product, applies the chain factors to it, and divides it by q-polynomials
free of z, x and y, the divisions last, so a quotient that vanishes above
its degree is exact.  A divisor lead - a of lead +-1 and one term a runs
on the kernel's own division, after the chain bound of
``budget._check_power``; any other runs ``_divide``, which checks each
coefficient for a remainder and, for a lead of +-1, for bits.  The
evaluator's exact products (``qident.dsl``), ``series_ops._poch`` with
no truncation order and ``MultiSeries.exact_div``, whose body
``exact_div`` is, import this module on first use, so a truncated
evaluation never loads it.
"""

from __future__ import annotations

from .errors import DivisionInexact, DslError, TruncationRequired
from .kernel import TRIVIAL_MONO, _chain_factors, _Rows


def _exact_product(value, c: int, chains: list, divisors: list) -> tuple:
    """(acc, shift), as ``_exact_quotient`` gives them, of the evaluator's
    exact product: c times the series value times the chains (see
    ``kernel._chain_factors``), divided by the divisors.  Refused first,
    before the window is made, when its degree would pass
    MAX_EXACT_DEGREE."""
    from .budget import MAX_EXACT_DEGREE

    powers = _chain_factors(chains, None)
    exps = [e for _, e, _ in value.terms()] or [0]
    degree = max(exps) - min(exps) + sum(
        abs(k) * max(j, *map(abs, m)) for ((m, j, cj),), k in powers.items() if cj)
    if degree > MAX_EXACT_DEGREE:
        raise DslError(f"exact product of degree {degree} exceeds the"
                       f" {MAX_EXACT_DEGREE}-degree limit")
    return _exact_quotient(value.scale(c)._rows, powers, divisors)


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


def _exact_quotient(rows: dict, powers: dict, divisors: list) -> tuple:
    """(acc, shift): the exact plain rows times each factor 1 - a to its
    net power in powers ({a: power}), divided by each d^k in divisors
    ([(d, k)], d a plain row {q-exponent: coefficient} free of z, x and y),
    as acc read at q^shift.  The window holds the undivided product and the
    divisions come last, so a quotient vanishing above its degree is exact;
    any other, or a zero d, is DivisionInexact.  A d = +-1 - a is checked
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
    spans = [k * _span(a) for a, k in powers.items()] + [-k * _span(a) for a, _, k in steps]
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
    acc, shift = _exact_quotient(s._rows, {}, [(divisor.coeffs, 1)])
    return s._new(acc.gather({}, None, shift=shift), None)
