"""The weight-capped partition families DS, OE, O and DO.

Each family is a table row for ``partitions``: its required parameters,
an enumerator that yields only the elements of weight at most the cap,
and a validator.  ``partitions.enumerate_domain`` and
``partitions.domain_validator`` load this module the first time one of
these families is named, so the maps and sweeps that never name one
(phi, psi, tau, rho) do not load it.

The validators are plain predicates that keep no state.  A sweep asks
each one once per element it maps, through the maps' input checks, which
are its only membership tests (see ``bijections``).
"""

from __future__ import annotations

from itertools import repeat
from operator import mod
from typing import Iterator, Optional

from .partitions import (
    DistinctPartition,
    Partition,
    PartitionPair,
    conjugate_parts,
    rectangle,
)


def _odd_exact(k: int, max_part: int, budget: Optional[int] = None,
               distinct: bool = False) -> Iterator[tuple]:
    """Odd partitions with exactly k parts, each <= max_part, decreasing.

    With ``budget`` only those of weight <= budget, and no candidate over it
    is generated; with ``distinct`` only those with distinct parts.  The
    order is that of the unbounded sequence.
    """
    if k == 0:
        if budget is None or budget >= 0:
            yield ()
        return
    top = max_part
    if budget is not None:
        # the k-1 smallest admissible parts after the first
        top = min(top, budget - ((k - 1) ** 2 if distinct else k - 1))
    top = top if top % 2 == 1 else top - 1
    for first in range(top, 0, -2):
        rest_budget = None if budget is None else budget - first
        for rest in _odd_exact(k - 1, first - 2 if distinct else first,
                               rest_budget, distinct):
            yield (first,) + rest


def _odd_even_mult(max_odd: int, weight_cap: int, length: Optional[int] = None,
                   ) -> Iterator[tuple]:
    """Odd partitions, each distinct part occurring an even number of times.

    Parts are <= max_odd, total weight <= weight_cap, and when ``length`` is
    given the number of parts (with multiplicity) is exactly ``length``.
    """
    top = max_odd if max_odd % 2 == 1 else max_odd - 1

    def rec(part, cap, slots):
        if part <= 0:
            if slots is None or slots == 0:
                yield ()
            return
        m = 0
        while 2 * m * part <= cap and (slots is None or 2 * m <= slots):
            head = (part,) * (2 * m)
            nslots = None if slots is None else slots - 2 * m
            for rest in rec(part - 2, cap - 2 * m * part, nslots):
                yield head + rest
            m += 1

    if length is not None and length % 2 == 1:
        return
    yield from rec(top, weight_cap, length)


def _is_odd_even_mult(parts) -> bool:
    """Every part odd, every multiplicity even: sorted, the parts pair off
    into equal neighbours, and one of each pair is odd."""
    ordered = sorted(parts)
    half = ordered[::2]
    return half == ordered[1::2] and all(map(mod, half, repeat(2)))


def _val_ds(elt, k: int) -> bool:
    if not isinstance(elt, Partition) or not elt.parts:
        return False
    parts = elt.parts
    if parts[0] != 2 * k + 1:
        return False
    d = elt.durfee_size()
    if d % 2 == 0 or not _is_odd_even_mult(parts[d:]):
        return False
    return _is_odd_even_mult(conjugate_parts([p - d for p in parts[:d] if p > d]))


def _enum_ds(k: int, cap: int) -> Iterator[Partition]:
    """Partitions with odd Durfee side, odd/even-multiplicity residue below
    and (conjugated) right of the square, largest part 2k+1, weight <= cap."""
    for d in range(1, 2 * k + 2, 2):
        cols = 2 * k + 1 - d  # number of cells the top row extends past the square
        if d * d + cols > cap:
            continue
        for c in _odd_even_mult(d, cap - d * d, length=cols):
            room = cap - d * d - sum(c)
            # c's parts are at most d, so its conjugate has at most d parts
            r = conjugate_parts(c)
            top = tuple([d + x for x in r] + [d] * (d - len(r)))
            for b in _odd_even_mult(d, room):
                yield Partition(top + b)


def _enum_oe(k: int, cap: int) -> Iterator[PartitionPair]:
    mu = Partition((2 * k + 1,))
    if mu.weight > cap:
        return
    for nu in _odd_even_mult(2 * k + 1, cap - mu.weight):
        yield PartitionPair(mu, Partition(nu))


def _val_oe(elt, k: int) -> bool:
    if not isinstance(elt, PartitionPair):
        return False
    nu = elt.second.parts
    if elt.first.parts != (2 * k + 1,) or (nu and nu[0] > 2 * k + 1):
        return False
    return _is_odd_even_mult(nu)


def _enum_o(n: int, k: int, cap: Optional[int] = None) -> Iterator[PartitionPair]:
    lam = rectangle(n)
    budget = None if cap is None else cap - lam.weight
    for pi in _odd_exact(k, 2 * n + 1, budget):
        yield PartitionPair(lam, Partition(pi))


def _val_o(elt, n: int, k: int) -> bool:
    if not isinstance(elt, PartitionPair):
        return False
    pi = elt.second.parts
    if elt.first.parts != ((n,) * (n + 1) if n else ()):  # rectangle(n)
        return False
    if len(pi) != k or not all(map(mod, pi, repeat(2))):
        return False
    return not pi or pi[0] <= 2 * n + 1


def _enum_do(n: int, k: int, cap: Optional[int] = None) -> Iterator[PartitionPair]:
    mu = Partition((n + k,) if n + k else ())
    budget = None if cap is None else cap - mu.weight
    for combo in _odd_exact(n, 2 * (n + k) - 1, budget, distinct=True):
        yield PartitionPair(mu, DistinctPartition(combo))


def _val_do(elt, n: int, k: int) -> bool:
    if not isinstance(elt, PartitionPair):
        return False
    nu = elt.second.parts
    if elt.first.parts != ((n + k,) if n + k else ()) or len(nu) != n:
        return False
    if not all(map(mod, nu, repeat(2))) or len(set(nu)) != n:
        return False
    return not nu or nu[0] <= 2 * (n + k) - 1


# name -> (required params, takes weight_cap, enumerator, validator), the
# rows that partitions._DOMAINS takes in on first use
DOMAINS = {
    "DS": (("k",), True, _enum_ds, _val_ds),
    "OE": (("k",), True, _enum_oe, _val_oe),
    "O": (("n", "k"), True, _enum_o, _val_o),
    "DO": (("n", "k"), True, _enum_do, _val_do),
}
