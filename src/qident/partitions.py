"""Partition types, structural maps, and exhaustive enumerators.

Covers ordinary/distinct partitions, sets of distinct integers in a symmetric
range (whose weight may be negative), partitions-in-a-box enumeration, and the
bounded families the constructive maps act on, each paired with a validator
predicate.  Enumerators yield each element exactly once and are restartable.
The table of families holds B1, B2, B3, P and P_gt; the weight-capped
families DS, OE, O and DO live in ``capped``, which the table loads the
first time one of them is named.

Constructors and validators check each invariant once, as one pass over
neighbouring entries (``all(map(ge, parts, parts[1:]))`` for weakly
decreasing parts, the two ends for a range); the element-wise checks run
only on a refused value, to pick its message.  ``conjugate_parts`` is the
one conjugate, O(len + largest part).
"""

from __future__ import annotations

from itertools import accumulate, combinations, combinations_with_replacement, repeat
from operator import ge, gt, lt, mod
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import MissingParam, NotSelfConjugate, UnknownDomain

if TYPE_CHECKING:
    from .series import QSeries


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        if parts and not (parts[-1] > 0 and all(map(ge, parts, parts[1:]))):
            _partition_error(parts)
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"{type(self).__name__}{self.parts}"

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram."""
        return Partition(conjugate_parts(self.parts))

    def durfee_size(self) -> int:
        """Side of the largest square inside the Ferrers diagram: the
        number of rows i (from 1) with a part >= i, which come first."""
        return sum(map(ge, self.parts, range(1, len(self.parts) + 1)))

    def is_self_conjugate(self) -> bool:
        return conjugate_parts(self.parts) == self.parts


class DistinctPartition(Partition):
    """A partition with strictly decreasing parts."""

    __slots__ = ()

    def __init__(self, parts=()):
        parts = tuple(parts)
        if parts and not (parts[-1] > 0 and all(map(gt, parts, parts[1:]))):
            _partition_error(parts)
            raise ValueError(f"parts must be strictly decreasing: {parts}")
        self.parts = parts


def _partition_error(parts: tuple) -> None:
    """Raise the ValueError of the first element-wise check ``parts``
    fails: positive parts, then weakly decreasing.  Constructors call it
    only when their one-pass test fails; values that pass both checks
    (possible only with incomparable ones such as NaN) raise nothing."""
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(map(lt, parts, parts[1:])):
        raise ValueError(f"parts must be weakly decreasing: {parts}")


class SignedDistinctSet:
    """A set of distinct integers in [-n, n], stored increasing.

    The weight (sum of elements) may be negative or zero.
    """

    __slots__ = ("elements", "n")

    def __init__(self, elements=(), n: int = 0):
        elements = tuple(elements)
        # strictly increasing with both ends in range puts every element in
        # range; the element-wise checks only pick the message
        if elements and not (-n <= elements[0] and elements[-1] <= n
                             and all(map(lt, elements, elements[1:]))):
            if any(abs(e) > n for e in elements):
                raise ValueError(f"element out of range [-{n}, {n}]: {elements}")
            if any(map(ge, elements, elements[1:])):
                raise ValueError(f"elements must be strictly increasing: {elements}")
        self.elements = elements
        self.n = n

    @property
    def weight(self) -> int:
        return sum(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, SignedDistinctSet)
            and self.elements == other.elements
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.elements, self.n))

    def __repr__(self):
        return f"SignedDistinctSet({self.elements}, n={self.n})"


class PartitionPair:
    """A pair of partitions whose weight is the sum of the components'."""

    __slots__ = ("first", "second")

    def __init__(self, first: Partition, second: Partition):
        self.first = first
        self.second = second

    @property
    def weight(self) -> int:
        return sum(self.first.parts) + sum(self.second.parts)

    def __eq__(self, other):
        return (
            isinstance(other, PartitionPair)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self):
        # the hash of (first, second), as a partition hashes as its parts
        return hash((self.first.parts, self.second.parts))

    def __iter__(self):
        return iter((self.first, self.second))

    def __repr__(self):
        return f"PartitionPair({self.first!r}, {self.second!r})"


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def conjugate(p: Partition) -> Partition:
    return p.conjugate()


def conjugate_parts(parts) -> tuple:
    """Conjugate of a weakly decreasing tuple of parts: for j from 1 to the
    first part, entry j - 1 counts the parts >= j.  One tally of the parts
    and one running sum over it, so O(len + largest part); parts <= 0 add
    nothing."""
    if not parts or parts[0] <= 0:
        return ()
    width = parts[0]
    tally = [0] * (width + 1)
    for p in parts:
        if p > 0:
            tally[p if p < width else width] += 1
    # summed from the widest column down, entry j counts the parts >= j.
    # Through a list: tuple() of an iterator with no length hint allocates
    # 10 slots and resizes, so the tuple is born outside CPython's free
    # list of its size but dies into it, and those lists fill up for good
    columns = list(accumulate(reversed(tally[1:])))
    columns.reverse()
    return tuple(columns)


def durfee_size(p: Partition) -> int:
    return p.durfee_size()


def selfconj_to_distinct_odd(p: Partition) -> DistinctPartition:
    """Principal-hook decomposition of a self-conjugate partition.

    Hook i contributes the odd part 2*(p_i - i) + 1; the output is a distinct
    odd partition with as many parts as the Durfee square side, and the same
    weight.
    """
    if not p.is_self_conjugate():
        raise NotSelfConjugate(f"{p!r} is not self-conjugate")
    return _principal_hooks(p.parts, p.durfee_size())


def _principal_hooks(parts: tuple, d: int) -> DistinctPartition:
    """The odd parts 2*(parts[i] - (i + 1)) + 1 of the first d rows: the
    hook lengths of a self-conjugate partition with Durfee side d, which the
    caller has checked."""
    return DistinctPartition([2 * (parts[i] - i) - 1 for i in range(d)])


def distinct_odd_to_selfconj(dp: Partition) -> Partition:
    """Fold distinct odd parts back into nested principal hooks."""
    parts = dp.parts
    if not all(map(mod, parts, repeat(2))):
        raise ValueError(f"parts must be odd: {parts}")
    if not all(map(gt, parts, parts[1:])):
        raise ValueError(f"parts must be strictly decreasing: {parts}")
    # hook i has its corner at (i, i) and arm and leg (part - 1) / 2 long; its
    # leg ends in row reach[i], and reach is weakly decreasing
    reach = [i + (a - 1) // 2 for i, a in enumerate(parts)]
    d = len(reach)
    # row i < d ends with hook i's arm; row r >= d holds one cell of every
    # leg that reaches it, which is entry r - 1 of the conjugate of reach
    below = conjugate_parts(reach)[d - 1:] if d else ()
    return Partition(tuple([r + 1 for r in reach]) + below)


# ---------------------------------------------------------------------------
# Elementary enumerators (raw tuples)
# ---------------------------------------------------------------------------


def _box_tuples(max_parts: int, max_part: int) -> Iterator[tuple]:
    """Partitions with at most max_parts parts, each at most max_part.

    Each tuple comes before its extensions, and the first parts decrease
    from max_part: (), (m,), (m, m), ..., (1, ..., 1).  The next tuple
    repeats the last part while there is room; otherwise it drops the
    trailing 1s and lowers the part before them.
    """
    yield ()
    if max_parts <= 0 or max_part <= 0:
        return
    parts = [max_part]
    while parts:
        yield tuple(parts)
        if len(parts) < max_parts:
            parts.append(parts[-1])
            continue
        while parts and parts[-1] == 1:
            parts.pop()
        if parts:
            parts[-1] -= 1


def enumerate_partitions(max_parts: int, max_part: int) -> Iterator[Partition]:
    """Every partition fitting in a max_parts x max_part box, exactly once."""
    if max_parts < 0 or max_part < 0:
        raise ValueError("box bounds must be nonnegative")
    for t in _box_tuples(max_parts, max_part):
        yield Partition(t)


def _subsets(items: Iterable) -> Iterator[tuple]:
    """The subsets of items as tuples, each size in ``combinations`` order."""
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def _enum_b1(n: int) -> Iterator[PartitionPair]:
    for lam in _subsets(range(n, 0, -1)):
        bound = (lam[-1] - 1) if lam else n
        first = DistinctPartition(lam)  # shared by the pairs it heads
        for pi in _box_tuples(n + 1, bound):
            yield PartitionPair(first, Partition(pi))


def _val_b1(elt, n: int) -> bool:
    if not isinstance(elt, PartitionPair):
        return False
    lam, pi = elt.first.parts, elt.second.parts
    if len(set(lam)) != len(lam):
        return False
    if lam and lam[0] > n:
        return False
    if len(pi) > n + 1:
        return False
    return not pi or pi[0] <= ((lam[-1] - 1) if lam else n)


def _enum_b2(n: int) -> Iterator[tuple]:
    for t in range(n + 1):
        for nu in _box_tuples(n + 1 + t, n - t):
            yield (t, Partition(nu))


def _val_b2(elt, n: int) -> bool:
    if not (isinstance(elt, tuple) and len(elt) == 2):
        return False
    t, nu = elt
    if not (isinstance(t, int) and 0 <= t <= n and isinstance(nu, Partition)):
        return False
    parts = nu.parts
    if len(parts) > n + 1 + t:
        return False
    return not parts or parts[0] <= n - t


def _enum_b3(n: int) -> Iterator[tuple]:
    """B2's elements in the order of rho's images of P_gt: for t
    ascending, the nondecreasing excess vectors of n+1+t entries in
    [0, n-t], lexicographically, each reversed with its zeros dropped."""
    for t in range(n + 1):
        for excess in combinations_with_replacement(range(n - t + 1), n + 1 + t):
            yield (t, Partition(excess[excess.count(0):][::-1]))


# B3 elements have the same (t, nu) shape and bounds as B2; only the
# reconstruction of the first component differs (a consecutive run from -n
# instead of a staircase), so the box constraints coincide.
_val_b3 = _val_b2


def staircase(t: int) -> DistinctPartition:
    """The partition (t, t-1, ..., 1) represented by its size t."""
    return DistinctPartition(tuple(range(t, 0, -1)))


def run_weight(n: int, t: int) -> int:
    """Weight of the consecutive run {-n, -n+1, ..., t}."""
    return t * (t + 1) // 2 - n * (n + 1) // 2


def b2_weight(elt) -> int:
    t, nu = elt
    return t * (t + 1) // 2 + sum(nu.parts)


def b3_weight(n: int, elt) -> int:
    """run_weight(n, t) plus the weight of nu."""
    t, nu = elt
    return (t * (t + 1) - n * (n + 1)) // 2 + sum(nu.parts)


def signed_sets(n: int, sizes: Iterable[int]) -> Iterator[SignedDistinctSet]:
    """The subsets of [-n, n] of each size in ``sizes``, in that order of
    sizes and, within a size, in lexicographic order; no other set is
    built."""
    universe = range(-n, n + 1)
    for r in sizes:
        for combo in combinations(universe, r):
            yield SignedDistinctSet(combo, n)


def _enum_p(n: int) -> Iterator[SignedDistinctSet]:
    return signed_sets(n, range(2 * n + 2))


def _val_p(elt, n: int) -> bool:
    if not isinstance(elt, SignedDistinctSet) or elt.n != n:
        return False
    els = elt.elements
    return not els or (-n <= els[0] and els[-1] <= n
                       and all(map(lt, els, els[1:])))


def _enum_p_gt(n: int) -> Iterator[SignedDistinctSet]:
    return signed_sets(n, range(n + 1, 2 * n + 2))


def _val_p_gt(elt, n: int) -> bool:
    return _val_p(elt, n) and len(elt.elements) >= n + 1


def rectangle(n: int) -> Partition:
    """n+1 rows of width n (the empty partition when n = 0)."""
    return Partition((n,) * (n + 1) if n else ())


# name -> (required params, takes weight_cap, enumerator, validator); the
# rows of the weight-capped families come from ``capped`` on first use
_DOMAINS = {
    "B1": (("n",), False, _enum_b1, _val_b1),
    "B2": (("n",), False, _enum_b2, _val_b2),
    "B3": (("n",), False, _enum_b3, _val_b3),
    "P": (("n",), False, _enum_p, _val_p),
    "P_gt": (("n",), False, _enum_p_gt, _val_p_gt),
}

DOMAIN_NAMES = ("B1", "B2", "B3", "P", "P_gt", "DS", "OE", "O", "DO")


def _family(name: str) -> tuple:
    """The table row of ``name``, loading ``capped`` for its families."""
    if name not in _DOMAINS and name in DOMAIN_NAMES:
        from .capped import DOMAINS

        _DOMAINS.update(DOMAINS)
    if name not in _DOMAINS:
        raise UnknownDomain(f"unknown domain {name!r}; choose from {DOMAIN_NAMES}")
    return _DOMAINS[name]


def enumerate_domain(name: str, n: Optional[int] = None, k: Optional[int] = None,
                     weight_cap: Optional[int] = None) -> Iterator:
    """Stream the named family exactly once.

    Finite families (B1, B2, B3, P, P_gt) ignore the weight cap; DS, OE, O
    and DO require one and yield only elements of weight <= weight_cap.
    """
    required, capped, enum, _ = _family(name)
    args = {}
    for p in required:
        v = n if p == "n" else k
        if v is None:
            raise MissingParam(f"domain {name} requires parameter {p}")
        args[p] = v
    if capped:
        if weight_cap is None:
            raise MissingParam(f"domain {name} requires weight_cap")
        return enum(*args.values(), weight_cap)
    return enum(*args.values())


def domain_validator(name: str):
    """Membership predicate for the named family (element, **params) -> bool."""
    row = _DOMAINS.get(name)
    return (row or _family(name))[3]


def weight_gf(weights) -> QSeries:
    """Exact generating function sum q^w over an iterable of weights."""
    from collections import Counter

    from .series import TRIVIAL_MONO, MultiSeries

    return MultiSeries.from_terms(
        (TRIVIAL_MONO, w, c) for w, c in Counter(weights).items()).qseries()
