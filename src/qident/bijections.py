"""Constructive weight-preserving maps between partition families.

Each map validates its input eagerly, carries an explicit inverse, and is
covered by ``check_bijection``, which exhaustively enumerates the (possibly
weight-capped) domain and codomain, applies the map both ways, and verifies
membership, the weight law, and the round trip element by element.

Every map and validator is a function of the value of its element alone:
equal elements get equal results.  The sweep relies on it.  It walks the
domain and the codomain in lockstep, and a domain element whose image maps
back to it proves the codomain checks of that image; only the codomain
elements that no such image matched are mapped back and forth.  Its
memory is what is pending at once, not the families.  So each codomain
streams in its domain's image order, or close to it: the codomain's i-th
element is the image of the domain's i-th one for psi, tau and rho, and
phi, durfee_split and nu3 hold at most a few hundred pending in the
sweeps the benchmark runs; what durfee_split and nu3 hold grows with the
weight cap.

Which check runs where, for each domain element x of a sweep: the map
forward checks x against the domain's validator, and the inverse checks
the image against the codomain's.  These input checks are the sweep's
only membership tests; a ``DomainViolation`` from either map counts as
a membership failure.  The sweep then compares the two weights and the
preimage with x; when the preimage is x, the image waits, with its
codomain weight, for its twin.  No map checks its own output: the other
map's input check follows each of them, in a sweep and in a ``--demo``
alike.  tau's inverse in the table refuses a set of more than n elements
and then calls ``tau_complement``, which takes any element of P.

A codomain element equal to a waiting image costs one dictionary lookup:
its checks are its twin's, and so is its weight.  Any other codomain
element gets its weight and, at the end, inverse and forward, whose
input checks test it and its preimage.  So each family's validator is
asked once per domain element, and once more per codomain element left
over at the end.  The maps look their validators up on every call.

The six bijections are the rows of one table, ``_BIJECTIONS``: the
parameters a sweep needs, the domain and codomain families, the forward and
inverse maps, the two weight functions and the shift of the weight law.
The rows look the maps and ``enumerate_domain`` up as module globals when
a sweep runs, so a wrapped map is the one swept.  A map's checks format
their ``DomainViolation`` message only when they fail.
"""

from __future__ import annotations

from itertools import filterfalse, zip_longest
from operator import add, neg, sub
from typing import Callable, NamedTuple, Optional

from .errors import BadParams, DomainViolation, MissingParam, UnknownBijection
from .partitions import (
    DistinctPartition,
    Partition,
    PartitionPair,
    SignedDistinctSet,
    _principal_hooks,
    _subsets,
    b2_weight,
    b3_weight,
    conjugate_parts,
    distinct_odd_to_selfconj,
    domain_validator,
    enumerate_domain,
    rectangle,
)


def _require(cond, message: str, *args) -> None:
    """Raise DomainViolation(message.format(*args)) unless ``cond`` holds;
    the message is formatted only then."""
    if not cond:
        raise DomainViolation(message.format(*args))


# ---------------------------------------------------------------------------
# phi : B1(n) -> B2(n)
# ---------------------------------------------------------------------------


def phi(n: int, pair: PartitionPair) -> tuple:
    """Peel a staircase off the distinct component and merge the remainder.

    Removing l, l-1, ..., 1 from the l parts of the first component leaves a
    partition that sits on top of the second one; the staircase is returned
    by its size t = l.
    """
    _require(domain_validator("B1")(pair, n), "not a B1({}) element: {!r}", n, pair)
    lam = pair.first.parts
    ell = len(lam)
    lam_star = map(sub, lam, range(ell, 0, -1))
    nu = Partition(tuple([p for p in lam_star if p > 0]) + pair.second.parts)
    return (ell, nu)


def phi_inv(n: int, elt: tuple) -> PartitionPair:
    """Split off the first t parts, restore the staircase, return the pair."""
    _require(domain_validator("B2")(elt, n), "not a B2({}) element: {!r}", n, elt)
    t, nu = elt
    padded = nu.parts + (0,) * (t - len(nu.parts))
    lam = list(map(add, padded, range(t, 0, -1)))
    return PartitionPair(DistinctPartition(lam), Partition(nu.parts[t:]))


# ---------------------------------------------------------------------------
# psi : negative-only sets -> distinct partitions bounded by n
# ---------------------------------------------------------------------------


def _within(values, lo: int, hi: int) -> bool:
    """Every value in [lo, hi], by one min and one max pass."""
    return not values or (lo <= min(values) and max(values) <= hi)


def _unnegated(values, span: range) -> list:
    """The entries of ``span`` whose negation is not among ``values``, in
    the order of ``span``: one set and one pass, no sort."""
    return list(filterfalse(set(map(neg, values)).__contains__, span))


def psi(n: int, mu: SignedDistinctSet) -> DistinctPartition:
    """Negate the complement of mu inside {-n, ..., -1}.

    The weight law is |mu| = -n(n+1)/2 + |psi(mu)|.
    """
    _require(
        isinstance(mu, SignedDistinctSet) and mu.n == n and _within(mu.elements, -n, -1),
        "psi input must use only negative elements of [-{},-1]: {!r}", n, mu,
    )
    return DistinctPartition(_unnegated(mu.elements, range(n, 0, -1)))


def psi_inv(n: int, dp: DistinctPartition) -> SignedDistinctSet:
    _require(
        isinstance(dp, Partition)
        and len(set(dp.parts)) == len(dp.parts)
        and _within(dp.parts, 1, n),
        "psi inverse needs a distinct partition with parts in [1,{}]: {!r}", n, dp,
    )
    return SignedDistinctSet(_unnegated(dp.parts, range(-n, 0)), n)


# ---------------------------------------------------------------------------
# tau : P_>(n) <-> elements of P(n) with at most n parts
# ---------------------------------------------------------------------------


def tau(n: int, lam: SignedDistinctSet) -> SignedDistinctSet:
    """Negate the complement within the full range; weight is preserved."""
    _require(domain_validator("P_gt")(lam, n), "not a P_gt({}) element: {!r}", n, lam)
    return tau_complement(n, lam)


def tau_complement(n: int, lam: SignedDistinctSet) -> SignedDistinctSet:
    """The underlying involution, with no side constraint on the part count."""
    _require(lam.n == n, "not a P({}) element: {!r}", n, lam)
    return SignedDistinctSet(_unnegated(lam.elements, range(-n, n + 1)), n)


def tau_inv(n: int, lam: SignedDistinctSet) -> SignedDistinctSet:
    """The involution on tau's codomain: a set of more than n elements is
    refused first."""
    _require(len(lam.elements) <= n,
             "tau inverse needs a P({}) element of size at most {}: {!r}", n, n, lam)
    return tau_complement(n, lam)


# ---------------------------------------------------------------------------
# rho : P_>(n) -> B3(n)
# ---------------------------------------------------------------------------


def rho(n: int, lam: SignedDistinctSet) -> tuple:
    """Subtract the run -n, -n+1, ... elementwise from the increasing set.

    A set with n+1+t elements maps to (t, nu) where nu collects the excesses
    as an ordinary partition with at most n+1+t parts bounded by n-t.
    """
    _require(domain_validator("P_gt")(lam, n), "not a P_gt({}) element: {!r}", n, lam)
    els = lam.elements
    t = len(els) - (n + 1)
    # over the run, the excesses of an increasing set in [-n, n] are
    # nonnegative and nondecreasing: nu is their positive tail, reversed
    excess = list(map(sub, els, range(-n, len(els) - n)))
    nu = excess[excess.count(0):]
    nu.reverse()
    return (t, Partition(nu))


def rho_inv(n: int, elt: tuple) -> SignedDistinctSet:
    _require(domain_validator("B3")(elt, n), "not a B3({}) element: {!r}", n, elt)
    t, nu = elt
    size = n + 1 + t
    increasing = (0,) * (size - len(nu.parts)) + nu.parts[::-1]
    return SignedDistinctSet(list(map(add, increasing, range(-n, size - n))), n)


# ---------------------------------------------------------------------------
# durfee_split : DS_k <-> OE_k
# ---------------------------------------------------------------------------


def durfee_split(lam: Partition) -> PartitionPair:
    """Detach the largest part; the remainder keeps the odd/even-multiplicity
    structure, giving an OE element for the same k."""
    _require(lam.parts and lam.parts[0] % 2 == 1, "largest part must be odd: {!r}", lam)
    k = (lam.parts[0] - 1) // 2
    _require(domain_validator("DS")(lam, k), "not a DS({}) element: {!r}", k, lam)
    return PartitionPair(Partition(lam.parts[:1]), Partition(lam.parts[1:]))


def durfee_join(pair: PartitionPair) -> Partition:
    """Attach the single odd part on top; the Durfee side comes out odd."""
    mu, nu = pair.first, pair.second
    _require(len(mu.parts) == 1 and mu.parts[0] % 2 == 1,
             "first component must be a single odd part: {!r}", mu)
    k = (mu.parts[0] - 1) // 2
    _require(domain_validator("OE")(pair, k), "not an OE({}) element: {!r}", k, pair)
    return Partition(mu.parts + nu.parts)


# ---------------------------------------------------------------------------
# nu3 : O(n,k) <-> DO(n,k)
# ---------------------------------------------------------------------------


def _fold(n: int, odd_parts: tuple) -> tuple:
    """nu3's folded diagram: n+1 rows of width n, each odd part 2s+1 (in
    the order given) adding a box to each of the top s+1 rows and a row of
    width s below them."""
    rows = [n] * (n + 1)
    below = []
    for part in odd_parts:
        s = (part - 1) // 2
        for i in range(s + 1):
            rows[i] += 1
        if s:
            below.append(s)
    return tuple([r for r in rows if r > 0] + below)


def nu3_forward(n: int, k: int, pair: PartitionPair) -> PartitionPair:
    """Fold the odd parts around the rectangle, then open the principal hooks.

    Each odd part 2s+1 of the second component splits into a column of height
    s+1 appended to the right of the diagram and a row of width s appended
    below it, processed in decreasing order.  Removing the resulting largest
    part n+k leaves a self-conjugate partition with Durfee side n, which the
    hook map turns into a distinct odd partition with exactly n parts.

    After the input check, only the largest folded part is checked: the
    O(n, k) check makes the residue's three properties hold.  Its k odd
    parts 2s+1 have 0 <= s <= n, so for n >= 1 the folded rows are
    n + c_i for i = 0..n, c_i the number of parts with s >= i, and then b,
    the values s >= 1, decreasing; for n = 0 the residue is empty.  c_0 = k,
    and c_1..c_n is the conjugate of b, whose parts are at most n.  So the
    residue is an n-square with the conjugate of b to its right and b
    below it: self-conjugate, of Durfee side n (row n+1, if any, is
    b_1 <= n long), and of largest part n + c_1 <= n + k.
    """
    _require(domain_validator("O")(pair, n, k),
             "not an O({},{}) element: {!r}", n, k, pair)
    nu_star = _fold(n, pair.second.parts)  # parts are stored decreasing
    _require(
        (not nu_star and n + k == 0) or (nu_star and nu_star[0] == n + k),
        "largest folded part is not n+k: {}", nu_star,
    )
    mu = Partition((n + k,) if n + k else ())
    # selfconj_to_distinct_odd less its checks, which the input check makes hold
    return PartitionPair(mu, _principal_hooks(nu_star[1:], n))


def nu3_inverse(n: int, k: int, pair: PartitionPair) -> PartitionPair:
    """Close the hooks, put the single part back on top, unfold the columns
    and rows into odd parts.

    After the input check and the two checks of the hook closure nu' (a
    self-conjugate partition), the unfolding needs none of its own.
    Durfee side n gives nu' at least n rows, each at least n long, and
    n + k >= n, so no row of the head falls short of the rectangle.  Below
    row n, nu' holds a partition b of parts at most n, and self-conjugacy
    makes its first n rows n + b'_i, b' the conjugate of b; the largest
    part n + b'_1 <= n + k leaves b at most k parts.  The excesses
    (k, b'_1, ..., b'_n) then conjugate to 1 + b_j for j = 1..k (b padded
    with zeros), so the odd parts 2b_j + 1 give back exactly the rows of b
    appended below the head.
    """
    _require(domain_validator("DO")(pair, n, k),
             "not a DO({},{}) element: {!r}", n, k, pair)
    nu_prime = distinct_odd_to_selfconj(pair.second)
    d = nu_prime.durfee_size()
    _require(d == n, "hook closure has Durfee side {} != {}", d, n)
    _require(not nu_prime.parts or nu_prime.parts[0] <= n + k,
             "hook closure largest part exceeds n+k: {!r}", nu_prime)
    head = ((n + k,) if n + k else ()) + nu_prime.parts[:n]
    # the multiset of s+1 values, decreasing
    splits = conjugate_parts([h - n for h in head])
    return PartitionPair(rectangle(n), Partition([2 * v - 1 for v in splits]))


# ---------------------------------------------------------------------------
# Exhaustive checking
# ---------------------------------------------------------------------------


class BijectionReport(NamedTuple):
    """Aggregated result of an exhaustive forward/backward sweep."""

    name: str
    domain_size: int = 0
    codomain_size: int = 0
    roundtrip_failures: int = 0
    weight_violations: int = 0
    membership_failures: int = 0
    witness: Optional[str] = None

    def passed(self) -> bool:
        return (
            self.roundtrip_failures == 0
            and self.weight_violations == 0
            and self.membership_failures == 0
            and self.domain_size == self.codomain_size
        )

    def merge(self, other: "BijectionReport") -> "BijectionReport":
        return BijectionReport(
            name=self.name,
            domain_size=self.domain_size + other.domain_size,
            codomain_size=self.codomain_size + other.codomain_size,
            roundtrip_failures=self.roundtrip_failures + other.roundtrip_failures,
            weight_violations=self.weight_violations + other.weight_violations,
            membership_failures=self.membership_failures + other.membership_failures,
            witness=self.witness or other.witness,
        )


_END = object()  # zip_longest's filler once one family has run out


def _sweep(name: str, spec: "_Bijection", n: Optional[int], k: Optional[int],
           weight_cap: Optional[int]) -> BijectionReport:
    """Walk the domain and the codomain in lockstep and count the failures.

    A domain element x gets forward, inverse of its image y, the weight law
    and the round trip ``inverse(y) == x``.  A codomain element gets
    inverse and forward back to itself.  The maps' input checks are the
    membership tests: a ``DomainViolation`` counts as a membership failure.
    Every map and validator depends only on the value of the element, so
    an x that passed forward, inverse and the round trip has already
    proved the codomain checks of every element equal to y.  Such an image
    waits in ``proved`` until its twin turns up in the codomain, and an
    unmatched codomain element waits in ``pending`` until a proved image
    arrives; a match takes one of each.  Only the codomain elements still
    pending at the end take the full path, in codomain order, each checked
    once and counted as often as it was met.  An image still waiting at
    the end is one the codomain lacks: a membership failure per proof.
    The weight multisets are compared through one tally per weight; a
    matched codomain element takes its twin's weight from ``proved``.  The
    report is that of a domain pass then a codomain pass: counts, and the
    first domain witness before the first codomain witness.
    """
    domain = spec.domain(n, k, weight_cap)
    codomain = spec.codomain(n, k, weight_cap)
    forward, inverse = spec.forward, spec.inverse
    w_domain, w_codomain = spec.w_domain, spec.w_codomain
    delta = spec.shift(n)
    roundtrip = weight = membership = 0
    dom_witness = cod_witness = None
    dom_size = cod_size = 0
    balance = {}  # weight -> its count in the domain minus in the codomain
    proved = {}  # image of a proved domain element, twin not met yet -> its weight
    surplus = {}  # image in proved -> further proofs of it, twins not met yet
    pending = {}  # unmatched codomain element -> times met
    for x, y in zip_longest(domain, codomain, fillvalue=_END):
        if x is not _END:
            wx = w_domain(n, x) + delta
            dom_size += 1
            balance[wx] = balance.get(wx, 0) + 1
            try:
                fx = forward(n, k, x)
                back = inverse(n, k, fx)
                wfx = w_codomain(n, fx)
                if wfx != wx:
                    weight += 1
                    dom_witness = dom_witness or repr(x)
                if back != x:
                    roundtrip += 1
                    dom_witness = dom_witness or repr(x)
                elif (met := pending.pop(fx, 0)) > 1:
                    pending[fx] = met - 1
                elif not met:
                    size = len(proved)
                    proved[fx] = wfx
                    if len(proved) == size:  # fx was proved before, twin not met
                        surplus[fx] = surplus.get(fx, 0) + 1
            except DomainViolation:
                membership += 1
                dom_witness = dom_witness or repr(x)
        if y is not _END:
            cod_size += 1
            wy = proved.pop(y, _END)  # one hash; a twin's weight is its image's
            if wy is _END:
                wy = w_codomain(n, y)
                pending[y] = pending.get(y, 0) + 1
            elif surplus and y in surplus:  # another proof of y still waits
                proved[y] = wy
                if (more := surplus.pop(y)) > 1:
                    surplus[y] = more - 1
            balance[wy] = balance.get(wy, 0) - 1
    for y, times in pending.items():
        try:
            if forward(n, k, inverse(n, k, y)) != y:
                roundtrip += times
                cod_witness = cod_witness or repr(y)
        except DomainViolation:
            membership += times
            cod_witness = cod_witness or repr(y)
    witness = dom_witness or cod_witness
    # an image still waiting was never met in the codomain: one codomain
    # element too few stands in for it, repeated or outside the family
    if proved:
        membership += len(proved) + sum(surplus.values())
        witness = witness or f"image {next(iter(proved))!r} missing from the codomain"
    # independent of the element-wise law: the shifted weight multisets of
    # the two enumerations must coincide
    if any(balance.values()):
        weight += 1
        witness = witness or "domain/codomain weight multisets differ"
    return BijectionReport(name, dom_size, cod_size,
                           roundtrip, weight, membership, witness)


class _Bijection(NamedTuple):
    """One row of the bijection table.

    ``domain`` and ``codomain`` are families: functions of (n, k, weight_cap)
    returning the elements only, since the maps' input checks test
    membership.  ``forward`` and ``inverse`` take (n, k, element); the
    weights take (n, element) and the shift, added to every domain weight,
    takes n.  ``size_bits``, for the
    families of closed-form size, takes n and gives the base-2 logarithm
    of the domain's size.  Every entry reaches the maps and enumerators
    through this module's globals when it runs, so a wrapped map is the one
    the sweep calls.
    """

    params: tuple
    domain: Callable
    codomain: Callable
    forward: Callable
    inverse: Callable
    w_domain: Callable = lambda n, x: x.weight
    w_codomain: Callable = lambda n, y: y.weight
    shift: Callable = lambda n: 0
    size_bits: Optional[Callable] = None


def _domain(name: str) -> Callable:
    """The partitions domain ``name`` as a family."""
    return lambda n, k, cap: enumerate_domain(name, n=n, k=k, weight_cap=cap)


def _negative_sets(n, k, cap):
    """Subsets of {-n, ..., -1}, the domain of psi: for each subset of
    {1..n} in ``_subsets`` order, its negation."""
    return (SignedDistinctSet(combo[::-1], n)
            for combo in _subsets(range(-1, -n - 1, -1)))


def _bounded_distinct(n, k, cap):
    """Distinct partitions with parts at most n, the codomain of psi, in
    the order of psi's images: for each subset of {1..n} in ``_subsets``
    order, the parts of its complement."""
    top = range(n, 0, -1)
    return (DistinctPartition(_unnegated(combo, top))
            for combo in _subsets(range(-1, -n - 1, -1)))


def _short_sets(n, k, cap):
    """Elements of P(n) with at most n elements, the codomain of tau: the
    subsets of [-n, n] of sizes n down to 0, each size in colexicographic
    order (by the elements read largest first), by D. E. Knuth's Algorithm
    L (TAOCP 7.2.1.3).

    That is the order of tau's images of P_gt's stream, whose sizes
    n+1 .. 2n+1 complement to n .. 0.  Of two sets of one size, lex order
    puts first the one that holds the least element x of their symmetric
    difference, and colex order puts last the one that holds the largest.
    If A precedes B in lex order, x is in A, so in B's complement; -x is
    then the largest element of the difference of the two images and lies
    in B's image, which comes after A's in colex order."""
    for r in range(n, -1, -1):
        c = [*range(-n, r - n), n + 1]  # the first r-subset, and a sentinel
        while True:
            yield SignedDistinctSet(c[:r], n)
            # the least j whose entry can step up; those below it reset
            j = 0
            while j < r and c[j] + 1 == c[j + 1]:
                c[j] = j - n
                j += 1
            if j == r:
                break
            c[j] += 1


_BIJECTIONS = {
    "phi": _Bijection(
        ("n",), _domain("B1"), _domain("B2"),
        lambda n, k, x: phi(n, x), lambda n, k, y: phi_inv(n, y),
        w_codomain=lambda n, y: b2_weight(y), size_bits=lambda n: 2 * n,
    ),
    "psi": _Bijection(
        ("n",), _negative_sets, _bounded_distinct,
        lambda n, k, x: psi(n, x), lambda n, k, y: psi_inv(n, y),
        shift=lambda n: n * (n + 1) // 2, size_bits=lambda n: n,
    ),
    "tau": _Bijection(
        ("n",), _domain("P_gt"), _short_sets,
        lambda n, k, x: tau(n, x), lambda n, k, y: tau_inv(n, y),
        size_bits=lambda n: 2 * n,
    ),
    "rho": _Bijection(
        ("n",), _domain("P_gt"), _domain("B3"),
        lambda n, k, x: rho(n, x), lambda n, k, y: rho_inv(n, y),
        w_codomain=lambda n, y: b3_weight(n, y), size_bits=lambda n: 2 * n,
    ),
    "durfee_split": _Bijection(
        ("k", "weight_cap"), _domain("DS"), _domain("OE"),
        lambda n, k, x: durfee_split(x), lambda n, k, y: durfee_join(y),
    ),
    "nu3": _Bijection(
        ("n", "k", "weight_cap"), _domain("O"), _domain("DO"),
        lambda n, k, x: nu3_forward(n, k, x), lambda n, k, y: nu3_inverse(n, k, y),
    ),
}

BIJECTION_NAMES = tuple(_BIJECTIONS)

# a sweep of more than 2^MAX_SWEEP_BITS domain elements is refused before
# it starts: phi, tau and rho pass up to n = 10 (4^10 elements) and psi up
# to n = 20, sweeps of 12 to 21 s (Python 3.11 on one core of a shared
# 2-CPU machine); one step further doubles or quadruples the time, and
# phi at n = 30 (4^30 elements) would run for some 400 000 years
MAX_SWEEP_BITS = 20


def _check_single(name: str, n: Optional[int], k: Optional[int],
                  weight_cap: Optional[int]) -> BijectionReport:
    spec = _BIJECTIONS[name]
    given = {"n": n, "k": k, "weight_cap": weight_cap}
    if any(given[p] is None for p in spec.params):
        *rest, last = spec.params
        needs = f"{', '.join(rest)} and {last}" if rest else last
        raise MissingParam(f"{name} requires {needs}")
    bits = spec.size_bits(n) if spec.size_bits else 0
    if bits > MAX_SWEEP_BITS:
        raise BadParams(f"bijection {name} at n = {n} would sweep 2^{bits}"
                        f" elements, past the limit of 2^{MAX_SWEEP_BITS}")
    return _sweep(name, spec, n, k, weight_cap)


def _check_params(name: str, n, k, weight_cap, max_nk) -> None:
    """BadParams for a parameter the map does not take, or a negative one."""
    given = {"n": n, "k": k, "weight_cap": weight_cap, "max_nk": max_nk}
    takes = _BIJECTIONS[name].params
    if name == "nu3" and max_nk is not None:
        takes = ("max_nk", "weight_cap")
    extra = [p for p, v in given.items() if v is not None and p not in takes]
    if extra:
        raise BadParams(f"bijection {name} does not take parameter(s) {extra}")
    negative = [f"{p}={v}" for p, v in given.items() if v is not None and v < 0]
    if negative:
        raise BadParams(f"bijection {name} takes no negative parameter: "
                        + ", ".join(negative))


def check_bijection(name: str, n: Optional[int] = None, k: Optional[int] = None,
                    weight_cap: Optional[int] = None,
                    max_nk: Optional[int] = None) -> BijectionReport:
    """Exhaustively verify one of the six maps.

    For ``durfee_split`` omitting k sweeps every k reachable under the weight
    cap; for ``nu3`` passing ``max_nk`` (in place of n and k) sweeps all
    pairs with n + k bounded by it.  Merged reports add sizes and failure
    counts.  A parameter the map does not take, a negative one, and a
    domain of more than 2^MAX_SWEEP_BITS elements are refused with
    ``BadParams`` before anything is enumerated.
    """
    if name not in BIJECTION_NAMES:
        raise UnknownBijection(
            f"unknown bijection {name!r}; choose from {BIJECTION_NAMES}"
        )
    _check_params(name, n, k, weight_cap, max_nk)
    if name == "durfee_split" and k is None:
        if weight_cap is None:
            raise MissingParam("durfee_split requires weight_cap")
        rep = BijectionReport(name=name)
        for kk in range((weight_cap - 1) // 2 + 1):
            rep = rep.merge(_check_single(name, None, kk, weight_cap))
        return rep
    if max_nk is not None:
        if weight_cap is None:
            raise MissingParam("nu3 requires weight_cap")
        rep = BijectionReport(name=name)
        for nn in range(max_nk + 1):
            for kk in range(max_nk - nn + 1):
                rep = rep.merge(_check_single(name, nn, kk, weight_cap))
        return rep
    return _check_single(name, n, k, weight_cap)
