from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qident.errors import MissingParam, NotSelfConjugate, UnknownDomain
from qident.partitions import (
    DistinctPartition,
    Partition,
    PartitionPair,
    SignedDistinctSet,
    _box_tuples,
    conjugate,
    conjugate_parts,
    distinct_odd_to_selfconj,
    domain_validator,
    durfee_size,
    enumerate_domain,
    enumerate_partitions,
    selfconj_to_distinct_odd,
    staircase,
    weight_gf,
)
from qident.series import QSeries, poch_finite, qbinom
from reference import partitions_of


# ---------------------------------------------------------------------------
# basic types
# ---------------------------------------------------------------------------


def test_partition_validation():
    assert Partition((3, 2, 2)).weight == 7
    assert Partition(()).weight == 0
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        DistinctPartition((3, 3))


def test_signed_set_validation():
    s = SignedDistinctSet((-2, 0, 1), n=3)
    assert s.weight == -1
    with pytest.raises(ValueError):
        SignedDistinctSet((1, 1), n=2)
    with pytest.raises(ValueError):
        SignedDistinctSet((-4,), n=3)
    with pytest.raises(ValueError):
        SignedDistinctSet((2, 1), n=3)


def test_pair_weight_additivity():
    p = PartitionPair(Partition((3, 1)), Partition((2,)))
    assert p.weight == p.first.weight + p.second.weight == 6


# ---------------------------------------------------------------------------
# conjugate / Durfee / hooks
# ---------------------------------------------------------------------------


def test_conjugate_frozen():
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert conjugate(Partition(())) == Partition(())


def test_conjugate_involution_sweep():
    for n in range(21):
        for parts in partitions_of(n):
            p = Partition(parts)
            assert conjugate(conjugate(p)) == p


def test_durfee_frozen():
    assert durfee_size(Partition((3, 2, 1))) == 2
    assert durfee_size(Partition(())) == 0
    assert durfee_size(Partition((1, 1, 1, 1))) == 1


def test_hooks_frozen():
    assert selfconj_to_distinct_odd(Partition((3, 2, 1))) == DistinctPartition((5, 1))
    assert selfconj_to_distinct_odd(Partition(())) == DistinctPartition(())
    assert selfconj_to_distinct_odd(Partition((1,))) == DistinctPartition((1,))


def test_hooks_rejects_non_selfconjugate():
    with pytest.raises(NotSelfConjugate):
        selfconj_to_distinct_odd(Partition((3, 1)))


def test_hooks_roundtrip_sweep():
    seen = 0
    for n in range(26):
        for parts in partitions_of(n):
            p = Partition(parts)
            if not p.is_self_conjugate():
                continue
            seen += 1
            dp = selfconj_to_distinct_odd(p)
            assert all(a % 2 == 1 for a in dp.parts)
            assert len(dp) == p.durfee_size()
            assert dp.weight == p.weight
            assert distinct_odd_to_selfconj(dp) == p
    assert seen > 30


def test_hooks_inverse_covers_all_distinct_odd():
    # every distinct odd partition folds to a self-conjugate partition
    for n in range(1, 22):
        for parts in partitions_of(n):
            if any(v % 2 == 0 for v in parts) or len(set(parts)) != len(parts):
                continue
            dp = DistinctPartition(parts)
            sc = distinct_odd_to_selfconj(dp)
            assert sc.is_self_conjugate()
            assert selfconj_to_distinct_odd(sc) == dp


# ---------------------------------------------------------------------------
# box enumeration
# ---------------------------------------------------------------------------


def test_box_frozen_small():
    assert [p.parts for p in enumerate_partitions(1, 1)] == [(), (1,)]
    two_one = list(enumerate_partitions(2, 1))
    assert sorted(p.parts for p in two_one) == [(), (1,), (1, 1)]
    assert weight_gf(p.weight for p in two_one) == qbinom(3, 1)
    two_two = list(enumerate_partitions(2, 2))
    assert len(two_two) == 6
    assert weight_gf(p.weight for p in two_two) == qbinom(4, 2)


@pytest.mark.parametrize("a,b", [(0, 0), (0, 3), (3, 0), (1, 4), (3, 3), (4, 2), (5, 5)])
def test_box_count_and_gf(a, b):
    elems = list(enumerate_partitions(a, b))
    assert len(elems) == comb(a + b, b)
    assert len(set(e.parts for e in elems)) == len(elems)
    assert weight_gf(e.weight for e in elems) == qbinom(a + b, b)
    for e in elems:
        assert len(e) <= a and (not e or e.parts[0] <= b)


def _box_reference(max_parts, max_part):
    """The recursive definition of the box order: the empty tuple, then for
    each first part from max_part down, that part before every tuple of the
    smaller box under it."""
    yield ()
    if max_parts == 0 or max_part == 0:
        return
    for first in range(max_part, 0, -1):
        for rest in _box_reference(max_parts - 1, first):
            yield (first,) + rest


def test_box_tuples_follow_the_recursive_order():
    for a in range(8):
        for b in range(8):
            assert list(_box_tuples(a, b)) == list(_box_reference(a, b)), (a, b)


# ---------------------------------------------------------------------------
# named domains
# ---------------------------------------------------------------------------


def test_p_domain_sizes():
    assert len(list(enumerate_domain("P", n=1))) == 8
    assert len(list(enumerate_domain("P_gt", n=1))) == 4
    for n in range(5):
        assert len(list(enumerate_domain("P", n=n))) == 2 ** (2 * n + 1)


def test_p_gt_counts_are_powers_of_four():
    for n in range(6):
        assert len(list(enumerate_domain("P_gt", n=n))) == 4**n


def test_p_gt_is_the_ordered_filter_of_p():
    for n in range(6):
        assert list(enumerate_domain("P_gt", n=n)) == [
            s for s in enumerate_domain("P", n=n) if len(s) >= n + 1]


def test_b1_frozen_n1():
    elems = list(enumerate_domain("B1", n=1))
    assert len(elems) == 4
    assert weight_gf(e.weight for e in elems).coeffs == {0: 1, 1: 2, 2: 1}


def test_b2_gf_matches_staircase_times_qbinom():
    for n in range(5):
        gf = QSeries.zero()
        for t, nu in enumerate_domain("B2", n=n):
            gf = gf + QSeries.term(1, t * (t + 1) // 2 + nu.weight)
        closed = QSeries.zero()
        for t in range(n + 1):
            closed = closed + qbinom(2 * n + 1, n + 1 + t).shift(t * (t + 1) // 2)
        assert gf == closed


def test_signed_gf_full_family():
    # sum over all subsets of [-n, n] of q^weight, Laurent-exact
    for n in range(9):
        gf = weight_gf(s.weight for s in enumerate_domain("P", n=n))
        closed = (
            poch_finite(QSeries.term(-1, 1), 1, n)
            .power(2)
            .scale(2)
            .shift(-n * (n + 1) // 2)
        )
        assert gf == closed


def test_signed_gf_half_family():
    for n in range(9):
        gf_gt = weight_gf(s.weight for s in enumerate_domain("P_gt", n=n))
        closed = (
            poch_finite(QSeries.term(-1, 1), 1, n)
            .power(2)
            .shift(-n * (n + 1) // 2)
        )
        assert gf_gt == closed
        full = weight_gf(s.weight for s in enumerate_domain("P", n=n))
        assert gf_gt.scale(2) == full


def test_validators_accept_enumerated_elements():
    cases = [
        ("B1", dict(n=3), None),
        ("B2", dict(n=3), None),
        ("B3", dict(n=2), None),
        ("P", dict(n=2), None),
        ("P_gt", dict(n=2), None),
        ("DS", dict(k=2), 15),
        ("OE", dict(k=2), 15),
        ("O", dict(n=2, k=2), 20),
        ("DO", dict(n=2, k=2), 20),
    ]
    for name, params, cap in cases:
        val = domain_validator(name)
        seen = 0
        for elt in enumerate_domain(name, weight_cap=cap, **params):
            seen += 1
            assert val(elt, **params), (name, elt)
        assert seen > 0, name


def test_validators_reject_mutants():
    assert not domain_validator("B1")(
        PartitionPair(DistinctPartition((4,)), Partition(())), 3
    )  # largest part exceeds n
    assert not domain_validator("B1")(
        PartitionPair(DistinctPartition((2,)), Partition((2,))), 3
    )  # second component not below smallest part of first
    assert not domain_validator("B2")((3, Partition((1,))), 2)  # t > n
    assert not domain_validator("B2")((1, Partition((3,))), 2)  # part > n - t
    assert not domain_validator("P_gt")(SignedDistinctSet((1,), n=2), 2)
    assert not domain_validator("DS")(Partition((4, 1, 1)), 1)  # even largest part
    assert not domain_validator("DS")(Partition((3, 1)), 1)  # odd multiplicity below
    assert not domain_validator("OE")(
        PartitionPair(Partition((3,)), Partition((1,))), 1
    )  # odd multiplicity
    assert not domain_validator("O")(
        PartitionPair(Partition((2, 2)), Partition((1,))), 2, 1
    )  # wrong rectangle
    assert not domain_validator("DO")(
        PartitionPair(Partition((3,)), DistinctPartition((2,))), 1, 2
    )  # even part in second component


def test_ds_membership_frozen():
    val = domain_validator("DS")
    assert val(Partition((3,)), 1)
    assert val(Partition((3, 1, 1)), 1)
    assert val(Partition((3, 3, 3)), 1)
    assert not val(Partition((3, 3)), 1)  # Durfee side 2 is even
    assert val(Partition((1,)), 0)
    assert not val(Partition(()), 0)


def test_ds_oe_counts_by_weight():
    # hand-enumerated counts at odd weights 1,3,5,7,9 (all k pooled)
    expected = {1: 1, 3: 2, 5: 3, 7: 4, 9: 6}
    ds_counts = {}
    oe_counts = {}
    for k in range(5):
        for lam in enumerate_domain("DS", k=k, weight_cap=9):
            ds_counts[lam.weight] = ds_counts.get(lam.weight, 0) + 1
        for pair in enumerate_domain("OE", k=k, weight_cap=9):
            oe_counts[pair.weight] = oe_counts.get(pair.weight, 0) + 1
    assert ds_counts == expected
    assert oe_counts == expected


def test_o_do_counts_match():
    for n in range(4):
        for k in range(4):
            o = list(enumerate_domain("O", n=n, k=k, weight_cap=60))
            do = list(enumerate_domain("DO", n=n, k=k, weight_cap=60))
            assert len(o) == len(do)
            assert sorted(e.weight for e in o) == sorted(e.weight for e in do)


@pytest.mark.parametrize("cap", [0, 1, 5, 12, 23, 40])
def test_o_do_capped_equals_uncapped_filtered(cap):
    # the uncapped families, in their enumeration order: k odd parts up to
    # 2n+1 for O, n distinct odd parts up to 2(n+k)-1 for DO
    for n in range(5):
        for k in range(6):
            rect = Partition((n,) * (n + 1) if n else ())
            o_all = [
                PartitionPair(rect, Partition(pi))
                for pi in combinations_with_replacement(range(2 * n + 1, 0, -2), k)
            ]
            mu = Partition((n + k,) if n + k else ())
            do_all = [
                PartitionPair(mu, DistinctPartition(nu))
                for nu in combinations(range(2 * (n + k) - 1, 0, -2), n)
            ]
            for name, full in (("O", o_all), ("DO", do_all)):
                got = list(enumerate_domain(name, n=n, k=k, weight_cap=cap))
                assert got == [e for e in full if e.weight <= cap], (name, n, k)


def test_unknown_domain_and_missing_param():
    with pytest.raises(UnknownDomain):
        enumerate_domain("nope", n=1)
    with pytest.raises(MissingParam):
        list(enumerate_domain("B1"))
    with pytest.raises(MissingParam):
        list(enumerate_domain("DS", k=1))  # cap required
    with pytest.raises(UnknownDomain):
        domain_validator("nope")


def test_staircase():
    assert staircase(0) == DistinctPartition(())
    assert staircase(3) == DistinctPartition((3, 2, 1))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

partition_st = st.integers(min_value=0, max_value=18).flatmap(
    lambda n: st.sampled_from([Partition(t) for t in partitions_of(n)])
)


@given(p=partition_st)
@settings(max_examples=80)
def test_conjugate_preserves_weight_and_durfee(p):
    c = conjugate(p)
    assert c.weight == p.weight
    assert c.durfee_size() == p.durfee_size()
    assert len(c) == (p.parts[0] if p else 0)


# ---------------------------------------------------------------------------
# the one-pass checks against their definitions
# ---------------------------------------------------------------------------

# int tuples near the boundary of every invariant: zeros, negatives, ties,
# unsorted runs, and many sorted ones
raw_tuple_st = st.one_of(
    st.lists(st.integers(-3, 8), max_size=7).map(tuple),
    st.lists(st.integers(0, 8), max_size=7).map(
        lambda v: tuple(sorted(v, reverse=True))),
    st.lists(st.integers(-6, 6), max_size=7).map(lambda v: tuple(sorted(v))),
)


def _partition_message(parts):
    """ValueError text for a Partition of ``parts``, None for a partition."""
    if not all(p > 0 for p in parts):
        return f"parts must be positive: {parts}"
    if not all(a >= b for a, b in zip(parts, parts[1:])):
        return f"parts must be weakly decreasing: {parts}"
    return None


def _distinct_message(parts):
    message = _partition_message(parts)
    if message is None and len(set(parts)) < len(parts):
        return f"parts must be strictly decreasing: {parts}"
    return message


def _signed_message(elements, n):
    if not all(-n <= e <= n for e in elements):
        return f"element out of range [-{n}, {n}]: {elements}"
    if list(elements) != sorted(set(elements)):
        return f"elements must be strictly increasing: {elements}"
    return None


def _constructed(make, message):
    if message is None:
        return make()
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
    return None


@given(parts=raw_tuple_st)
@settings(max_examples=300)
def test_partition_checks_match_definition(parts):
    p = _constructed(lambda: Partition(list(parts)), _partition_message(parts))
    assert p is None or p.parts == parts
    d = _constructed(lambda: DistinctPartition(iter(parts)), _distinct_message(parts))
    assert d is None or d.parts == parts


@given(elements=raw_tuple_st, n=st.integers(-1, 5))
@settings(max_examples=300)
def test_signed_set_checks_match_definition(elements, n):
    s = _constructed(lambda: SignedDistinctSet(elements, n),
                     _signed_message(elements, n))
    assert s is None or (s.elements, s.n) == (elements, n)


def _count_conjugate(parts):
    """Entry j - 1 is the number of parts >= j."""
    return tuple(sum(1 for p in parts if p >= j)
                 for j in range(1, max(parts, default=0) + 1))


@given(p=partition_st)
@settings(max_examples=150)
def test_conjugate_is_the_count_formula(p):
    counts = _count_conjugate(p.parts)
    assert conjugate(p).parts == counts
    assert conjugate(conjugate(p)) == p
    assert p.is_self_conjugate() == (counts == p.parts)
    # trailing zero parts add nothing
    assert conjugate_parts(p.parts + (0, 0)) == counts


def _odd_even(parts):
    return all(p % 2 == 1 and parts.count(p) % 2 == 0 for p in parts)


def _def_b1(elt, n):
    if not isinstance(elt, PartitionPair):
        return False
    lam, pi = elt.first.parts, elt.second.parts
    bound = min(lam) - 1 if lam else n
    return (len(set(lam)) == len(lam) and all(p <= n for p in lam)
            and len(pi) <= n + 1 and all(p <= bound for p in pi))


def _def_b2(elt, n):
    if not (isinstance(elt, tuple) and len(elt) == 2):
        return False
    t, nu = elt
    return (isinstance(t, int) and isinstance(nu, Partition) and 0 <= t <= n
            and len(nu.parts) <= n + 1 + t and all(p <= n - t for p in nu.parts))


def _def_p(elt, n):
    return (isinstance(elt, SignedDistinctSet) and elt.n == n
            and list(elt.elements) == sorted(set(elt.elements))
            and all(-n <= e <= n for e in elt.elements))


def _def_p_gt(elt, n):
    return _def_p(elt, n) and len(elt.elements) >= n + 1


def _def_ds(elt, k):
    if not isinstance(elt, Partition) or not elt.parts:
        return False
    parts = elt.parts
    d = sum(1 for i, p in enumerate(parts) if p > i)
    right = [p - d for p in parts[:d] if p > d]
    return (parts[0] == 2 * k + 1 and d % 2 == 1 and _odd_even(parts[d:])
            and _odd_even(_count_conjugate(right)))


def _def_oe(elt, k):
    if not isinstance(elt, PartitionPair):
        return False
    nu = elt.second.parts
    return (elt.first.parts == (2 * k + 1,)
            and all(p <= 2 * k + 1 for p in nu) and _odd_even(nu))


def _def_o(elt, n, k):
    if not isinstance(elt, PartitionPair):
        return False
    pi = elt.second.parts
    return (elt.first.parts == ((n,) * (n + 1) if n else ())
            and len(pi) == k and all(p % 2 == 1 and p <= 2 * n + 1 for p in pi))


def _def_do(elt, n, k):
    if not isinstance(elt, PartitionPair):
        return False
    nu = elt.second.parts
    return (elt.first.parts == ((n + k,) if n + k else ())
            and len(nu) == n and len(set(nu)) == n
            and all(p % 2 == 1 and p <= 2 * (n + k) - 1 for p in nu))


# family -> (definition, parameters, weight cap)
_DEFINITIONS = {
    "B1": (_def_b1, dict(n=2), None),
    "B2": (_def_b2, dict(n=2), None),
    "B3": (_def_b2, dict(n=2), None),
    "P": (_def_p, dict(n=2), None),
    "P_gt": (_def_p_gt, dict(n=2), None),
    "DS": (_def_ds, dict(k=2), 21),
    "OE": (_def_oe, dict(k=1), 15),
    "O": (_def_o, dict(n=2, k=2), 24),
    "DO": (_def_do, dict(n=2, k=2), 24),
}

partition_tuple_st = st.one_of(
    st.lists(st.integers(1, 9), max_size=7),
    # every multiplicity even, as the DS and OE families need
    st.lists(st.integers(1, 6), max_size=3).map(lambda v: v * 2),
).map(lambda v: tuple(sorted(v, reverse=True)))


def _mutant(draw, elt):
    """A fresh copy of ``elt`` with each slot kept or, at random,
    overwritten: a partition's parts by any partition (ties included, also
    in a DistinctPartition), a signed set's elements and n by anything."""
    if isinstance(elt, PartitionPair):
        return PartitionPair(_mutant(draw, elt.first), _mutant(draw, elt.second))
    if isinstance(elt, tuple):
        t, nu = elt
        return (draw(st.sampled_from([t, t, -1, t + 1, 3])), _mutant(draw, nu))
    if isinstance(elt, SignedDistinctSet):
        out = SignedDistinctSet(elt.elements, elt.n)
        if draw(st.booleans()):
            out.elements = draw(raw_tuple_st)
        if draw(st.booleans()):
            out.n = draw(st.integers(-1, 4))
        return out
    out = type(elt)(elt.parts)
    if draw(st.booleans()):
        out.parts = draw(partition_tuple_st)
    return out


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_validators_match_definitions_on_mutated_elements(data):
    name = data.draw(st.sampled_from(sorted(_DEFINITIONS)))
    definition, params, cap = _DEFINITIONS[name]
    elements = list(enumerate_domain(name, weight_cap=cap, **params))
    elt = _mutant(data.draw, data.draw(st.sampled_from(elements)))
    # the validator is also asked about neighbouring parameters
    asked = {p: max(0, v + data.draw(st.integers(-1, 1))) for p, v in params.items()}
    assert domain_validator(name)(elt, **asked) == definition(elt, **asked)


def test_capped_validators_answer_a_changed_element_afresh():
    # a weight-capped validator keeps its last verdict, keyed by the value:
    # the same value answers at once, and an element whose parts were
    # replaced after the verdict is a new question
    check = domain_validator("O")
    elt = PartitionPair(Partition((1, 1)), Partition((3,)))
    assert check(elt, 1, 1) and check(elt, 1, 1)
    assert check(PartitionPair(Partition((1, 1)), Partition((3,))), 1, 1)
    assert not check(elt, 1, 2) and check(elt, n=1, k=1)
    elt.second.parts = (2,)
    assert not check(elt, 1, 1)
    elt.second.parts = (3,)
    assert check(elt, 1, 1)
    assert not check((1, Partition((3,))), 1, 1)
    ds = domain_validator("DS")
    lam = Partition((3, 1))
    assert not ds(lam, 1)
    lam.parts = (3, 1, 1)
    assert ds(lam, 1) and not ds(lam, 2)
