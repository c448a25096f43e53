import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from qident import bijections
from qident.bijections import (
    BijectionReport,
    _fold,
    check_bijection,
    durfee_join,
    durfee_split,
    nu3_forward,
    nu3_inverse,
    phi,
    phi_inv,
    psi,
    psi_inv,
    rho,
    rho_inv,
    tau,
    tau_complement,
    tau_inv,
)
from qident.errors import BadParams, DomainViolation, MissingParam, UnknownBijection
from qident.partitions import (
    DistinctPartition,
    Partition,
    PartitionPair,
    SignedDistinctSet,
    conjugate_parts,
    distinct_odd_to_selfconj,
    enumerate_domain,
)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def test_phi_worked_example_n5():
    pair = PartitionPair(DistinctPartition((5, 3)), Partition((2, 2, 2, 1, 1)))
    t, nu = phi(5, pair)
    assert t == 2
    assert nu == Partition((3, 2, 2, 2, 2, 1, 1))
    assert phi_inv(5, (t, nu)) == pair


def test_phi_empty_pair():
    pair = PartitionPair(DistinctPartition(()), Partition(()))
    assert phi(4, pair) == (0, Partition(()))


def test_phi_rejects_non_domain_input():
    with pytest.raises(DomainViolation):
        phi(2, PartitionPair(DistinctPartition((3,)), Partition(())))


@pytest.mark.parametrize("n", range(6))
def test_phi_exhaustive(n):
    rep = check_bijection("phi", n=n)
    assert rep.passed(), rep
    assert rep.domain_size == rep.codomain_size > 0


def test_phi_image_distinctness():
    n = 3
    images = [phi(n, e) for e in enumerate_domain("B1", n=n)]
    assert len(set(images)) == len(images)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_frozen():
    assert psi(2, SignedDistinctSet((), 2)) == DistinctPartition((2, 1))
    assert psi(2, SignedDistinctSet((-2, -1), 2)) == DistinctPartition(())
    out = psi(3, SignedDistinctSet((-2,), 3))
    assert out == DistinctPartition((3, 1))
    assert -2 == -3 * 4 // 2 + out.weight  # weight law at n=3


def test_psi_weight_law_and_roundtrip():
    for n in range(6):
        rep = check_bijection("psi", n=n)
        assert rep.passed(), rep
        assert rep.domain_size == 2**n


def test_psi_rejects_positive_elements():
    with pytest.raises(DomainViolation):
        psi(3, SignedDistinctSet((1,), 3))


def test_psi_families_stream_subsets_of_one_to_n_by_size():
    for n in range(7):
        subsets = [c for r in range(n + 1)
                   for c in combinations(range(1, n + 1), r)]
        sets = bijections._negative_sets(n, None, None)
        parts = bijections._bounded_distinct(n, None, None)
        assert not isinstance(sets, list) and not isinstance(parts, list)
        assert list(sets) == [
            SignedDistinctSet(tuple(sorted(-v for v in c)), n) for c in subsets]
        # psi's images in the domain's order: the complement of each subset
        assert list(parts) == [
            DistinctPartition(tuple(v for v in range(n, 0, -1) if v not in c))
            for c in subsets]


@pytest.mark.parametrize("name", ["psi", "rho", "tau"])
def test_codomain_streams_in_the_image_order(name):
    # the lockstep sweep then meets each image and its twin together
    row = bijections._BIJECTIONS[name]
    for n in range(7):
        domain = row.domain(n, None, None)
        codomain = row.codomain(n, None, None)
        assert list(codomain) == [row.forward(n, None, x) for x in domain]


_SRC = str(Path(bijections.__file__).resolve().parents[1])

_TRACED_SWEEP = """
import json, tracemalloc
from qident.bijections import check_bijection
tracemalloc.start()
assert check_bijection({name!r}, **{kwargs!r}).passed()
print(json.dumps(tracemalloc.get_traced_memory()))
"""


# tuples built from iterators with no length hint fill CPython's free
# lists (nu3 then leaves 588 kB traced at these sizes), and a codomain out
# of image order holds images pending (peaks of 310 kB for psi, 486 kB
# for rho and 186 kB for tau); with neither, each reads 2-16 kB
@pytest.mark.parametrize("name,kwargs,which", [
    ("nu3", dict(max_nk=9, weight_cap=50), 0),
    ("psi", dict(n=11), 1),
    ("rho", dict(n=6), 1),
    ("tau", dict(n=6), 1),
])
def test_sweep_memory_stays_small(name, kwargs, which):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_SWEEP.format(name=name, kwargs=kwargs)],
        env=env, check=True, capture_output=True, text=True).stdout
    assert json.loads(out)[which] < 64 * 1024


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------


def test_tau_frozen_n1():
    assert tau(1, SignedDistinctSet((-1, 0, 1), 1)) == SignedDistinctSet((), 1)
    assert tau(1, SignedDistinctSet((0, 1), 1)) == SignedDistinctSet((1,), 1)


def test_tau_codomain_is_the_ordered_filter_of_p():
    for n in range(6):
        short = list(bijections._short_sets(n, None, None))
        # each element of P with at most n elements, once
        want = [s for s in enumerate_domain("P", n=n) if len(s) <= n]
        assert len(short) == len(want) and set(short) == set(want)
        # sizes n down to 0, the order of the sizes of P_gt's images;
        # colexicographic within a size, by the elements read largest first
        want.sort(key=lambda s: (-len(s), s.elements[::-1]))
        assert short == want
        # the row's inverse takes every element and complements it
        inverse = bijections._BIJECTIONS["tau"].inverse
        assert [inverse(n, None, s) for s in want] == [tau_complement(n, s) for s in want]


def test_tau_weight_multiset_preserved():
    for n in range(5):
        dom = list(enumerate_domain("P_gt", n=n))
        img = [tau(n, s) for s in dom]
        assert sorted(s.weight for s in dom) == sorted(s.weight for s in img)
        assert all(len(s) <= n for s in img)
        for s in dom:
            assert tau_complement(n, tau(n, s)) == s


@pytest.mark.parametrize("n", range(6))
def test_tau_exhaustive(n):
    rep = check_bijection("tau", n=n)
    assert rep.passed(), rep
    assert rep.domain_size == 4**n


def test_tau_domain_size_n1():
    assert check_bijection("tau", n=1).domain_size == 4


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


def test_rho_worked_example_n5():
    lam = SignedDistinctSet((-4, -2, -1, 0, 2, 4, 5), 5)
    t, nu = rho(5, lam)
    assert t == 1
    assert nu == Partition((4, 4, 3, 2, 2, 2, 1))
    assert rho_inv(5, (t, nu)) == lam


def test_rho_minimal_element():
    t, nu = rho(1, SignedDistinctSet((-1, 0), 1))
    assert (t, nu) == (0, Partition(()))


@pytest.mark.parametrize("n", range(6))
def test_rho_exhaustive(n):
    rep = check_bijection("rho", n=n)
    assert rep.passed(), rep
    assert rep.domain_size == 4**n


def test_rho_weight_preserved_elementwise():
    n = 3
    for lam in enumerate_domain("P_gt", n=n):
        t, nu = rho(n, lam)
        run_w = t * (t + 1) // 2 - n * (n + 1) // 2
        assert run_w + nu.weight == lam.weight


# ---------------------------------------------------------------------------
# durfee_split
# ---------------------------------------------------------------------------


def test_durfee_split_frozen():
    out = durfee_split(Partition((3,)))
    assert out == PartitionPair(Partition((3,)), Partition(()))
    out = durfee_split(Partition((3, 1, 1)))
    assert out == PartitionPair(Partition((3,)), Partition((1, 1)))
    assert durfee_join(out) == Partition((3, 1, 1))


def test_durfee_split_rejects_outside_family():
    with pytest.raises(DomainViolation):
        durfee_split(Partition((3, 1)))  # below-square residue has odd multiplicity
    with pytest.raises(DomainViolation):
        durfee_split(Partition((4, 1, 1)))  # even largest part


def test_durfee_join_produces_odd_durfee():
    lam = durfee_join(PartitionPair(Partition((3,)), Partition((3, 3))))
    assert lam == Partition((3, 3, 3))
    assert lam.durfee_size() == 3


def test_durfee_exhaustive_cap25():
    rep = check_bijection("durfee_split", weight_cap=25)
    assert rep.passed(), rep
    assert rep.domain_size == rep.codomain_size > 100


# ---------------------------------------------------------------------------
# nu3
# ---------------------------------------------------------------------------


def test_nu3_trace_n1_k1():
    pair = PartitionPair(Partition((1, 1)), Partition((3,)))
    out = nu3_forward(1, 1, pair)
    assert out == PartitionPair(Partition((2,)), DistinctPartition((3,)))
    assert out.weight == pair.weight == 5
    assert nu3_inverse(1, 1, out) == pair


def test_nu3_trace_degenerate_rectangle():
    pair = PartitionPair(Partition(()), Partition((1,)))
    out = nu3_forward(0, 1, pair)
    assert out == PartitionPair(Partition((1,)), DistinctPartition(()))


def test_nu3_trace_n2():
    pair = PartitionPair(Partition((2, 2, 2)), Partition((5, 3)))
    out = nu3_forward(2, 2, pair)
    assert out == PartitionPair(Partition((4,)), DistinctPartition((7, 3)))
    assert nu3_inverse(2, 2, out) == pair


def test_nu3_trace_repeated_parts():
    pair = PartitionPair(Partition((1, 1)), Partition((3, 3)))
    out = nu3_forward(1, 2, pair)
    assert out == PartitionPair(Partition((3,)), DistinctPartition((5,)))
    assert nu3_inverse(1, 2, out) == pair


def test_nu3_rejects_bad_input():
    with pytest.raises(DomainViolation):
        nu3_forward(1, 1, PartitionPair(Partition((1, 1)), Partition((2,))))
    with pytest.raises(DomainViolation):
        nu3_inverse(1, 1, PartitionPair(Partition((2,)), DistinctPartition((4,))))


def test_nu3_exhaustive_sweep():
    rep = check_bijection("nu3", max_nk=5, weight_cap=30)
    assert rep.passed(), rep
    assert rep.domain_size == rep.codomain_size > 0


def test_nu3_unchecked_conditions_hold_on_the_benchmark_sweep():
    # nu3_forward and nu3_inverse no longer check these five conditions:
    # their docstrings prove that the checks before them make each hold.
    # Here each is asserted on every element of the sweep nu3 --max-nk 11
    # --cap 80, 3 246 on each side
    forward = inverse = 0
    for n in range(12):
        for k in range(12 - n):
            for pair in enumerate_domain("O", n=n, k=k, weight_cap=80):
                residue = _fold(n, pair.second.parts)[1:]
                assert conjugate_parts(residue) == residue  # self-conjugate
                assert Partition(residue).durfee_size() == n
                assert not residue or residue[0] <= n + k
                forward += 1
            for pair in enumerate_domain("DO", n=n, k=k, weight_cap=80):
                closure = distinct_odd_to_selfconj(pair.second).parts
                head = ((n + k,) if n + k else ()) + closure[:n]
                assert all(h >= n for h in head)  # no row short of the rectangle
                svals = [v - 1 for v in conjugate_parts([h - n for h in head])]
                # the appended rows agree with the column excesses
                assert [s for s in svals if s >= 1] == list(closure[n:])
                inverse += 1
    assert forward == inverse == 3246


def test_nu3_k_zero_gives_hook_staircase():
    pair = PartitionPair(Partition((3, 3, 3, 3)), Partition(()))
    out = nu3_forward(3, 0, pair)
    assert out == PartitionPair(Partition((3,)), DistinctPartition((5, 3, 1)))


# ---------------------------------------------------------------------------
# checker plumbing
# ---------------------------------------------------------------------------


def test_check_bijection_errors():
    with pytest.raises(UnknownBijection):
        check_bijection("nope", n=1)
    with pytest.raises(MissingParam):
        check_bijection("phi")
    with pytest.raises(MissingParam):
        check_bijection("nu3", n=1, k=1)  # cap required


@pytest.mark.parametrize("name,kwargs", [
    ("durfee_split", {}),
    ("nu3", dict(max_nk=2)),
])
def test_capped_sweeps_without_a_cap_are_refused(name, kwargs):
    with pytest.raises(MissingParam) as info:
        check_bijection(name, **kwargs)
    assert str(info.value) == f"{name} requires weight_cap"


def test_check_bijection_refuses_parameters_the_map_does_not_take():
    with pytest.raises(BadParams, match=r"phi does not take parameter\(s\) \['k'\]"):
        check_bijection("phi", n=2, k=1)
    with pytest.raises(BadParams, match=r"\['n', 'k'\]"):
        check_bijection("nu3", n=2, k=1, weight_cap=12, max_nk=1)
    with pytest.raises(BadParams, match=r"\['max_nk'\]"):
        check_bijection("durfee_split", weight_cap=12, max_nk=1)


def test_report_merge():
    a = check_bijection("tau", n=1)
    b = check_bijection("tau", n=2)
    merged = a.merge(b)
    assert merged.domain_size == a.domain_size + b.domain_size
    assert merged.passed()


def test_report_fields_and_merge():
    assert BijectionReport._fields == (
        "name", "domain_size", "codomain_size", "roundtrip_failures",
        "weight_violations", "membership_failures", "witness")
    empty = BijectionReport("phi")
    assert empty == BijectionReport("phi", 0, 0, 0, 0, 0, None)
    assert empty.passed()
    assert repr(empty) == (
        "BijectionReport(name='phi', domain_size=0, codomain_size=0,"
        " roundtrip_failures=0, weight_violations=0, membership_failures=0,"
        " witness=None)")
    a = BijectionReport("nu3", 4, 3, 1, 0, 2, None)
    b = BijectionReport("other", 1, 2, 0, 5, 0, "w")
    merged = a.merge(b)
    assert merged == BijectionReport("nu3", 5, 5, 1, 5, 2, "w")
    assert not merged.passed()
    assert BijectionReport("x", 1, 1, witness="first").merge(b).witness == "first"
    assert BijectionReport("x", 2, 2).passed()
    assert not BijectionReport("x", 2, 1).passed()


# ---------------------------------------------------------------------------
# fault injection: a broken map is counted, and the first witness kept
# ---------------------------------------------------------------------------

# bijection -> (check_bijection arguments, forward name, inverse name,
#               weight at which the raising forward map fails)
_FAULT_CASES = {
    "phi": (dict(n=2), "phi", "phi_inv", 3),
    "psi": (dict(n=3), "psi", "psi_inv", -3),
    "tau": (dict(n=2), "tau", "tau_complement", 1),
    "rho": (dict(n=2), "rho", "rho_inv", 1),
    "durfee_split": (dict(k=1, weight_cap=15), "durfee_split", "durfee_join", 9),
    "nu3": (dict(n=2, k=1, weight_cap=20), "nu3_forward", "nu3_inverse", 9),
}

# (bijection, fault) -> (roundtrip_failures, weight_violations,
#                        membership_failures, witness).  An inverse sending
# everything to the first domain element breaks the round trip of every
# other element once from each side: 2 * (16 - 1) = 30 for phi at n = 2,
# with the second domain element as the witness.
_FAULT_REPORTS = {
    ("phi", "drop_last"):
        (26, 13, 0, "PartitionPair(DistinctPartition(), Partition(2,))"),
    ("phi", "other_preimage"):
        (30, 0, 0, "PartitionPair(DistinctPartition(), Partition(2,))"),
    ("phi", "raise"):
        (0, 0, 8, "PartitionPair(DistinctPartition(), Partition(2, 1))"),
    ("psi", "drop_last"): (14, 7, 0, "SignedDistinctSet((), n=3)"),
    ("psi", "other_preimage"): (14, 0, 0, "SignedDistinctSet((-1,), n=3)"),
    ("psi", "raise"): (0, 0, 4, "SignedDistinctSet((-3,), n=3)"),
    ("tau", "drop_last"): (30, 12, 0, "SignedDistinctSet((-2, -1, 0), n=2)"),
    # tau returns tau_complement's value, so the patched inverse is also the
    # forward image, a set with too many elements for the codomain
    ("tau", "other_preimage"): (16, 0, 16, "SignedDistinctSet((-2, -1, 0), n=2)"),
    ("tau", "raise"): (0, 0, 6, "SignedDistinctSet((-2, 1, 2), n=2)"),
    ("rho", "drop_last"): (26, 13, 0, "SignedDistinctSet((-2, -1, 1), n=2)"),
    ("rho", "other_preimage"): (30, 0, 0, "SignedDistinctSet((-2, -1, 1), n=2)"),
    ("rho", "raise"): (0, 0, 6, "SignedDistinctSet((-2, 1, 2), n=2)"),
    ("durfee_split", "drop_last"): (11, 0, 11, "Partition(3, 1, 1)"),
    ("durfee_split", "other_preimage"): (22, 0, 0, "Partition(3, 1, 1)"),
    ("durfee_split", "raise"): (0, 0, 4, "Partition(3, 1, 1, 1, 1, 1, 1)"),
    ("nu3", "drop_last"):
        (3, 0, 3, "PartitionPair(Partition(2, 2, 2), Partition(5,))"),
    ("nu3", "other_preimage"):
        (4, 0, 0, "PartitionPair(Partition(2, 2, 2), Partition(3,))"),
    ("nu3", "raise"): (0, 0, 2, "PartitionPair(Partition(2, 2, 2), Partition(3,))"),
}


def _drop_last(y):
    """The same element with its last part (or set element) removed."""
    if isinstance(y, PartitionPair):
        return PartitionPair(y.first, _drop_last(y.second))
    if isinstance(y, SignedDistinctSet):
        return SignedDistinctSet(y.elements[:-1], y.n)
    if isinstance(y, Partition):
        return type(y)(y.parts[:-1])
    t, nu = y
    return (t, _drop_last(nu))


# bijection -> the partitions family of its domain; psi's has none
_DOMAIN_FAMILY = {"phi": "B1", "tau": "P_gt", "rho": "P_gt",
                  "durfee_split": "DS", "nu3": "O"}


def _first_domain_element(name, kwargs):
    """The first element of the bijection's domain in sweep order."""
    if name == "psi":
        return SignedDistinctSet((), kwargs["n"])
    return next(iter(enumerate_domain(_DOMAIN_FAMILY[name], **kwargs)))


@pytest.mark.parametrize("name,fault", sorted(_FAULT_REPORTS))
def test_sweep_counts_injected_faults(monkeypatch, name, fault):
    kwargs, fwd_name, inv_name, bad_weight = _FAULT_CASES[name]
    forward = getattr(bijections, fwd_name)
    if fault == "drop_last":
        # a forward map off by one part
        monkeypatch.setattr(bijections, fwd_name,
                            lambda *args: _drop_last(forward(*args)))
    elif fault == "other_preimage":
        # an inverse that returns one fixed valid domain element
        first = _first_domain_element(name, kwargs)
        monkeypatch.setattr(bijections, inv_name, lambda *args: first)
    else:
        def raising(*args):
            if args[-1].weight == bad_weight:
                raise DomainViolation("injected")
            return forward(*args)
        monkeypatch.setattr(bijections, fwd_name, raising)
    rep = check_bijection(name, **kwargs)
    size = rep.domain_size
    assert size == rep.codomain_size and size > 2
    got = (rep.roundtrip_failures, rep.weight_violations,
           rep.membership_failures, rep.witness)
    assert got == _FAULT_REPORTS[name, fault]
    assert not rep.passed()


def test_sweep_counts_weight_only_faults(monkeypatch):
    # a codomain weight off by one on some elements: the maps still round
    # trip, so only the weight law fails, element by element and once more
    # for the weight multisets
    b2, b3 = bijections.b2_weight, bijections.b3_weight
    monkeypatch.setattr(bijections, "b2_weight",
                        lambda elt: b2(elt) + (2 in elt[1].parts))
    rep = check_bijection("phi", n=2)
    assert (rep.roundtrip_failures, rep.weight_violations,
            rep.membership_failures) == (0, 7, 0)
    assert rep.witness == "PartitionPair(DistinctPartition(), Partition(2,))"
    monkeypatch.setattr(bijections, "b3_weight",
                        lambda n, elt: b3(n, elt) + (elt[0] == 1))
    rep = check_bijection("rho", n=2)
    assert (rep.roundtrip_failures, rep.weight_violations,
            rep.membership_failures) == (0, 6, 0)
    assert rep.witness == "SignedDistinctSet((-2, -1, 0, 1), n=2)"


# ---------------------------------------------------------------------------
# the lockstep walk against the two-pass sweep it replaced
# ---------------------------------------------------------------------------


def _reference_sweep(name, spec, n, k, weight_cap):
    """The two-pass sweep: every domain element forward and back, then every
    codomain element back and forward, then the images of the domain
    elements that came back against the codomain, then the weight
    multisets.  As in the walk, the maps' input checks are the membership
    tests, and an image the codomain lacks is a membership failure."""
    domain = spec.domain(n, k, weight_cap)
    codomain = spec.codomain(n, k, weight_cap)
    forward, inverse = spec.forward, spec.inverse
    w_domain, w_codomain = spec.w_domain, spec.w_codomain
    delta = spec.shift(n)
    roundtrip = weight = membership = 0
    witness = None
    dom_weights = []
    images = {}  # image of a domain element that came back -> times
    for x in domain:
        wx = w_domain(n, x) + delta
        dom_weights.append(wx)
        try:
            y = forward(n, k, x)
            back = inverse(n, k, y)
            if w_codomain(n, y) != wx:
                weight += 1
                witness = witness or repr(x)
            if back != x:
                roundtrip += 1
                witness = witness or repr(x)
            else:
                images[y] = images.get(y, 0) + 1
        except DomainViolation:
            membership += 1
            witness = witness or repr(x)
    cod_weights = []
    for y in codomain:
        cod_weights.append(w_codomain(n, y))
        if images.get(y):
            images[y] -= 1
        try:
            if forward(n, k, inverse(n, k, y)) != y:
                roundtrip += 1
                witness = witness or repr(y)
        except DomainViolation:
            membership += 1
            witness = witness or repr(y)
    missing = [y for y, times in images.items() if times]
    if missing:
        membership += sum(images.values())
        witness = witness or f"image {missing[0]!r} missing from the codomain"
    if sorted(dom_weights) != sorted(cod_weights):
        weight += 1
        witness = witness or "domain/codomain weight multisets differ"
    return BijectionReport(name, len(dom_weights), len(cod_weights),
                           roundtrip, weight, membership, witness)


def _both_sweeps(monkeypatch, name, kwargs):
    """The reports of the lockstep walk and of the reference, in that order."""
    walk = bijections._sweep
    new = check_bijection(name, **kwargs)
    monkeypatch.setattr(bijections, "_sweep", _reference_sweep)
    old = check_bijection(name, **kwargs)
    monkeypatch.setattr(bijections, "_sweep", walk)
    return new, old


_SMALL_SWEEPS = (
    [("phi", dict(n=n)) for n in range(4)]
    + [("psi", dict(n=n)) for n in range(5)]
    + [("tau", dict(n=n)) for n in range(4)]
    + [("rho", dict(n=n)) for n in range(4)]
    + [("durfee_split", dict(weight_cap=15)), ("durfee_split", dict(k=1, weight_cap=15)),
       ("nu3", dict(max_nk=3, weight_cap=20)), ("nu3", dict(n=2, k=1, weight_cap=20))]
)


@pytest.mark.parametrize("name,kwargs", _SMALL_SWEEPS)
def test_walk_report_equals_two_pass_sweep(monkeypatch, name, kwargs):
    new, old = _both_sweeps(monkeypatch, name, kwargs)
    assert new == old and new.passed()


def _inject(monkeypatch, name, fault):
    """Break one map of ``name`` the way test_sweep_counts_injected_faults
    does; return the check_bijection arguments."""
    kwargs, fwd_name, inv_name, bad_weight = _FAULT_CASES[name]
    forward = getattr(bijections, fwd_name)
    if fault == "drop_last":
        monkeypatch.setattr(bijections, fwd_name,
                            lambda *args: _drop_last(forward(*args)))
    elif fault == "other_preimage":
        first = _first_domain_element(name, kwargs)
        monkeypatch.setattr(bijections, inv_name, lambda *args: first)
    else:
        def raising(*args):
            if args[-1].weight == bad_weight:
                raise DomainViolation("injected")
            return forward(*args)
        monkeypatch.setattr(bijections, fwd_name, raising)
    return kwargs


@pytest.mark.parametrize("name,fault", sorted(_FAULT_REPORTS))
def test_walk_report_equals_two_pass_sweep_under_faults(monkeypatch, name, fault):
    kwargs = _inject(monkeypatch, name, fault)
    new, old = _both_sweeps(monkeypatch, name, kwargs)
    assert new == old and new.witness is not None


# a codomain element outside the family at the _FAULT_CASES sizes; each
# fails the inverse's input check or lands outside the domain
_OUTSIDE = {
    "phi": (3, Partition(())),
    "psi": DistinctPartition((4,)),
    "tau": SignedDistinctSet((-2, -1, 0), 2),
    "rho": (3, Partition(())),
    "durfee_split": PartitionPair(Partition((3,)), Partition((1,))),
    "nu3": PartitionPair(Partition((3,)), DistinctPartition((1,))),
}


def _twice_and_outside(name, items):
    """The second element twice, and an outside element after the third
    and again at the end."""
    outside = _OUTSIDE[name]
    return items[:2] + [items[1]] + items[2:3] + [outside] + items[3:] + [outside]


def _short_codomain(name, items):
    """The codomain without its last third: the domain is longer."""
    return items[: 2 * len(items) // 3]


@pytest.mark.parametrize("edit", [_twice_and_outside, _short_codomain])
@pytest.mark.parametrize("name", sorted(_FAULT_CASES))
def test_walk_report_equals_two_pass_sweep_on_edited_codomain(monkeypatch, name, edit):
    row = bijections._BIJECTIONS[name]

    def codomain(n, k, cap):
        return iter(edit(name, list(row.codomain(n, k, cap))))

    monkeypatch.setitem(bijections._BIJECTIONS, name, row._replace(codomain=codomain))
    kwargs = _FAULT_CASES[name][0]
    new, old = _both_sweeps(monkeypatch, name, kwargs)
    assert new == old and not new.passed()
    if edit is _twice_and_outside:
        assert new.membership_failures == 2
        assert new.witness == repr(_OUTSIDE[name])


# phi at n = 2: two elements of weight 2 in each family
_EARLY = PartitionPair(DistinctPartition(), Partition((2,)))
_LATE = PartitionPair(DistinctPartition(), Partition((1, 1)))


def _phi_with(monkeypatch, family, edit):
    """phi's row with one family's stream at n = 2 replaced by edit(items)."""
    row = bijections._BIJECTIONS["phi"]
    stream = getattr(row, family)

    def edited(n, k, cap):
        return iter(edit(list(stream(n, k, cap))))

    monkeypatch.setitem(bijections._BIJECTIONS, "phi", row._replace(**{family: edited}))


@pytest.mark.parametrize("family, old, new, missing", [
    ("codomain", (0, Partition((1, 1))), (0, Partition((2,))), "(0, Partition(1, 1))"),
    ("domain", _LATE, _EARLY, "(0, Partition(2,))"),
])
def test_sweep_fails_a_family_that_repeats_one_element_for_another(
        monkeypatch, family, old, new, missing):
    # the family keeps its size and its weights; the image the codomain
    # lacks, one of a proof that found no twin, gives it away
    _phi_with(monkeypatch, family, lambda items: [new if e == old else e for e in items])
    rep, ref = _both_sweeps(monkeypatch, "phi", dict(n=2))
    assert rep == ref and not rep.passed()
    assert (rep.domain_size, rep.codomain_size) == (16, 16)
    assert (rep.roundtrip_failures, rep.weight_violations,
            rep.membership_failures) == (0, 0, 1)
    assert rep.witness == f"image {missing} missing from the codomain"


def test_sweep_counts_a_repeat_proved_before_its_twin(monkeypatch):
    # both copies of the repeated element come before their twin, so its
    # image is proved twice while it waits
    _phi_with(monkeypatch, "domain", lambda items: [_EARLY, _EARLY] + [
        e for e in items if e not in (_EARLY, _LATE)])
    rep, ref = _both_sweeps(monkeypatch, "phi", dict(n=2))
    assert rep == ref and not rep.passed()
    assert (rep.roundtrip_failures, rep.weight_violations,
            rep.membership_failures) == (0, 0, 1)
    assert rep.witness == "image (0, Partition(2,)) missing from the codomain"


def test_sweep_matches_repeats_one_by_one(monkeypatch):
    # the codomain meets the repeated image twice before either proof, and
    # each proof takes one; the element both families skip is in neither,
    # so no check can see it
    _phi_with(monkeypatch, "domain", lambda items: [
        e for e in items if e not in (_EARLY, _LATE)] + [_EARLY, _EARLY])
    _phi_with(monkeypatch, "codomain", lambda items: [(0, Partition((2,)))] * 2 + [
        e for e in items if e not in ((0, Partition((2,))), (0, Partition((1, 1))))])
    rep, ref = _both_sweeps(monkeypatch, "phi", dict(n=2))
    assert rep == ref
    assert (rep.roundtrip_failures, rep.membership_failures) == (0, 0)


@pytest.mark.parametrize("name", sorted(_FAULT_CASES))
def test_walk_report_equals_two_pass_sweep_when_domain_refuses_one(monkeypatch, name):
    # a domain validator that refuses the third domain element: the forward
    # map refuses it, and so does the forward map of the full path its image
    # then takes from the codomain, so it counts once on each side.  psi
    # checks its input without a family validator, by _within on the set's
    # elements
    kwargs = _FAULT_CASES[name][0]
    third = list(bijections._BIJECTIONS[name].domain(
        kwargs.get("n"), kwargs.get("k"), kwargs.get("weight_cap")))[2]
    if name == "psi":
        within = bijections._within
        monkeypatch.setattr(bijections, "_within", lambda values, lo, hi: (
            values != third.elements and within(values, lo, hi)))
    else:
        real = bijections.domain_validator
        family = _DOMAIN_FAMILY[name]
        monkeypatch.setattr(bijections, "domain_validator", lambda fam: (
            (lambda x, *args: x != third and real(fam)(x, *args)) if fam == family
            else real(fam)))
    new, old = _both_sweeps(monkeypatch, name, kwargs)
    assert new == old
    assert (new.roundtrip_failures, new.membership_failures) == (0, 2)


# ---------------------------------------------------------------------------
# the maps' input checks are the sweep's only membership tests
# ---------------------------------------------------------------------------

_COUNTED_SWEEPS = (
    [(name, dict(n=n)) for name in ("phi", "rho", "tau") for n in range(4)]
    + [("durfee_split", dict(weight_cap=15)), ("nu3", dict(max_nk=3, weight_cap=20))]
)

# bijection -> the families whose validators its maps ask: tau's inverse
# checks the set's size, and tau_complement its n
_VALIDATED = {"phi": ("B1", "B2"), "rho": ("P_gt", "B3"), "tau": ("P_gt",),
              "durfee_split": ("DS", "OE"), "nu3": ("O", "DO")}


def _count_validator_calls(monkeypatch):
    """Count the calls of each family's validator, by family name."""
    calls = {}
    real = bijections.domain_validator

    def domain_validator(name):
        valid = real(name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return valid(*args)
        return counted

    monkeypatch.setattr(bijections, "domain_validator", domain_validator)
    return calls


@pytest.mark.parametrize("name,kwargs", _COUNTED_SWEEPS)
def test_each_validator_is_asked_once_per_element(monkeypatch, name, kwargs):
    calls = _count_validator_calls(monkeypatch)
    rep = check_bijection(name, **kwargs)
    assert rep.passed() and rep.domain_size > 0
    # every image meets its twin, so no codomain element is left pending
    assert calls == dict.fromkeys(_VALIDATED[name], rep.domain_size)
    # a codomain element met again after its twin is pending at the end: its
    # inverse and the forward map back ask each validator once more
    row = bijections._BIJECTIONS[name]

    def codomain(n, k, cap):
        items = list(row.codomain(n, k, cap))
        return items + items[-1:]

    monkeypatch.setitem(bijections._BIJECTIONS, name, row._replace(codomain=codomain))
    calls.clear()
    rep = check_bijection(name, **kwargs)
    assert rep.codomain_size > rep.domain_size
    assert rep.membership_failures == rep.roundtrip_failures == 0
    assert calls == dict.fromkeys(_VALIDATED[name], rep.codomain_size)


# ---------------------------------------------------------------------------
# the DomainViolation text of every map
# ---------------------------------------------------------------------------

_VIOLATIONS = [
    (lambda: phi(2, PartitionPair(DistinctPartition((3,)), Partition(()))),
     "not a B1(2) element: PartitionPair(DistinctPartition(3,), Partition())"),
    (lambda: phi_inv(2, (3, Partition((1,)))),
     "not a B2(2) element: (3, Partition(1,))"),
    (lambda: psi(3, SignedDistinctSet((-2, 1), 3)),
     "psi input must use only negative elements of [-3,-1]:"
     " SignedDistinctSet((-2, 1), n=3)"),
    (lambda: psi_inv(2, DistinctPartition((3, 1))),
     "psi inverse needs a distinct partition with parts in [1,2]:"
     " DistinctPartition(3, 1)"),
    (lambda: tau(2, SignedDistinctSet((0,), 2)),
     "not a P_gt(2) element: SignedDistinctSet((0,), n=2)"),
    (lambda: tau_complement(1, SignedDistinctSet((-3, 3), 3)),
     "not a P(1) element: SignedDistinctSet((-3, 3), n=3)"),
    (lambda: tau_complement(2, SignedDistinctSet((-1,), 1)),
     "not a P(2) element: SignedDistinctSet((-1,), n=1)"),
    (lambda: rho(1, SignedDistinctSet((1,), 1)),
     "not a P_gt(1) element: SignedDistinctSet((1,), n=1)"),
    (lambda: rho_inv(2, (1, Partition((2,)))),
     "not a B3(2) element: (1, Partition(2,))"),
    (lambda: durfee_split(Partition((4, 1, 1))),
     "largest part must be odd: Partition(4, 1, 1)"),
    (lambda: durfee_split(Partition((3, 1))),
     "not a DS(1) element: Partition(3, 1)"),
    (lambda: durfee_join(PartitionPair(Partition((2,)), Partition(()))),
     "first component must be a single odd part: Partition(2,)"),
    (lambda: durfee_join(PartitionPair(Partition((3,)), Partition((1,)))),
     "not an OE(1) element: PartitionPair(Partition(3,), Partition(1,))"),
    (lambda: nu3_forward(1, 1, PartitionPair(Partition((1, 1)), Partition((2,)))),
     "not an O(1,1) element: PartitionPair(Partition(1, 1), Partition(2,))"),
    (lambda: nu3_inverse(1, 1, PartitionPair(Partition((2,)), DistinctPartition((4,)))),
     "not a DO(1,1) element: PartitionPair(Partition(2,), DistinctPartition(4,))"),
    # tau_complement takes this set; tau's codomain holds at most n elements
    (lambda: tau_inv(1, SignedDistinctSet((-1, 0), 1)),
     "tau inverse needs a P(1) element of size at most 1: SignedDistinctSet((-1, 0), n=1)"),
]


@pytest.mark.parametrize("call,message", _VIOLATIONS)
def test_domain_violation_text(call, message):
    with pytest.raises(DomainViolation) as info:
        call()
    assert str(info.value) == message


def test_tau_complement_takes_any_p_element():
    # the involution has no side constraint, so it has no violation to
    # report: a set with more than n elements is complemented as well
    s = SignedDistinctSet((-1, 0, 1), 1)
    assert tau_complement(1, s) == SignedDistinctSet((), 1)
    assert tau_complement(1, SignedDistinctSet((), 1)) == s


def _validators(verdicts):
    """A domain_validator whose families in ``verdicts`` answer that verdict
    for every element; the others are the real validators."""
    real = bijections.domain_validator
    return lambda name: (
        (lambda *args: verdicts[name]) if name in verdicts else real(name))


_EVERY = dict.fromkeys(("B1", "B2", "B3", "P", "P_gt", "DS", "OE", "O", "DO"), True)

# checks after a map's input check, reached through validators that accept
# or refuse everything; each text names the offending values in order.  No
# map checks its own output: the other map's input check refuses the same
# value, as the four round trips below show
_INNER_VIOLATIONS = [
    (dict(OE=False), lambda: durfee_join(durfee_split(Partition((3,)))),
     "not an OE(1) element: PartitionPair(Partition(3,), Partition())"),
    (dict(OE=False), lambda: durfee_join(PartitionPair(Partition((3,)), Partition(()))),
     "not an OE(1) element: PartitionPair(Partition(3,), Partition())"),
    (dict(DS=False), lambda: durfee_split(durfee_join(
        PartitionPair(Partition((3,)), Partition(())))),
     "not a DS(1) element: Partition(3,)"),
    (dict(DO=False), lambda: nu3_inverse(1, 1, nu3_forward(
        1, 1, PartitionPair(Partition((1, 1)), Partition((3,))))),
     "not a DO(1,1) element: PartitionPair(Partition(2,), DistinctPartition(3,))"),
    (dict(O=False), lambda: nu3_forward(1, 1, nu3_inverse(
        1, 1, PartitionPair(Partition((2,)), DistinctPartition((3,))))),
     "not an O(1,1) element: PartitionPair(Partition(1, 1), Partition(3,))"),
    (_EVERY, lambda: nu3_forward(1, 1, PartitionPair(Partition((1, 1)), Partition(()))),
     "largest folded part is not n+k: (1, 1)"),
    (_EVERY, lambda: nu3_inverse(1, 1, PartitionPair(Partition((2,)), DistinctPartition((5,)))),
     "hook closure largest part exceeds n+k: Partition(3, 1, 1)"),
    (_EVERY, lambda: nu3_inverse(2, 1, PartitionPair(Partition((3,)), DistinctPartition((1,)))),
     "hook closure has Durfee side 1 != 2"),
]


@pytest.mark.parametrize("verdicts,call,message", _INNER_VIOLATIONS)
def test_inner_violation_text(monkeypatch, verdicts, call, message):
    monkeypatch.setattr(bijections, "domain_validator", _validators(verdicts))
    with pytest.raises(DomainViolation) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# every map's images, pinned
# ---------------------------------------------------------------------------

_IMAGES = json.loads(Path(__file__).with_name("golden_images.json").read_text())


def _pinned_domain(name, params):
    """The map's domain at ``params`` and the map as a function of one
    element."""
    n, k = params.get("n"), params.get("k")
    if name == "psi":
        return bijections._negative_sets(n, None, None), lambda x: psi(n, x)
    if name == "durfee_split":
        return enumerate_domain("DS", **params), durfee_split
    if name == "nu3":
        return (enumerate_domain("O", **params),
                lambda x: nu3_forward(n, k, x))
    forward = {"phi": phi, "tau": tau, "rho": rho}[name]
    return enumerate_domain("B1" if name == "phi" else "P_gt", n=n), (
        lambda x: forward(n, x))


@pytest.mark.parametrize(
    "case", _IMAGES["cases"],
    ids=lambda c: "-".join([c["map"]] + [f"{p}{v}" for p, v in c["params"].items()]))
def test_every_image_is_pinned(case):
    # recorded before the maps were rewritten for speed: an image that
    # changes fails here even when it still round-trips
    domain, forward = _pinned_domain(case["map"], case["params"])
    got = {repr(x): repr(forward(x)) for x in domain}
    assert got == dict(case["images"])


def test_pinned_images_cover_the_small_families():
    covered = {}
    for case in _IMAGES["cases"]:
        covered[case["map"]] = covered.get(case["map"], 0) + len(case["images"])
    # phi, tau and rho: 4^0 + ... + 4^3; psi: 2^0 + ... + 2^5
    assert covered["phi"] == covered["tau"] == covered["rho"] == 85
    assert covered["psi"] == 63
    assert covered["durfee_split"] == check_bijection(
        "durfee_split", weight_cap=15).domain_size
    assert covered["nu3"] == check_bijection(
        "nu3", max_nk=3, weight_cap=20).domain_size


# ---------------------------------------------------------------------------
# parameters refused before the sweep starts
# ---------------------------------------------------------------------------


def _no_sweep(*args):
    raise AssertionError("a refused sweep must not start")


@pytest.mark.parametrize("name,kwargs,shown", [
    ("phi", dict(n=-1), "n=-1"),
    ("nu3", dict(n=2, k=-1, weight_cap=10), "k=-1"),
    ("durfee_split", dict(weight_cap=-3), "weight_cap=-3"),
    ("nu3", dict(max_nk=-1, weight_cap=5), "max_nk=-1"),
], ids=["n", "k", "weight_cap", "max_nk"])
def test_negative_parameters_are_refused(monkeypatch, name, kwargs, shown):
    monkeypatch.setattr(bijections, "_sweep", _no_sweep)
    with pytest.raises(BadParams) as info:
        check_bijection(name, **kwargs)
    assert str(info.value) == f"bijection {name} takes no negative parameter: {shown}"


@pytest.mark.parametrize("name,n,bits", [
    ("phi", 11, 22), ("tau", 11, 22), ("rho", 11, 22), ("psi", 21, 21),
])
def test_sweeps_one_step_past_the_size_limit_are_refused(monkeypatch, name, n, bits):
    assert bijections.MAX_SWEEP_BITS == 20
    monkeypatch.setattr(bijections, "_sweep", _no_sweep)
    monkeypatch.setattr(bijections, "enumerate_domain", _no_sweep)
    with pytest.raises(BadParams) as info:
        check_bijection(name, n=n)
    assert str(info.value) == (f"bijection {name} at n = {n} would sweep 2^{bits}"
                               " elements, past the limit of 2^20")


@pytest.mark.parametrize("name,n", [("phi", 10), ("tau", 10), ("rho", 10), ("psi", 20)])
def test_sweeps_at_the_size_limit_start(monkeypatch, name, n):
    started = []
    monkeypatch.setattr(bijections, "_sweep", lambda *args: started.append(args[2]))
    check_bijection(name, n=n)
    assert started == [n]


def test_size_bits_are_the_domain_sizes():
    for name, expect in (("phi", lambda n: 4 ** n), ("tau", lambda n: 4 ** n),
                         ("rho", lambda n: 4 ** n), ("psi", lambda n: 2 ** n)):
        row = bijections._BIJECTIONS[name]
        for n in range(5):
            domain = row.domain(n, None, None)
            assert sum(1 for _ in domain) == expect(n) == 2 ** row.size_bits(n)
    for name in ("durfee_split", "nu3"):
        assert bijections._BIJECTIONS[name].size_bits is None
