"""Self-tests of the benchmark: oracles against brute force, and checks
against deliberately faulty outputs.

Run from the root of the repository:  python3 -m pytest bench -q
Nothing here runs or imports the program.
"""

import json
from collections import Counter
from itertools import combinations

import pytest

import checks
import oracles
import workloads
from run import Tally


# ---------------------------------------------------------------------------
# Brute force from the definitions
# ---------------------------------------------------------------------------


def partitions(n, max_part=None):
    """Partitions of n as nonincreasing tuples."""
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partitions_upto(cap):
    for w in range(cap + 1):
        yield from partitions(w)


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def gf(weights):
    c = Counter(weights)
    return [c.get(w, 0) for w in range(max(c) + 1)] if c else []


def conjugate(parts):
    return tuple(sum(1 for p in parts if p >= j)
                 for j in range(1, (parts[0] if parts else 0) + 1))


def durfee(parts):
    return max((i + 1 for i, p in enumerate(parts) if p >= i + 1), default=0)


def odd_even_mult(parts):
    return all(p % 2 == 1 and m % 2 == 0 for p, m in Counter(parts).items())


def b1(n):
    for lam in subsets(range(1, n + 1)):
        bound = min(lam) - 1 if lam else n
        for w in range(bound * (n + 1) + 1):
            for pi in partitions(w, bound):
                if len(pi) <= n + 1:
                    yield sum(lam) + w


def b2(n):
    for t in range(n + 1):
        for w in range((n - t) * (n + 1 + t) + 1):
            for nu in partitions(w, n - t):
                if len(nu) <= n + 1 + t:
                    yield t * (t + 1) // 2 + w


# ---------------------------------------------------------------------------
# Oracles agree with brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(7))
def test_gauss_binom_counts_subsets(m):
    for k in range(m + 1):
        brute = gf(sum(s) - k * (k + 1) // 2 for s in combinations(range(1, m + 1), k))
        assert list(oracles.gauss_binom(m, k)) == brute


@pytest.mark.parametrize("n", range(5))
def test_four_to_the_n_families(n):
    b1_weights, b2_weights = list(b1(n)), list(b2(n))
    assert len(b1_weights) == len(b2_weights) == oracles.size_4n(n)
    p_gt = [s for s in subsets(range(-n, n + 1)) if len(s) >= n + 1]
    assert len(p_gt) == oracles.size_4n(n)
    assert len(list(subsets(range(-n, n + 1)))) == oracles.size_p(n)
    assert len(list(subsets(range(1, n + 1)))) == oracles.size_psi_side(n)
    # the generating functions of B1 and B2 are the two sides of thm21's
    # chain; (-q;q)_n^2 counts pairs of subsets of {1..n}
    pairs = gf(sum(a) + sum(b) for a in subsets(range(1, n + 1))
               for b in subsets(range(1, n + 1)))
    assert oracles.thm21_lhs(n) == gf(b1_weights)
    assert oracles.staircase_sum(n) == gf(b2_weights)
    assert oracles.neg_q_poch_sq(n) == pairs
    assert sum(pairs) == 4 ** n


@pytest.mark.parametrize("n", range(6))
def test_signed_products(n):
    signed = Counter()
    for a in subsets(range(1, n + 1)):
        signed[2 * sum(a)] += (-1) ** len(a)
    assert oracles.ay3_rhs(n) == [signed.get(w, 0) for w in range(n * (n + 1) + 1)]
    assert oracles.ay3_lhs(n) == oracles.trim(oracles.ay3_rhs(n))
    zq = Counter()
    for a in subsets(range(n)):
        zq[(len(a), sum(a))] += (-1) ** len(a)
    assert oracles.qbinom_thm_lhs(n) == {k: c for k, c in zq.items() if c}
    assert oracles.qbinom_thm_rhs(n) == oracles.qbinom_thm_lhs(n)


def test_poly_div_rejects_a_remainder():
    with pytest.raises(ValueError):
        oracles.poly_div_one_minus([1, 1], 2)


@pytest.mark.parametrize("cap", (7, 16, 24))
def test_capped_family_sizes(cap):
    ds, oe = Counter(), Counter()
    for lam in partitions_upto(cap):
        if not lam or lam[0] % 2 == 0:
            continue
        k = (lam[0] - 1) // 2
        d = durfee(lam)
        right = conjugate(tuple(p - d for p in lam[:d] if p > d))
        if d % 2 == 1 and odd_even_mult(lam[d:]) and odd_even_mult(right):
            ds[k] += 1
    for k in range(cap // 2 + 1):
        oe[k] = sum(1 for nu in partitions_upto(cap - 2 * k - 1)
                    if (not nu or nu[0] <= 2 * k + 1) and odd_even_mult(nu))
        assert oracles.size_ds(k, cap) == ds[k], ("DS", k)
        assert oracles.size_oe(k, cap) == oe[k], ("OE", k)
    for n in range(4):
        for k in range(6):
            o = sum(1 for pi in partitions_upto(cap - n * (n + 1))
                    if len(pi) == k and all(p % 2 == 1 and p <= 2 * n + 1 for p in pi))
            do = sum(1 for nu in partitions_upto(cap - n - k)
                     if len(nu) == n == len(set(nu))
                     and all(p % 2 == 1 and p <= 2 * (n + k) - 1 for p in nu))
            assert oracles.size_o(n, k, cap) == o, ("O", n, k)
            assert oracles.size_do(n, k, cap) == do, ("DO", n, k)


def test_counting_functions():
    m = 24
    po, pn = oracles.p_omega_table(m), oracles.p_nu_table(m)
    for N in range(1, m + 1):
        omega = sum(1 for p in partitions(N)
                    if all(x < 2 * p[-1] for x in p if x % 2))
        nu = sum(1 for p in partitions(N) if len(set(p)) == len(p)
                 and all(x < 2 * p[-1] for x in p if x % 2))
        nu += sum(1 for p in partitions(N) if len(set(p)) == len(p)
                  and all(x % 2 == 0 for x in p))
        assert (po[N], pn[N]) == (omega, nu), N


# ---------------------------------------------------------------------------
# Checks count faulty outputs as failed operations
# ---------------------------------------------------------------------------


def _exact_op():
    return next(op for op in workloads.batch("dsl-eval", 3)
                if op["kind"] == "eval_exact" and op["oracle"] == "thm21_lhs")


def _exact_output(op, terms):
    return json.dumps({"trunc": op["trunc"], "terms": [
        {"monomial": "1" if a == 0 else f"z^{a}", "exponent": e, "coeff": c}
        for (a, e), c in sorted(terms.items(), key=lambda kv: kv[0][1])]})


def test_verify_verdicts():
    op = {"kind": "verify", "id": "nu3", "trunc": 101}
    good = {"id": "nu3", "params": {}, "trunc": 101, "equal": True,
            "first_mismatch": None}
    flipped = dict(good, equal=False, first_mismatch={
        "monomial": "x", "exponent": 7, "lhs": 1, "rhs": 2})
    assert checks.check(op, 0, json.dumps(good)) == "ok"
    assert checks.check(op, 1, json.dumps(flipped)) == "wrong"
    assert checks.check(op, 0, json.dumps(dict(good, equal=False))) == "wrong"
    assert checks.check(op, 1, json.dumps(good)) == "wrong"
    assert checks.check(op, 0, json.dumps(dict(good, trunc=100))) == "wrong"
    assert checks.check(op, 2, json.dumps(good)) == "error"
    assert checks.check(op, 0, "not json") == "error"


def test_altered_coefficient():
    op = _exact_op()
    ref = checks.expect(op)
    assert checks.check(op, 0, _exact_output(op, ref["terms"]), ref) == "ok"
    altered = dict(ref["terms"])
    key = sorted(altered)[len(altered) // 2]
    altered[key] += 1
    assert checks.check(op, 0, _exact_output(op, altered), ref) == "wrong"
    # the same q = 1 value, two coefficients wrong
    other = sorted(altered)[len(altered) // 2 + 1]
    altered[other] -= 1
    assert checks.check(op, 0, _exact_output(op, altered), ref) == "wrong"
    # a truncation at or below the degree would leave coefficients unchecked
    short = json.dumps(dict(json.loads(_exact_output(op, ref["terms"])),
                            trunc=op["trunc"] - 1))
    assert checks.check(op, 0, short, ref) == "wrong"


def test_domain_size_off_by_one():
    op = next(op for op in workloads.batch("enum-sweep", 5) if op["name"] == "nu3")
    ref = checks.expect(op)
    good = {"name": "nu3", "domain_size": ref[0], "codomain_size": ref[1],
            "roundtrip_failures": 0, "weight_violations": 0,
            "membership_failures": 0, "witness": None, "pass": True}
    assert checks.check(op, 0, json.dumps(good), ref) == "ok"
    for field in ("domain_size", "codomain_size"):
        off = dict(good, **{field: good[field] + 1})
        assert checks.check(op, 0, json.dumps(off), ref) == "wrong"


@pytest.mark.parametrize("field", ("p_omega", "series_omega", "p_nu",
                                   "series_nu", "agree"))
def test_table_rows_checked_in_both_columns(field):
    op = {"kind": "table", "max_n": 12}
    ref = checks.expect(op)
    rows = [{"n": N, "p_omega": ref[0][N], "series_omega": ref[0][N],
             "p_nu": ref[1][N], "series_nu": ref[1][N], "agree": True}
            for N in range(1, 13)]
    assert checks.check(op, 0, json.dumps({"rows": rows, "pass": True}), ref) == "ok"
    rows[5] = dict(rows[5], **{field: False if field == "agree" else rows[5][field] + 1})
    assert checks.check(op, 0, json.dumps({"rows": rows, "pass": True}), ref) == "wrong"


def test_trace_checks():
    op = {"kind": "eval_pair", "id": "nu1", "trunc": 45}
    assert checks.check_trace(op, {"side_lows": [0, 2], "domains": []})
    assert not checks.check_trace(op, {"side_lows": [0, None], "domains": []})
    assert not checks.check_trace(op, {"side_lows": [0, 45], "domains": []})
    dom = {"name": "DO", "n": 2, "k": 3, "cap": 40, "drained": True,
           "count": oracles.size_do(2, 3, 40)}
    verify = {"kind": "verify", "id": "thm21", "trunc": 57}
    assert checks.check_trace(verify, {"side_lows": [], "domains": [dom]})
    dom["count"] -= 1
    assert not checks.check_trace(verify, {"side_lows": [], "domains": [dom]})


def test_failures_are_counted():
    tally = Tally()
    for outcome in ("ok", "wrong", "error", "ok"):
        tally.add({"argv": ["x"]}, outcome)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_follow_the_seed(workload):
    assert workloads.batch(workload, 4) == workloads.batch(workload, 4)
    orders = {tuple(" ".join(op["argv"]) for op in workloads.batch(workload, s))
              for s in range(8)}
    assert len(orders) > 1


def test_exact_operations_truncate_above_the_degree():
    for op in workloads.batch("dsl-eval", 0):
        if op["kind"] == "eval_exact":
            degree = max(e for _, e in checks.expect(op)["terms"])
            assert degree == workloads.exact_degree(op["oracle"], op["n"])
            assert op["trunc"] > degree
