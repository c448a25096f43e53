"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All comparisons are coefficient-exact integer arithmetic.
"""

import time
from math import comb

from qident.bijections import check_bijection, phi, phi_inv, rho, rho_inv
from qident.dsl import evaluate
from qident.identities import (
    REGISTRY,
    build_side,
    p_nu,
    p_nu_series,
    p_omega,
    p_omega_series,
    q1_limit_check,
    s_sum,
    verify,
)
from qident.partitions import (
    DistinctPartition,
    Partition,
    PartitionPair,
    SignedDistinctSet,
    enumerate_domain,
    staircase,
    weight_gf,
)
from qident.series import MultiSeries, QSeries, poch_finite, qbinom


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {desc}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_01_s_sum_closed_form():
    t0 = time.monotonic()
    failures = []
    for n in range(21):
        if s_sum(n, 1) != poch_finite(QSeries.q(2), 2, n):
            failures.append(n)
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (budget 1s)")
    _report(1, f"s_sum(n,1) equals the even Pochhammer product, n=0..20"
               f" ({elapsed:.2f}s)", failures)


def test_criterion_02_thm21_closed_and_enumerated():
    failures = []
    for n in range(13):
        rep = verify("thm21", {"n": n}, trunc=None, include_comb=(n <= 6))
        if not rep.equal:
            failures.append((n, rep.first_mismatch))
    _report(2, "thm21 lhs = rhs (n=0..12) = B1 enumeration GF (n=0..6), exact",
            failures)


def test_criterion_03_lemma22_and_phi():
    failures = []
    for n in range(13):
        rep = verify("lemma22", {"n": n}, trunc=None, include_comb=(n <= 6))
        if not rep.equal:
            failures.append((n, rep.first_mismatch))
    for n in range(6):
        rep = check_bijection("phi", n=n)
        if not rep.passed():
            failures.append((n, rep))
    pair = PartitionPair(DistinctPartition((5, 3)), Partition((2, 2, 2, 1, 1)))
    t, nu = phi(5, pair)
    if staircase(t).parts != (2, 1) or nu.parts != (3, 2, 2, 2, 2, 1, 1):
        failures.append(("worked example", t, nu))
    if phi_inv(5, (t, nu)) != pair:
        failures.append("worked example inverse")
    _report(3, "lemma22 equal (n=0..12); phi exhaustive roundtrip B1(0..5)"
               " incl. worked example", failures)


def test_criterion_04_middle_step_and_rho():
    failures = []
    for n in range(13):
        rep = verify("middle", {"n": n}, trunc=None, include_comb=(n <= 6))
        if not rep.equal:
            failures.append((n, rep.first_mismatch))
    for n in range(6):
        rep = check_bijection("rho", n=n)
        if not rep.passed() or rep.domain_size != 4**n:
            failures.append((n, rep))
    lam = SignedDistinctSet((-4, -2, -1, 0, 2, 4, 5), 5)
    t, nu = rho(5, lam)
    if t != 1 or nu.parts != (4, 4, 3, 2, 2, 2, 1) or rho_inv(5, (t, nu)) != lam:
        failures.append(("worked example", t, nu))
    for n in range(9):
        neg2 = poch_finite(QSeries.term(-1, 1), 1, n).power(2)
        shift = -n * (n + 1) // 2
        gf_p = weight_gf(s.weight for s in enumerate_domain("P", n=n))
        gf_gt = weight_gf(s.weight for s in enumerate_domain("P_gt", n=n))
        if gf_p != neg2.scale(2).shift(shift):
            failures.append(("signed full GF", n))
        if gf_gt != neg2.shift(shift):
            failures.append(("signed half GF", n))
    _report(4, "middle equal (n=0..12); rho roundtrip P_>(0..5) incl. worked"
               " example; signed GFs Laurent-exact (n=0..8)", failures)


def test_criterion_05_q_to_one_limit():
    failures = []
    for n in range(21):
        res = q1_limit_check(n)
        if not (res["lhs"] == res["rhs"] == res["power"] == 4**n):
            failures.append((n, res))
        if res["pivot_ok"] is False:
            failures.append((n, "pivot recount"))
    for n in range(8):
        if len(list(enumerate_domain("P_gt", n=n))) != 4**n:
            failures.append((n, "P_gt size"))
    _report(5, "binomial sums equal 4^n (n=0..20); |P_gt(n)| = 4^n by"
               " enumeration (n=0..7)", failures)


def test_criterion_06_bivariate_generating_identities():
    t0 = time.monotonic()
    failures = []
    for iid in ("ay1", "ay2"):
        rep = verify(iid, None, trunc=60)
        if not rep.equal:
            failures.append((iid, rep.first_mismatch))
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s (budget 10s)")
    _report(6, f"ay1 and ay2 bivariate in z,q to trunc 60 ({elapsed:.2f}s)",
            failures)


def test_criterion_07_omega_identities_and_durfee_split():
    failures = []
    rep = verify("omega", None, trunc=80)
    if not rep.equal:
        failures.append(("omega", rep.first_mismatch))
    rep = verify("omega1", None, trunc=80, comb_cap=25)
    if not rep.equal:
        failures.append(("omega1", rep.first_mismatch))
    bij = check_bijection("durfee_split", weight_cap=25)
    if not bij.passed():
        failures.append(("durfee_split", bij))
    _report(7, "omega/omega1 to trunc 80; DS/OE z-statistic GFs match closed"
               " forms (weight<=25); durfee_split roundtrip clean", failures)


def test_criterion_08_nu_identities_and_bijection(nu3_specialized):
    failures = []
    rep = verify("nu3", None, trunc=40, comb_cap=30)
    if not rep.equal:
        failures.append(("nu3", rep.first_mismatch))
    for iid in ("nu1", "nu2"):
        rep = verify(iid, None, trunc=40)
        if not rep.equal:
            failures.append((iid, rep.first_mismatch))
        for side in ("lhs", "rhs"):
            substituted = nu3_specialized(iid, side, 40)
            direct = build_side(iid, side, None, 40)
            if substituted.first_mismatch(direct, 40) is not None:
                failures.append((iid, side, "specialization"))
    # the forward map raises on any violated intermediate observation
    # (self-conjugacy, Durfee side, largest-part bound), so a clean report
    # certifies them on every element
    bij = check_bijection("nu3", max_nk=5, weight_cap=30)
    if not bij.passed():
        failures.append(("nu3 bijection", bij))
    _report(8, "nu3 trivariate to trunc 40; nu1/nu2 agree with substituted"
               " nu3; nu3 roundtrip n+k<=5 w<=30 incl. residue assertions",
            failures)


def test_criterion_09_q_binomial_theorem():
    failures = []
    for N in range(13):
        lhs = poch_finite(MultiSeries.term(z=1), 1, N)
        rhs = MultiSeries.zero()
        for t in range(N + 1):
            c = qbinom(N, t).shift(t * (t - 1) // 2).scale((-1) ** t)
            rhs = rhs + MultiSeries.from_qseries(c, (t, 0, 0))
        if lhs != rhs:
            failures.append(N)
        rep = verify("qbinom_thm", {"n": N}, trunc=None)
        if not rep.equal:
            failures.append((N, rep.first_mismatch))
    _report(9, "finite q-binomial theorem, N=0..12, exact", failures)


def test_criterion_10_counting_functions():
    failures = []
    so = p_omega_series(31)
    sn = p_nu_series(31)
    for N in range(1, 31):
        if p_omega(N) != so.coeff(N):
            failures.append(("p_omega", N, p_omega(N), so.coeff(N)))
        if p_nu(N) != sn.coeff(N):
            failures.append(("p_nu", N, p_nu(N), sn.coeff(N)))
    _report(10, "p_omega/p_nu brute-force counts match ay1/ay2 lhs at z=1,"
                " N=1..30", failures)


def test_criterion_11_dsl_builder_equivalence(golden):
    # the reference sides were frozen from the closed-form builders that
    # preceded the text-backed evaluator (tests/golden_sides.json)
    failures = []
    T = 60
    grid = {
        "ay1": (None, {"N": T}),
        "ay2": (None, {"N": T}),
        "ay3": ({"n": 4}, {"n": 4}),
        "thm21": ({"n": 4}, {"n": 4}),
        "lemma22": ({"n": 4}, {"n": 4}),
        "middle": ({"n": 4}, {"n": 4}),
        "q1limit": ({"n": 5}, {"n": 5}),
        "omega": (None, {"N": T}),
        "omega1": (None, {"N": T}),
        "nu1": (None, {"N": T}),
        "nu2": (None, {"N": T}),
        "nu3": (None, {"N": T}),
        "qbinom_thm": ({"n": 6}, {"n": 6}),
    }
    for iid, case in REGISTRY.items():
        params, bindings = grid[iid]
        n = (params or {}).get("n")
        want = {side: golden[(iid, side, n, T)] for side in ("lhs", "rhs")}
        if case.kind == "integer":
            for side in ("lhs", "rhs"):
                got = evaluate(case.texts[side], bindings, T).qseries().coeff(0)
                if got != want[side] or build_side(iid, side, params) != want[side]:
                    failures.append((iid, side))
            if build_side(iid, "lhs", params) == want["rhs"] + 1:
                failures.append((iid, "negative control"))
            continue
        for side in ("lhs", "rhs"):
            got = evaluate(case.texts[side], bindings, T)
            if got.first_mismatch(want[side], T) is not None:
                failures.append((iid, side, got.first_mismatch(want[side], T)))
            if build_side(iid, side, params, T) != want[side]:
                failures.append((iid, side, "build_side"))
        # negative control: a single-coefficient perturbation must be caught
        # at exactly the perturbed location
        perturbed = want["rhs"] + MultiSeries.q(5)
        got = evaluate(case.texts["lhs"], bindings, T)
        mm = got.first_mismatch(perturbed, T)
        if mm is None or mm[0] != (0, 0, 0) or mm[1] != 5:
            failures.append((iid, "negative control", mm))
    _report(11, "textual registry forms match the frozen builder output"
                " (trunc 60); perturbations located exactly", failures)
