import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qident import identities
from qident.cli import main
from qident.dsl import eval_series, evaluate, parse
from qident.errors import BadParams, TruncationRequired, UnknownIdentity
from qident.identities import (
    IDENTITY_IDS,
    REGISTRY,
    IdentityCase,
    Mismatch,
    VerifyReport,
    build_side,
    counts,
    p_nu,
    p_nu_series,
    p_omega,
    p_omega_series,
    q1_limit_check,
    s_sum,
    verify,
)
from qident.series import MultiSeries, QSeries, poch_finite, qbinom
from reference import partitions_of


# ---------------------------------------------------------------------------
# s_sum
# ---------------------------------------------------------------------------


def test_s_sum_frozen():
    assert s_sum(0, 1) == QSeries.one()
    assert s_sum(1, 1) == QSeries.one() - QSeries.q(2)


@pytest.mark.parametrize("n", range(12))
def test_s_sum_matches_even_pochhammer(n):
    assert s_sum(n, 1) == poch_finite(QSeries.q(2), 2, n)


def test_s_sum_general_i_supported():
    # i = 0 and i = 2 have no closed form here; just exercise exact division
    assert s_sum(3, 0).trunc is None
    assert s_sum(3, 2).trunc is None
    assert s_sum(2, 1, trunc=3).trunc == 3


def test_s_sum_rejects_negative():
    with pytest.raises(ValueError):
        s_sum(-1, 1)


# ---------------------------------------------------------------------------
# build_side
# ---------------------------------------------------------------------------


def test_build_side_frozen_examples():
    assert build_side("ay3", "lhs", {"n": 1}, 50).qseries().coeffs == {0: 1, 2: -1}
    assert build_side("thm21", "rhs", {"n": 1}, 50).qseries().coeffs == {0: 1, 1: 2, 2: 1}
    assert build_side("middle", "lhs", {"n": 0}, 50).qseries().coeffs == {0: 1}
    assert build_side("middle", "rhs", {"n": 0}, 50).qseries().coeffs == {0: 1}
    assert build_side("q1limit", "lhs", {"n": 2}) == 16
    assert build_side("q1limit", "rhs", {"n": 2}) == 16


def test_build_side_combinatorial_alias():
    ms = build_side("thm21", "combinatorial", {"n": 2}, 100)
    assert ms == build_side("thm21", "b1", {"n": 2}, 100)
    with pytest.raises(BadParams):
        build_side("omega1", "combinatorial", None, 30)  # two enumeration sides
    with pytest.raises(BadParams):
        build_side("ay3", "combinatorial", {"n": 1}, 30)  # no enumeration side


def test_build_side_errors():
    with pytest.raises(UnknownIdentity):
        build_side("nope", "lhs", None, 10)
    with pytest.raises(BadParams):
        build_side("ay3", "lhs", None, 10)  # missing n
    with pytest.raises(BadParams):
        build_side("ay1", "lhs", {"n": 3}, 10)  # ay1 takes no params
    with pytest.raises(BadParams):
        build_side("thm21", "b2", {"n": 1}, 10)  # wrong side name
    with pytest.raises(TruncationRequired):
        build_side("ay1", "lhs", None, None)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(8))
def test_verify_polynomial_identities(n):
    for iid in ("ay3", "thm21", "lemma22", "middle"):
        rep = verify(iid, {"n": n}, trunc=None)
        assert rep.equal, (iid, n, rep.first_mismatch)


def test_verify_series_identities_small_trunc():
    for iid in ("ay1", "ay2", "omega", "nu1", "nu2"):
        rep = verify(iid, None, trunc=30)
        assert rep.equal, (iid, rep.first_mismatch)
    rep = verify("omega1", None, trunc=30, comb_cap=15)
    assert rep.equal, rep.first_mismatch
    rep = verify("nu3", None, trunc=25, comb_cap=20)
    assert rep.equal, rep.first_mismatch


def test_verify_reports_requested_trunc():
    rep = verify("ay3", {"n": 4}, trunc=123)
    assert rep.trunc == 123 and rep.equal


def test_verify_reports_completeness():
    assert verify("thm21", {"n": 15}, trunc=None, include_comb=False).complete
    assert not verify("thm21", {"n": 15}, trunc=200, include_comb=False).complete
    assert verify("thm21", {"n": 3}, trunc=13).complete  # degree 12, and b1
    assert not verify("thm21", {"n": 3}, trunc=12).complete
    assert not verify("omega", None, trunc=20).complete
    assert verify("q1limit", {"n": 3}).complete


def test_negative_control_perturbation():
    lhs = build_side("thm21", "lhs", {"n": 3}, 100)
    rhs = build_side("thm21", "rhs", {"n": 3}, 100)
    perturbed = rhs + MultiSeries.q(1)
    mm = lhs.first_mismatch(perturbed, 100)
    assert mm is not None
    mono, e, lc, rc = mm
    assert mono == (0, 0, 0) and e == 1
    assert rc == lc + 1


def test_verify_json_shape():
    rep = verify("thm21", {"n": 2}, trunc=60)
    d = rep.to_json_dict()
    assert set(d) == {"id", "params", "trunc", "equal", "complete",
                      "first_mismatch"}
    assert d["equal"] is True and d["first_mismatch"] is None
    assert d["complete"] is True  # degree 6 < 60


def test_verify_reports_its_first_mismatch(monkeypatch, capsys):
    # ay3 with q^3 added to its rhs: both sides are exact, and they first
    # differ at q^3, where the lhs has 0 and the rhs 1
    case = REGISTRY["ay3"]
    monkeypatch.setitem(REGISTRY, "ay3", case._replace(
        texts={**case.texts, "rhs": "poch(q^2, 2, n) + q^3"}))
    rep = verify("ay3", {"n": 2}, trunc=None)
    assert not rep.equal and rep.complete
    assert rep.first_mismatch == Mismatch((0, 0, 0), 3, 0, 1, ("lhs", "rhs"))
    assert rep.to_json_dict() == {
        "id": "ay3", "params": {"n": 2}, "trunc": None, "equal": False,
        "complete": True,
        "first_mismatch": {"monomial": "1", "exponent": 3, "lhs": 0, "rhs": 1},
    }
    assert main(["verify", "ay3", "--n", "2"]) == 1
    assert capsys.readouterr().out == (
        "ay3 {'n': 2} trunc=None: MISMATCH (every coefficient compared)\n"
        "  first mismatch between lhs and rhs at 1*q^3: 0 != 1\n")


_TRACED_VERIFY = """
import json, tracemalloc
from qident.identities import verify
verify("lemma22", {"n": 2}, trunc=None, include_comb=False)
tracemalloc.start()
verify("lemma22", {"n": 30}, trunc=None, include_comb=False)
print(json.dumps(tracemalloc.get_traced_memory()))
"""


def test_exact_sums_retain_only_their_result():
    # in a fresh interpreter, after a warm-up that loads every module: what
    # an exact verify still holds once it returns; Gaussian binomials kept
    # for the life of the process left 3 047 kB here, without them 88 kB
    src = str(Path(identities.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _TRACED_VERIFY], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out)[0] < 256 * 1024


def test_report_records():
    mm = Mismatch((1, 0, -2), 7, 3, -4, ("lhs", "b1"))
    assert mm.monomial_str() == "z*y^-2"
    assert Mismatch((0, 0, 0), 0, 1, 2).sides == ("lhs", "rhs")
    rep = VerifyReport("thm21", {"n": 2}, None, False, True, mm)
    assert rep.to_json_dict() == {
        "id": "thm21", "params": {"n": 2}, "trunc": None, "equal": False,
        "complete": True,
        "first_mismatch": {"monomial": "z*y^-2", "exponent": 7, "lhs": 3,
                           "rhs": -4},
    }
    ok = VerifyReport("ay1", {}, 40, True, False)
    assert ok.first_mismatch is None
    assert ok.to_json_dict()["first_mismatch"] is None
    assert repr(ok) == ("VerifyReport(id='ay1', params={}, trunc=40, equal=True,"
                        " complete=False, first_mismatch=None)")
    assert verify("thm21", {"n": 2}, trunc=None) == VerifyReport(
        "thm21", {"n": 2}, None, True, True, None)


def test_identity_case_fields():
    case = REGISTRY["omega1"]
    assert (case.id, case.params, case.kind) == ("omega1", (), "truncated-series")
    assert set(case.comb_builders) == {"ds", "oe"}
    assert dict(REGISTRY["ay1"].comb_builders) == {}
    with pytest.raises(AttributeError):
        case.kind = "integer"
    # dataclasses.replace and dataclasses.fields see the same fields
    import dataclasses

    assert [f.name for f in dataclasses.fields(case)] == [
        "id", "params", "kind", "texts", "comb_builders"]
    swapped = dataclasses.replace(case, comb_builders={})
    assert type(swapped) is IdentityCase
    assert (swapped.id, swapped.texts, dict(swapped.comb_builders)) == (
        "omega1", case.texts, {})
    assert dataclasses.replace(case) == case


# ---------------------------------------------------------------------------
# q1limit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(10))
def test_q1_limit_check(n):
    res = q1_limit_check(n)
    assert res["lhs"] == res["rhs"] == res["power"] == 4**n
    if n <= 7:
        assert res["pivot_ok"] is True
    else:
        assert res["pivot_ok"] is None


def test_q1_equals_thm21_at_q_one_termwise():
    from math import comb

    summand = parse(REGISTRY["thm21"].texts["lhs"]).args[3]
    for n in range(9):
        for s in range(n + 1):
            term = eval_series(summand, {"n": n, "s": s}, None).qseries()
            assert term.trunc is None
            assert sum(term.coeffs.values()) == 2 ** (n - s) * comb(n + s, s)


# ---------------------------------------------------------------------------
# counting oracles
# ---------------------------------------------------------------------------


def test_p_omega_frozen():
    assert p_omega(1) == 1
    assert p_omega(2) == 2


def test_p_nu_small_values():
    # the zero-part convention: (2) is counted twice at N=2, once as itself
    # and once with a trailing zero part (see the distinct-even family)
    assert p_nu(1) == 1
    assert p_nu(2) == 2
    assert p_nu(3) == 2


def test_p_nu_at_most_p_omega():
    for N in range(1, 31):
        assert p_nu(N) <= p_omega(N)


def test_counting_requires_positive_n():
    with pytest.raises(ValueError):
        p_omega(0)
    with pytest.raises(ValueError):
        p_nu(0)


def _omega_admissible(parts, smallest):
    return all(p < 2 * smallest for p in parts if p % 2 == 1)


def test_counting_oracles_match_a_filter_of_all_partitions():
    # the definitions, read off every partition of N
    for N in range(1, 31):
        every = list(partitions_of(N))
        omega = sum(_omega_admissible(t, t[-1]) for t in every)
        distinct = [t for t in every if len(set(t)) == len(t)]
        nu = (sum(_omega_admissible(t, t[-1]) for t in distinct)
              + sum(all(p % 2 == 0 for p in t) for t in distinct))
        assert (p_omega(N), p_nu(N)) == (omega, nu), N


def test_one_pass_counts_equal_the_counts_of_each_n():
    # counts(60) reads every N off one pass; p_omega(N) and p_nu(N) each
    # make their own pass up to N
    omega, nu = counts(60), counts(60, True)
    assert len(omega) == len(nu) == 61
    assert [(omega[N], nu[N]) for N in range(1, 61)] == [
        (p_omega(N), p_nu(N)) for N in range(1, 61)]


def test_one_pass_counts_match_the_generating_functions_to_200():
    # the ay1 and ay2 left sides at z = 1, which table compares with them
    omega, nu = counts(200), counts(200, True)
    so, sn = p_omega_series(201), p_nu_series(201)
    assert [(omega[N], nu[N]) for N in range(1, 201)] == [
        (so.coeff(N), sn.coeff(N)) for N in range(1, 201)]


def test_counting_series_match_oracles():
    so = p_omega_series(21)
    sn = p_nu_series(21)
    for N in range(1, 21):
        assert so.coeff(N) == p_omega(N)
        assert sn.coeff(N) == p_nu(N)


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["nu1", "nu2"])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_nu3_specializations(nu3_specialized, target, side):
    substituted = nu3_specialized(target, side, 35)
    direct = build_side(target, side, None, 35)
    assert substituted.first_mismatch(direct, 35) is None


# ---------------------------------------------------------------------------
# registry hygiene
# ---------------------------------------------------------------------------


def test_registry_ids_are_stable():
    assert set(IDENTITY_IDS) == {
        "ay1", "ay2", "ay3", "thm21", "lemma22", "middle", "q1limit",
        "omega", "omega1", "nu1", "nu2", "nu3", "qbinom_thm",
    }


def test_every_identity_has_both_texts():
    for iid, case in REGISTRY.items():
        assert set(case.texts) == {"lhs", "rhs"}, iid


def test_neg_q_poch():
    # the (-q;q)_n of the thm21 and middle right sides
    got = evaluate("poch(-q, 1, n)", {"n": 2}, None).qseries()
    assert got == (QSeries.one() + QSeries.q(1)) * (QSeries.one() + QSeries.q(2))


def test_expanded_sides_have_no_negative_aux_exponents():
    # Laurent monomials may appear inside summands (e.g. q/z), but every
    # fully expanded registry side must be an ordinary power series in the
    # aux variables
    grid = {
        "ay1": None, "ay2": None, "omega": None, "omega1": None,
        "nu1": None, "nu2": None, "nu3": None,
    }
    for iid, params in grid.items():
        for side in ("lhs", "rhs"):
            ms = build_side(iid, side, params, 30)
            for mono in ms.entries:
                assert all(e >= 0 for e in mono), (iid, side, mono)
