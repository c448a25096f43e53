import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qident.bijections import BIJECTION_NAMES
from qident.cli import main
from qident.demos import parse_pair, parse_partition, parse_signed_set
from qident.cli_eval import _dump_series
from qident.dsl import MAX_EXACT_DEGREE, MAX_SUM_TERMS
from qident.identities import IDENTITY_IDS
from qident.series import MultiSeries, mono_str
from qident.syntax import MAX_LITERAL_DIGITS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_ay3(capsys):
    code, out, _ = run(capsys, "verify", "ay3", "--n", "10", "--trunc", "300")
    assert code == 0
    assert "equal" in out


def test_verify_middle_n0(capsys):
    code, out, _ = run(capsys, "verify", "middle", "--n", "0")
    assert code == 0


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "thm21", "--n", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"id", "params", "trunc", "equal", "complete",
                        "first_mismatch"}
    assert doc["equal"] is True
    # with no --trunc a polynomial identity is compared in full
    assert doc["trunc"] is None and doc["complete"] is True


def test_verify_polynomial_in_full_unless_trunc_given(capsys):
    # (-q;q)_15^2 has degree 240: by default every coefficient is compared
    code, out, _ = run(capsys, "verify", "thm21", "--n", "15", "--no-comb",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["trunc"] is None and doc["complete"] is True
    # an explicit --trunc is echoed, and the verdict says it was partial
    code, out, _ = run(capsys, "verify", "thm21", "--n", "15", "--no-comb",
                       "--trunc", "200", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["trunc"] == 200 and doc["complete"] is False
    code, out, _ = run(capsys, "verify", "thm21", "--n", "15", "--no-comb",
                       "--trunc", "200")
    assert "equal (coefficients below q^200 compared)" in out
    code, out, _ = run(capsys, "verify", "ay3", "--n", "3")
    assert "equal (every coefficient compared)" in out


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown identity" in err


def test_verify_missing_param(capsys):
    code, _, err = run(capsys, "verify", "ay3")
    assert code == 2


def test_verify_bad_trunc(capsys):
    code, _, err = run(capsys, "verify", "ay3", "--n", "1", "--trunc", "0")
    assert code == 2


def test_verify_q1limit(capsys):
    code, out, _ = run(capsys, "verify", "q1limit", "--n", "6")
    assert code == 0


def test_verify_ay1_at_trunc_60(capsys):
    code, out, _ = run(capsys, "verify", "ay1", "--trunc", "60")
    assert code == 0
    assert "equal" in out


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------


def test_bijection_phi_demo(capsys):
    code, out, _ = run(
        capsys, "bijection", "phi", "--n", "5", "--demo", "(5,3)|(2,2,2,1,1)"
    )
    assert code == 0
    assert "(2,1)" in out
    assert "(3,2,2,2,2,1,1)" in out


def test_bijection_rho_demo(capsys):
    code, out, _ = run(
        capsys, "bijection", "rho", "--n", "5", "--demo", "{-4,-2,-1,0,2,4,5}"
    )
    assert code == 0
    assert "t = 1" in out
    assert "(4,4,3,2,2,2,1)" in out


def test_bijection_check_exit_codes(capsys):
    code, out, _ = run(capsys, "bijection", "phi", "--n", "3")
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        capsys, "bijection", "nu3", "--max-nk", "3", "--cap", "25"
    )
    assert code == 0 and "PASS" in out


def test_bijection_tau_domain_size(capsys):
    code, out, _ = run(
        capsys, "bijection", "tau", "--n", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["domain_size"] == 4 and doc["pass"] is True


def test_bijection_unknown(capsys):
    code, _, err = run(capsys, "bijection", "nope", "--n", "1")
    assert code == 2


def test_bijection_demo_requires_params(capsys):
    code, _, err = run(capsys, "bijection", "phi", "--demo", "(1)|()")
    assert code == 2
    assert "--n" in err


def test_every_bijection_has_a_demo(capsys):
    # the command hands --demo to qident.demos for any known bijection
    from qident.demos import _DEMOS

    assert set(_DEMOS) == set(BIJECTION_NAMES)
    code, _, err = run(capsys, "bijection", "nope", "--demo", "(1)|()")
    assert code == 2 and "unknown bijection 'nope'" in err


def test_bijection_ferrers_demo(capsys):
    code, out, _ = run(
        capsys, "bijection", "durfee_split", "--demo", "(3,1,1)", "--ferrers"
    )
    assert code == 0
    assert "* * *" in out


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_single_expression(capsys):
    code, out, _ = run(capsys, "eval", "poch(q,1,3)", "--trunc", "10")
    assert code == 0
    assert "q^0: 1" in out


def test_eval_builder_equivalence_via_cli(capsys):
    lhs = "sum(s, 0, n, q^s * poch(-q^(s+1), 1, n-s) * qbinom(n+s, s))"
    rhs = "poch(-q, 1, n)^2"
    code, out, _ = run(
        capsys, "eval", lhs, rhs, "--bind", "n=4", "--trunc", "100"
    )
    assert code == 0
    assert "equal" in out


def test_eval_mismatch_exit_1(capsys):
    code, out, _ = run(capsys, "eval", "1", "1+q", "--trunc", "10")
    assert code == 1
    assert "MISMATCH" in out


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "qbinom(2,1")
    assert code == 2
    assert "1:11" in err


def test_eval_refusals_exit_2(capsys):
    code, _, err = run(capsys, "eval", "poch(q*z^(-1), 2, 3)^(-1)", "--trunc", "20")
    assert code == 2 and "negative aux exponent" in err
    code, _, err = run(capsys, "eval", "q^(2^(2^40))")
    assert code == 2 and "bit limit" in err
    # one step past the limit; truncation in q does not bound the z-degree
    code, _, err = run(capsys, "eval",
                       f"(1 + z + poch(q,1,inf))^{MAX_EXACT_DEGREE + 1}",
                       "--trunc", "5")
    assert code == 2 and "degree limit" in err and "exact" not in err
    # at the degree limit, but 2 + z taken 2^22 times passes the bit limit
    code, _, err = run(capsys, "eval", "(1 + z + poch(q,1,inf))^(2^22)",
                       "--trunc", "1")
    assert code == 2 and "bit limit" in err
    # a literal of more than MAX_POWER_BITS bits' worth of digits is refused
    # where it starts; one of 5 000 digits is read
    code, _, err = run(capsys, "eval", "q + " + "7" * (MAX_LITERAL_DIGITS + 1))
    assert code == 2 and "1:5" in err and "bit limit" in err
    # integers past a float's range, or past str()'s 4 300 digits
    for text in ("2^(10^400)", "(2 + q)^(10^400)", "7" * 5000 + "^9",
                 "(1 + z)^(" + "7" * 5000 + ")", "sum(n, 0, 10^5000, q)"):
        code, _, err = run(capsys, "eval", text, "--trunc", "3")
        assert code == 2 and "limit" in err, text[:20]
    # a binom whose result could pass the bit limit is refused before
    # math.comb runs; binom(m, k) is below m^min(k, m - k), and
    # (2^16)^(2^12) has exactly the limit's bits
    for text in ("q^binom(10^9, 10^6)", "binom(2^16, 2^12 + 1)",
                 "binom(10^9, 10^9 - 10^6)"):
        code, _, err = run(capsys, "eval", text, "--trunc", "3")
        assert code == 2 and "bit limit" in err, text
    code, out, _ = run(capsys, "eval", "binom(10^9, 10^9 - 2)", "--trunc", "3")
    assert code == 0 and out == "q^0: 499999999500000000\n"
    # a Gaussian binomial one step past the degree limit, refused before
    # its window is allocated
    code, _, err = run(capsys, "eval", f"qbinom({MAX_EXACT_DEGREE + 2}, 1)",
                       "--trunc", "5")
    assert code == 2 and err == (f"error: qbinom of degree {MAX_EXACT_DEGREE + 1}"
                                 f" exceeds the {MAX_EXACT_DEGREE}-degree limit\n")


@pytest.mark.parametrize("text", ["poch(q, 1, 10^8)", "poch(1+q, 1, 10^6)",
                                  "poch(z*q, 1, 10^8)", "qbinom(5,2)",
                                  f"qbinom({MAX_EXACT_DEGREE + 1},1)"])
def test_bare_poch_keeps_to_the_truncation_order(text):
    # the factors 1 - a*q^j that are 1 below the truncation order are
    # neither listed nor applied, so a bare poch of 10^8 factors answers as
    # fast as its product form; a fresh interpreter, so that a regression
    # is cut off by the timeout
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def eval_(t):
        done = subprocess.run([sys.executable, "-m", "qident", "eval", t, "--trunc", "5"],
                              env=env, capture_output=True, text=True, timeout=5)
        return done.returncode, done.stdout, done.stderr

    bare = eval_(text)
    assert bare[0] == 0 and bare == eval_(f"1*{text}")


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _eval_fresh(text, trunc):
    """(exit code, stdout, stderr) of ``qident eval text --trunc trunc`` in a
    fresh interpreter, cut off after 10 s."""
    done = subprocess.run([sys.executable, "-m", "qident", "eval", text, "--trunc", str(trunc)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=10)
    return done.returncode, done.stdout, done.stderr


def _series_text(coeffs, trunc):
    """What eval prints for the coefficients of q^0, q^1, ... below trunc."""
    return "".join(f"q^{e}: {c}\n" for e, c in enumerate(coeffs) if c) + (
        f"(exact below q^{trunc})\n")


def test_chain_powers_take_one_kernel_step_per_factor():
    # a factor's power k is one multiplication or division by (1 - a)^|k|,
    # not |k| steps, so these answer at once where 10^9 steps would run out
    # the timeout
    k, t = 10**9, 5
    code, out, _ = _eval_fresh("poch(q,1,1)^(10^9)", t)
    assert code == 0 and out == _series_text([(-1)**i * comb(k, i) for i in range(t)], t)
    code, out, _ = _eval_fresh("poch(q,1,inf)^(-(10^9))", 200)
    # q^2 from (1 - q)^(-k) and from (1 - q^2)^(-k)
    assert code == 0 and out.startswith(f"q^0: 1\nq^1: {k}\nq^2: {comb(k + 1, 2) + k}\n")
    assert out.endswith("(exact below q^200)\n")
    # qbinom(5,2) = (1 - q^4)(1 - q^5) / ((1 - q)(1 - q^2)), each factor to
    # the power K = 2^7000 by the binomial series
    k, t = 2**7000, 10
    want = [1] + [0] * (t - 1)
    for j, sign in ((4, 1), (5, 1), (1, -1), (2, -1)):
        factor = [0] * t
        for i in range(0, (t - 1) // j + 1):
            factor[i * j] = (-1)**i * comb(k, i) if sign > 0 else comb(k + i - 1, i)
        want = [sum(want[i] * factor[e - i] for i in range(e + 1)) for e in range(t)]
    code, out, _ = _eval_fresh("qbinom(5,2)^(2^7000)", t)
    with _any_int_length():
        assert code == 0 and out == _series_text(want, t)


def test_chain_power_past_the_bit_limit_is_refused():
    # (1 - q)^K below q^10 has coefficients C(K, i), i <= 9, of up to 9 *
    # log2(K) bits: K = 2^7281 is within the 65536-bit limit and 2^7282 one
    # step past it; every factor of a qbinom power has the same bound
    code, out, _ = _eval_fresh("poch(q,1,1)^(2^7281)", 10)
    assert code == 0 and out.endswith("(exact below q^10)\n")
    for text, k, bits in (("poch(q,1,1)^(2^7282)", 2**7282, 65538),
                          ("poch(q,1,1)^(2^60000)", 2**60000, 540000),
                          ("qbinom(5,2)^(2^60000)", 2**60000, 540000)):
        code, out, err = _eval_fresh(text, 10)
        with _any_int_length():
            assert code == 2 and out == "" and err == (
                f"error: power {k} of a series with coefficients of up to {bits} bits"
                " exceeds the 65536-bit limit\n"), text


def test_inverse_past_the_bit_limit_exits_2(capsys):
    # 1/(1 - 2q) below q^100000 has coefficients 2^i of up to 99 999 bits;
    # refused before any is made
    for text in ("(1-2*q)^(-1)", "poch(2*q,1,1)^(-1)"):
        code, out, err = run(capsys, "eval", text, "--trunc", "100000")
        assert code == 2 and out == "" and err == (
            "error: power -1 of a series with coefficients of up to 99999 bits"
            " exceeds the 65536-bit limit\n"), text


def test_closed_stdout_ends_quietly_with_141():
    # the reader takes 200 bytes of a document of about 1.2 MB and closes
    # the pipe: no traceback, and the status a shell gives SIGPIPE
    child = subprocess.Popen(
        [sys.executable, "-m", "qident", "eval", "(1-2*q)^(-1)", "--trunc", "2000",
         "--format", "json"],
        env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = child.stdout.read(200)
    child.stdout.close()
    _, err = child.communicate(timeout=10)
    assert head.startswith(b'{"trunc": 2000, "terms": [')
    assert child.returncode == 141 and err == b""


def test_exact_poch_past_the_degree_limit_is_refused(capsys):
    # one step past the limit: the exponent steps 0 + 1 + ... + (n - 1)
    # of the lhs poch(z, 1, n) pass it, refused before any factor is listed
    n = next(c for c in range(2, 10**4) if c * (c - 1) // 2 > MAX_EXACT_DEGREE)
    code, _, err = run(capsys, "verify", "qbinom_thm", "--n", str(n), "--no-comb")
    assert code == 2 and err == (f"error: exact poch of {n} factors could pass the"
                                 f" {MAX_EXACT_DEGREE}-degree limit\n")


@contextlib.contextmanager
def _any_int_length():
    """Let int() and str() take decimal texts of any length, to read what
    the program printed under Python's default limit of 4 300 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_eval_prints_numbers_of_any_length(capsys):
    # 2^20000 has 6 021 digits
    code, text, _ = run(capsys, "eval", "2^20000")
    assert code == 0
    code, doc, _ = run(capsys, "eval", "2^20000", "--format", "json")
    assert code == 0
    code, mismatch, _ = run(capsys, "eval", "2^20000", "q^(-(2^20000))",
                            "--format", "json")
    assert code == 1
    code, literal, _ = run(capsys, "eval", "7" * 5000)
    assert code == 0 and literal == "q^0: " + "7" * 5000 + "\n"
    with _any_int_length():
        assert text == f"q^0: {2**20000}\n"
        assert json.loads(doc) == {"trunc": None, "terms": [
            {"monomial": "1", "exponent": 0, "coeff": 2**20000}]}
        assert json.loads(mismatch) == {"equal": False, "first_mismatch": {
            "monomial": "1", "exponent": -2**20000, "lhs": 0, "rhs": 1}}


def test_eval_huge_sum_exit_2(capsys):
    # one index over the limit; the summands would all be skipped, one by one
    code, _, err = run(capsys, "eval", f"sum(n, 0, {MAX_SUM_TERMS}, q^(n+20))",
                       "--trunc", "5")
    assert code == 2 and "term limit" in err


def test_eval_bad_binding(capsys):
    code, _, err = run(capsys, "eval", "q", "--bind", "n=x")
    assert code == 2 and "not an integer" in err
    # binding values are read as literals are: of any length up to
    # MAX_LITERAL_DIGITS digits, and refused past it for that reason
    code, out, _ = run(capsys, "eval", "n", "--bind", "n=-" + "7" * 5000)
    assert code == 0 and out == "q^0: -" + "7" * 5000 + "\n"
    code, out, err = run(capsys, "eval", "n", "--bind",
                         "n=" + "7" * (MAX_LITERAL_DIGITS + 1))
    assert code == 2 and out == ""
    assert err == (f"error: --bind n: integer of {MAX_LITERAL_DIGITS + 1} digits"
                   " exceeds the 65536-bit limit\n")


def test_eval_too_many_exprs(capsys):
    code, _, err = run(capsys, "eval", "q", "q", "q")
    assert code == 2


def test_eval_json_output(capsys):
    code, out, _ = run(
        capsys, "eval", "1+q^2", "--trunc", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [
        {"monomial": "1", "exponent": 0, "coeff": 1},
        {"monomial": "1", "exponent": 2, "coeff": 1},
    ]


def _dict_form(ms):
    """The JSON document of a series as a dict, dumped whole."""
    rows = sorted((e, mono_str(m), c) for m, e, c in ms.terms())
    return json.dumps({
        "trunc": ms.trunc,
        "terms": [{"monomial": m, "exponent": e, "coeff": c} for e, m, c in rows],
    }) + "\n"


_term = st.tuples(st.tuples(*[st.integers(-3, 3)] * 3), st.integers(-20, 20),
                  st.integers(-10**30, 10**30))


@given(terms=st.lists(_term, max_size=30),
       trunc=st.none() | st.integers(-25, 25))
def test_streamed_json_is_the_dumped_dict(terms, trunc):
    ms = MultiSeries.from_terms(terms, trunc)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _dump_series(ms, "json")
    assert out.getvalue() == _dict_form(ms)


def test_eval_json_is_written_term_by_term():
    # about 1800 terms, a 94 KB document: no per-term dicts and no whole
    # document in memory; output goes to a null device, so only qident's
    # own allocations count
    argv = ["eval", "poch(z, 1, n)", "--bind", "n=22", "--trunc", "232",
            "--format", "json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # imports and first-use set-up
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1.2e6, peak


# ---------------------------------------------------------------------------
# table / list
# ---------------------------------------------------------------------------


def test_table_agrees(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "10")
    assert code == 0
    assert "all rows agree" in out


def test_table_row_one(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0] == {
        "n": 1, "p_omega": 1, "series_omega": 1, "p_nu": 1, "series_nu": 1,
        "agree": True,
    }


def test_table_usage_error(capsys):
    code, _, err = run(capsys, "table", "--max-n", "0")
    assert code == 2


def test_list_matches_registries(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["identities"] == list(IDENTITY_IDS)
    assert doc["bijections"] == list(BIJECTION_NAMES)


def test_list_text(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for iid in IDENTITY_IDS:
        assert iid in out


# ---------------------------------------------------------------------------
# element parsers
# ---------------------------------------------------------------------------


def test_parse_partition_forms():
    assert parse_partition("(5,3)").parts == (5, 3)
    assert parse_partition("()").parts == ()
    with pytest.raises(ValueError):
        parse_partition("5,3")


def test_parse_pair_and_set():
    pair = parse_pair("(2,1)|(1,1)")
    assert pair.first.parts == (2, 1) and pair.second.parts == (1, 1)
    s = parse_signed_set("{-2,0,1}", 3)
    assert s.elements == (-2, 0, 1)
    with pytest.raises(ValueError):
        parse_pair("(2,1)")


def test_usage_without_subcommand(capsys):
    code = main([])
    assert code == 2


# ---------------------------------------------------------------------------
# front end: demo transcripts, report shapes, help and accepted flags
# ---------------------------------------------------------------------------


DEMO_TRANSCRIPTS = [
    (("psi", "--n", "4", "--demo", "{-4,-2}"),
     "input: mu={-4,-2} (weight -6)\n"
     "psi(mu) = (3,1) (weight 4)\n"
     "weight law: -6 = -10 + 4\n"
     "inverse check: {-4,-2}\n"),
    (("tau", "--n", "2", "--demo", "{-1,0,1,2}"),
     "input: lambda={-1,0,1,2} (weight 2)\n"
     "tau(lambda) = {2} (weight 2)\n"
     "inverse check: {-1,0,1,2}\n"),
    (("nu3", "--n", "1", "--k", "1", "--demo", "(1,1)|(3)", "--ferrers"),
     "input: lambda=(1,1) pi=(3) (weight 5)\n"
     "  split 3 = 2 + 1: column of height 2, row of width 1\n"
     "folded diagram: (2,2,1)\n"
     "  * * \n"
     "  * * \n"
     "  * \n"
     "mu = (2); self-conjugate residue = (2,1) (Durfee side 1)\n"
     "nu = hooks of residue = (3)\n"
     "inverse check: (1,1)|(3)\n"),
    (("nu3", "--n", "2", "--k", "3", "--demo", "(2,2,2)|(5,3,1)", "--ferrers"),
     "input: lambda=(2,2,2) pi=(5,3,1) (weight 15)\n"
     "  split 5 = 3 + 2: column of height 3, row of width 2\n"
     "  split 3 = 2 + 1: column of height 2, row of width 1\n"
     "  split 1 = 1 + 0: column of height 1, row of width 0\n"
     "folded diagram: (5,4,3,2,1)\n"
     "  * * * * * \n"
     "  * * * * \n"
     "  * * * \n"
     "  * * \n"
     "  * \n"
     "mu = (5); self-conjugate residue = (4,3,2,1) (Durfee side 2)\n"
     "nu = hooks of residue = (7,3)\n"
     "inverse check: (2,2,2)|(5,3,1)\n"),
]


@pytest.mark.parametrize("argv,expected", DEMO_TRANSCRIPTS,
                         ids=[a[0] + "-" + a[-1] for a, _ in DEMO_TRANSCRIPTS])
def test_demo_transcript(capsys, argv, expected):
    code, out, err = run(capsys, "bijection", *argv)
    assert (code, out, err) == (0, expected, "")


def test_nu3_demo_refuses_input_outside_o_before_folding(capsys):
    # the part 7 would reach row 3 of the 2-row rectangle of n = 1
    code, out, err = run(capsys, "bijection", "nu3", "--n", "1", "--k", "1",
                         "--demo", "(1,1)|(7)")
    assert code == 2
    assert out == "input: lambda=(1,1) pi=(7) (weight 9)\n"
    assert err == ("error: not an O(1,1) element:"
                   " PartitionPair(Partition(1, 1), Partition(7,))\n")


@pytest.mark.parametrize("argv,extra", [
    (("phi", "--n", "2", "--k", "7", "--max-nk", "3", "--cap", "1"),
     "phi does not take parameter(s) ['k', 'weight_cap', 'max_nk']"),
    (("nu3", "--n", "2", "--k", "1", "--max-nk", "1", "--cap", "12"),
     "nu3 does not take parameter(s) ['n', 'k']"),
    (("psi", "--n", "2", "--cap", "30"),
     "psi does not take parameter(s) ['weight_cap']"),
    (("durfee_split", "--max-nk", "2"),
     "durfee_split does not take parameter(s) ['max_nk']"),
], ids=["phi", "nu3-max-nk", "psi-default-cap-given", "durfee-max-nk"])
def test_bijection_refuses_parameters_the_map_does_not_take(capsys, argv, extra):
    code, out, err = run(capsys, "bijection", *argv)
    assert (code, out, err) == (2, "", f"error: bijection {extra}\n")


@pytest.mark.parametrize("argv,message", [
    (("nu3", "--n", "2", "--k", "-1", "--cap", "10"),
     "nu3 takes no negative parameter: k=-1"),
    (("psi", "--n", "-2"), "psi takes no negative parameter: n=-2"),
    (("phi", "--n", "-1"), "phi takes no negative parameter: n=-1"),
    (("durfee_split", "--cap", "-3"),
     "durfee_split takes no negative parameter: weight_cap=-3"),
    (("nu3", "--max-nk", "-1", "--cap", "5"),
     "nu3 takes no negative parameter: max_nk=-1"),
    (("phi", "--n", "30"),
     "phi at n = 30 would sweep 2^60 elements, past the limit of 2^20"),
    (("psi", "--n", "21"),
     "psi at n = 21 would sweep 2^21 elements, past the limit of 2^20"),
], ids=["nu3-k", "psi-n", "phi-n", "durfee-cap", "nu3-max-nk", "phi-30", "psi-21"])
def test_bijection_refuses_negative_or_oversized_sweeps(capsys, argv, message):
    code, out, err = run(capsys, "bijection", *argv)
    assert (code, out, err) == (2, "", f"error: bijection {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("phi", "--n", "2", "--k", "5", "--demo", "(1)|()"),
     "phi does not take parameter(s) ['k']"),
    (("psi", "--n", "-1", "--demo", "{}"), "psi takes no negative parameter: n=-1"),
], ids=["phi-k", "psi-negative-n"])
def test_bijection_demo_refuses_parameters_as_its_sweep_does(capsys, argv, message):
    # the demo and the sweep of the same command line are refused alike,
    # before the demo prints anything
    code, out, err = run(capsys, "bijection", *argv)
    assert (code, out, err) == (2, "", f"error: bijection {message}\n")
    assert run(capsys, "bijection", *argv[:-2]) == (code, out, err)


def test_bijection_default_cap_only_for_maps_that_take_one(capsys):
    # --cap was not given: phi takes none, durfee_split sweeps at 30
    code, out, _ = run(capsys, "bijection", "phi", "--n", "2")
    assert code == 0 and "-> PASS" in out
    default = run(capsys, "bijection", "durfee_split", "--format", "json")
    assert default == run(capsys, "bijection", "durfee_split", "--cap", "30",
                          "--format", "json")
    assert default[0] == 0


def test_bijection_json_key_order(capsys):
    code, out, _ = run(capsys, "bijection", "nu3", "--max-nk", "2", "--cap", "12",
                       "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == [
        "name", "domain_size", "codomain_size", "roundtrip_failures",
        "weight_violations", "membership_failures", "witness", "pass",
    ]


@pytest.mark.parametrize("command", ["verify", "bijection", "eval", "table", "list"])
def test_subcommand_help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and out.startswith(f"usage: qident {command}")


@pytest.mark.parametrize("argv", [
    ("table", "--max-n", "3", "--trunc", "5"),
    ("table", "--max-n", "3", "--cap", "2"),
    ("eval", "q", "--cap", "3"),
    ("bijection", "phi", "--n", "1", "--trunc", "5"),
], ids=["table-trunc", "table-cap", "eval-cap", "bijection-trunc"])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


# stdout, stderr and exit code of the help, usage and error runs, recorded
# when every subparser was built on each launch: a launch that builds only
# the subparser of its command prints the same bytes
_SURFACE = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("case", _SURFACE, ids=lambda c: " ".join(c["argv"]) or "no-command")
def test_cli_surface_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_table_max_n_cap_exit_2(capsys):
    from qident.cli_table import MAX_TABLE_N

    # one step past the cap; refused before either series is built
    code, out, err = run(capsys, "table", "--max-n", str(MAX_TABLE_N + 1))
    assert code == 2 and out == "" and f"{MAX_TABLE_N}" in err


def test_eval_reserved_binding_exit_2(capsys):
    code, out, err = run(capsys, "eval", "q+z", "--bind", "q=3", "--bind", "z=5",
                         "--trunc", "4")
    assert code == 2 and out == ""
    assert err == "error: binding may not shadow reserved name 'q'\n"


def test_eval_reciprocal_of_truncated_term(capsys):
    code, out, _ = run(capsys, "eval", "(z*q + z*q^4)^(-1)", "z^(-1)*q^(-1)",
                       "--trunc", "3")
    assert code == 0 and out == "equal below q^1\n"
    code, out, _ = run(capsys, "eval", "(q^2 - q^3)^(-1)", "--trunc", "3")
    assert code == 0 and out == "q^-2: 1\n(exact below q^-1)\n"


def test_eval_poch_of_a_base_without_terms(capsys):
    # the base is 0 + O(q^-2) at --trunc 4, so 1 - a and 1 - a*q are
    # O(q^-2) and O(q^-1): their 1 is not trusted, and the true coefficient
    # of q^-3 in the product is 1
    code, out, _ = run(capsys, "eval", "poch((q^3+q^4)^(-1) - q^(-3), 1, 2)",
                       "--trunc", "4")
    assert code == 0 and out == "0\n(exact below q^-3)\n"
