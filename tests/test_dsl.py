import copy
import inspect
import pickle
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qident import budget
from qident.dsl import (
    MAX_EXACT_DEGREE,
    MAX_POWER_BITS,
    MAX_SUM_TERMS,
    BinOp,
    Call,
    Int,
    Name,
    Neg,
    Pow,
    Token,
    eval_int,
    eval_series,
    evaluate,
    parse,
    unparse,
)
from qident.errors import (
    DivisionInexact,
    DslError,
    NonConvergent,
    NonIntegerExponent,
    NonUnitConstantTerm,
    ParseError,
    TruncationRequired,
    UnboundVariable,
)
from qident.identities import REGISTRY, build_side
from qident.series import MultiSeries, QSeries, poch_finite, poch_infinite, qbinom
from qident.syntax import MAX_LITERAL_DIGITS, _read_int, int_str


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_call_structure():
    ast = parse("qbinom(n+s, s)")
    assert ast == Call("qbinom", (BinOp("+", Name("n"), Name("s")), Name("s")))


def test_parse_sum_structure():
    ast = parse("sum(s, 0, n, q^s * poch(-q^(s+1), 1, n-s) * qbinom(n+s, s))")
    assert isinstance(ast, Call) and ast.func == "sum"
    assert ast.args[0] == Name("s")
    assert ast.args[1] == Int(0)
    body = ast.args[3]
    assert isinstance(body, BinOp) and body.op == "*"


def test_parse_dangling_comma():
    with pytest.raises(ParseError) as exc:
        parse("poch(q,1,")
    assert exc.value.col == 10


def test_parse_unclosed_call():
    with pytest.raises(ParseError) as exc:
        parse("qbinom(2,1")
    assert exc.value.line == 1 and exc.value.col == 11
    assert "expected" in str(exc.value)


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse("1 + 2 )")


def test_parse_bad_character():
    with pytest.raises(ParseError) as exc:
        parse("1 + $")
    assert exc.value.col == 5


def test_parse_literals_of_any_length():
    # past str()'s and int()'s 4 300 digits, up to MAX_POWER_BITS bits
    sevens = "7" * 5000
    assert parse(sevens) == Int((10**5000 - 1) // 9 * 7)
    assert unparse(parse(sevens)) == sevens
    top = parse("9" * MAX_LITERAL_DIGITS).value
    assert top == 10**MAX_LITERAL_DIGITS - 1
    assert top.bit_length() <= MAX_POWER_BITS
    with pytest.raises(ParseError, match="bit limit") as exc:
        parse("1 + " + "9" * (MAX_LITERAL_DIGITS + 1))
    assert exc.value.col == 5
    # a digit that is not decimal is no literal
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse("2\u00b2")
    assert exc.value.col == 2


def test_repr_of_coefficients_of_any_length():
    # past str()'s 4 300 digits
    big = int_str(2**20000)
    assert repr(evaluate("2^20000", {}, 5)) == f"MultiSeries(1*<{big}>)"
    assert repr(QSeries({0: 5, 3: -(2**20000)}, 6)) == f"<5 - {big}*q^3 + O(q^6)>"


@given(st.integers(0, 30000), st.integers(0, 10**9), st.sampled_from([1, -1]))
def test_int_str_reads_back(bits, low, sign):
    n = sign * ((1 << bits) + low)
    text = int_str(n)
    assert _read_int(text.lstrip("-")) == abs(n)
    if abs(n) < 10**4000:
        assert text == str(n)


def test_precedence_shapes():
    assert parse("1-q^2") == BinOp("-", Int(1), Pow(Name("q"), Int(2)))
    assert parse("-q^2") == Neg(Pow(Name("q"), Int(2)))
    assert parse("a-b-c") == BinOp("-", BinOp("-", Name("a"), Name("b")), Name("c"))
    assert parse("a^b^c") == Pow(Name("a"), Pow(Name("b"), Name("c")))
    assert parse("a*b+c") == BinOp("+", BinOp("*", Name("a"), Name("b")), Name("c"))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_poch():
    out = evaluate("poch(q,1,2)", {}, 50)
    assert out.qseries().coeffs == {0: 1, 1: -1, 2: -1, 3: 1}


def test_eval_qbinom_trivial():
    assert evaluate("qbinom(5,0)", {}, None) == MultiSeries.one()
    # at a truncation order a qbinom is a product on the kernel, trusted
    # below that order, as 1*qbinom(5,0) is
    assert evaluate("qbinom(5,0)", {}, 10) == MultiSeries.one(10)


def test_eval_qbinom_keeps_to_the_truncation_order():
    # (q^4; q)_2 / (q; q)_2 below q^3, bare or in a product; exact, whole
    for text in ("qbinom(5,2)", "1*qbinom(5,2)"):
        got = evaluate(text, {}, 3)
        assert got.trunc == 3 and got.qseries().coeffs == {0: 1, 1: 1, 2: 2}, text
    got = evaluate("qbinom(5,2)", {}, None)
    assert got.trunc is None
    assert got.qseries().coeffs == {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}
    # k outside 0..m is zero
    assert evaluate("q * qbinom(2, 3)", {}, None) == MultiSeries.zero()
    assert evaluate("q * qbinom(2, 3)", {}, 3).is_zero()


def test_eval_precedence():
    out = evaluate("1-q^2", {}, 10)
    assert out.qseries().coeffs == {0: 1, 2: -1}


def test_eval_integer_power_of_constant():
    assert evaluate("2^3", {}, 10).qseries().coeffs == {0: 8}


def test_eval_negative_exponent_inverts():
    out = evaluate("poch(q,1,1)^(-1)", {}, 6)
    assert out.qseries().coeffs == {e: 1 for e in range(6)}
    # single monomials invert exactly, even Laurent ones
    out = evaluate("z^(-1) * z", {}, None)
    assert out == MultiSeries.one()
    out = evaluate("q^(-2) * q^3", {}, None)
    assert out == MultiSeries.q(1)


def test_eval_product_valuation():
    # a product whose valuation reaches the truncation is zero below it
    out = evaluate("q^5 * poch(q, 1, inf)^(-1)", {}, 5)
    assert out.is_zero() and out.trunc == 5
    # a factor of negative valuation is expanded, not skipped
    out = evaluate("q^10 * (q^(-20) + 1)", {}, 10)
    assert out.qseries().coeffs == {-10: 1, 10: 1}
    # a factor evaluated past the truncation keeps the constant term its
    # inverse needs
    out = evaluate("q * (1 + q)^(-1)", {}, 1)
    assert out.qseries().coeffs == {1: 1} and out.trunc == 2
    # a malformed call is reported even where its product is zero below the
    # truncation
    for text in ("q^100 * poch(q, 1, -2)", "q^100 * qbinom(-1, 0)",
                 "q^100 * qbinom(1)"):
        with pytest.raises(DslError):
            evaluate(text, {}, 10)


def test_product_reports_its_first_error_in_factor_order():
    # the valuation walk stops at the first factor of unknown valuation, so
    # that factor's evaluation fails before a later malformed call is seen;
    # with no truncation order there is no walk, and the malformed call is
    # the first error
    text = "(q^(-1) + 1)^(-1) * poch(q, 0, 3)"
    with pytest.raises(NonUnitConstantTerm, match="series has terms below q\\^0"):
        evaluate(text, {}, 10)
    with pytest.raises(DslError, match="poch step must be a positive integer"):
        evaluate(text, {}, None)


@pytest.mark.parametrize("dividend, divisors", [
    pytest.param("(1 - q^20675)^2", [("1 - 2*q + q^2", 1)], id="1"),
    pytest.param("(1 - q^20675)^2", [("-1 + 2*q - q^2", 1)], id="-1"),
    pytest.param("(1 - q^60)^3", [("-1 + q", 1)], id="-1+q"),
    pytest.param("(1 - q^60)^3", [("-1 + q^2", 2)], id="(-1+q^2)^2"),
    pytest.param("(1 - q^60)^3", [("-1 + q^3", 3)], id="(-1+q^3)^3"),
    pytest.param("(1 - q^60)^3", [("-1 + q^2", 1), ("-1 + q^3", 2)],
                 id="(-1+q^2)*(-1+q^3)^2"),
])
def test_exact_division_bit_guard(dividend, divisors):
    # d = 1 - 2q + q^2 cancels: (1 - q^n)^2 / d = (1 + ... + q^(n-1))^2 has
    # coefficients of at most n, so it is divided although a bound on the
    # inverse by |c| summing to 3 would pass the limit (2n * log2(3) bits).
    # A lead -1 is a lead 1 and a sign, -1 - a = -(1 - (-a)): the quotient
    # is (-1)^k times the one by the divisors negated to lead 1, k the
    # total power of the divisors of lead -1
    def quotient(negate):
        return evaluate(dividend + "".join(
            f" * ({'-' if negate and d.startswith('-1') else ''}({d}))^(-{k})"
            for d, k in divisors), {}, None)

    plus = quotient(True)
    k = sum(k for d, k in divisors if d.startswith("-1"))
    assert quotient(False) == (-1) ** k * plus
    if dividend == "(1 - q^20675)^2":
        n = 20675
        assert plus.qseries().coeffs == {
            e: min(e + 1, 2 * n - 1 - e) for e in range(2 * n - 1)}


@pytest.mark.parametrize("divisor", ["1 - 2^64*q", "-1 + 2^64*q",
                                     "1 - 2^64*q - q^2", "-1 + 2^64*q + q^2"])
def test_exact_division_past_the_bit_limit(divisor):
    # the quotient of 1 - q^n by d has at q^i a coefficient of 64i + 1 bits,
    # 64i past the dividend's: within the limit up to n = 1024, where the
    # division runs to its remainder, and refused for n = 1025, a one-term d
    # before any step and a longer d at the coefficient that passes it
    with pytest.raises(DivisionInexact, match="nonzero remainder"):
        evaluate(f"(1 - q^1024) * ({divisor})^(-1)", {}, None)
    with pytest.raises(DslError, match="power -1 of a series with coefficients of up"
                       " to 65600 bits exceeds the 65536-bit limit"):
        evaluate(f"(1 - q^1025) * ({divisor})^(-1)", {}, None)


def test_eval_exact_division():
    out = evaluate("poch(q, 1, 3) * poch(q, 1, 2)^(-1)", {}, None)
    assert out == MultiSeries.one() - MultiSeries.q(3)
    with pytest.raises(DivisionInexact):
        evaluate("1 * poch(q, 1, 2)^(-1)", {}, None)


def test_exact_division_follows_every_multiplication():
    # the factors' order in the text does not decide when the division runs
    for text in ("poch(q,1,2) * (1-q)^(-1)", "(1-q)^(-1) * poch(q,1,2)",
                 "(1-q)^(-1) * (1+q) * poch(q,1,1)^2"):
        assert evaluate(text, {}, None) == MultiSeries.one() - MultiSeries.q(2), text


def test_exact_division_by_a_non_unit_lowest_coefficient():
    assert evaluate("(6+3*q)*(2+q)^(-1)", {}, None) == 3
    assert evaluate("(q^(-1)+2)*(q^(-1)+2)^(-2)*(1+2*q)", {}, None) == MultiSeries.q()
    for text in ("(1+2*q)*(2+q)^(-1)", "(2+q)*(2+q)^(-2)"):
        with pytest.raises(DivisionInexact):
            evaluate(text, {}, None)


def test_exact_division_checks_the_span_first():
    # within the power guard, but the divisor's degree passes the
    # dividend's: refused before the kernel expands anything
    with pytest.raises(DivisionInexact, match="span"):
        evaluate(f"(1-q)^(-{2 ** 21})", {}, None)
    with pytest.raises(DivisionInexact, match="span"):
        evaluate(f"(1+q) * poch(q, 1, 1)^(-{2 ** 21})", {}, None)


def test_exact_product_window_guard():
    # error paths only, one step past the limit: the kernel's window and
    # steps are measured by the degrees, in q or in z, x, y, of the other
    # factors' product and of each Pochhammer factor to its power
    over = MAX_EXACT_DEGREE + 1
    for text in (f"poch(q, 1, 2)^(-{over // 3 + 1})", f"poch(z*q, 2, 1)^{over}",
                 f"poch(z^2*q, 2, 1)^{over // 2 + 1}",
                 f"(1 + q^{MAX_EXACT_DEGREE}) * poch(q, 1, 1)"):
        with pytest.raises(DslError, match="exact product of degree"):
            evaluate(text, {}, None)
    # Pochhammer powers that cancel take no step at all
    text = f"poch(q, 1, 1)^{over} * poch(q, 1, 1)^(-{over}) * (1 + q)"
    assert evaluate(text, {}, None) == 1 + MultiSeries.q()


def test_exact_qbinom_counts_by_its_own_degree(monkeypatch):
    # each exact Gaussian binomial is its chains in the product's window,
    # counted by its degree before the chains merge: merged, the pair
    # cancels a factor 1 - q^2 that its window needs
    import reference as ref

    def terms(text):
        return {(m[:2], e): c for m, e, c in evaluate(text, {}, None).terms()}

    assert terms("qbinom(2,1)*qbinom(4,2)") == ref.terms(
        ref.mul(ref.qbinom(2, 1), ref.qbinom(4, 2)))
    # at a degree limit of 16, qbinom(8, 4) (degree 16) is accepted; its
    # chains' spans, 5 + 6 + 7 + 8 and 1 + 2 + 3 + 4, would read 36
    monkeypatch.setattr(budget, "MAX_EXACT_DEGREE", 16)
    assert terms("qbinom(8,4)") == ref.terms(ref.qbinom(8, 4))
    with pytest.raises(DslError) as refused:
        evaluate("qbinom(8,4)*poch(q,1,1)", {}, None)
    assert str(refused.value) == "exact product of degree 17 exceeds the 16-degree limit"


def test_exact_poch_guard():
    # error paths only, one step past the limit: an exact poch whose
    # factors' exponent steps step*i, i < count, alone sum past the limit
    # is refused before any factor is listed, whether it is a chain, a
    # bare call, a factor or the base of a power
    count = next(c for c in range(2, 10**4) if c * (c - 1) // 2 > MAX_EXACT_DEGREE)
    for text in (f"poch(q, 1, {count})", f"poch(z, 1, {count})",
                 f"poch(1+q, 1, {count})", f"poch(q, 1, {count})^(-1)",
                 f"poch(q, {MAX_EXACT_DEGREE + 1}, 2)"):
        with pytest.raises(DslError, match=r"exact poch of \d+ factors could pass"):
            evaluate(text, {}, None)
    # a power 0 lists no factor, and at a truncation order they keep to
    # its window
    assert evaluate(f"2 * poch(q, 1, {count})^0", {}, None) == 2
    assert evaluate(f"poch(z, 1, {count})", {}, 2) == evaluate("poch(z, 1, 2)", {}, 2)


def test_powers_past_one_of_poch_and_qbinom():
    # a power k != 1 of a poch of q-valuation 0 is no chain: (1 - z)^k grows
    # the rows with k, so the base is raised by squaring, refused one step
    # past the degree limit as any power is; a qbinom to any power is a
    # chain, one kernel step per factor, and agrees with its squared series
    over = MAX_EXACT_DEGREE + 1
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"poch(z, 1, 1)^{over}", {}, 5)
    assert evaluate("poch(z, 1, 3)^2", {}, 5) == evaluate("poch(z, 1, 3)^1 * poch(z, 1, 3)", {}, 5)
    k = 10**9  # 4 * 10^9 kernel steps if each unit of k were one
    assert evaluate(f"qbinom(5, 2)^{k}", {}, 10) == MultiSeries.from_qseries(
        qbinom(5, 2)).truncate(10).power(k)


def test_zero_poch_factor_is_no_chain():
    # poch(1, ...) has the factor 1 - 1 = 0, so it is evaluated, not
    # chained: the product is zero even beside a division that the
    # kernel's window could not hold
    for text in ("poch(1, 1, 2) * poch(q, 1, 2)^(-1)",
                 "q * poch(q^2, 2, 3)^(-1) * poch(1, 2, 2)^3"):
        assert evaluate(text, {}, None) == MultiSeries.zero(), text
        assert evaluate(text, {}, 5).is_zero(), text


def test_exact_zero_products():
    # a zero coefficient or a zero factor makes the whole product zero;
    # a zero divisor is still a division by zero
    for text in ("0 * (1+q)^(-1)", "(q-q) * (1+q)^(-1)", "0 * poch(q,1,3)^(-1)"):
        got = evaluate(text, {}, None)
        assert got.is_zero() and got.trunc is None, text
    for text in ("(q-q)^(-1)", "0 * (q-q)^(-1)"):
        with pytest.raises(DivisionInexact, match="division by zero"):
            evaluate(text, {}, None)


def test_exact_product_error_types():
    cases = {
        "1 * poch(q,1,2)^(-1)": DivisionInexact,
        "(1+q)^(-1)": DivisionInexact,
        "poch(q,1,inf)": DslError,
        "2 * poch(q,1,inf)": DslError,
        "poch(z*q,1,2)^(-1)": TruncationRequired,
        "poch(q*z^(-1),1,2)^(-1)": NonUnitConstantTerm,
        "z*(1+z)^(-1)": NonUnitConstantTerm,
    }
    for text, error in cases.items():
        with pytest.raises(error):
            evaluate(text, {}, None)


# A reference for exact products that shares no code with qident:
# polynomials in z and q as {(z-exponent, q-exponent): coefficient}.


def _ref_mul(f, g):
    out = {}
    for (a1, e1), c1 in f.items():
        for (a2, e2), c2 in g.items():
            key = (a1 + a2, e1 + e2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _ref_add(f, g):
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def _ref_div(f, d):
    """f / d for d free of z, by long division from the top over the
    rationals; None unless the quotient is a Laurent polynomial with
    integer coefficients."""
    dlo, dhi = min(e for _, e in d), max(e for _, e in d)
    quotient = {}
    for a in {a for a, _ in f}:
        rem = {e: Fraction(c) for (b, e), c in f.items() if b == a}
        stop = min(rem) - dlo
        while rem and max(rem) - dhi >= stop:
            top = max(rem)
            t = rem[top] / d[(0, dhi)]
            quotient[(a, top - dhi)] = t
            for (_, e), c in d.items():
                r = rem.get(top - dhi + e, 0) - t * c
                if r:
                    rem[top - dhi + e] = r
                else:
                    rem.pop(top - dhi + e, None)
        if rem:
            return None
    if any(t.denominator != 1 for t in quotient.values()):
        return None
    return {k: int(t) for k, t in quotient.items()}


def _ref_poch(c, a, v, step, count):
    out = {(0, 0): 1}
    for i in range(count):
        out = _ref_mul(out, {(0, 0): 1, (a, v + step * i): -c})
    return out


def _ref_text(f):
    return " + ".join(f"({c})*z^({a})*q^({e})" for (a, e), c in sorted(f.items())) or "0"


_ref_poly = st.dictionaries(st.tuples(st.just(0), st.integers(-3, 5)),
                            st.integers(-3, 3).filter(bool), max_size=4)
_ref_chain = st.tuples(st.sampled_from([1, -1, 2, -2]), st.integers(1, 3),
                       st.integers(1, 3), st.integers(0, 3))


@given(data=st.data(), quotient=_ref_poly, divisor=_ref_poly.filter(bool),
       k=st.integers(1, 2),
       grown=st.lists(st.tuples(_ref_chain, st.integers(-1, 1), st.integers(1, 2)),
                      max_size=2),
       shrunk=st.lists(st.tuples(_ref_chain, st.integers(1, 2)), max_size=2),
       monomial=st.tuples(st.sampled_from([1, -1, 2, 3, -2]), st.integers(-2, 2),
                          st.integers(-3, 3)),
       perturb=st.none() | st.tuples(st.integers(-4, 12), st.integers(-2, 2).filter(bool)))
@settings(max_examples=200, deadline=None)
def test_exact_products_match_a_reference(data, quotient, divisor, k, grown,
                                          shrunk, monomial, perturb):
    # P = Q * D^k * (the shrunk chains); the text P * D^(-k) * (grown
    # chains) * (shrunk chains)^(-1) * c*z^a*q^e, its factors in any order
    dividend, denominator = quotient, {(0, 0): 1}
    for _ in range(k):
        dividend = _ref_mul(dividend, divisor)
        denominator = _ref_mul(denominator, divisor)
    for (c, v, step, count), power in shrunk:
        for _ in range(power):
            dividend = _ref_mul(dividend, _ref_poch(c, 0, v, step, count))
            denominator = _ref_mul(denominator, _ref_poch(c, 0, v, step, count))
    if perturb is not None:
        dividend = _ref_add(dividend, {(0, perturb[0]): perturb[1]})
    c, a, e = monomial
    # the coefficient c is part of the dividend; z^a * q^e is a unit
    numerator = _ref_mul(dividend, {(0, 0): c})
    factors = [f"({_ref_text(dividend)})", f"({_ref_text(divisor)})^(-{k})",
               f"({c})*z^({a})*q^({e})"]
    for (cc, v, step, count), za, power in grown:
        for _ in range(power):
            numerator = _ref_mul(numerator, _ref_poch(cc, za, v, step, count))
        factors.append(f"poch(({cc})*z^({za})*q^{v}, {step}, {count})^{power}")
    factors += [f"poch(({cc})*q^{v}, {step}, {count})^(-{power})"
                for (cc, v, step, count), power in shrunk]
    text = " * ".join(data.draw(st.permutations(factors)))
    want = _ref_div(numerator, denominator)
    if want is None:
        with pytest.raises(DivisionInexact):
            evaluate(text, {}, None)
        return
    got = evaluate(text, {}, None)
    assert got.trunc is None, text
    assert {(m[0], q): v for m, q, v in got.terms()} == _ref_mul(want, {(a, e): 1}), text


def test_eval_sum_empty_range():
    assert evaluate("sum(j, 1, 0, q^j)", {}, 10).is_zero()


def test_eval_binom_in_exponent():
    out = evaluate("q^(binom(4,2))", {}, 20)
    assert out.qseries().coeffs == {6: 1}


def test_eval_errors():
    with pytest.raises(UnboundVariable):
        evaluate("n + 1", {}, 10)
    with pytest.raises(NonIntegerExponent):
        evaluate("q^q", {}, 10)
    with pytest.raises(NonIntegerExponent):
        evaluate("2^z", {}, 10)
    with pytest.raises(NonConvergent):
        evaluate("poch(1,1,inf)", {}, 10)
    with pytest.raises(DslError):
        evaluate("mystery(1)", {}, 10)
    with pytest.raises(DslError):
        evaluate("sum(q, 0, 3, q)", {}, 10)
    with pytest.raises(DslError):
        evaluate("inf", {}, 10)
    with pytest.raises(DslError):
        evaluate("poch(q, 1, -2)", {}, 10)


@pytest.mark.parametrize("text,error,message", [
    ("poch(q, m, 2)", UnboundVariable, "unbound variable 'm'"),
    ("q^(2^(-1))", NonIntegerExponent, "negative exponent in integer context"),
    ("q^binom(1, 2, 3)", DslError, "binom takes exactly 2 arguments"),
    ("sum(n, 0, 2)", DslError,
     "sum takes exactly 4 arguments: sum(var, lo, hi, body)"),
    ("sum(1, 0, 2, q)", DslError, "sum index must be a plain name"),
])
def test_eval_error_types_and_messages(text, error, message):
    with pytest.raises(DslError) as info:
        evaluate(text, {}, 10)
    assert info.type is error and str(info.value) == message


def test_eval_refuses_reserved_bindings():
    # a binding of q, z, x, y or inf would be ignored, so it is refused
    for name in ("q", "z", "x", "y", "inf"):
        with pytest.raises(DslError, match=f"reserved name '{name}'"):
            evaluate("1 + n", {"n": 1, name: 3}, 10)


def test_eval_int_context():
    assert eval_int(parse("binom(n+s, s)"), {"n": 3, "s": 2}) == 10
    assert eval_int(parse("-(2+3)*4"), {}) == -20
    with pytest.raises(NonIntegerExponent):
        eval_int(parse("qbinom(2,1)"), {})


# ---------------------------------------------------------------------------
# equivalence with the frozen builder output
# ---------------------------------------------------------------------------


def test_thm21_text_matches_builder(golden):
    case = REGISTRY["thm21"]
    for n in (0, 1, 3):
        for side in ("lhs", "rhs"):
            want = golden[("thm21", side, n, 100)]
            got = evaluate(case.texts[side], {"n": n}, 100)
            assert got.first_mismatch(want, 100) is None, (n, side)
            assert build_side("thm21", side, {"n": n}, 100) == want, (n, side)


def test_ay1_text_matches_builder_small(golden):
    # the reference is frozen at trunc 60; its coefficients below 25 are
    # the ones a trunc-25 expansion must reproduce
    case = REGISTRY["ay1"]
    T = 25
    for side in ("lhs", "rhs"):
        got = evaluate(case.texts[side], {"N": T}, T)
        assert got.trunc == T, side
        assert got.first_mismatch(golden[("ay1", side, None, 60)], T) is None, side


def test_q1limit_text_matches_integers(golden):
    case = REGISTRY["q1limit"]
    for n in (0, 2, 5):
        for side in ("lhs", "rhs"):
            got = evaluate(case.texts[side], {"n": n}, 10).qseries().coeff(0)
            want = golden[("q1limit", side, n, 60)]
            assert got == want == 4**n
            assert build_side("q1limit", side, {"n": n}) == want


# ---------------------------------------------------------------------------
# pretty-printing round trip
# ---------------------------------------------------------------------------

_CORPUS = [
    "1",
    "q",
    "1-q^2",
    "-q^2",
    "a*b+c",
    "a*(b+c)",
    "a^b^c",
    "(a^b)^c",
    "a-(b-c)",
    "--x",
    "-x*y",
    "2^(n-s) * binom(n+s, s)",
    "sum(s, 0, n, q^s * poch(-q^(s+1), 1, n-s) * qbinom(n+s, s))",
    "poch(z*q^(2*n+2), 2, inf)^(-1)",
    "sum(t, 0, n, qbinom(n, t) * (-1)^t * z^t * q^(binom(t, 2)))",
]


@pytest.mark.parametrize("src", _CORPUS)
def test_roundtrip_corpus(src):
    ast = parse(src)
    assert parse(unparse(ast)) == ast


def test_roundtrip_all_registry_texts():
    for iid, case in REGISTRY.items():
        for side, text in case.texts.items():
            ast = parse(text)
            assert parse(unparse(ast)) == ast, (iid, side)


_names = st.sampled_from(["q", "z", "x", "y", "n", "s", "t"])
_expr = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=0, max_value=99).map(Int),
        _names.map(Name),
        st.builds(Neg, _expr),
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), _expr, _expr),
        st.builds(Pow, _expr, _expr),
        st.builds(
            Call,
            st.sampled_from(["poch", "qbinom", "binom", "f"]),
            st.lists(_expr, min_size=1, max_size=3).map(tuple),
        ),
    )
)


@given(ast=_expr)
@settings(max_examples=200)
def test_roundtrip_random_asts(ast):
    assert parse(unparse(ast)) == ast


# ---------------------------------------------------------------------------
# truncation soundness of the valuation-first evaluator
# ---------------------------------------------------------------------------
#
# A random text is a sum over n of a product of factors.  Each factor is
# drawn as data, rendered as text, and also expanded directly with the
# series layer (plain products, inverses and powers at a higher truncation,
# no valuation shortcuts) as the reference.


def _aux(z, x):
    return "".join(f" * {v}^({e})" for v, e in (("z", z), ("x", x)) if e)


def _mono_ms(c, z, x, qexp):
    return MultiSeries.term(c, qexp=qexp, z=z, x=x)


@st.composite
def _monomial(draw):
    c = draw(st.sampled_from([1, -1, 2, -3, 0]))
    z, x = draw(st.integers(-1, 2)), draw(st.integers(-1, 1))
    q0, qn = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    text = f"{c}{_aux(z, x)} * q^({q0}+{qn}*n)"
    return text, lambda n, T: _mono_ms(c, z, x, q0 + qn * n)


@st.composite
def _signed_power(draw):
    # (s*z^a*q^j)^n, as in (-z*q)^n
    s, a, j = draw(st.sampled_from([1, -1])), draw(st.integers(0, 1)), draw(st.integers(0, 2))
    text = f"({s}{_aux(a, 0)} * q^{j})^n"
    return text, lambda n, T: _mono_ms(s ** n, a * n, 0, j * n)


@st.composite
def _poch(draw):
    k = draw(st.sampled_from([1, 2, -1, -2]))
    j = draw(st.integers(1 if k < 0 else 0, 3))
    z = draw(st.integers(0 if k < 0 else -1, 2))
    c = draw(st.sampled_from([1, -1, 2]))
    step = draw(st.integers(1, 3))
    count = draw(st.sampled_from(["0", "2", "n", "n+1"] + (["inf"] if j else [])))
    text = f"poch({c}{_aux(z, 0)} * q^{j}, {step}, {count})^({k})"

    def value(n, T):
        a = _mono_ms(c, z, 0, j)
        if count == "inf":
            p = poch_infinite(a, step, T)
        else:
            p = poch_finite(a, step, {"0": 0, "2": 2, "n": n, "n+1": n + 1}[count], trunc=T)
        if k < 0:
            p = p.invert_unit(T)
        return p.power(abs(k)).truncate(T)
    return text, value


@st.composite
def _binomial(draw):
    # (1 + c*z^a*q^j)^k; a Laurent q-exponent only under a positive power
    k = draw(st.sampled_from([1, 2, 3, -1, -2]))
    j = draw(st.integers(1, 3)) if k < 0 else draw(st.integers(-2, 3))
    a, c = draw(st.integers(0, 1)), draw(st.sampled_from([1, -1, 3]))
    text = f"(1 + {c}{_aux(a, 0)} * q^({j}))^({k})"

    def value(n, T):
        b = MultiSeries.one().add(_mono_ms(c, a, 0, j))
        if k < 0:
            b = b.invert_unit(T)
        return b.power(abs(k)).truncate(T)
    return text, value


@st.composite
def _qbinom(draw):
    # qbinom(a + b*n, c + d*n)^(k); c + d*n may leave 0..m under a positive
    # power, where the factor is the exact zero
    k = draw(st.sampled_from([1, 2, -1]))
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    if k < 0:
        c, d = draw(st.integers(0, a)), draw(st.integers(0, b))
    else:
        c, d = draw(st.integers(-1, a + 2)), draw(st.integers(0, b + 1))
    text = f"qbinom({a}+{b}*n, {c}+{d}*n)^({k})"

    def value(n, T):
        g = MultiSeries.from_qseries(qbinom(a + b * n, c + d * n))
        if k < 0:
            g = g.invert_unit(T)
        return g.power(abs(k)).truncate(T)
    return text, value


@st.composite
def _sum_text(draw):
    factors = draw(st.lists(
        st.one_of(_monomial(), _signed_power(), _poch(), _binomial(), _qbinom()),
        min_size=1, max_size=4,
    ))
    lo, hi = draw(st.integers(0, 2)), draw(st.integers(0, 6))
    text = f"sum(n, {lo}, {hi}, {' * '.join(t for t, _ in factors)})"

    def value(T):
        total = MultiSeries.zero()
        for n in range(lo, hi + 1):
            term = MultiSeries.one()
            for _, f in factors:
                term = term.mul(f(n, T))
            total = total.add(term)
        return total
    polynomial = "inf" not in text and "^(-" not in text
    return text, value, polynomial


@given(case=_sum_text(), T=st.integers(1, 25), d=st.integers(1, 10))
@settings(max_examples=150, deadline=None)
def test_truncated_evaluation_is_sound(case, T, d):
    text, reference, polynomial = case
    got = evaluate(text, {}, T)
    assert got.first_mismatch(evaluate(text, {}, T + d)) is None, text
    # the reference is expanded at T + 15: coefficients below its own
    # truncation are trusted, and they cover every one got trusts
    want = reference(T + 15)
    assert got.first_mismatch(want) is None, text
    assert want.trunc is None or (got.trunc is not None and got.trunc <= want.trunc)
    if polynomial:
        exact = reference(None)
        assert exact.trunc is None
        assert got.first_mismatch(exact) is None, text
        assert evaluate(text, {}, None) == exact, text


# ---------------------------------------------------------------------------
# Pochhammer powers applied as factor chains
# ---------------------------------------------------------------------------


@st.composite
def _poch_power(draw):
    k = draw(st.sampled_from([1, 2, -1, -2]))
    lowest = 0 if k < 0 else -1
    aux = tuple(draw(st.integers(lowest, 2)) for _ in range(3))
    c = draw(st.sampled_from([1, -1, 2, -2, 3]))
    v, step = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = draw(st.sampled_from([None, 0, 1, 2, 5]))
    # a monomial prefix and an optional generic factor (1 + 2q^w) move the
    # accumulator's window
    u, w = draw(st.integers(0, 3)), draw(st.sampled_from([None, -1, 0, 1, 3]))
    base = f"{c} * z^({aux[0]}) * x^({aux[1]}) * y^({aux[2]}) * q^{v}"
    generic = "" if w is None else f"(1 + 2*q^({w})) * "
    text = (f"q^{u} * {generic}poch({base}, {step},"
            f" {'inf' if count is None else 'n'})^({k})")
    return text, (c, aux, v, step, count, k, u, w)


@given(case=_poch_power(), T=st.integers(1, 30), d=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_poch_power_chains_match_generic_products(factor_product, case, T,
                                                  d):
    text, (c, aux, v, step, count, k, u, w) = case
    bindings = {"n": count}
    got = evaluate(text, bindings, T)
    assert got.first_mismatch(evaluate(text, bindings, T + d)) is None
    g = MultiSeries.one()
    if w is not None:
        g = g + MultiSeries.term(2, w)
    if u + min(w or 0, 0) >= T:  # the product's valuation reaches T
        assert got == MultiSeries.zero(T)
        return
    # the generic evaluation: each factor truncated at the inner order,
    # P^|k| built factor by factor (at a higher order), then multiplied
    inner = max(T - u, 1)
    p = factor_product(MultiSeries.term(c, v, *aux), step, count,
                       T + 10).power(abs(k))
    want = MultiSeries.q(u) * (g.truncate(inner) * p.truncate(inner))
    assert got.trunc == want.trunc
    if k > 0:
        assert got == want
    else:
        # got * P^|k| = q^u * g below the truncation
        assert (got * p).first_mismatch(MultiSeries.q(u) * g, got.trunc) is None


def test_poch_power_error_paths():
    # an inverse of a base with a negative aux exponent is still refused
    with pytest.raises(NonUnitConstantTerm):
        evaluate("poch(q*z^(-1), 2, 3)^(-1)", {}, 20)
    # a malformed call is reported even where every factor would be skipped
    for text in ("poch(q^20, 1, -1)^(-1)", "poch(q^20, 0, 3)^(-1)",
                 "q^100 * poch(q, 1, 3)^(-1) * poch(q, 1, -2)",
                 "poch(q^20, 1)^(-1)"):
        with pytest.raises(DslError):
            evaluate(text, {}, 10)


def test_sum_range_guard():
    # refused before the first summand: the body is a malformed call that
    # would raise its own error if it were evaluated
    bad_body = "poch(q, 0, 1)"
    with pytest.raises(DslError, match="term limit"):
        evaluate(f"sum(n, 1, {MAX_SUM_TERMS + 1}, {bad_body})", {}, 5)
    with pytest.raises(DslError, match="term limit"):
        evaluate(f"sum(n, -{MAX_SUM_TERMS}, 0, {bad_body})", {}, None)
    with pytest.raises(DslError, match="poch step"):
        evaluate(f"sum(n, 1, {MAX_SUM_TERMS}, {bad_body})", {}, 5)
    assert evaluate("sum(n, 3, 2, q)", {}, 5) == MultiSeries.zero()


def test_exact_power_guard():
    # error paths only: every refused power is over the limit by one step
    # and is refused before it is expanded
    over = MAX_EXACT_DEGREE + 1
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"(1+q)^{over}", {}, None)
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"(1-q^2)^{over // 2 + 1}", {}, None)
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"(1-q)^(-{over})", {}, None)
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"(q^(-1) + 1)^{over}", {}, None)
    # the aux degree counts too, with or without a truncation order
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"(1+z)^{over}", {}, None)
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"(1+z)^{over}", {}, 5)
    with pytest.raises(DslError, match="degree limit"):
        evaluate(f"(z^(-1) + x*z)^{over // 2 + 1}", {}, 5)
    # a base that is already truncated is refused on its z, x, y degree
    # alone, and below the limit its power is what it always was
    with pytest.raises(DslError, match="degree limit") as refused:
        evaluate(f"(1 + z + poch(q,1,inf))^{over}", {}, 5)
    assert "exact" not in str(refused.value)
    assert evaluate("(1 + z + poch(q,1,inf))^3", {}, 3) == MultiSeries.from_terms(
        [((0, 0, 0), 0, 8), ((1, 0, 0), 0, 12), ((2, 0, 0), 0, 6),
         ((3, 0, 0), 0, 1), ((0, 0, 0), 1, -12), ((1, 0, 0), 1, -12),
         ((2, 0, 0), 1, -3), ((0, 0, 0), 2, -6), ((1, 0, 0), 2, -9),
         ((2, 0, 0), 2, -3)], 3)
    # monomials and integers are folded, not expanded
    assert evaluate(f"q^{over} * (1+q)", {}, None) == (
        MultiSeries.q(over) + MultiSeries.q(over + 1))
    assert evaluate(f"(-q)^{over}", {}, None) == -MultiSeries.q(over)


def test_power_coefficient_guard():
    # error paths only, one step past the limit: these pass the degree check
    # and are refused before they are expanded.  (1+q)^k and (1+z)^k have
    # coefficients up to 2^k.
    over = MAX_POWER_BITS + 1
    with pytest.raises(DslError, match="bit limit"):
        evaluate(f"(1+q)^{over}", {}, None)
    with pytest.raises(DslError, match="bit limit"):
        evaluate(f"(1+z)^{over}", {}, 5)
    with pytest.raises(DslError, match="bit limit"):
        evaluate("(1+q)^(2^21)", {}, None)
    # truncated: the constant layer 2 + z is taken 2^22 times
    with pytest.raises(DslError, match="bit limit"):
        evaluate("(1 + z + poch(q,1,inf))^(2^22)", {}, 1)
    # below a truncation order the higher layers count only a few times
    n = 100000
    assert evaluate(f"(1+q)^{n}", {}, 5) == MultiSeries.from_terms(
        [((0, 0, 0), j, comb(n, j)) for j in range(5)], 5)
    value = evaluate("(1+z)^600", {}, 2)
    assert value.trunc == 2 and value.coefficient((300, 0, 0), 0) == comb(600, 300)


def test_negative_power_coefficient_guard():
    # one step past each bound, refused before any coefficient is made.
    # 1/(1 - c*q) has coefficients c^i: with c = 2^4096 those below q^17
    # reach 16 * 4096 = MAX_POWER_BITS bits, and q^17 passes it, for a
    # chain factor, a series inverse and one whose |c| sum to c
    c = 2**4096
    assert 16 * 4096 == MAX_POWER_BITS
    for text in ("(1 - 2^4096*q)^(-1)", "poch(2^4096*q, 1, 1)^(-1)",
                 "(1 - 2^4095*q - 2^4095*q^2)^(-1)"):
        value = evaluate(text, {}, 17)
        assert value.trunc == 17 and value.coefficient((0, 0, 0), 16) >= c**15, text
        with pytest.raises(DslError, match="up to 69632 bits"):
            evaluate(text, {}, 18)
    # a power -n adds the binomial growth C(n + i - 1, i): (1 - q)^(-n) at
    # q^1 is n = 2^65535, and at q^2 C(n + 1, 2) passes the limit
    value = evaluate("poch(q, 1, 1)^(-(2^65535))", {}, 2)
    assert value.coefficient((0, 0, 0), 1) == 2**65535
    with pytest.raises(DslError, match="bit limit"):
        evaluate("poch(q, 1, 1)^(-(2^65535))", {}, 3)
    # a series to a power -n, bounded by C(n + i, i) c^i at q^i: within the
    # limit below q^16, past it below q^17
    assert evaluate("(1 - 2^4096*q)^(-2)", {}, 16).coefficient((0, 0, 0), 15) == 16 * c**15
    with pytest.raises(DslError, match="bit limit"):
        evaluate("(1 - 2^4096*q)^(-2)", {}, 17)
    # a factor with c = +-1 is never refused to the power -1
    assert evaluate("poch(q, 1, inf)^(-1) * poch(-q, 2, inf)^(-1)", {}, 3000).trunc == 3000


def test_truncated_power_of_polynomial_is_truncated_first():
    # a power series raised to a huge power below a truncation order needs
    # only its terms below that order; its trusted coefficients are exact
    value = evaluate("(1+q)^(10^9)", {}, 4)
    n = 10**9
    assert value.trunc == 4
    assert value == MultiSeries({(0, 0, 0): QSeries(
        {0: 1, 1: n, 2: n * (n - 1) // 2, 3: n * (n - 1) * (n - 2) // 6}, 4)}, 4)
    assert evaluate("(1 - q^2 + 3*q)^5", {}, 7) == evaluate(
        "(1 - q^2 + 3*q)^5", {}, None).truncate(7)
    assert evaluate("(q^(-1) + 2)^3", {}, 2) == evaluate(
        "(q^(-1) + 2)^3", {}, None).truncate(2)


def test_integer_power_guard():
    # the guard refuses before computing; the huge powers are never built
    with pytest.raises(DslError, match="bit limit"):
        eval_int(parse("2^(2^40)"), {})
    with pytest.raises(DslError, match="bit limit"):
        evaluate("q^(3^(2^40))", {}, 10)
    with pytest.raises(DslError, match="bit limit"):
        evaluate("(2*q)^(2^20) * poch(q, 1, inf)", {}, 10)
    assert eval_int(parse("2^1000"), {}) == 2**1000
    assert evaluate("(-1)^(2^70) * q", {}, 5) == MultiSeries.q(1)


# ---------------------------------------------------------------------------
# AST and token records
# ---------------------------------------------------------------------------

_NODES = [Int(3), Name("q"), Neg(Int(1)), BinOp("+", Int(1), Name("z")),
          Pow(Name("q"), Int(2)), Call("poch", (Name("q"), Int(1), Name("inf"))),
          Token("NAME", "q", 1, 4)]


def _fields(node) -> dict:
    """The record's fields by constructor parameter name."""
    names = inspect.signature(type(node)).parameters
    return {f: getattr(node, f) for f in names}


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_node_equality_and_hash(node):
    twin = type(node)(**_fields(node))
    assert twin is not node and twin == node and not twin != node
    assert hash(twin) == hash(node)
    assert len({node, twin}) == 1
    first, *rest = _fields(node).values()
    assert type(node)("other", *rest) != node


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_node_is_immutable(node):
    field = next(iter(_fields(node)))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(node, field, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert copy.copy(node) == node
    assert copy.deepcopy(node) == node
    assert pickle.loads(pickle.dumps(node)) == node


def test_nodes_of_different_classes_differ():
    # equal fields, different classes: never equal
    assert Int("q") != Name("q")
    assert Name(Int(1)) != Neg(Int(1))
    assert Pow("f", ()) != Call("f", ())
    assert Int(1) != 1 and Name("q") != "q"
    assert Call("f", ()) != ("f", ())
    assert BinOp("+", Int(1), Int(2)) != ("+", Int(1), Int(2))


def test_node_repr():
    assert repr(parse("poch(-q, 1, n)^2")) == (
        "Pow(base=Call(func='poch', args=(Neg(operand=Name(ident='q')),"
        " Int(value=1), Name(ident='n'))), exponent=Int(value=2))")
    assert repr(parse("a - 2*b")) == (
        "BinOp(op='-', left=Name(ident='a'), right=BinOp(op='*',"
        " left=Int(value=2), right=Name(ident='b')))")
    assert repr(Token("EOF", "", 2, 7)) == "Token(kind='EOF', text='', line=2, col=7)"


def test_reciprocal_of_truncated_term_is_trusted_below_t_minus_2e():
    # at trunc 3 the base is known only as z*q + O(q^3); its reciprocal
    # z^-1*q^-1 * (1 + O(q^2)) is known below q^1, and the true value has
    # -z^-1*q^2 above that
    got = evaluate("(z*q + z*q^4)^(-1)", {}, 3)
    assert got == MultiSeries.term(1, -1, z=-1, trunc=1)
    assert got.first_mismatch(evaluate("z^(-1)*q^(-1)*(1 + q^3)^(-1)", {}, 12)) is None
    # q^-2 * (1 + q + q^2 + ...): the q^-1 term is not yet known at trunc 3
    got = evaluate("(q^2 - q^3)^(-1)", {}, 3)
    assert got.trunc == -1 and got.terms() == [((0, 0, 0), -2, 1)]
    assert got.first_mismatch(evaluate("q^(-2)*(1 - q)^(-1)", {}, 12)) is None
    # the reciprocal of an exact term stays exact
    assert evaluate("(z*q^2 + q - q)^(-1)", {}, None) == MultiSeries.term(1, -2, z=-1)
