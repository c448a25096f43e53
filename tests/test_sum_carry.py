"""A sum's Pochhammer powers carried on one accumulator from summand to
summand, checked against a reference that evaluates every summand on its
own and adds them up."""

import tracemalloc

import pytest

from qident.dsl import Call, eval_int, evaluate, parse, unparse
from qident.errors import DslError
from qident.identities import REGISTRY
from qident.kernel import _Rows
from qident.series import MultiSeries


def per_summand(text, bindings, T):
    """The sum in text, each summand evaluated apart by ``evaluate``."""
    tree = parse(text)
    assert isinstance(tree, Call) and tree.func == "sum"
    var, lo, hi, body = tree.args
    total = MultiSeries.zero()
    for n in range(eval_int(lo, bindings), eval_int(hi, bindings) + 1):
        total = total.add(evaluate(unparse(body), {**bindings, var.ident: n}, T))
    return total


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the accumulator's loads, shrinks, and multiplications and
    divisions by a factor."""
    counts = {"load": 0, "shrink": 0, "mul": 0, "div": 0}

    def counted(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(_Rows, "load", staticmethod(counted("load", _Rows.load)))
    for name in ("shrink", "mul", "div"):
        monkeypatch.setattr(_Rows, name, counted(name, getattr(_Rows, name)))
    return counts


_SERIES_TEXTS = [(iid, side, text)
                 for iid, case in REGISTRY.items()
                 if case.kind == "truncated-series"
                 for side, text in case.texts.items()]


@pytest.mark.parametrize("T", [1, 2, 45, 101])
@pytest.mark.parametrize("iid,side,text", _SERIES_TEXTS,
                         ids=[f"{i}-{s}" for i, s, _ in _SERIES_TEXTS])
def test_registry_sums_match_per_summand_reference(iid, side, text, T):
    got = evaluate(text, {"N": T}, T)
    assert got == per_summand(text, {"N": T}, T)
    assert got.trunc == T


# each window rule, hit on purpose: (text, the kernel call it must make)
_WINDOW_CASES = [
    # the valuation q^n rises, so the window shrinks at every index, and
    # factors with j past the new window are forgotten
    ("sum(n, 1, 12, q^n * poch(z*q^n, 1, n+1)^(-1)"
     " * poch(z*q^(2*n+2), 2, inf)^(-1))", "shrink"),
    ("sum(n, 0, 9, z^n * q^(n^2) * poch(q, 2, n+1)^(-1) * poch(z*q, 1, n))",
     "shrink"),
    # the valuation falls, so the window grows and the rows are reloaded
    ("sum(n, 0, 9, q^(9-n) * poch(z*q, 1, n)^(-1) * poch(-q, 2, inf))",
     "load"),
    # a factor with a negative aux exponent loses power: reloaded, since
    # div does not take it
    ("sum(n, 0, 7, q * poch(q*z^(-1), 1, 7-n) * poch(x*q, 2, n)^(-1))",
     "load"),
    ("sum(n, 0, 6, q * poch(-q^2*y^(-1), 1, 3)^(1 + (-1)^n))", "load"),
]


@pytest.mark.parametrize("T", [1, 3, 17])
@pytest.mark.parametrize("text,call", _WINDOW_CASES)
def test_window_rules_match_per_summand_reference(kernel_calls, text, call, T):
    got = evaluate(text, {}, T)
    calls = dict(kernel_calls)
    assert got == per_summand(text, {}, T)
    if T == 17:
        # more than the first summand's load, or at least one cut
        assert calls[call] > (1 if call == "load" else 0), calls


def test_power_that_falls_and_rises_again():
    # the net power of each factor goes up and down with the index
    text = "sum(n, 0, 8, q^2 * poch(z*q, 1, 4)^((-1)^n) * poch(q, 1, 8-n)^(-1))"
    for T in (1, 4, 23):
        assert evaluate(text, {}, T) == per_summand(text, {}, T)


def test_other_summand_shapes_take_the_general_path():
    texts = [
        # c = 0 at n = 3
        "sum(n, 0, 6, (n-3) * q * poch(z*q, 1, n)^(-1))",
        # a base of q-valuation < 1 from n = 3 on: not a factor chain
        "sum(n, 0, 5, q^n * poch(z*q^(3-n), 1, 2) * poch(q, 1, n)^(-1))",
        # a factor that is not a Pochhammer power
        "sum(n, 0, 6, q^n * (1 + z*q^2)^n * poch(z*q, 2, n)^(-1))",
        # summands whose valuation passes the truncation order
        "sum(n, 0, 9, q^(2*n) * poch(z*q, 1, n+1)^(-1))",
        # a body that is not a product, and a sum inside a sum
        "sum(n, 0, 5, q^n * poch(q, 1, n)^(-1) + z^n * poch(z*q, 2, n))",
        "sum(m, 0, 4, z^m * sum(n, 0, 5, q^(n+m) * poch(z*q, 1, n)^(-1)))",
        "sum(n, 0, 5, poch(z*q^n, 1, n)^(-2) * poch(q, 1, n))",
    ]
    for text in texts:
        for T in (1, 2, 9, 20):
            assert evaluate(text, {}, T) == per_summand(text, {}, T), (text, T)


def test_exact_sum_is_unchanged():
    text = "sum(s, 0, 4, q^s * poch(q, 1, 4+s) * poch(q^2, 2, s)^(-1))"
    got = evaluate(text, {}, None)
    assert got.trunc is None
    assert got == per_summand(text, {}, None)


@pytest.mark.parametrize("body,message", [
    ("q^n * poch(z*q, 1, 3-n)^(-1)", "poch count must be nonnegative or inf"),
    ("q^n * poch(z*q, 3-n, 2)^(-1)", "poch step must be a positive integer"),
    ("q * poch(z*q, 1, n)^(-1) * poch(q, 1, 2-n)", "poch count must be"),
])
def test_malformed_poch_at_one_index_raises_as_before(body, message):
    text = f"sum(n, 0, 5, {body})"
    with pytest.raises(DslError, match=message) as got:
        evaluate(text, {}, 12)
    with pytest.raises(DslError) as want:
        per_summand(text, {}, 12)
    assert str(got.value) == str(want.value)


def test_ay1_lhs_is_linear_in_the_truncation_order(kernel_calls):
    T = 60
    evaluate(REGISTRY["ay1"].texts["lhs"], {"N": T}, T)
    assert kernel_calls["mul"] + kernel_calls["div"] < 4 * T, kernel_calls


# values frozen from the evaluator that kept every summand until one final
# gather: (text, truncation order, trunc of the value, its sorted terms)
_PINNED_SUMS = [
    # all summands exact: the sum stays exact at a truncation order
    ("sum(n,0,3,q^n)", 10, None,
     [((0, 0, 0), 0, 1), ((0, 0, 0), 1, 1), ((0, 0, 0), 2, 1), ((0, 0, 0), 3, 1)]),
    # but a qbinom at a truncation order is a product on the kernel, trusted
    # below that order (exact in the last row)
    ("sum(t,0,3,qbinom(3,t))", 5, 5,
     [((0, 0, 0), 0, 4), ((0, 0, 0), 1, 2), ((0, 0, 0), 2, 2)]),
    # n = 2 is the exact poch(z, 1, 2); n = 0, 1 end on the kernel
    ("sum(n, 0, 2, q^n * poch(z*q^(2-n), 1, n))", 4, 4,
     [((0, 0, 0), 0, 1), ((0, 0, 0), 1, 1), ((0, 0, 0), 2, 1),
      ((1, 0, 0), 2, -2), ((1, 0, 0), 3, -1), ((2, 0, 0), 3, 1)]),
    # n = 2 is trusted only below q^1, after two summands trusted below q^5
    ("sum(n, 0, 2, q^n * poch(z*q, 1, 2)^(-1)"
     " * (q^2 * poch(q^5, 1, inf))^(-binom(n, 2)))", 5, 1,
     [((0, 0, 0), 0, 2)]),
    # the same through the sparse rows, whose terms above q^1 are dropped
    ("sum(n, 0, 2, z^n*q^n + q^n * poch(z*q, 1, 2)^(-1)"
     " * (q^2 * poch(q^5, 1, inf))^(-binom(n, 2)))", 5, 1,
     [((0, 0, 0), 0, 3)]),
    # Laurent summands: each starts below the one before
    ("sum(n, 0, 3, q^(-n) * poch(z*q, 1, n+1)^(-2))", 3, 3,
     [((0, 0, 0), -3, 1), ((0, 0, 0), -2, 1), ((0, 0, 0), -1, 1),
      ((0, 0, 0), 0, 1), ((1, 0, 0), -2, 2), ((1, 0, 0), -1, 4),
      ((1, 0, 0), 0, 6), ((1, 0, 0), 1, 8), ((2, 0, 0), -1, 3),
      ((2, 0, 0), 0, 7), ((2, 0, 0), 1, 14), ((2, 0, 0), 2, 22),
      ((3, 0, 0), 0, 4), ((3, 0, 0), 1, 10), ((3, 0, 0), 2, 22),
      ((4, 0, 0), 1, 5), ((4, 0, 0), 2, 13), ((5, 0, 0), 2, 6)]),
    # the valuation rises, so the carry's window shrinks at every index
    ("sum(n, 0, 3, q^(2*n) * poch(z*q, 1, 3)^(-1))", 5, 5,
     [((0, 0, 0), 0, 1), ((0, 0, 0), 2, 1), ((0, 0, 0), 4, 1),
      ((1, 0, 0), 1, 1), ((1, 0, 0), 2, 1), ((1, 0, 0), 3, 2),
      ((1, 0, 0), 4, 1), ((2, 0, 0), 2, 1), ((2, 0, 0), 3, 1),
      ((2, 0, 0), 4, 3), ((3, 0, 0), 3, 1), ((3, 0, 0), 4, 1),
      ((4, 0, 0), 4, 1)]),
    ("sum(m, 0, 2, z^m * sum(n, 0, 2, q^(n+m) * poch(z*q, 1, n)^(-1)))", 4, 4,
     [((0, 0, 0), 0, 1), ((0, 0, 0), 1, 1), ((0, 0, 0), 2, 1),
      ((1, 0, 0), 1, 1), ((1, 0, 0), 2, 2), ((1, 0, 0), 3, 2),
      ((2, 0, 0), 2, 1), ((2, 0, 0), 3, 3)]),
    # (1-z)(1-zq)(1-zq^2) + (1-z)(1-zq) + (1-z) + 1, expanded by hand; the
    # power of the factor 1 - z falls at n = 3, which div does not take
    ("sum(n,0,3,poch(z,1,3-n))", 3, 3,
     [((0, 0, 0), 0, 4), ((1, 0, 0), 0, -3), ((1, 0, 0), 1, -2),
      ((1, 0, 0), 2, -1), ((2, 0, 0), 1, 2), ((2, 0, 0), 2, 1)]),
    ("sum(t,0,3,qbinom(3,t))", None, None,
     [((0, 0, 0), 0, 4), ((0, 0, 0), 1, 2), ((0, 0, 0), 2, 2)]),
]


@pytest.mark.parametrize("text,T,trunc,terms", _PINNED_SUMS)
def test_sum_values_are_pinned(text, T, trunc, terms):
    got = evaluate(text, {}, T)
    assert got.trunc == trunc
    assert sorted(got.terms()) == terms
    assert got == per_summand(text, {}, T)


def test_ay1_lhs_peaks_near_its_result_size():
    # the summands go into one dense total as they are made, so the peak is
    # the result plus one summand's window, not every summand at once
    text = REGISTRY["ay1"].texts["lhs"]
    evaluate(text, {"N": 5}, 5)  # imports and first-use set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = evaluate(text, {"N": 300}, 300)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.trunc == 300
    assert peak - before <= 2 * (retained - before), (peak, retained, before)
