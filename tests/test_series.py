import pytest
from hypothesis import assume, given, settings, strategies as st

from qident.errors import (
    DivisionInexact,
    NonConvergent,
    NonUnitConstantTerm,
    TruncationRequired,
)
from qident.dsl import evaluate
from qident.exact import _divide
from qident.kernel import TRIVIAL_MONO, _Rows, _Total
from qident.series import (
    MultiSeries,
    QSeries,
    poch_finite,
    poch_infinite,
    qbinom,
    qq_factorial,
)
from qident.syntax import int_str

ONE = QSeries.one()
Q = QSeries.q()


def same_below_common_trunc(a, b):
    """Coefficient agreement below the minimum of the two truncation orders."""
    return a.first_mismatch(b) is None


# ---------------------------------------------------------------------------
# add / mul
# ---------------------------------------------------------------------------


def test_add_cancellation():
    assert (ONE - Q) + Q == ONE


def test_add_zero_identity():
    s = QSeries({0: 3, 5: -2}, trunc=12)
    assert QSeries.zero() + s == s
    assert s + QSeries.zero() == s


def test_add_trunc_propagation():
    a = QSeries({0: 1, 1: -1}, trunc=10)
    b = QSeries({2: 1}, trunc=5)
    out = a + b
    assert out.coeffs == {0: 1, 1: -1, 2: 1}
    assert out.trunc == 5


def test_mul_frozen():
    assert (ONE - Q) * (ONE + Q) == ONE - QSeries.q(2)
    assert ((ONE - Q) * (ONE - QSeries.q(2))).coeffs == {0: 1, 1: -1, 2: -1, 3: 1}


def test_mul_trunc_shifts_with_min_exp():
    # multiplying by an exact monomial q^5 raises the trusted bound by 5
    a = QSeries({0: 1}, trunc=10)
    out = a * QSeries.q(5)
    assert out.trunc == 15
    assert out.coeffs == {5: 1}


def test_mul_exact_zero_annihilates():
    a = QSeries({0: 1, 3: 4}, trunc=9)
    out = a * QSeries.zero()
    assert out.is_zero() and out.trunc is None


def test_aux_monomial_multiplication():
    z = MultiSeries.term(z=1)
    one = MultiSeries.one()
    mq = MultiSeries.q()
    out = (z * (one - mq)) * (z * (one + mq))
    assert out.entries == {(2, 0, 0): ONE - QSeries.q(2)}


def test_coeff_guard_beyond_trunc():
    s = QSeries({0: 1}, trunc=5)
    assert s.coeff(4) == 0
    with pytest.raises(TruncationRequired):
        s.coeff(5)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_invert_geometric():
    inv = (ONE - Q).invert_unit(8)
    assert inv.coeffs == {e: 1 for e in range(8)}
    assert inv.trunc == 8


def test_invert_one_is_exact():
    assert ONE.invert_unit() == ONE


def test_invert_self_check_q_q2_pochhammer():
    p = poch_finite(Q, 2, 2)  # (1-q)(1-q^3)
    prod = p * p.invert_unit(50)
    assert prod.first_mismatch(ONE) is None
    p1 = poch_finite(Q, 2, 1)
    assert p1.invert_unit(20).coeffs == {e: 1 for e in range(20)}


def test_invert_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        (QSeries.term(2)).invert_unit(5)
    with pytest.raises(NonUnitConstantTerm):
        (Q + ONE.shift(-1)).invert_unit(5)  # has q^-1 term
    with pytest.raises(TruncationRequired):
        (ONE - Q).invert_unit()  # infinite expansion with no truncation


def test_multiseries_invert_unit():
    d = poch_finite(MultiSeries.term(1, qexp=1, z=1), 2, 3)  # (zq;q^2)_3
    inv = d.invert_unit(40)
    assert (inv * d).first_mismatch(MultiSeries.one()) is None
    with pytest.raises(NonUnitConstantTerm):
        (MultiSeries.one() - MultiSeries.term(z=1)).invert_unit(10)


@given(
    tail=st.dictionaries(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=-5, max_value=5),
        max_size=5,
    ),
    trunc=st.integers(min_value=2, max_value=30),
)
def test_invert_property(tail, trunc):
    a = QSeries({0: 1, **tail})
    assert (a * a.invert_unit(trunc)).first_mismatch(ONE) is None


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_exact_div_frozen():
    num = ONE - QSeries.q(2)
    assert num.exact_div(ONE + Q) == ONE - Q


def test_exact_div_rejects_remainder():
    with pytest.raises(DivisionInexact):
        (ONE - QSeries.q(2)).exact_div(ONE - QSeries.q(3))
    with pytest.raises(DivisionInexact):  # 0/0, whatever the class
        MultiSeries.zero().exact_div(QSeries.zero())


def test_exact_div_non_unit_lead():
    six = QSeries({0: 6, 1: 3})
    assert six.exact_div(QSeries({0: 2, 1: 1})) == 3
    with pytest.raises(DivisionInexact, match="not divisible by 2"):
        QSeries({0: 1, 1: 2}).exact_div(QSeries({0: 2, 1: 1}))
    with pytest.raises(DivisionInexact, match="span"):
        QSeries({0: 2, 1: 1}).exact_div(QSeries({0: 4, 1: 4, 2: 1}))
    # a coefficient past str()'s 4 300 digits is named in full
    huge = 2**20000 + 1
    with pytest.raises(DivisionInexact) as info:
        QSeries({0: huge, 1: huge}).exact_div(QSeries({0: 2, 1: 1}))
    assert str(info.value) == f"coefficient {int_str(huge)} not divisible by 2"
    # the division step itself: 6 + 3q divided by 2 + q in place
    acc = _Rows.load({TRIVIAL_MONO: {0: 6, 1: 3}}, 0, 2)
    _divide(acc, ((TRIVIAL_MONO, 1, -1),), 2, 0, 0)
    assert acc.rows == {TRIVIAL_MONO: [3, 0]}


def test_kernel_division_refuses_a_term_below_q1():
    # dividing by 1 - z would hand each row on to the next z-degree
    # without end; the factor is refused before any row is touched
    acc = _Rows.load({TRIVIAL_MONO: {0: 1}}, 0, 5)
    with pytest.raises(ValueError, match=r"a term at q\^0"):
        acc.div((((1, 0, 0), 0, 1),))
    assert acc.rows == {TRIVIAL_MONO: [1, 0, 0, 0, 0]}


def _count_divisions(monkeypatch) -> list:
    calls = []
    div = _Rows.div
    monkeypatch.setattr(_Rows, "div", lambda acc, b: calls.append(b) or div(acc, b))
    return calls


@pytest.mark.parametrize("trunc", [None, 30])
@pytest.mark.parametrize("k,j,c", [(-2, 1, 1), (-5, 2, -3), (-7, 3, 1), (-4, 1, 2)])
def test_fall_in_the_window_divides_one_term_at_a_time(monkeypatch, trunc, k, j, c):
    # a net fall (1 - c q^j)^k, k <= -2, whose |k| terms lie in the window
    # is |k| divisions by 1 - c q^j, each one accumulate pass, not one by
    # the |k|-term power; exact and truncated alike
    calls = _count_divisions(monkeypatch)
    text = f"(1-5*q)*(1-({c})*q^{j})^{-k}*poch(({c})*q^{j},1,1)^({k})"
    out = evaluate(text, {}, trunc)
    assert out.trunc == trunc and same_below_common_trunc(out, 1 - 5 * Q)
    assert calls == [(((0, 0, 0), j, c),)] * -k


@pytest.mark.parametrize("text", ["poch(q^3,1,1)^(-7)", "poch(z*q,1,1)^(-3)"])
def test_other_falls_divide_once_by_the_power(monkeypatch, text):
    # past the window, or with z, the fall is one division by its power
    calls = _count_divisions(monkeypatch)
    evaluate(text, {}, 20)
    assert len(calls) == 1 and len(calls[0]) > 1


def test_exact_div_divides_each_row():
    d = QSeries({-1: 2, 0: 1})  # 2q^-1 + 1: a non-unit lead, valuation -1
    rows = [((0, 0, 0), QSeries({0: 1, 1: -1})), ((1, 0, 0), QSeries({2: 3})),
            ((0, 2, -1), QSeries({-3: 1, 0: 5}))]
    num = MultiSeries({m: s * d for m, s in rows})
    assert num.exact_div(d) == MultiSeries(dict(rows))
    # one row with a remainder spoils the whole division
    with pytest.raises(DivisionInexact):
        (num + MultiSeries.term(1, 0, z=1)).exact_div(d)


def test_total_window_follows_its_addends():
    z = (1, 0, 0)
    acc = _Rows.load({TRIVIAL_MONO: {0: 1}, z: {2: 3}}, 0, 5)
    total = _Total()
    total.add_rows(acc, 5, 2, z, 0)  # 2z + 6z^2 q^2, trusted below q^5
    assert (total.dense.lo, total.dense.size) == (0, 5)
    total.add_rows(acc, 3, -1, TRIVIAL_MONO, -2)  # starts below the window
    assert (total.dense.lo, total.dense.size) == (-2, 5)
    total.add({z: {1: 5, 2: 7}}, 2)  # cuts it
    assert (total.dense.lo, total.dense.size) == (-2, 4)
    assert total.value() == ({TRIVIAL_MONO: {-2: -1}, z: {0: 2 - 3, 1: 5}}, 2)
    # an exact accumulator goes to the sparse rows, and an addend trusted
    # below the window's start drops it
    exact = _Total()
    exact.add_rows(acc, None, 1, TRIVIAL_MONO, 100)
    assert exact.dense is None
    exact.add_rows(acc, 4, 1, TRIVIAL_MONO, 0)
    exact.add({z: {-2: 1}}, -1)
    assert exact.dense is None
    assert exact.value() == ({z: {-2: 1}}, -1)


def test_exact_div_roundtrip_with_mul():
    a = qq_factorial(6)
    b = poch_finite(QSeries.term(-1, 1), 1, 4)
    assert (a * b).exact_div(b) == a


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def test_poch_finite_frozen():
    assert poch_finite(Q, 1, 0) == ONE
    assert poch_finite(Q, 1, 2).coeffs == {0: 1, 1: -1, 2: -1, 3: 1}
    assert poch_finite(QSeries.term(-1, 1), 1, 1) == ONE + Q


@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_poch_finite_recurrence(step, n):
    a = QSeries.term(-1, 1)
    lhs = poch_finite(a, step, n + 1)
    rhs = poch_finite(a, step, n) * (ONE - a.shift(step * n))
    assert lhs == rhs


def test_poch_infinite_all_factors_trivial():
    out = poch_infinite(QSeries.q(17), 1, 17)
    assert out.coeffs == {0: 1} and out.trunc == 17


def test_poch_infinite_euler_low_order():
    out = poch_infinite(Q, 1, 4)
    assert out.coeffs == {0: 1, 1: -1, 2: -1}
    assert out.trunc == 4


def test_poch_infinite_pentagonal_oracle():
    # independent oracle: sum of (-1)^k q^(k(3k-1)/2) over all integers k
    T = 60
    expected = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 < T:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < T:
                expected[e] = (-1) ** k
        k += 1
    out = poch_infinite(Q, 1, T)
    assert out.coeffs == {e: c for e, c in expected.items() if c}


def test_poch_infinite_self_inverse():
    a = MultiSeries.term(1, qexp=2, z=1)
    p = poch_infinite(a, 2, 35)
    assert (p * p.invert_unit(35)).first_mismatch(MultiSeries.one()) is None


def test_poch_infinite_of_truncated_zero():
    # a = 0 + O(q^5): every factor 1 - a*q^j is known only below q^5
    out = poch_infinite(MultiSeries.zero(5), 1, 10)
    assert out == MultiSeries.one(5)
    assert poch_infinite(QSeries.zero(5), 2, 3) == QSeries.one(3)


def test_poch_infinite_nonconvergent():
    with pytest.raises(NonConvergent):
        poch_infinite(ONE, 1, 10)
    with pytest.raises(NonConvergent):
        poch_infinite(MultiSeries.term(z=1), 2, 10)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------


def test_qbinom_frozen():
    assert qbinom(2, 1) == ONE + Q
    assert qbinom(5, 0) == ONE
    assert qbinom(3, 1).coeffs == {0: 1, 1: 1, 2: 1}
    assert qbinom(4, 2).coeffs == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}


def test_qbinom_out_of_range_is_zero():
    assert qbinom(3, -1).is_zero()
    assert qbinom(3, 4).is_zero()


@pytest.mark.parametrize("m", range(11))
def test_qbinom_symmetry_and_q1(m):
    from math import comb

    for k in range(m + 1):
        b = qbinom(m, k)
        assert b == qbinom(m, m - k)
        assert b.trunc is None and sum(b.coeffs.values()) == comb(m, k)
        assert all(c > 0 for c in b.coeffs.values())
        if k not in (0, m):
            assert b.degree() == k * (m - k)


def test_qbinom_matches_q_pascal_recurrence():
    # [m, k] = [m-1, k-1] + q^k [m-1, k], built from plain dicts with no
    # qident arithmetic
    ref = {(0, 0): {0: 1}}
    for m in range(1, 31):
        for k in range(m + 1):
            row = dict(ref.get((m - 1, k - 1), {}))
            for e, c in ref.get((m - 1, k), {}).items():
                row[e + k] = row.get(e + k, 0) + c
            ref[m, k] = row
    for (m, k), want in ref.items():
        got = qbinom(m, k)
        assert got.trunc is None and got.coeffs == want, (m, k)


@pytest.mark.parametrize("build,message", [
    (lambda: poch_finite(Q, 0, 3), "step must be a positive integer"),
    (lambda: poch_finite(Q, 1, -1), "count must be nonnegative"),
    (lambda: poch_infinite(Q, 0, 5), "step must be a positive integer"),
    (lambda: qbinom(-1, 0), "m must be nonnegative"),
    (lambda: qq_factorial(-1), "m must be nonnegative"),
])
def test_kernel_constructors_refuse_bad_arguments(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert info.type is ValueError and str(info.value) == message


@pytest.mark.parametrize("N", range(13))
def test_q_binomial_theorem(N):
    lhs = poch_finite(MultiSeries.term(z=1), 1, N)
    rhs = MultiSeries.zero()
    for t in range(N + 1):
        coeff = qbinom(N, t).shift(t * (t - 1) // 2).scale((-1) ** t)
        rhs = rhs + MultiSeries.from_qseries(coeff, (t, 0, 0))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# ring laws (hypothesis)
# ---------------------------------------------------------------------------

qseries_st = st.builds(
    QSeries,
    st.dictionaries(
        st.integers(min_value=-8, max_value=20),
        st.integers(min_value=-9, max_value=9),
        max_size=6,
    ),
    st.one_of(st.none(), st.integers(min_value=3, max_value=25)),
)


# one-row and multi-row MultiSeries, mixed freely with QSeries operands
series_st = st.one_of(qseries_st, st.builds(
    MultiSeries,
    st.dictionaries(st.sampled_from([(0, 0, 0), (1, 0, 0), (-1, 2, 0)]),
                    qseries_st, min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(min_value=3, max_value=25)),
))


def assert_views_agree(v):
    """v rebuilt from its entries view equals it; each entry is its row by
    ``series``, with v's truncation order; and the views of v as
    MultiSeries, QSeries and int, where they exist, equal it and hash as it
    does."""
    assert MultiSeries(v.entries, v.trunc) == v
    for m, row in v.entries.items():
        assert isinstance(row, QSeries) and row == v.series(m)
        assert row.trunc == v.trunc
    alike = [MultiSeries(v.entries, v.trunc)]
    if set(v.monomials()) <= {(0, 0, 0)}:
        alike.append(v.qseries())
        if v.trunc is None and set(v.qseries().coeffs) <= {0}:
            alike.append(v.qseries().coeffs.get(0, 0))
    for w in alike:
        assert w == v and v == w and hash(w) == hash(v)


@given(a=series_st, b=series_st, c=series_st)
@settings(max_examples=120)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert same_below_common_trunc((a * b) * c, a * (b * c))
    assert same_below_common_trunc((a + b) + c, a + (b + c))
    assert same_below_common_trunc(a * (b + c), a * b + a * c)
    for v in (a, b, a * b, a + b):
        assert_views_agree(v)


@given(a=series_st)
@settings(max_examples=60)
def test_additive_inverse(a):
    assert (a - a).first_mismatch(QSeries.zero()) is None
    assert QSeries.zero().first_mismatch(a - a) is None
    assert_views_agree(a - a)
    assert_views_agree(a.neg())


@given(
    c1=st.dictionaries(st.integers(-5, 12), st.integers(-9, 9), max_size=5),
    c2=st.dictionaries(st.integers(-5, 12), st.integers(-9, 9), max_size=5),
)
@settings(max_examples=80)
def test_mul_against_dense_convolution(c1, c2):
    # independent dense-list oracle for exact Laurent polynomial products
    a, b = QSeries(c1), QSeries(c2)
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
        return
    lo1, lo2 = min(a.coeffs), min(b.coeffs)
    d1 = [a.coeffs.get(lo1 + i, 0) for i in range(a.degree() - lo1 + 1)]
    d2 = [b.coeffs.get(lo2 + i, 0) for i in range(b.degree() - lo2 + 1)]
    dense = [0] * (len(d1) + len(d2) - 1)
    for i, v1 in enumerate(d1):
        for j, v2 in enumerate(d2):
            dense[i + j] += v1 * v2
    expected = {
        lo1 + lo2 + i: v for i, v in enumerate(dense) if v
    }
    assert (a * b).coeffs == expected


# ---------------------------------------------------------------------------
# factor kernel: Pochhammer products as chains of single factors
# ---------------------------------------------------------------------------


@st.composite
def poch_bases(draw, inverted):
    """(c, aux exponents, v) of a base c*z^a*x^b*y^d*q^v; negative aux
    exponents only where the product is not inverted."""
    lowest = 0 if inverted else -1
    aux = tuple(draw(st.integers(lowest, 2)) for _ in range(3))
    return draw(st.sampled_from([1, -1, 2, -2, 3])), aux, draw(st.integers(1, 4))


@st.composite
def poch_terms(draw):
    """(base series, convergent): a base of one to three terms with Laurent
    and aux exponents, or none, truncated or exact; convergent when every
    term has q-exponent >= 1, as an infinite product needs."""
    terms = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-1, 2)] * 3), st.integers(-3, 4),
        st.sampled_from([1, -1, 2, -3])), max_size=3))
    trunc = draw(st.one_of(st.none(), st.integers(-4, 8)))
    a = MultiSeries.from_terms(terms, trunc)
    return a, a.is_zero() or a.min_exp >= 1


@given(base=st.one_of(poch_bases(inverted=False).map(
           lambda b: (MultiSeries.term(b[0], b[2], *b[1]), True)), poch_terms()),
       step=st.integers(1, 4), count=st.one_of(st.none(), st.integers(0, 6)),
       T=st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_poch_is_the_product_of_its_factors(factor_product, base, step, count,
                                          T):
    a, convergent = base
    assume(convergent or count is not None)
    want = factor_product(a, step, count, T)
    if count is None:
        # poch_infinite keeps the order T even when no factor is below it
        got, want = poch_infinite(a, step, T), want.truncate(T)
    else:
        got = poch_finite(a, step, count, trunc=T)
    assert got == want


@given(base=poch_bases(inverted=True), step=st.integers(1, 4),
       count=st.one_of(st.none(), st.integers(0, 6)), T=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_invert_unit_of_poch(factor_product, base, step, count, T):
    c, aux, v = base
    p = factor_product(MultiSeries.term(c, v, *aux), step, count, T)
    inv = p.invert_unit(T)
    assert inv.trunc == T
    assert (p * inv).first_mismatch(MultiSeries.one()) is None


def test_poch_of_laurent_polynomial_is_exact():
    # Laurent bases against explicit factor-by-factor products; a factor
    # of negative valuation lowers the trusted order of a truncated product
    a = MultiSeries.term(1, -2) + MultiSeries.term(3, 1, z=1)
    want = MultiSeries.one()
    for j in (0, 1, 2):
        want = want * (MultiSeries.one() - a.shift(j))
    assert poch_finite(a, 1, 3) == want
    b = MultiSeries.term(2, -3) + MultiSeries.term(1, 2, y=1)
    want = (MultiSeries.one() - b) * (MultiSeries.one() - b.shift(2))
    assert poch_finite(b, 2, 2) == want
    assert poch_finite(b, 2, 2, trunc=3) == MultiSeries(want.entries, 2)
    # the factor 1 - q^(-2)*q^2 is an exact zero
    assert poch_finite(MultiSeries.term(1, -2), 1, 3) == MultiSeries.zero()
    # a base with no terms trusted below q^-2 makes factors 1 + O(q^-2) and
    # 1 + O(q^-1), whose 1 is not trusted: their product is O(q^-3)
    empty = QSeries.zero(-2)
    want = (QSeries.one() - empty) * (QSeries.one() - empty.shift(1))
    assert want == QSeries.zero(-3)
    assert poch_finite(empty, 1, 2) == want


# ---------------------------------------------------------------------------
# equality and hashing
# ---------------------------------------------------------------------------

_coeff_maps = st.dictionaries(st.integers(0, 2), st.integers(-1, 1), max_size=2)
_series_values = st.one_of(
    st.integers(-2, 2),
    st.builds(QSeries, _coeff_maps, st.sampled_from([None, 1, 3])),
    st.builds(lambda m, c, t: MultiSeries({m: QSeries(c)}, t),
              st.sampled_from([(0, 0, 0), (1, 0, 0)]), _coeff_maps,
              st.sampled_from([None, 1, 3])),
)


@given(a=_series_values, b=_series_values)
@settings(max_examples=300)
def test_equal_values_hash_alike(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


def test_int_equality_respects_truncation():
    assert QSeries({0: 1}) == 1 and hash(QSeries({0: 1})) == hash(1)
    assert QSeries({0: 1}, 5) != 1
    assert MultiSeries.one() == 1 and hash(MultiSeries.one()) == hash(1)
    assert MultiSeries.one(5) != 1
    assert MultiSeries.zero() == 0 and MultiSeries.zero(4) != 0
    assert MultiSeries.one() == QSeries.one() == MultiSeries.one()


# ---------------------------------------------------------------------------
# truncation soundness: a truncated computation trusts only exact
# coefficients
# ---------------------------------------------------------------------------

_aux_mono = st.tuples(st.integers(-1, 2), st.integers(-1, 2), st.integers(-1, 2))
exact_multiseries_st = st.dictionaries(
    _aux_mono,
    st.dictionaries(st.integers(-3, 10), st.integers(-5, 5), min_size=1,
                    max_size=4),
    max_size=3,
).map(lambda d: MultiSeries({m: QSeries(c) for m, c in d.items()}))
truncs_st = st.one_of(st.none(), st.integers(-2, 14))


def assert_trusted_exact(truncated, exact):
    """Every coefficient of ``truncated`` below its truncation order, zeros
    included, equals the same coefficient of the exact ``exact``."""
    assert exact.trunc is None
    t = truncated.trunc
    for mono in set(truncated.entries) | set(exact.entries):
        got = truncated.entries.get(mono, QSeries.zero()).coeffs
        want = exact.entries.get(mono, QSeries.zero()).coeffs
        for e in set(got) | set(want):
            if t is None or e < t:
                assert got.get(e, 0) == want.get(e, 0), (mono, e)


@given(a=exact_multiseries_st, b=exact_multiseries_st, ta=truncs_st, tb=truncs_st)
@settings(max_examples=200)
def test_mul_truncation_is_sound(a, b, ta, tb):
    product = a.truncate(ta).mul(b.truncate(tb))
    assert_trusted_exact(product, a.mul(b))
    if ta is None and tb is None:
        assert product.trunc is None


@given(a=exact_multiseries_st, t=truncs_st, k=st.integers(0, 4))
@settings(max_examples=150)
def test_power_truncation_is_sound(a, t, k):
    assert_trusted_exact(a.truncate(t).power(k), a.power(k))


_subst_value = st.sampled_from([1, -1, "z", "x", "y", (-1, "z"), (-1, "x"), (-1, "y")])


@given(a=exact_multiseries_st, t=truncs_st,
       subs=st.dictionaries(st.sampled_from(["z", "x", "y"]), _subst_value))
@settings(max_examples=150)
def test_subst_aux_truncation_is_sound(a, t, subs):
    assert_trusted_exact(a.truncate(t).subst_aux(**subs), a.subst_aux(**subs))
