"""qident's truncated evaluation against the independent reference of
``reference.py``.

Hypothesis draws sums, nested ones with index-dependent limits among
them, of products of monomials with Laurent and negative aux exponents,
finite and infinite Pochhammer powers, Gaussian binomial powers,
binomials, reciprocals of non-unit terms and inner sums.  Each factor
strategy returns its text and a function of the sum indices and the
reference's order that builds its value on the reference.
"""

import re

from hypothesis import assume, given, settings, strategies as st

import reference as ref
from qident.dsl import evaluate
from qident.errors import NonUnitConstantTerm

# the reference works this many q-orders above the truncation order drawn,
# far above any Laurent shift the texts make
MARGIN = 40

# the base of a reciprocal, as ``_reciprocal`` writes it
_RECIPROCAL = re.compile(r"\+ -?\d+\*q\^")


def _index(outer, lo, hi):
    """An index expression over the sum index ``outer`` running lo..hi:
    one that falls as it rises, or the index; (text, value at env)."""
    return st.sampled_from([
        (f"({hi}-{outer})", lambda env: hi - env[outer]),
        (outer, lambda env: env[outer]),
    ])


@st.composite
def _monomial(draw, var):
    c = draw(st.sampled_from([1, -1, 2, -3, 0]))
    z0, z1, x = draw(st.integers(-2, 2)), draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
    q0, q1 = draw(st.integers(-3, 3)), draw(st.integers(0, 4))
    text = f"{c}*z^({z0}+{z1}*{var})*x^({x})*q^({q0}+{q1}*{var})"
    return text, lambda env, order: ref.term(c, (z0 + z1 * env[var], x), q0 + q1 * env[var])


@st.composite
def _signed_power(draw, var):
    # (s*z^a*q^j)^n, as in (-z*q)^n
    s, a, j = draw(st.sampled_from([1, -1])), draw(st.integers(-1, 1)), draw(st.integers(0, 2))
    text = f"({s}*z^({a})*q^{j})^{var}"
    return text, lambda env, order: ref.term(s ** env[var], (a * env[var], 0), j * env[var])


@st.composite
def _poch(draw, var, lo, hi, moving=False):
    # a base of one to three terms, each later one with the first's aux
    # monomial or none, so that the reference's rows stay few; an inverse
    # needs q-valuation >= 1 and no negative aux exponent; a ``moving`` poch
    # is a chain (a monomial of q-valuation >= 1) whose count rises or
    # falls with the index, so a sum carries it from summand to summand
    k = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
    inf = not moving and draw(st.booleans())
    low = 1 if k < 0 or inf or moving else -1
    aux = tuple(draw(st.integers(0 if k < 0 else -1, 1)) for _ in range(2))
    more = draw(st.lists(st.sampled_from([aux, (0, 0)]),
                         max_size=0 if moving else 2))
    base = [(draw(st.sampled_from([1, -1, 2])), a, draw(st.integers(low, 3)))
            for a in [aux] + more]
    step = draw(st.integers(1, 3))
    if inf:
        count_text, count = "inf", lambda env: None
    else:
        fixed = st.sampled_from([("0", lambda env: 0), ("2", lambda env: 2)])
        count_text, count = draw(_index(var, lo, hi) if moving
                                 else st.one_of(fixed, _index(var, lo, hi)))
    a = " + ".join(f"{c}*z^({z})*x^({x})*q^({v})" for c, (z, x), v in base)
    text = f"poch({a}, {step}, {count_text})^({k})"

    def value(env, order):
        p = ref.poch(base, step, count(env), order)
        return ref.power(p, k, order)
    return text, value


@st.composite
def _qbinom(draw, var, lo, hi):
    # qbinom(a + b*i, c + d*i)^k for an index i; c + d*i may leave 0..m
    # under a power k >= 0, where the factor is the exact zero
    k = draw(st.integers(-2, 3))
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    if k < 0:
        c, d = draw(st.integers(0, a)), draw(st.integers(0, b))
    else:
        c, d = draw(st.integers(-1, a + 2)), draw(st.integers(0, b + 1))
    i_text, i = draw(_index(var, lo, hi))
    text = f"qbinom({a}+{b}*{i_text}, {c}+{d}*{i_text})^({k})"

    def value(env, order):
        return ref.power(ref.qbinom(a + b * i(env), c + d * i(env)), k, order)
    return text, value


@st.composite
def _binomial(draw):
    # (1 + c*z^a*q^j)^k; a Laurent or negative aux term only under k > 0
    k = draw(st.sampled_from([1, 2, 3, -1, -2]))
    j = draw(st.integers(1, 3)) if k < 0 else draw(st.integers(-2, 3))
    a = draw(st.integers(0 if k < 0 else -1, 1))
    c = draw(st.sampled_from([1, -1, 3]))
    text = f"(1 + {c}*z^({a})*q^({j}))^({k})"

    def value(env, order):
        return ref.power(ref.add(ref.ONE, ref.term(c, (a, 0), j)), k, order)
    return text, value


@st.composite
def _reciprocal(draw):
    # (s*z^a*q^e + c*q^w)^(-k), e >= 1: qident inverts it only where the
    # second term lies at or above the order it is evaluated at, as the
    # Laurent reciprocal of the first term trusted below that order - 2e
    s, a, e = draw(st.sampled_from([1, -1])), draw(st.integers(-1, 1)), draw(st.integers(1, 3))
    c, w, k = draw(st.sampled_from([1, -2])), e + draw(st.integers(1, 6)), draw(st.sampled_from([1, 2]))
    text = f"({s}*z^({a})*q^{e} + {c}*q^{w})^(-{k})"

    def value(env, order):
        return ref.power(ref.add(ref.term(s, (a, 0), e), ref.term(c, (0, 0), w)), -k, order)
    return text, value


def _product(factors):
    text = " * ".join(t for t, _ in factors)

    def value(env, order):
        out = ref.ONE
        for _, f in factors:
            out = ref.mul(out, f(env, order))
        return out
    return text, value


def _sum(var, lo, hi, body):
    """sum(var, lo, hi, body) for lo and hi functions of the outer
    indices, given with their texts."""
    (lo_text, lo_at), (hi_text, hi_at), (text, summand) = lo, hi, body

    def value(env, order):
        out = ref.ZERO
        for i in range(lo_at(env), hi_at(env) + 1):
            out = ref.add(out, summand({**env, var: i}, order))
        return out
    return f"sum({var}, {lo_text}, {hi_text}, {text})", value


def _factors(var, lo, hi):
    return st.one_of(_monomial(var), _signed_power(var), _poch(var, lo, hi),
                     _qbinom(var, lo, hi), _binomial(), _reciprocal())


@st.composite
def _inner_sum(draw, outer, lo, hi):
    # sum(m, l, h, body), l and h 0, 1, the outer index or one more
    limits = st.sampled_from([("0", lambda env: 0), ("1", lambda env: 1),
                              (outer, lambda env: env[outer]),
                              (f"{outer}+1", lambda env: env[outer] + 1)])
    m_lo, m_hi = draw(limits), draw(limits)
    # the inner index runs at most over 0..hi + 1
    body = draw(st.lists(st.one_of(_factors("m", 0, hi + 1), _factors(outer, lo, hi)),
                         min_size=1, max_size=2))
    return _sum("m", m_lo, m_hi, _product(body))


@st.composite
def _text(draw):
    # sampled, longest first, where st.integers would favour the empty sum
    lo, hi = draw(st.integers(0, 2)), draw(st.sampled_from([4, 3, 2, 1, 0, -1]))
    hi += lo
    inner = _inner_sum("n", lo, hi)
    kind = draw(st.integers(0, 5))
    if kind < 2:  # Pochhammer powers carried from summand to summand
        body = _product(draw(st.lists(_monomial("n"), max_size=1))
                        + draw(st.lists(_poch("n", lo, hi, True), min_size=1, max_size=3)))
    elif kind == 2:
        # a monomial times factors of no known valuation: as the monomial's
        # valuation rises, the summands are trusted to different orders
        body = _product([draw(_monomial("n"))] + draw(st.lists(
            st.one_of(_reciprocal(), _binomial()), min_size=1, max_size=2)))
    elif kind == 3:  # a sum of sums
        body = draw(inner)
    else:
        body = _product(draw(st.lists(st.one_of(_factors("n", lo, hi), inner),
                                      min_size=1, max_size=4)))
    const = lambda x: (str(x), lambda env: x)
    return _sum("n", const(lo), const(hi), body)


# T is sampled, where st.integers would favour T = 1 (a third of the draws)
@given(case=_text(), T=st.sampled_from(range(1, 26)))
@settings(max_examples=400, deadline=None)
def test_truncated_evaluation_matches_an_independent_reference(case, T):
    text, reference = case
    try:
        got = evaluate(text, {}, T)
    except NonUnitConstantTerm:
        # only where the second term of a reciprocal's base lay inside the
        # window it was evaluated in
        assume(not _RECIPROCAL.search(text))
        raise
    want = reference({}, T + MARGIN)
    have = {}
    for (z, x, y), e, c in got.terms():
        assert y == 0, text
        have[(z, x), e] = c
    if got.trunc is None:
        assert want[1] is None and have == ref.terms(want), text
        return
    # no coefficient at or above the truncation order is kept, the
    # reference covers every one trusted, and they agree
    assert all(e < got.trunc for _, e in have), text
    assert want[1] is None or got.trunc <= want[1], text
    assert have == {k: c for k, c in ref.terms(want).items() if k[1] < got.trunc}, text
