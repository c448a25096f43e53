"""Registry of q-series identities with exact coefficient verification.

Each identity states its left and right sides once, as expression-language
text (see ``qident.dsl``); ``build_side`` evaluates that text.  Several
identities also carry enumeration-based builders that recount one side by
summing q^weight * aux^statistic over an exhaustively enumerated family.
``verify`` expands every side and reports the first differing coefficient,
if any.

Registry ids (stable strings): ay1, ay2, ay3, thm21, lemma22, middle,
q1limit, omega, omega1, nu1, nu2, nu3, qbinom_thm.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations
from math import comb
from operator import add
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional

from .errors import BadParams, TruncationRequired, UnknownIdentity

if TYPE_CHECKING:
    from .series import MultiSeries, QSeries

# the largest n whose right side q1_limit_check recounts, in 4^n subsets
PIVOT_MAX_N = 7

# ---------------------------------------------------------------------------
# Elementary closed forms
# ---------------------------------------------------------------------------


def s_sum(n: int, i: int, trunc: Optional[int] = None) -> QSeries:
    """The polynomial sum over s of q^(i*s) * (q;q)_{n+s} / (q^2;q^2)_s.

    This is the ay3 left side with q^s generalised to q^(i*s), evaluated
    exactly as expression-language text: each summand's Pochhammer factors
    run on one kernel window, divisions last, and a remainder, which would
    signal a bug since every summand is a polynomial, raises DivisionInexact.
    """
    from .dsl import evaluate

    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    total = evaluate(
        "sum(s, 0, n, q^(i*s) * poch(q, 1, n+s) * poch(q^2, 2, s)^(-1))",
        {"n": n, "i": i}).qseries()
    return total if trunc is None else total.truncate(trunc)


def q1_limit_check(n: int) -> dict:
    """Integer identity sum_s 2^(n-s)*C(n+s,s) = sum_t C(2n+1,n+1+t) = 4^n.

    For small n the right side is also recounted by enumerating subsets of
    {1..2n+1} with at least n+1 elements, grouped by their (n+1)-th smallest
    element; each group must match the corresponding left-side term.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = sum(2 ** (n - s) * comb(n + s, s) for s in range(n + 1))
    rhs = sum(comb(2 * n + 1, n + 1 + t) for t in range(n + 1))
    power = 4**n
    pivot_ok = None
    if n <= PIVOT_MAX_N:
        counts: Counter = Counter()
        for r in range(n + 1, 2 * n + 2):
            for combo in combinations(range(1, 2 * n + 2), r):
                counts[combo[n]] += 1
        pivot_ok = sum(counts.values()) == rhs and all(
            counts.get(n + 1 + s, 0) == 2 ** (n - s) * comb(n + s, s)
            for s in range(n + 1)
        )
    return {"lhs": lhs, "rhs": rhs, "power": power, "pivot_ok": pivot_ok}


# ---------------------------------------------------------------------------
# Counting oracles
# ---------------------------------------------------------------------------


def _toggle(f, p, sign, up):
    """Add (sign 1) or remove (sign -1) the part p, p >= 0, in place, where
    f[w] counts the partitions of w into the allowed parts: f times
    (1 - q^p)^(-sign) when parts repeat, (1 + q^p)^sign when they are
    distinct.  Both are the step f[w] += sign * f[w - p] for w >= p: in
    increasing w (``up``) it reads the new f[w - p], which divides, else
    the old one, which multiplies.  Part 0 changes nothing."""
    ws = range(p, len(f)) if p else ()
    for w in ws if up else reversed(ws):
        f[w] += sign * f[w - p]


def counts(N: int, distinct: bool = False) -> list:
    """p_omega(n) for n = 0..N, or p_nu(n) when ``distinct``, in one pass
    over the smallest part s with O(N^2) integer additions; entry 0 is no
    value of either function.

    Besides one s, a partition counted at s has parts from A_s = {s, ...,
    2s - 1} and the even parts >= 2s, or, for p_nu, distinct parts from B_s,
    A_s without s.  So with f[w] counting the partitions of w into those
    parts, f shifted by s counts the partitions with smallest part s.  A_s
    is A_(s-1) without s - 1 and with 2s - 1, and B_s is B_(s-1) without s
    and with 2s - 1.  Taking A_0 and B_0 as the even parts, f starts as the
    partitions into even parts, and each s adds one part and removes one
    (``_toggle``); at s = 1, A_0 loses part 0 and B_0 gains part 1 and
    loses it again, which changes nothing.  For p_nu, s = 0 counts too: the
    partitions into distinct even parts, each with its zero part, which is
    where f starts.  Only lists of integers are used: nothing here reads
    the series side.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    f = [1] + [0] * N
    for p in range(2, N + 1, 2):
        _toggle(f, p, 1, not distinct)
    total = [distinct * x for x in f]
    for s in range(1, N + 1):
        _toggle(f, 2 * s - 1, 1, not distinct)
        _toggle(f, s - 1 + distinct, -1, distinct)
        total[s:] = map(add, total[s:], f)
    return total


def p_omega(N: int) -> int:
    """Partitions of N in which every odd part is less than twice the
    smallest part: entry N of ``counts(N)``."""
    return counts(N)[N]


def p_nu(N: int) -> int:
    """Partitions of N with distinct nonnegative parts in which every odd
    part is less than twice the smallest part: entry N of ``counts(N,
    True)``.

    A single part 0 is admissible; a partition carrying it has smallest part
    0, so it may not contain any odd part.  Dropping the zero-part convention
    would undercount by exactly the partitions into distinct even parts.
    """
    return counts(N, True)[N]


# ---------------------------------------------------------------------------
# Enumeration-based side builders
# ---------------------------------------------------------------------------


def _require_trunc(trunc, what: str) -> int:
    if trunc is None:
        raise TruncationRequired(f"{what} needs a finite truncation order")
    return trunc


def _weights_gf(weights) -> MultiSeries:
    """Sum q^weight over an iterable of weights, as a MultiSeries."""
    from .partitions import weight_gf
    from .series import MultiSeries

    return MultiSeries.from_qseries(weight_gf(weights))


def _comb_b1(p, trunc):
    from .partitions import enumerate_domain

    return _weights_gf(e.weight for e in enumerate_domain("B1", n=p["n"]))


def _comb_b2(p, trunc):
    from .partitions import enumerate_domain

    return _weights_gf(t * (t + 1) // 2 + nu.weight
                       for t, nu in enumerate_domain("B2", n=p["n"]))


def _comb_p_gt(p, trunc):
    # recount the staircase side by pushing P_> elements through rho and
    # shifting the run weight back to zero
    from .bijections import rho
    from .partitions import b3_weight, enumerate_domain

    n = p["n"]
    off = n * (n + 1) // 2
    return _weights_gf(b3_weight(n, rho(n, lam)) + off
                       for lam in enumerate_domain("P_gt", n=n))


def _comb_omega1(domain, p, trunc):
    """z^(2k+1) q^weight over the DS or OE elements of every k."""
    from .partitions import enumerate_domain
    from .series import MultiSeries

    T = _require_trunc(trunc, f"{domain} enumeration")
    cap = T - 1
    return MultiSeries.from_terms(
        (((2 * k + 1, 0, 0), elt.weight, 1)
         for k in range((cap + 1) // 2)
         for elt in enumerate_domain(domain, k=k, weight_cap=cap)),
        T,
    )


def _comb_nu3(domain, p, trunc):
    """x^n y^k q^weight over the O or DO elements of every (n, k)."""
    from .partitions import enumerate_domain
    from .series import MultiSeries

    T = _require_trunc(trunc, f"{domain} enumeration")
    cap = T - 1
    terms = []
    n = 0
    while n * n + n <= cap:
        for k in range(cap - n * n - n + 1):
            for pair in enumerate_domain(domain, n=n, k=k, weight_cap=cap):
                terms.append(((0, n, k), pair.weight, 1))
        n += 1
    return MultiSeries.from_terms(terms, T)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class _DataclassFields:
    """The fields of a NamedTuple as ``dataclasses`` describes them, made on
    first use: ``dataclasses.replace`` and ``dataclasses.fields`` keep
    working on the class that holds this as ``__dataclass_fields__`` (the
    benchmark's tracer replaces registry cases that way), and only their
    callers import ``dataclasses``."""

    fields = None

    def __get__(self, obj, cls):
        if self.fields is None:
            import dataclasses

            self.fields = dataclasses.make_dataclass(
                cls.__name__, cls._fields).__dataclass_fields__
        return self.fields


class IdentityCase(NamedTuple):
    """A named identity: parameter schema, the text of each closed side, and
    builders for its enumeration sides.

    Truncated-series texts sum over n up to the bound ``N``, which is bound
    to the truncation order; every summand past it has q-valuation at least
    that order.
    """

    id: str
    params: tuple
    kind: str  # "polynomial-exact" | "truncated-series" | "integer"
    texts: Mapping[str, str]
    comb_builders: Mapping[str, Callable] = MappingProxyType({})

    __dataclass_fields__ = _DataclassFields()


_THM21_LHS_TEXT = "sum(s, 0, n, q^s * poch(-q^(s+1), 1, n-s) * qbinom(n+s, s))"
_STAIR_TEXT = "sum(t, 0, n, q^(binom(t+1, 2)) * qbinom(2*n+1, n+1+t))"
_NEGPOCH_SQ_TEXT = "poch(-q, 1, n)^2"

REGISTRY: dict = {}


def _register(case: IdentityCase) -> None:
    REGISTRY[case.id] = case


_register(IdentityCase(
    "ay1", (), "truncated-series",
    texts={
        "lhs": "sum(n, 1, N, q^n * poch(z*q^n, 1, n+1)^(-1)"
               " * poch(z*q^(2*n+2), 2, inf)^(-1))",
        "rhs": "sum(n, 0, N, z^n * q^(2*n^2+2*n+1) * poch(q, 2, n+1)^(-1)"
               " * poch(z*q, 2, n+1)^(-1))",
    },
))
_register(IdentityCase(
    "ay2", (), "truncated-series",
    texts={
        "lhs": "sum(n, 0, N, q^n * poch(-z*q^(n+1), 1, n)"
               " * poch(-z*q^(2*n+2), 2, inf))",
        "rhs": "sum(n, 0, N, z^n * q^(n^2+n) * poch(q, 2, n+1)^(-1))",
    },
))
_register(IdentityCase(
    "ay3", ("n",), "polynomial-exact",
    texts={
        "lhs": "sum(s, 0, n, q^s * poch(q, 1, n+s) * poch(q^2, 2, s)^(-1))",
        "rhs": "poch(q^2, 2, n)",
    },
))
_register(IdentityCase(
    "thm21", ("n",), "polynomial-exact",
    comb_builders={"b1": _comb_b1},
    texts={"lhs": _THM21_LHS_TEXT, "rhs": _NEGPOCH_SQ_TEXT},
))
_register(IdentityCase(
    "lemma22", ("n",), "polynomial-exact",
    comb_builders={"b2": _comb_b2},
    texts={"lhs": _THM21_LHS_TEXT, "rhs": _STAIR_TEXT},
))
_register(IdentityCase(
    "middle", ("n",), "polynomial-exact",
    comb_builders={"p_gt": _comb_p_gt},
    texts={"lhs": _STAIR_TEXT, "rhs": _NEGPOCH_SQ_TEXT},
))
_register(IdentityCase(
    "q1limit", ("n",), "integer",
    texts={
        "lhs": "sum(s, 0, n, 2^(n-s) * binom(n+s, s))",
        "rhs": "sum(t, 0, n, binom(2*n+1, n+1+t))",
    },
))
_register(IdentityCase(
    "omega", (), "truncated-series",
    texts={
        "lhs": "sum(n, 0, N, z^n * q^(2*n^2+2*n) * poch(q, 2, n+1)^(-1)"
               " * poch(z*q, 2, n+1)^(-1))",
        "rhs": "sum(n, 0, N, z^n * q^n * poch(q, 2, n+1)^(-1))",
    },
))
_register(IdentityCase(
    "omega1", (), "truncated-series",
    comb_builders={"ds": partial(_comb_omega1, "DS"),
                   "oe": partial(_comb_omega1, "OE")},
    texts={
        "lhs": "sum(n, 0, N, z^(2*n+1) * q^((2*n+1)^2) * poch(q^2, 4, n+1)^(-1)"
               " * poch(z^2*q^2, 4, n+1)^(-1))",
        "rhs": "sum(n, 0, N, z^(2*n+1) * q^(2*n+1) * poch(q^2, 4, n+1)^(-1))",
    },
))
_register(IdentityCase(
    "nu1", (), "truncated-series",
    texts={
        "lhs": "sum(n, 0, N, q^(n^2+n) * poch(-z*q, 2, n+1)^(-1))",
        "rhs": "sum(n, 0, N, poch(q*z^(-1), 2, n) * (-z*q)^n)",
    },
))
_register(IdentityCase(
    "nu2", (), "truncated-series",
    texts={
        "lhs": "sum(n, 0, N, z^n * q^(n^2+n) * poch(-q, 2, n+1)^(-1))",
        "rhs": "sum(n, 0, N, poch(z*q, 2, n) * (-q)^n)",
    },
))
_register(IdentityCase(
    "nu3", (), "truncated-series",
    comb_builders={"o": partial(_comb_nu3, "O"), "do": partial(_comb_nu3, "DO")},
    texts={
        "lhs": "sum(n, 0, N, q^(n^2+n) * x^n * poch(y*q, 2, n+1)^(-1))",
        "rhs": "sum(n, 0, N, poch(-x*q*y^(-1), 2, n) * (y*q)^n)",
    },
))
_register(IdentityCase(
    "qbinom_thm", ("n",), "polynomial-exact",
    texts={
        "lhs": "poch(z, 1, n)",
        "rhs": "sum(t, 0, n, qbinom(n, t) * (-1)^t * z^t * q^(binom(t, 2)))",
    },
))

IDENTITY_IDS = tuple(REGISTRY)


def get_identity(identity_id: str) -> IdentityCase:
    try:
        return REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentity(
            f"unknown identity {identity_id!r}; choose from {IDENTITY_IDS}"
        ) from None


def _check_params(case: IdentityCase, params: Optional[dict]) -> dict:
    given = {k: v for k, v in (params or {}).items() if v is not None}
    missing = [p for p in case.params if p not in given]
    extra = [k for k in given if k not in case.params]
    if missing:
        raise BadParams(f"identity {case.id} requires parameter(s) {missing}")
    if extra:
        raise BadParams(f"identity {case.id} does not take parameter(s) {extra}")
    for k, v in given.items():
        if not isinstance(v, int) or v < 0:
            raise BadParams(f"parameter {k} must be a nonnegative integer")
    return given


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class Mismatch(NamedTuple):
    monomial: tuple
    exponent: int
    lhs: int
    rhs: int
    sides: tuple = ("lhs", "rhs")

    def monomial_str(self) -> str:
        from .series import mono_str

        return mono_str(self.monomial)


class VerifyReport(NamedTuple):
    """The verdict of ``verify``.  ``complete`` is true when the comparison
    covered every coefficient of every side: exact sides compared in full,
    or below a ``trunc`` above their degrees."""

    id: str
    params: dict
    trunc: Optional[int]
    equal: bool
    complete: bool
    first_mismatch: Optional[Mismatch] = None

    def to_json_dict(self) -> dict:
        mm = None
        if self.first_mismatch is not None:
            mm = {
                "monomial": self.first_mismatch.monomial_str(),
                "exponent": self.first_mismatch.exponent,
                "lhs": self.first_mismatch.lhs,
                "rhs": self.first_mismatch.rhs,
            }
        return {
            "id": self.id,
            "params": self.params,
            "trunc": self.trunc,
            "equal": self.equal,
            "complete": self.complete,
            "first_mismatch": mm,
        }


def build_side(identity_id: str, side: str, params: Optional[dict] = None,
               trunc: Optional[int] = 200, comb_cap: Optional[int] = None):
    """Expand one side of a registered identity.

    ``side`` is "lhs", "rhs", a named enumeration side, or "combinatorial"
    when the identity has exactly one enumeration side.  A closed side is
    its registry text, evaluated below ``trunc`` for a truncated series,
    exactly for a polynomial and as an int for an integer identity.
    Enumeration sides enumerate every element of weight below
    min(trunc, comb_cap + 1), which becomes the truncation order of the
    result.
    """
    from .dsl import evaluate

    case = get_identity(identity_id)
    p = _check_params(case, params)
    if side in ("lhs", "rhs"):
        text = case.texts[side]
        if case.kind == "truncated-series":
            _require_trunc(trunc, f"{identity_id} {side}")
            return evaluate(text, {"N": trunc}, trunc)
        value = evaluate(text, p, None)
        return value.qseries().coeff(0) if case.kind == "integer" else value
    names = tuple(case.comb_builders)
    if side == "combinatorial":
        if len(names) != 1:
            raise BadParams(
                f"identity {identity_id} has enumeration sides {names or '()'};"
                " name one explicitly"
            )
        side = names[0]
    if side in case.comb_builders:
        ct = trunc
        if comb_cap is not None:
            ct = comb_cap + 1 if ct is None else min(ct, comb_cap + 1)
        return case.comb_builders[side](p, ct)
    raise BadParams(
        f"identity {identity_id} has no side {side!r}"
        f" (available: lhs, rhs{', ' + ', '.join(names) if names else ''})"
    )


def verify(identity_id: str, params: Optional[dict] = None,
           trunc: Optional[int] = 200, comb_cap: Optional[int] = None,
           include_comb: bool = True) -> VerifyReport:
    """Expand every side of the identity and compare coefficient-exactly.

    Closed-form sides are compared below ``trunc`` (in full when it is
    None); enumeration sides are compared below min(trunc, comb_cap + 1).
    The report carries the first mismatching coefficient, ordered by
    q-exponent then monomial, and whether every coefficient was compared.
    """
    from .series import TRIVIAL_MONO

    case = get_identity(identity_id)
    p = _check_params(case, params)
    names = ("lhs", "rhs") + (tuple(case.comb_builders) if include_comb else ())
    sides = [(name, build_side(identity_id, name, p, trunc, comb_cap))
             for name in names]
    if case.kind == "integer":
        (_, lhs), (_, rhs) = sides
        res = q1_limit_check(p["n"])
        equal = lhs == rhs == res["power"] and res["pivot_ok"] in (None, True)
        mm = None if equal else Mismatch(TRIVIAL_MONO, 0, lhs, rhs)
        return VerifyReport(identity_id, p, trunc, equal, True, mm)
    complete = all(
        side.trunc is None
        and (trunc is None or all(e < trunc for _, e, _ in side.terms()))
        for _, side in sides
    )
    base_name, base = sides[0]
    for name, other in sides[1:]:
        found = base.first_mismatch(other, trunc)
        if found is not None:
            mono, e, lc, rc = found
            mm = Mismatch(mono, e, lc, rc, (base_name, name))
            return VerifyReport(identity_id, p, trunc, False, complete, mm)
    return VerifyReport(identity_id, p, trunc, True, complete, None)


# ---------------------------------------------------------------------------
# Counting series
# ---------------------------------------------------------------------------


def p_omega_series(trunc: int) -> QSeries:
    """Single-variable counting series from the ay1 left side at z = 1."""
    return build_side("ay1", "lhs", None, trunc).subst_aux(z=1).qseries()


def p_nu_series(trunc: int) -> QSeries:
    """Single-variable counting series from the ay2 left side at z = 1."""
    return build_side("ay2", "lhs", None, trunc).subst_aux(z=1).qseries()
