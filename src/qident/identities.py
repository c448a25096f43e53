"""Registry of q-series identities with exact coefficient verification.

Each identity states its left and right sides once, as expression-language
text (see ``qident.dsl``); ``build_side`` evaluates that text.  Several
identities also carry enumeration-based builders that recount one side by
summing q^weight * aux^statistic over an exhaustively enumerated family.
``verify`` expands every side and reports the first differing coefficient,
if any.

The enumeration sides' builders, the counting functions p_omega and p_nu
with their series, ``q1_limit_check`` and ``s_sum`` are in
``qident.recount``, which loads on first use; this module serves their
public names.

Registry ids (stable strings): ay1, ay2, ay3, thm21, lemma22, middle,
q1limit, omega, omega1, nu1, nu2, nu3, qbinom_thm.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

from .errors import BadParams, TruncationRequired, UnknownIdentity

# the public names of qident.recount, which this module serves
_RECOUNTS = ("counts", "p_nu", "p_nu_series", "p_omega", "p_omega_series",
             "q1_limit_check", "s_sum")


def __getattr__(name: str):
    if name in _RECOUNTS:
        from . import recount

        return getattr(recount, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_trunc(trunc, what: str) -> int:
    if trunc is None:
        raise TruncationRequired(f"{what} needs a finite truncation order")
    return trunc


def _comb(name: str, *args):
    """The enumeration side ``qident.recount._comb_<name>(*args)``."""
    from . import recount

    return getattr(recount, f"_comb_{name}")(*args)


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
    comb_builders={"b1": partial(_comb, "b1")},
    texts={"lhs": _THM21_LHS_TEXT, "rhs": _NEGPOCH_SQ_TEXT},
))
_register(IdentityCase(
    "lemma22", ("n",), "polynomial-exact",
    comb_builders={"b2": partial(_comb, "b2")},
    texts={"lhs": _THM21_LHS_TEXT, "rhs": _STAIR_TEXT},
))
_register(IdentityCase(
    "middle", ("n",), "polynomial-exact",
    comb_builders={"p_gt": partial(_comb, "p_gt")},
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
    comb_builders={"ds": partial(_comb, "omega1", "DS"),
                   "oe": partial(_comb, "omega1", "OE")},
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
    comb_builders={"o": partial(_comb, "nu3", "O"),
                   "do": partial(_comb, "nu3", "DO")},
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
        from .recount import q1_limit_check

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
