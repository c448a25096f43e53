"""Correctness checks for one operation's output.

``expect(op)`` computes, before any timing, what a correct run of the
operation must print, from ``oracles.py`` or from a property the method
must have.  ``check(op, returncode, stdout)`` then classifies the run:

- ``ok``: exit code 0 and every check holds;
- ``wrong``: the program gave a verdict or a value that is false (a
  flipped verdict, a wrong coefficient, a wrong family size);
- ``error``: no verdict at all (a crash, a usage error, unreadable output).

Both ``wrong`` and ``error`` count as failed operations.
"""

from __future__ import annotations

import json

import oracles
from workloads import SERIES_IDS

# Polynomial-exact texts: the reference expansion of each.  The three texts
# equal to (-q;q)_n^2 take the value 4^n at q = 1; the others vanish there
# (at z = 1 as well for the q-binomial theorem) once n >= 1.
_EXACT = {
    "thm21_lhs": oracles.thm21_lhs,
    "neg_q_poch_sq": oracles.neg_q_poch_sq,
    "staircase_sum": oracles.staircase_sum,
    "ay3_lhs": oracles.ay3_lhs,
    "ay3_rhs": oracles.ay3_rhs,
    "qbinom_thm_lhs": oracles.qbinom_thm_lhs,
    "qbinom_thm_rhs": oracles.qbinom_thm_rhs,
}
_FOUR_TO_THE_N = ("thm21_lhs", "neg_q_poch_sq", "staircase_sum")


def _sweep_sizes(op: dict) -> tuple:
    name = op["name"]
    if name in ("phi", "rho", "tau"):
        return oracles.size_4n(op["n"]), oracles.size_4n(op["n"])
    if name == "psi":
        return oracles.size_psi_side(op["n"]), oracles.size_psi_side(op["n"])
    if name == "durfee_split":
        return oracles.size_durfee_sweep(op["cap"])
    return oracles.size_nu3_sweep(op["max_nk"], op["cap"])


def expect(op: dict):
    """Reference data for the operation's check (None where the check is a
    property of the output alone)."""
    kind = op["kind"]
    if kind == "eval_exact":
        n = op["n"]
        terms = _EXACT[op["oracle"]](n)
        if isinstance(terms, list):
            terms = oracles.as_bivariate(terms)
        at_one = 4 ** n if op["oracle"] in _FOUR_TO_THE_N else int(n == 0)
        return {"terms": terms, "at_one": at_one}
    if kind == "bijection":
        return _sweep_sizes(op)
    if kind == "table":
        m = op["max_n"]
        return oracles.p_omega_table(m), oracles.p_nu_table(m)
    return None


def _parse_monomial(text: str) -> int:
    """z-exponent of a monomial printed as '1', 'z' or 'z^k'."""
    if text == "1":
        return 0
    if text == "z":
        return 1
    if text.startswith("z^"):
        return int(text[2:])
    raise ValueError(f"unexpected monomial {text!r}")


def _check_verify(op, doc) -> bool:
    return (doc.get("id") == op["id"] and doc.get("trunc") == op["trunc"]
            and doc.get("equal") is True and doc.get("first_mismatch") is None)


def _check_eval_pair(op, doc) -> bool:
    return doc.get("equal") is True and doc.get("trunc") == op["trunc"]


def _check_eval_exact(op, doc, ref) -> bool:
    trunc = doc.get("trunc")
    degree = max((e for _, e in ref["terms"]), default=0)
    if trunc is not None and trunc <= degree:
        return False
    got = {}
    for term in doc["terms"]:
        key = (_parse_monomial(term["monomial"]), term["exponent"])
        if key in got or term["coeff"] == 0:
            return False
        got[key] = term["coeff"]
    return got == ref["terms"] and sum(got.values()) == ref["at_one"]


def _check_bijection(op, doc, ref) -> bool:
    return (doc.get("name") == op["name"] and doc.get("pass") is True
            and (doc.get("domain_size"), doc.get("codomain_size")) == tuple(ref)
            and doc.get("roundtrip_failures") == 0
            and doc.get("weight_violations") == 0
            and doc.get("membership_failures") == 0)


def _check_table(op, doc, ref) -> bool:
    p_omega, p_nu = ref
    rows = doc.get("rows", [])
    if doc.get("pass") is not True or [r["n"] for r in rows] != list(range(1, op["max_n"] + 1)):
        return False
    return all(
        r["p_omega"] == r["series_omega"] == p_omega[r["n"]]
        and r["p_nu"] == r["series_nu"] == p_nu[r["n"]]
        and r["agree"] is True
        for r in rows
    )


def check(op: dict, returncode: int, stdout: str, ref=None) -> str:
    """Classify one run of ``op`` as 'ok', 'wrong' or 'error'."""
    if returncode not in (0, 1):
        return "error"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "error"
    kind = op["kind"]
    try:
        if kind == "verify":
            good = _check_verify(op, doc)
        elif kind == "eval_pair":
            good = _check_eval_pair(op, doc)
        elif kind == "eval_exact":
            good = _check_eval_exact(op, doc, ref)
        elif kind == "bijection":
            good = _check_bijection(op, doc, ref)
        else:
            good = _check_table(op, doc, ref)
    except (KeyError, TypeError, ValueError, AttributeError):
        return "error"
    # exit code 1 is the program's "verified false": on these inputs, where
    # every identity and bijection holds, that verdict is wrong
    return "ok" if good and returncode == 0 else "wrong"


def check_trace(op: dict, report: dict) -> bool:
    """Checks that only the traced run can make, from what it saw inside
    the program: each truncated-series side holds a trusted nonzero
    coefficient below the requested order, so an "equal" verdict was not
    vacuous; and every family drained to its end has the size the
    oracles give."""
    if op["kind"] == "eval_pair" or (op["kind"] == "verify" and op["id"] in SERIES_IDS):
        lows = report["side_lows"]
        if len(lows) < 2 or any(low is None or low >= op["trunc"] for low in lows):
            return False
    for dom in report["domains"]:
        if dom["drained"] and dom["count"] != oracles.domain_size(
                dom["name"], dom["n"], dom["k"], dom["cap"]):
            return False
    return True
