"""A golden corpus of exact texts built around the Gaussian binomial.

A generator seeded with stdlib ``random`` draws about 300 texts with no
truncation order: qbinom powers -2..3 with j both inside and outside
[0, m]; those mixed with Pochhammer chains, aux exponents and negative
powers among them; cancelling pairs such as qbinom(2,1)*qbinom(4,2);
q-polynomial divisors; and sums over t.  ``golden_exact_qbinom.json``
pins each text's terms, or its error class and text.  An entry changes
only with a line in CHANGES.md that names it and says why.

To record the file again from the source under ``src``:

    PYTHONPATH=src python tests/test_golden_exact.py
"""

import json
import random
from pathlib import Path

from qident.dsl import evaluate
from qident.errors import QidentError

_GOLDEN = Path(__file__).with_name("golden_exact_qbinom.json")
SEED, COUNT = 30, 300

# q-polynomial divisors: leads of +-1 and of 2, cancelling and not
_DIVISORS = ("(1+q)", "(1-q)", "(1+q^2)", "(1-q^2)", "(1+q+q^2)", "(-1+q)",
             "(1-q^3)", "(2+q)", "(1+q)^2", "(q+q^3)")
# fixed cancelling pairs: each is a polynomial, or fails to divide exactly
_PAIRS = ("qbinom(2,1)*qbinom(4,2)", "qbinom(4,2)*qbinom(2,1)",
          "qbinom(4,2)*qbinom(4,2)^(-1)", "qbinom(5,2)*(1+q^2)^(-1)",
          "qbinom(6,3)*poch(q,1,3)*poch(q^4,1,3)^(-1)",
          "poch(q,1,6)*poch(q,1,2)^(-1)*poch(q,1,4)^(-1)",
          "qbinom(6,2)*poch(q,1,2)*poch(q,1,4)*poch(q,1,6)^(-1)",
          "qbinom(3,1)*qbinom(6,3)*qbinom(7,3)^(-1)",
          "qbinom(2,1)^2*qbinom(4,2)^(-1)", "qbinom(8,4)*qbinom(8,3)^(-1)")


def _monomial(r: random.Random) -> str:
    c = r.choice(["", "", "-", "2*", "-3*"])
    aux = "".join(f"{v}^({r.randint(-1, 2)})*" for v in "zxy" if r.random() < 0.25)
    return f"{c}{aux}q^({r.randint(-2, 3)})*"


def _qbinom(r: random.Random, m=None, j=None) -> str:
    m = r.randint(0, 9) if m is None else m
    j = r.randint(-1, 10) if j is None else j
    if j != "t" and isinstance(m, int) and r.random() < 0.7:
        j = r.randint(0, m)
    k = r.randint(-2, 3)
    return f"qbinom({m},{j})" + ("" if k == 1 else f"^({k})")


def _poch(r: random.Random) -> str:
    k = r.choice([1, 1, 2, 3, -1, -2])
    aux = "".join(f"*{v}^({r.randint(-1 if r.random() < 0.3 else 0, 2)})"
                  for v in "zxy" if r.random() < 0.3)
    v = r.randint(0, 3) if aux and k == 1 else r.randint(1, 3)
    c = r.choice(["", "-", "2*"])
    return (f"poch({c}q^{v}{aux}, {r.randint(1, 3)}, {r.randint(0, 4)})"
            + ("" if k == 1 else f"^({k})"))


def _factor(r: random.Random) -> str:
    pick = r.random()
    if pick < 0.45:
        return _qbinom(r)
    if pick < 0.8:
        return _poch(r)
    if pick < 0.93:
        return f"{r.choice(_DIVISORS)}^(-{r.randint(1, 2)})"
    return r.choice(["(1+q)^2", "(1-z*q)", "(z+q^2)", "(1+q)"])


def _product(r: random.Random) -> str:
    prefix = _monomial(r) if r.random() < 0.5 else ""
    return prefix + "*".join(_factor(r) for _ in range(r.randint(1, 3)))


def _sum(r: random.Random) -> str:
    lo, hi = r.randint(-1, 1), r.randint(1, 4)
    m = r.choice(["t+2", "4", "2*t+1", "6-t"])
    body = ["q^(binom(t,2))", r.choice(["1", "(-1)^t", "z^t", "2^t"]),
            _qbinom(r, m, "t")]
    if r.random() < 0.6:
        body.append(r.choice([_poch(r), "poch(q,1,t)^(-1)", "poch(q^(t+1),1,2)",
                              "(1+q)^(-1)", _qbinom(r)]))
    return f"sum(t, {lo}, {hi}, {'*'.join(body)})"


def _cancelling(r: random.Random) -> str:
    m = r.randint(1, 9)
    j, k = r.randint(0, m), r.randint(1, 2)
    i = r.randint(0, j)
    return r.choice([
        f"qbinom({m},{j})^{k}*poch(q,1,{j})^{k}*poch(q,1,{m - j})^{k}*poch(q,1,{m})^(-{k})",
        f"poch(q,1,{m})^{k}*qbinom({m},{j})^(-{k})",
        f"qbinom({m},{j})*qbinom({j},{i})*qbinom({m},{i})^(-1)",
        f"qbinom({m},{j})*{r.choice(_DIVISORS)}^(-1)",
        f"{_poch(r)}*qbinom({m},{j})^(-1)*{_qbinom(r)}",
    ])


def texts() -> list:
    """The corpus: the fixed pairs, then distinct drawn texts."""
    r = random.Random(SEED)
    out = dict.fromkeys(_PAIRS)
    while len(out) < COUNT:
        pick = r.random()
        draw = (_qbinom if pick < 0.25 else _cancelling if pick < 0.45
                else _product if pick < 0.8 else _sum)
        out.setdefault(draw(r))
    return list(out)


def record(text: str) -> dict:
    """The text's exact value as sorted terms [z, x, y, e, c], or the class
    and text of what it raised."""
    try:
        value = evaluate(text, {}, None)
    except QidentError as exc:
        return {"text": text, "error": type(exc).__name__, "message": str(exc)}
    assert value.trunc is None, text
    return {"text": text, "terms": sorted([*m, e, c] for m, e, c in value.terms())}


def test_golden_exact_qbinom_corpus():
    pinned = json.loads(_GOLDEN.read_text())["entries"]
    assert [e["text"] for e in pinned] == texts()
    changed = [(e, got) for e in pinned if (got := record(e["text"])) != e]
    assert not changed, changed[:3]


if __name__ == "__main__":
    entries = ",\n".join(json.dumps(record(t)) for t in texts())
    _GOLDEN.write_text(f'{{"seed": {SEED}, "entries": [\n{entries}\n]}}\n')
