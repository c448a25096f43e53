"""How expressions and series are printed, loaded on first use: an
evaluation prints only the terms of its result, so no launch of the
command line compiles this module.

``unparse`` renders an AST of ``qident.syntax`` as text that parses back
to it; ``syntax.unparse`` and ``dsl.unparse`` call it.  ``node_repr`` is
the repr of an AST node or token, and ``series_repr`` that of every
``qident.series`` value, built on ``_row_repr``.
"""

from __future__ import annotations

from typing import Optional

from .errors import DslError
from .syntax import BinOp, Call, Expr, Int, Name, Neg, Pow, int_str


def _row_repr(row: dict, trunc: Optional[int]) -> str:
    """A series row {q-exponent: coefficient}, trusted below trunc, e.g.
    <1 - 3*q^2 + O(q^5)>."""
    parts = []
    for e, c in sorted(row.items()):
        mag = "" if abs(c) == 1 and e != 0 else int_str(abs(c))
        pow_ = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
        star = "*" if mag and pow_ else ""
        parts.append(("- " if c < 0 else "+ ") + mag + star + pow_)
    body = " ".join(parts).lstrip("+ ") or "0"
    tail = "" if trunc is None else f" + O(q^{trunc})"
    return f"<{body}{tail}>"


def series_repr(s) -> str:
    """A QSeries as its row, e.g. <1 - q + O(q^3)>; any other series as
    MultiSeries(1*<...> + z*<...> [trunc t]), by monomial."""
    from .series import QSeries, mono_str

    if isinstance(s, QSeries):
        return _row_repr(s.coeffs, s.trunc)
    body = " + ".join(f"{mono_str(m)}*{_row_repr(s._rows[m], s.trunc)}"
                      for m in sorted(s._rows)) or "0"
    tail = "" if s.trunc is None else f" [trunc {s.trunc}]"
    return f"MultiSeries({body}{tail})"


def node_repr(node) -> str:
    """An AST node or token as Class(field=value, ...)."""
    return f"{type(node).__qualname__}(" + ", ".join(
        f"{f}={getattr(node, f)!r}" for f in node.__slots__) + ")"


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Int, Name, Call)):
        return _LEVEL_ATOM
    if isinstance(e, Pow):
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    return _LEVEL_MUL if e.op == "*" else _LEVEL_ADD


def _wrap(e: Expr, minimum: int) -> str:
    s = unparse(e)
    return f"({s})" if _level(e) < minimum else s


def unparse(e: Expr) -> str:
    """Render an AST as source text that reparses to an identical AST."""
    if isinstance(e, Int):
        return int_str(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _LEVEL_UNARY)
    if isinstance(e, BinOp):
        if e.op == "*":
            return f"{_wrap(e.left, _LEVEL_MUL)} * {_wrap(e.right, _LEVEL_UNARY)}"
        return f"{_wrap(e.left, _LEVEL_ADD)} {e.op} {_wrap(e.right, _LEVEL_MUL)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _LEVEL_ATOM)}^{_wrap(e.exponent, _LEVEL_POW)}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(unparse(a) for a in e.args)})"
    raise DslError(f"cannot unparse {e!r}")
