"""The evaluator's integer context (``eval_int``) and every size limit but
MAX_POWER_BITS (in ``qident.syntax``, which derives its literal limit from
it), with the refusals that enforce them.

Refused with DslError are an integer power or a ``binom`` whose result
could pass MAX_POWER_BITS bits, a power of a series whose largest
coefficient could pass it, a sum over more than MAX_SUM_TERMS indices, and
a ``qbinom`` or a power whose degree would pass MAX_EXACT_DEGREE (in q, z,
x or y for an exact polynomial, in z, x or y for a truncated series), and
an exact ``poch`` whose count alone could; ``qident.exact`` refuses an
exact product of too high a degree by the same limit.  The factor kernel
checks here each factor's power, and ``qident.exact`` each exact division
by a q-polynomial of lowest coefficient +-1.  The check on a power of a
series that is no such factor, ``_power_check``, runs only before the
products it guards, so it is in ``qident.series_ops`` with them.
"""

from __future__ import annotations

from math import comb, inf, log2

from .errors import DslError, NonIntegerExponent, UnboundVariable
from .syntax import MAX_POWER_BITS, BinOp, Call, Expr, Int, Name, Neg, Pow, int_str

RESERVED = {"q", "z", "x", "y", "inf"}

# the most indices one sum may run over: far above any registry sum, whose
# range is its truncation order, and refused before the first summand, so a
# huge range fails at once instead of walking summands one by one
MAX_SUM_TERMS = 1 << 16

# the largest degree, in q or in any of z, x, y, that the power of an exact
# polynomial may expand to: 16 times the largest registry power at n = 500
# ((-q;q)_500^2, degree 250 500); refused before the power is expanded
MAX_EXACT_DEGREE = 1 << 22


def _bits(k: int, s: int) -> float:
    """k * log2(s) for k >= 0 and s >= 1, also for a k past a float's range."""
    return 0.0 if s == 1 else k * log2(s) if k.bit_length() < 1000 else inf


def _int_power(base: int, exp: int) -> int:
    """base ** exp for exp >= 0, refused when the result would pass
    MAX_POWER_BITS bits."""
    if abs(base) > 1 and _bits(exp, abs(base)) > MAX_POWER_BITS:
        raise DslError(f"integer power {int_str(base)}^{int_str(exp)} exceeds"
                       f" the {MAX_POWER_BITS}-bit limit")
    return base**exp


def eval_int(e: Expr, bindings: dict) -> int:
    """Evaluate an expression in integer context."""
    if isinstance(e, Int):
        return e.value
    if isinstance(e, Name):
        if e.ident in RESERVED:
            raise NonIntegerExponent(
                f"{e.ident!r} is series-valued and cannot be used as an integer")
        if e.ident not in bindings:
            raise UnboundVariable(f"unbound variable {e.ident!r}")
        return bindings[e.ident]
    if isinstance(e, Neg):
        return -eval_int(e.operand, bindings)
    if isinstance(e, BinOp):
        l, r = eval_int(e.left, bindings), eval_int(e.right, bindings)
        return l + r if e.op == "+" else l - r if e.op == "-" else l * r
    if isinstance(e, Pow):
        base, exp = eval_int(e.base, bindings), eval_int(e.exponent, bindings)
        if exp < 0:
            raise NonIntegerExponent("negative exponent in integer context")
        return _int_power(base, exp)
    if isinstance(e, Call):
        if e.func == "binom":
            if len(e.args) != 2:
                raise DslError("binom takes exactly 2 arguments")
            m, k = eval_int(e.args[0], bindings), eval_int(e.args[1], bindings)
            if not 0 <= k <= m:
                return 0
            j = min(k, m - k)
            if j and _bits(j, m) > MAX_POWER_BITS:  # binom(m, k) < m^j
                raise DslError(f"binom({int_str(m)}, {int_str(k)}) could pass"
                               f" the {MAX_POWER_BITS}-bit limit")
            return comb(m, j)
        raise NonIntegerExponent(
            f"call to {e.func!r} is series-valued and cannot be used as an integer")
    raise DslError(f"cannot evaluate {e!r} as an integer")


def _refuse_bits(k: int, bits: float) -> None:
    """Refuse a power k of a series whose coefficients could have ``bits`` bits."""
    if bits > MAX_POWER_BITS:
        raise DslError(f"power {int_str(k)} of a series with coefficients of up to"
                       f" {bits:.0f} bits exceeds the {MAX_POWER_BITS}-bit limit")


def _check_power(a: tuple, k: int, size: int) -> None:
    """Refuse (1 - a)^k below q^size, as a power of a series whose
    coefficients could pass MAX_POWER_BITS bits: for |k| > 1 and a one
    term c*m*q^j by the bound of ``series_ops._power_check`` for 1 - a,
    min(|k|, size - 1) * log2(|k*c|), and for k < 0 also by
    ``_inverse_bits``, with j the least q-exponent of a's terms and s the
    sum of their |c|."""
    n, bits = abs(k), 0.0
    if n > 1 and len(a) == 1:
        ((_, _, c),) = a
        bits = min(n, size - 1) * log2(max(n * abs(c), 1))
    if k < 0:
        j = min((e for _, e, c in a if c), default=0)
        if j > 0:  # else the kernel refuses a
            s = sum(abs(c) for _, e, c in a if e < size)
            bits = max(bits, _inverse_bits((size - 1) // j, s, n))
    _refuse_bits(k, bits)


def _inverse_bits(i: int, s: int, n: int) -> float:
    """i log2(s) + min(i, n - 1) log2(n + i), n >= 1: at least the bits of
    C(n + i - 1, i) s^i, since C(n + i - 1, i) <= (n + i)^min(i, n - 1).

    That bounds each coefficient of (1 - a)^(-n) below q^((i + 1) * j),
    where a's terms lie at q^j and above, j >= 1, and their |c| sum to s,
    when a is one term c*q^j, whose power has C(n + r - 1, r) c^r at
    q^(r*j), or when n = 1: each coefficient of 1/(1 - a) at q^w is at
    most s^floor(w/j), by induction on w.  So a factor with |c| = 1 is
    never refused at n = 1.
    """
    return i * log2(max(s, 1)) + min(i, n - 1) * log2(n + i)


def _poch_args(e: Call, bindings: dict, exact: bool, k: int = 1) -> tuple:
    """Checked (step, count) of a poch call, count None for inf.  When
    ``exact``, inf is refused, and so, for a power k != 0, is a count whose
    exponent steps step*i, i < count, sum past MAX_EXACT_DEGREE."""
    if len(e.args) != 3:
        raise DslError("poch takes exactly 3 arguments: poch(a, step, count)")
    step = eval_int(e.args[1], bindings)
    if step <= 0:
        raise DslError("poch step must be a positive integer")
    count_arg = e.args[2]
    if isinstance(count_arg, Name) and count_arg.ident == "inf":
        if exact:
            raise DslError("poch(..., inf) needs a finite truncation order")
        return step, None
    count = eval_int(count_arg, bindings)
    if count < 0:
        raise DslError("poch count must be nonnegative or inf")
    if exact and k and step * count * (count - 1) // 2 > MAX_EXACT_DEGREE:
        raise DslError(f"exact poch of {int_str(count)} factors could pass the"
                       f" {MAX_EXACT_DEGREE}-degree limit")
    return step, count


def _qbinom_args(e: Call, bindings: dict) -> tuple:
    """Checked (m, k) of a qbinom call, refused when its degree k(m - k)
    would pass MAX_EXACT_DEGREE."""
    if len(e.args) != 2:
        raise DslError("qbinom takes exactly 2 arguments")
    m = eval_int(e.args[0], bindings)
    if m < 0:
        raise DslError("qbinom needs m >= 0")
    k = eval_int(e.args[1], bindings)
    if k * (m - k) > MAX_EXACT_DEGREE:  # for m >= 0 only when 0 < k < m
        raise DslError(f"qbinom of degree {int_str(k * (m - k))} exceeds the"
                       f" {MAX_EXACT_DEGREE}-degree limit")
    return m, k


def _sum_args(e: Call, bindings: dict) -> tuple:
    """Checked (index, lo, hi) of a sum call, over at most MAX_SUM_TERMS indices."""
    if len(e.args) != 4:
        raise DslError("sum takes exactly 4 arguments: sum(var, lo, hi, body)")
    var = e.args[0]
    if not isinstance(var, Name):
        raise DslError("sum index must be a plain name")
    if var.ident in RESERVED:
        raise DslError(f"sum index may not shadow reserved name {var.ident!r}")
    lo, hi = eval_int(e.args[1], bindings), eval_int(e.args[2], bindings)
    if hi - lo + 1 > MAX_SUM_TERMS:
        raise DslError(f"sum over {int_str(hi - lo + 1)} indices exceeds the"
                       f" {MAX_SUM_TERMS}-term limit")
    return var.ident, lo, hi
