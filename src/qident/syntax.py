"""The syntax of the expression language: its AST, tokenizer and parser.
``qident.dsl`` evaluates what ``parse`` returns.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (("+" | "-") term)*
    term   := unary ("*" unary)*
    unary  := "-" unary | factor
    factor := atom ("^" factor)?
    atom   := INT | NAME | "(" expr ")" | call
    call   := NAME "(" expr ("," expr)* ")"

"+", "-" and "*" are left-associative, "^" is right-associative.  An INT
literal has at most MAX_LITERAL_DIGITS digits; a longer one is refused
with ParseError.  ``unparse`` renders an AST as text that parses back to
it; it is written in ``qident.printing``, which loads on first use.
``int_str`` writes an integer of any length.
"""

from __future__ import annotations

from math import log10
from typing import Union

from .errors import ParseError

# the largest integer power the language computes, and the largest
# coefficient a power of a series may reach, in bits: far above any
# coefficient the identities need, far below what exhausts memory
MAX_POWER_BITS = 1 << 16

# the most digits of an integer literal: MAX_POWER_BITS bits' worth
MAX_LITERAL_DIGITS = int(MAX_POWER_BITS * log10(2))

# Python's int() and str() refuse a decimal text of more than a set number
# of digits (4 300 by default, at least 640), so a longer literal or
# coefficient is converted in blocks of _BLOCK digits
_BLOCK = 600
_BLOCK_MAX = 10**_BLOCK


def _read_int(text: str) -> int:
    """The value of a literal's digits, whatever their number."""
    value = 0
    for i in range(0, len(text), _BLOCK):
        block = text[i:i + _BLOCK]
        value = value * 10**len(block) + int(block)
    return value


def read_int(text: str) -> int:
    """The integer a decimal text spells, with surrounding whitespace and
    one sign allowed; ValueError when it is not one, or when it has more
    digits than a literal may (MAX_LITERAL_DIGITS)."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits.isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer of {len(digits)} digits exceeds the"
                         f" {MAX_POWER_BITS}-bit limit")
    value = _read_int(digits)
    return -value if body[0] == "-" else value


def int_str(n: int) -> str:
    """n in decimal, whatever its number of digits."""
    if -_BLOCK_MAX < n < _BLOCK_MAX:  # the common case, at str's speed
        return str(n)
    head, blocks = abs(n), []
    while head >= _BLOCK_MAX:
        head, low = divmod(head, _BLOCK_MAX)
        blocks.append(str(low).zfill(_BLOCK))
    return "-" * (n < 0) + str(head) + "".join(reversed(blocks))


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Node:
    """An immutable record whose fields are its ``__slots__``: equal to a
    record of the same class with equal fields, hashed by its fields, and
    shown as ``Class(field=value, ...)``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        from .printing import node_repr

        return node_repr(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


_init = object.__setattr__


class Int(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _init(self, "value", value)


class Name(_Node):
    __slots__ = ("ident",)

    def __init__(self, ident: str):
        _init(self, "ident", ident)


class Neg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: "Expr"):
        _init(self, "operand", operand)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        _init(self, "op", op)  # "+", "-" or "*"
        _init(self, "left", left)
        _init(self, "right", right)


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: "Expr", exponent: "Expr"):
        _init(self, "base", base)
        _init(self, "exponent", exponent)


class Call(_Node):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: tuple):
        _init(self, "func", func)
        _init(self, "args", args)


Expr = Union[Int, Name, Neg, BinOp, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*^(),"


class Token(_Node):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        _init(self, "kind", kind)  # INT, NAME, one of _SYMBOLS, or EOF
        _init(self, "text", text)
        _init(self, "line", line)
        _init(self, "col", col)


def _tokenize(text: str) -> list:
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch, j = text[i], i + 1
        if ch.isdecimal():
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal of {j - i} digits exceeds the"
                                 f" {MAX_POWER_BITS}-bit limit", line, col)
            tokens.append(Token("INT", text[i:j], line, col))
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
        elif ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, col)
        if ch == "\n":
            line, col = line + 1, 0
        col, i = col + j - i, j
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def unexpected(self, expected: str) -> ParseError:
        """The error for the next token where ``expected`` should be."""
        tok = self.peek()
        what = tok.kind if tok.kind != "EOF" else "end of input"
        return ParseError(f"unexpected {what}" + (f" {tok.text!r}" if tok.text else ""),
                          tok.line, tok.col, expected=expected)

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            raise self.unexpected(kind)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input starting at {tok.text!r}",
                             tok.line, tok.col, expected="end of input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "*":
            self.advance()
            e = BinOp("*", e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.factor()

    def factor(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Pow(base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Int(_read_int(tok.text))
        if tok.kind == "NAME":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                return Call(tok.text, tuple(args))
            return Name(tok.text)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise self.unexpected("INT, NAME or '('")


def parse(text: str) -> Expr:
    """Parse source text into an AST; raises ParseError with a position."""
    return _Parser(text).parse()


def unparse(e: Expr) -> str:
    """Render an AST as source text that reparses to an identical AST."""
    from .printing import unparse

    return unparse(e)
