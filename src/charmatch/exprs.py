"""A small expression language for test functions.

Grammar (infix, whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)*          # '^' binds tighter than unary '-'
    atom   := NUMBER | 'x' | CONST | FUNC '(' expr ')' | '(' expr ')'

Functions: exp, ln (alias log), sin, cos, sqrt, arctan (alias atan), bessel_j0
(aliases besselj0, j0).  Constants: pi, e.  Numeric literals are exact, typed
as ``poly.rational`` types them, so that rational arithmetic survives as far
as possible; pi and e are floats.  A literal whose exact value needs more
digits than Python's int/str limit is a syntax error (``check_digits``).

Every node supports float evaluation and jet lifting, so an ``Expr`` can be
used directly wherever the verification machinery expects something
measurable.  A chain such as ``a + b - c``, ``a * b / c`` or ``a ^ 2 ^ 3`` is
one node folded left to right by a loop, so its length costs no recursion.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import specfun
from .errors import CharmatchError, EvalDomainError
from .jets import Jet
from .poly import div, is_exact, rational

__all__ = ["Expr", "Const", "Var", "parse", "check_digits", "ExprSyntaxError"]


class ExprSyntaxError(CharmatchError, ValueError):
    """Raised when an expression string cannot be parsed."""


class Expr:
    """Base class; concrete nodes implement ``evaluate`` and ``lift``."""

    def __call__(self, x):
        return self.evaluate(x)

    def eval_jet(self, x0, order: int) -> Jet:
        return self.lift(x0, order)

    def evaluate(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def lift(self, x0, order: int) -> Jet:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: object

    def evaluate(self, x):
        return self.value

    def lift(self, x0, order):
        return Jet.constant(self.value, x0, order)


@dataclass(frozen=True)
class Var(Expr):
    def evaluate(self, x):
        return x

    def lift(self, x0, order):
        return Jet.variable(x0, order)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def evaluate(self, x):
        return -self.arg.evaluate(x)

    def lift(self, x0, order):
        return -self.arg.lift(x0, order)


def _divide(a, b):
    if b == 0:
        raise EvalDomainError("division by zero in expression")
    return div(a, b)


# symbol -> (number op, jet op)
_OPS = {"+": (operator.add, operator.add), "-": (operator.sub, operator.sub),
        "*": (operator.mul, operator.mul), "/": (_divide, operator.truediv)}


@dataclass(frozen=True)
class Chain(Expr):
    """``first op_1 operand_1 op_2 operand_2 ...`` of '+'/'-' or of '*'/'/',
    combined left to right."""

    first: Expr
    rest: tuple  # ((op, Expr), ...)

    def evaluate(self, x):
        acc = self.first.evaluate(x)
        for op, operand in self.rest:
            acc = _OPS[op][0](acc, operand.evaluate(x))
        return acc

    def lift(self, x0, order):
        acc = self.first.lift(x0, order)
        for op, operand in self.rest:
            acc = _OPS[op][1](acc, operand.lift(x0, order))
        return acc


@dataclass(frozen=True)
class Pow(Expr):
    """``base ^ e_1 ^ e_2 ...`` read as ``(base ^ e_1) ^ e_2 ...``."""

    base: Expr
    exponents: tuple  # of int

    def evaluate(self, x):
        b = self.base.evaluate(x)
        for e in self.exponents:
            if e < 0 and b == 0:
                raise EvalDomainError("zero raised to a negative power")
            b = div(1, b ** -e) if e < 0 and is_exact(b) else b ** e  # int ** -1 is a float
        return b

    def lift(self, x0, order):
        b = self.base.lift(x0, order)
        for e in self.exponents:
            b = b ** e
        return b


# name -> (float function, jet primitive)
_FNS = {
    "exp": (math.exp, Jet.exp),
    "ln": (math.log, Jet.ln),
    "sin": (math.sin, Jet.sin),
    "cos": (math.cos, Jet.cos),
    "sqrt": (math.sqrt, Jet.sqrt),
    "arctan": (math.atan, Jet.arctan),
    "bessel_j0": (lambda t: specfun.bessel_j(0, t), Jet.bessel_j0),
}

_FN_ALIASES = {
    "log": "ln",
    "atan": "arctan",
    "besselj0": "bessel_j0",
    "j0": "bessel_j0",
}


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def evaluate(self, x):
        t = self.arg.evaluate(x)
        try:
            return _FNS[self.fn][0](float(t))
        except ValueError as exc:
            raise EvalDomainError(f"{self.fn}({t}): {exc}") from exc

    def lift(self, x0, order):
        return _FNS[self.fn][1](self.arg.lift(x0, order))


_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


# the mantissa digits and the exponent of a decimal such as 125 or 12.5e-3
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*\.?[\d_]*)(?:[eE]([-+]?[\d_]+))?\s*")


def check_digits(text: str, what: str = "number") -> None:
    """Refuse decimal text whose exact value needs more digits than ``int``
    and ``str`` convert (``sys.get_int_max_str_digits``, 4300 by default),
    read from the text before any integer is built."""
    m = _DECIMAL.fullmatch(text)
    if m is None:
        return
    limit = sys.get_int_max_str_digits() or 4300
    exponent = (m[2] or "").lstrip("+-").replace("_", "").lstrip("0") or "0"
    digits = sum(ch.isdigit() for ch in m[1])
    if len(exponent) > len(str(limit)) or digits + int(exponent) > limit:
        raise ExprSyntaxError(
            f"{what} {text!r} needs more than {limit} digits as an exact number")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprSyntaxError(f"unexpected character at {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                if kind == "num":
                    check_digits(val)
                tokens.append((kind, "^" if val == "**" else val))
                break
    return tokens


# nesting levels (parentheses, function calls, unary minus) a parse accepts;
# deeper input is rejected before it can exhaust Python's recursion limit
MAX_DEPTH = 160


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, got {val!r}")

    def parse(self) -> Expr:
        e = self.expr()
        if self.pos != len(self.tokens):
            raise ExprSyntaxError(f"trailing input near {self.peek()[1]!r}")
        return e

    # expr and term loop inline: a shared helper would add a frame per
    # nesting level and hit the recursion limit before MAX_DEPTH
    def expr(self) -> Expr:
        first = self.term()
        rest = []
        while self.peek() in (("op", "+"), ("op", "-")):
            rest.append((self.take()[1], self.term()))
        return Chain(first, tuple(rest)) if rest else first

    def term(self) -> Expr:
        first = self.unary()
        rest = []
        while self.peek() in (("op", "*"), ("op", "/")):
            rest.append((self.take()[1], self.unary()))
        return Chain(first, tuple(rest)) if rest else first

    def unary(self) -> Expr:
        # every nesting level passes through here exactly once
        if self.depth >= MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        try:
            if self.peek() == ("op", "-"):
                self.take()
                return Neg(self.unary())
            return self.power()
        finally:
            self.depth -= 1

    def power(self) -> Expr:
        node = self.atom()
        exponents = []
        while self.peek() == ("op", "^"):
            self.take()
            exponents.append(self._exponent())
        return Pow(node, tuple(exponents)) if exponents else node

    def _exponent(self) -> int:
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        kind, val = self.take()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ExprSyntaxError(f"'^' needs an integer exponent, got {val!r}")
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val = self.take()
        if kind == "num":
            return Const(rational(*Fraction(val).as_integer_ratio()))
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            name = val
            if name == "x":
                return Var()
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            fn = _FN_ALIASES.get(name, name)
            if fn in _FNS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Call(fn, inner)
            raise ExprSyntaxError(f"unknown identifier {name!r}")
        raise ExprSyntaxError(f"unexpected token {val!r}")


def parse(text: str) -> Expr:
    """Parse an expression string into an Expr tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression")
    return _Parser(tokens).parse()
