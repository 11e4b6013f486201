"""Payoff expression language.

Scalar expressions over variables x1..xm with +, -, *, /, integer powers and
the calls abs/max/min/pow.  Exponentials are excluded by default so that
evaluated payoffs stay in the polynomial-growth Lipschitz class; pass
``allow_exp=True`` to admit them (a warning is emitted).

Evaluation is numpy-aware: feeding arrays for the variables evaluates the
expression elementwise, which the lattice backends rely on.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PayoffExpr",
    "Const",
    "Var",
    "Neg",
    "Binary",
    "Pow",
    "Call",
    "PayoffSyntaxError",
    "PayoffEvalError",
    "parse",
    "eval_expr",
    "to_str",
    "arity",
]


class PayoffSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class PayoffEvalError(ArithmeticError):
    """Raised when evaluation hits division by zero; carries the subexpression."""

    def __init__(self, message: str, subexpr: "PayoffExpr"):
        super().__init__(f"{message}: {to_str(subexpr)}")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "PayoffExpr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "PayoffExpr"
    right: "PayoffExpr"


@dataclass(frozen=True)
class Pow:
    base: "PayoffExpr"
    exponent: int  # >= 0


@dataclass(frozen=True)
class Call:
    name: str  # abs, max, min, exp
    args: tuple


PayoffExpr = Const | Var | Neg | Binary | Pow | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"abs": 1, "max": None, "min": None, "pow": 2, "exp": 1}


class _Parser:
    def __init__(self, text: str, allow_exp: bool):
        self.text = text
        self.allow_exp = allow_exp
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip() == "":
                    break
                raise PayoffSyntaxError(f"unexpected character {text[pos]!r}", pos)
            if m.group("num") is not None:
                self.tokens.append(("num", m.group(0).strip(), m.start("num")))
            elif m.group("name") is not None:
                self.tokens.append(("name", m.group("name"), m.start("name")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if kind != "op" or val != value:
            raise PayoffSyntaxError(f"expected {value!r}", pos)

    def parse(self) -> PayoffExpr:
        expr = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PayoffSyntaxError(f"unexpected token {val!r}", pos)
        return expr

    def expr(self) -> PayoffExpr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Binary(val, node, self.term())
            else:
                return node

    def term(self) -> PayoffExpr:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Binary(val, node, self.factor())
            else:
                return node

    def factor(self) -> PayoffExpr:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.factor())
        if kind == "op" and val == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self) -> PayoffExpr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Pow(base, self.exponent_literal())
        return base

    def exponent_literal(self) -> int:
        kind, val, pos = self.next()
        if kind == "op" and val == "-":
            raise PayoffSyntaxError("power exponent must be a nonnegative integer", pos)
        if kind != "num" or not val.isdigit():
            raise PayoffSyntaxError("power exponent must be a nonnegative integer", pos)
        return int(val)

    def atom(self) -> PayoffExpr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise PayoffSyntaxError("variable indices start at x1", pos)
                return Var(idx)
            if val in _FUNCTIONS:
                if val == "exp" and not self.allow_exp:
                    raise PayoffSyntaxError(
                        "exp is excluded by default (unbounded growth); "
                        "pass allow_exp=True to admit it",
                        pos,
                    )
                return self.call(val, pos)
            raise PayoffSyntaxError(f"unknown identifier {val!r}", pos)
        raise PayoffSyntaxError(f"unexpected token {val!r}", pos)

    def call(self, name: str, pos: int) -> PayoffExpr:
        self.expect("(")
        args = [self.expr()]
        while True:
            kind, val, p = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect(")")
        nargs = _FUNCTIONS[name]
        if nargs is None:
            if len(args) < 2:
                raise PayoffSyntaxError(f"{name} needs at least two arguments", pos)
        elif len(args) != nargs:
            raise PayoffSyntaxError(f"{name} takes {nargs} argument(s)", pos)
        if name == "pow":
            exp_arg = args[1]
            if (
                not isinstance(exp_arg, Const)
                or exp_arg.value < 0
                or exp_arg.value != int(exp_arg.value)
            ):
                raise PayoffSyntaxError("pow exponent must be a nonnegative integer", pos)
            return Pow(args[0], int(exp_arg.value))
        return Call(name, tuple(args))


def parse(text: str, allow_exp: bool = False) -> PayoffExpr:
    """Parse an expression; raises PayoffSyntaxError with position on failure."""
    if not text or not text.strip():
        raise PayoffSyntaxError("empty expression", 0)
    if allow_exp and "exp" in text:
        warnings.warn(
            "admitting exp: evaluated payoffs leave the polynomial-growth class",
            stacklevel=2,
        )
    return _Parser(text, allow_exp).parse()


def eval_expr(expr: PayoffExpr, increments: Sequence):
    """Evaluate on a vector of per-variable values (scalars or numpy arrays)."""
    match expr:
        case Const(value):
            return value
        case Var(index):
            if index > len(increments):
                raise IndexError(
                    f"expression uses x{index} but only {len(increments)} value(s) given"
                )
            return increments[index - 1]
        case Neg(operand):
            return -eval_expr(operand, increments)
        case Binary("+", a, b):
            return eval_expr(a, increments) + eval_expr(b, increments)
        case Binary("-", a, b):
            return eval_expr(a, increments) - eval_expr(b, increments)
        case Binary("*", a, b):
            return eval_expr(a, increments) * eval_expr(b, increments)
        case Binary("/", a, b):
            den = eval_expr(b, increments)
            if np.any(np.asarray(den) == 0):
                raise PayoffEvalError("division by zero", expr)
            return eval_expr(a, increments) / den
        case Pow(base, exponent):
            return eval_expr(base, increments) ** exponent
        case Call("abs", (a,)):
            return np.abs(eval_expr(a, increments))
        case Call("max", args):
            vals = [eval_expr(a, increments) for a in args]
            out = vals[0]
            for v in vals[1:]:
                out = np.maximum(out, v)
            return out
        case Call("min", args):
            vals = [eval_expr(a, increments) for a in args]
            out = vals[0]
            for v in vals[1:]:
                out = np.minimum(out, v)
            return out
        case Call("exp", (a,)):
            return np.exp(eval_expr(a, increments))
    raise TypeError(f"unhandled node {expr!r}")


def arity(expr: PayoffExpr) -> int:
    """Largest variable index used (0 for constant expressions)."""
    match expr:
        case Const():
            return 0
        case Var(index):
            return index
        case Neg(operand):
            return arity(operand)
        case Binary(_, a, b):
            return max(arity(a), arity(b))
        case Pow(base, _):
            return arity(base)
        case Call(_, args):
            return max(arity(a) for a in args)
    raise TypeError(f"unhandled node {expr!r}")


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def to_str(expr: PayoffExpr) -> str:
    """Canonical printer; parse(to_str(e)) == e for nonnegative constants."""
    match expr:
        case Const(value):
            return _fmt_const(value)
        case Var(index):
            return f"x{index}"
        case Neg(operand):
            return f"-{_paren(operand)}"
        case Binary(op, a, b):
            left = _paren(a) if _prec(a) < _prec(expr) else to_str(a)
            # right side needs parens at equal precedence (left associativity)
            right = _paren(b) if _prec(b) <= _prec(expr) else to_str(b)
            return f"{left} {op} {right}"
        case Pow(base, exponent):
            return f"{_paren(base)}^{exponent}"
        case Call(name, args):
            return f"{name}({', '.join(to_str(a) for a in args)})"
    raise TypeError(f"unhandled node {expr!r}")


def _prec(expr: PayoffExpr) -> int:
    match expr:
        case Binary(op, _, _):
            return 1 if op in "+-" else 2
        case Neg():
            return 3
        case _:
            return 4


def _paren(expr: PayoffExpr) -> str:
    s = to_str(expr)
    needs = (
        _prec(expr) < 4
        or isinstance(expr, Pow)  # the power operator does not chain
        or (isinstance(expr, Const) and expr.value < 0)
    )
    return f"({s})" if needs else s
