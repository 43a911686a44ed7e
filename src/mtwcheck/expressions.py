"""Parser, printer, and evaluators for the radial-cost expression grammar.

Grammar: literals, the variable z, unary minus, binary + - * / and ^ with an
integer exponent, and single-argument calls to the elementary functions known
to the jet module.  Precedence is ^ > unary minus > * / > + -, all binary
operators left-associative; whitespace is insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .jets import ELEMENTARY_FUNCTIONS, Jet, jet_compose


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Lit | Var | Neg | BinOp | Pow | Call

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos,
                             expected=("number", "name", "operator"))
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, value, pos = self.peek()
        got = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"unexpected {got}", pos, expected=expected)

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            self.fail((op,))
        return self.advance()

    def parse(self):
        expr = self.expression()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return expr

    def expression(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self):
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            sign = -1
        kind, value, pos = self.peek()
        if kind != "num" or not value.isdigit():
            self.fail(("integer exponent",))
        self.advance()
        return sign * int(value)

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            return Lit(float(value))
        if kind == "name":
            self.advance()
            if value == "z":
                return Var()
            if value in ELEMENTARY_FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown name {value!r}", pos,
                             expected=("z",) + tuple(sorted(ELEMENTARY_FUNCTIONS)))
        if kind == "op" and value == "(":
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        self.fail(("number", "z", "function", "("))


def parse_cost(text):
    """Parse an expression in the variable z into its AST."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    return _Parser(text).parse()


# Precedence levels for printing: addition 1, multiplication 2,
# unary minus 3, power 4, atoms 5.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _prec(expr):
    if isinstance(expr, BinOp):
        return _ADD if expr.op in "+-" else _MUL
    if isinstance(expr, Neg):
        return _NEG
    if isinstance(expr, Pow):
        return _POW
    return _ATOM


def _fmt(expr, ctx):
    p = _prec(expr)
    if isinstance(expr, Lit):
        s = repr(expr.value)
    elif isinstance(expr, Var):
        s = "z"
    elif isinstance(expr, Neg):
        s = f"-{_fmt(expr.arg, _NEG)}"
    elif isinstance(expr, BinOp):
        # left-associative: the right operand needs one level more binding
        s = f"{_fmt(expr.left, p)}{expr.op}{_fmt(expr.right, p + 1)}"
    elif isinstance(expr, Pow):
        s = f"{_fmt(expr.base, _POW + 1)}^{expr.exponent}"
    else:
        s = f"{expr.func}({_fmt(expr.arg, 0)})"
    return f"({s})" if p < ctx else s


def pretty(expr):
    """Render an AST back to parseable text; parse(pretty(e)) == e."""
    return _fmt(expr, 0)


def evaluate(expr, z):
    """Evaluate an AST at a float or numpy array argument."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return z
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, z)
    if isinstance(expr, BinOp):
        a, b = evaluate(expr.left, z), evaluate(expr.right, z)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    if isinstance(expr, Pow):
        base = evaluate(expr.base, z)
        return np.power(base, expr.exponent, dtype=float) if expr.exponent >= 0 \
            else 1.0 / np.power(base, -expr.exponent, dtype=float)
    return ELEMENTARY_FUNCTIONS[expr.func][0](evaluate(expr.arg, z))


def evaluate_jet(expr, jet):
    """Evaluate an AST over a jet argument by structural recursion.

    A literal, and arithmetic on literals only, stays a float, which acts on
    the coefficients of a jet operand (see the jets module); it becomes a
    constant jet only where an operation needs one: a power, a function call,
    or an expression without z.
    """
    return _as_jet(_evaluate_jet(expr, jet), jet)


def _as_jet(value, jet):
    """value if it is a jet, else the constant jet of value of the length of jet."""
    if isinstance(value, Jet):
        return value
    return Jet.constant(value, length=len(jet.coeffs))


def _evaluate_jet(expr, jet):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return jet
    if isinstance(expr, Neg):
        return -_evaluate_jet(expr.arg, jet)
    if isinstance(expr, BinOp):
        a, b = _evaluate_jet(expr.left, jet), _evaluate_jet(expr.right, jet)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if isinstance(a, Jet) or isinstance(b, Jet) or b != 0.0:
            return a / b
        # a float divided by 0.0 fails as the jet division does
        return _as_jet(a, jet) / b
    if isinstance(expr, Pow):
        return _as_jet(_evaluate_jet(expr.base, jet), jet) ** expr.exponent
    return jet_compose(expr.func, _as_jet(_evaluate_jet(expr.arg, jet), jet))
