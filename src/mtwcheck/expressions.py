"""Parser and evaluators for the radial-cost expression grammar.

Grammar: literals, the variable z, unary minus, binary + - * / and ^ with an
integer exponent, and single-argument calls to the elementary functions known
to the jet module.  Precedence is ^ > unary minus > * / > + -, all binary
operators left-associative; whitespace is insignificant.

Each operator, call and pair of parentheses is one level of depth over its
operands; the parser and the evaluators recurse per level, up to MAX_DEPTH.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .jets import ELEMENTARY_FUNCTIONS, Jet, jet_compose

# far above any preset (depth 4); the parser takes six frames per level, well
# within Python's default recursion limit of 1000
MAX_DEPTH = 100


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
        self.open = 0  # parentheses open around the current token

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

    def level(self, *depths):
        """The depth of a construct over operands of these depths."""
        if max(depths) >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", self.peek()[2])
        return 1 + max(depths)

    def group(self):
        """'(' expression ')': one level, also counted on the way in."""
        self.expect_op("(")
        self.open = self.level(self.open)
        node, depth = self.expression()
        self.open -= 1
        self.expect_op(")")
        return node, self.level(depth)

    def parse(self):
        expr, _ = self.expression()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return expr

    def expression(self, ops="+-"):
        """Terms joined by + or -, left-associative; for ops "*/", a term:
        unary operands joined by * or /."""
        node, depth = self.expression("*/") if ops == "+-" else self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = self.advance()[1]
            right, right_depth = self.expression("*/") if ops == "+-" else self.unary()
            node, depth = BinOp(op, node, right), self.level(depth, right_depth)
        return node, depth

    def unary(self):
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            signs += 1
        node, depth = self.power()
        for _ in range(signs):
            node, depth = Neg(node), self.level(depth)
        return node, depth

    def power(self):
        node, depth = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.advance()
            node, depth = Pow(node, self.exponent()), self.level(depth)
        return node, depth

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
            return Lit(float(value)), 0
        if kind == "name":
            self.advance()
            if value == "z":
                return Var(), 0
            if value in ELEMENTARY_FUNCTIONS:
                arg, depth = self.group()
                return Call(value, arg), depth
            raise ParseError(f"unknown name {value!r}", pos,
                             expected=("z",) + tuple(sorted(ELEMENTARY_FUNCTIONS)))
        if kind == "op" and value == "(":
            return self.group()
        self.fail(("number", "z", "function", "("))


def parse_cost(text):
    """Parse an expression in the variable z into its AST."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    return _Parser(text).parse()


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
