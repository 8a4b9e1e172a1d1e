"""Parser for coefficient expressions.

Grammar (precedence low to high):

    expr   <- term (('+' | '-') term)*
    term   <- unary (('*' | '/') unary)*
    unary  <- '-' unary | power
    power  <- atom ['^' unary]
    atom   <- number | constant | coordinate | fn '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, log, sqrt. Constants: pi, e. The exponent of '^'
must fold to an integer constant at parse time, and a number literal must
be a finite double. A syntax tree may be at most MAX_DEPTH levels high, and
brackets, calls and exponents may nest at most MAX_NESTING levels deep.
Errors carry the 0-based offset of the offending token.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .chart import Chart
from .errors import (
    ArityError,
    ExponentError,
    ExpressionError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from .field import ScalarField
from .nodes import CONSTANTS, PARSEABLE_FUNCTIONS, Lit, Neg, Node, Var, free_vars, mk_neg
from .nodes import Add, Div, Mul, Pow, Sub, Call
from .taylor import evaluate

# Limits that keep every accepted expression, and the structures built from
# it, inside the interpreter's default recursion limit: the tree height, and
# the nesting of brackets, calls and exponents (six parser frames a level).
MAX_DEPTH = 320
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[a-zA-Z][a-zA-Z0-9_]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", offset=pos)
        if m.lastgroup == "num":
            tokens.append(Token("num", m.group(), pos))
        elif m.lastgroup == "name":
            tokens.append(Token("name", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(Token(m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; every method returns a node and its tree height."""

    def __init__(self, tokens: list[Token], chart: Chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            what = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected {kind!r}, found {what}", offset=tok.offset)
        return self.advance()

    def height(self, below: int, tok: Token) -> int:
        """Height of a node built at tok over a subtree of height below."""
        if below >= MAX_DEPTH:
            raise ExprSyntaxError(f"expression is nested deeper than {MAX_DEPTH} levels", tok.offset)
        return below + 1

    def nested(self, tok: Token, parse):
        """Run parse one bracket, call or exponent level further in."""
        if self.nesting >= MAX_NESTING:
            message = f"brackets, calls and exponents nest deeper than {MAX_NESTING} levels"
            raise ExprSyntaxError(message, tok.offset)
        self.nesting += 1
        out = parse()
        self.nesting -= 1
        return out

    def parse(self) -> Node:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", offset=tok.offset)
        return node

    def expr(self) -> tuple[Node, int]:
        node, h = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs, hr = self.term()
            cls = Add if op.kind == "+" else Sub
            node, h = cls(node, rhs, offset=op.offset), self.height(max(h, hr), op)
        return node, h

    def term(self) -> tuple[Node, int]:
        node, h = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs, hr = self.unary()
            cls = Mul if op.kind == "*" else Div
            node, h = cls(node, rhs, offset=op.offset), self.height(max(h, hr), op)
        return node, h

    def unary(self) -> tuple[Node, int]:
        signs = []
        while self.peek().kind == "-":
            signs.append(self.advance())
        node, h = self.power()
        for tok in reversed(signs):
            neg = mk_neg(node)
            if isinstance(neg, Lit):
                h = 1
            elif isinstance(node, Neg):
                h -= 1
            else:
                h = self.height(h, tok)
            node = neg
        return node, h

    def power(self) -> tuple[Node, int]:
        base, h = self.atom()
        tok = self.peek()
        if tok.kind != "^":
            return base, h
        op = self.advance()
        exponent, _ = self.nested(op, self.unary)
        if free_vars(exponent):
            raise ExponentError(
                "exponent of '^' must fold to an integer constant", offset=op.offset
            )
        try:
            value = evaluate(exponent, (), 0)
        except ExpressionError as exc:
            raise ExponentError(
                f"exponent of '^' does not evaluate: {exc}", offset=op.offset
            ) from None
        if value != int(value):
            raise ExponentError(
                f"exponent of '^' folds to {value}, not an integer", offset=op.offset
            )
        return Pow(base, int(value), offset=op.offset), self.height(h, op)

    def atom(self) -> tuple[Node, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text!r} overflows", offset=tok.offset)
            return Lit(value, offset=tok.offset), 1
        if tok.kind == "(":
            self.advance()
            out = self.nested(tok, self.expr)
            self.expect(")")
            return out
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in PARSEABLE_FUNCTIONS:
                if self.peek().kind != "(":
                    raise ExprSyntaxError(
                        f"function {name!r} needs parentheses", offset=tok.offset
                    )
                self.advance()
                arg, h = self.nested(tok, self.expr)
                if self.peek().kind == ",":
                    raise ArityError(
                        f"function {name!r} takes exactly one argument",
                        offset=self.peek().offset,
                    )
                self.expect(")")
                return Call(name, arg, offset=tok.offset), self.height(h, tok)
            if name in CONSTANTS:
                return Lit(CONSTANTS[name], name, offset=tok.offset), 1
            if name in self.chart:
                return Var(self.chart.index(name), name, offset=tok.offset), 1
            raise UnknownIdentifierError(
                f"unknown identifier {name!r} on chart ({', '.join(self.chart)})",
                offset=tok.offset,
            )
        what = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a value, found {what}", offset=tok.offset)


def parse_expression(text: str, chart: Chart) -> Node:
    return _Parser(tokenize(text), chart).parse()


def parse_field(text: str, chart: Chart) -> ScalarField:
    return ScalarField(chart, parse_expression(text, chart))
