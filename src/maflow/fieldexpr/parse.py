"""Parser for coefficient expressions.

Grammar (precedence low to high):

    expr   <- term (('+' | '-') term)*
    term   <- unary (('*' | '/') unary)*
    unary  <- '-' unary | power
    power  <- atom ['^' unary]
    atom   <- number | constant | coordinate | fn '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, log, sqrt. Constants: pi, e. The exponent of '^'
must fold to an integer constant at parse time, and a number literal must
be a finite double. Errors carry the 0-based offset of the offending token.
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
from .nodes import CONSTANTS, PARSEABLE_FUNCTIONS, Konst, Lit, Node, Var, free_vars, mk_neg
from .nodes import Add, Div, Mul, Pow, Sub, Call
from .taylor import eval_plain

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
    def __init__(self, tokens: list[Token], chart: Chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", offset=tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            if op.kind == "+":
                node = Add(node, rhs, offset=op.offset)
            else:
                node = Sub(node, rhs, offset=op.offset)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            if op.kind == "*":
                node = Mul(node, rhs, offset=op.offset)
            else:
                node = Div(node, rhs, offset=op.offset)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return mk_neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind != "^":
            return base
        op = self.advance()
        exponent = self.unary()
        if free_vars(exponent):
            raise ExponentError(
                "exponent of '^' must fold to an integer constant", offset=op.offset
            )
        try:
            value = eval_plain(exponent, ())
        except ExpressionError as exc:
            raise ExponentError(
                f"exponent of '^' does not evaluate: {exc}", offset=op.offset
            ) from None
        if value != int(value):
            raise ExponentError(
                f"exponent of '^' folds to {value}, not an integer", offset=op.offset
            )
        return Pow(base, int(value), offset=op.offset)

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text!r} overflows", offset=tok.offset)
            return Lit(value, offset=tok.offset)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in PARSEABLE_FUNCTIONS:
                if self.peek().kind != "(":
                    raise ExprSyntaxError(
                        f"function {name!r} needs parentheses", offset=tok.offset
                    )
                self.advance()
                arg = self.expr()
                if self.peek().kind == ",":
                    raise ArityError(
                        f"function {name!r} takes exactly one argument",
                        offset=self.peek().offset,
                    )
                self.expect(")")
                return Call(name, arg, offset=tok.offset)
            if name in CONSTANTS:
                return Konst(name, CONSTANTS[name], offset=tok.offset)
            if name in self.chart:
                return Var(self.chart.index(name), name, offset=tok.offset)
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
