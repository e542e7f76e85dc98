"""Restricted arithmetic expressions over u, differentiated by forward jets.

Grammar (u is the only variable):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* power
    power  := atom ('^' factor)?          (right-associative)
    atom   := NUMBER | 'u' | NAME '(' expr ')' | '(' expr ')'

Recognized functions: ln, sinh, cosh, j0, i0.  Exponents must be constant.
"""

from __future__ import annotations

import re

from . import autodiff as ad
from .autodiff import Jet3
from .bessel import DEFAULT_SERIES, SeriesConfig
from .errors import ProfileSpecError
from .profiles import ProfileCurve, ProfileFamily, profile_from_jet

__all__ = ["parse_expression", "expression_profile"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {
    "ln": ad.ln,
    "sinh": ad.sinh,
    "cosh": ad.cosh,
    "j0": ad.j0,
    "i0": ad.i0,
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ProfileSpecError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.idx]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ProfileSpecError(f"expected {op!r} in {self.text!r}, got {val!r}")

    def parse(self):
        node = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ProfileSpecError(f"trailing input {val!r} in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            node = (op, node, self.factor())
        return node

    def factor(self):
        signs = 1
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.next()
            if op == "-":
                signs = -signs
        node = self.power()
        return node if signs > 0 else ("neg", node)

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            node = ("^", node, self.factor())
        return node

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            if val == "u":
                return ("var",)
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            raise ProfileSpecError(f"unknown name {val!r} in {self.text!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ProfileSpecError(f"unexpected token {val!r} in {self.text!r}")


def parse_expression(text: str) -> tuple:
    """Parse to an AST of nested tuples; raises ProfileSpecError on bad input."""
    return _Parser(text).parse()


def _evaluate(node: tuple, u: Jet3, cfg: SeriesConfig) -> Jet3:
    op = node[0]
    if op == "num":
        return Jet3.const(node[1])
    if op == "var":
        return u
    if op == "neg":
        return -_evaluate(node[1], u, cfg)
    if op == "call":
        fn = _FUNCTIONS[node[1]]
        arg = _evaluate(node[2], u, cfg)
        if node[1] in ("j0", "i0"):
            return fn(arg, cfg)
        return fn(arg)
    left = _evaluate(node[1], u, cfg)
    right = _evaluate(node[2], u, cfg)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "^":
        return left**right
    raise AssertionError(f"unhandled node {node!r}")


def expression_profile(
    text: str,
    domain: tuple[float, float] | None = None,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> ProfileCurve:
    """Build a ProfileCurve from an expression in u, derivatives via jets."""
    ast = parse_expression(text)
    from .profiles import _resolve_domain

    dom = _resolve_domain(domain)

    def jet(u):  # a float or an array of radii
        return _evaluate(ast, Jet3.variable(u), cfg).as_tuple()

    return profile_from_jet(jet, dom, ProfileFamily.CUSTOM, {"expression": text})
