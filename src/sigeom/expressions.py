"""Restricted arithmetic expressions over u, differentiated by forward jets.

Formulas are read by Python's parser with ``^`` for powers, under Python's
precedence: ``-u^2`` is -(u^2), ``2^-2`` is 0.25 and ``^`` groups to the
right.  The language is ASCII numbers (007, 1., .5e-1), the variable u,
unary ``+ -``, binary ``+ - * / ^``, parentheses, and ln, sinh, cosh, j0,
i0 of one argument.  Exponents must be constant.  A tree nested deeper
than _MAX_DEPTH levels is refused, so any formula read can be evaluated.
"""

from __future__ import annotations

import ast
import re
import warnings

from . import autodiff as ad
from .autodiff import Jet3
from .bessel import DEFAULT_SERIES, SeriesConfig
from .errors import ProfileSpecError
from .profiles import ProfileCurve, ProfileFamily, profile_from_jet

__all__ = ["parse_expression", "expression_profile"]

_BAD_CHAR = re.compile(r"[^A-Za-z0-9_.+\-*/^()\s]")
_NUMBER = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?")
# Python refuses integer literals with leading zeros (007) or past 4,300
# digits; spelled as floats (007.) they parse, to the same value
_INTEGER = re.compile(r"(?<![\w.])(?<![eE][+-])\d+(?![\w.])")
# CPython's parser stops at 200 nested parentheses; operator chains (u+u+...+u,
# ----u) are bounded alike, so _evaluate's recursion stays inside Python's limit
_MAX_DEPTH = 200

_FUNCTIONS = {
    "ln": ad.ln,
    "sinh": ad.sinh,
    "cosh": ad.cosh,
    "j0": ad.j0,
    "i0": ad.i0,
}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse_expression(text: str) -> tuple:
    """Parse to an AST of nested tuples; raises ProfileSpecError on bad input."""
    if (bad := _BAD_CHAR.search(text)) is not None:
        raise ProfileSpecError(f"unexpected character {bad.group()!r} at position {bad.start()}")
    if "**" in text:
        raise ProfileSpecError(f"powers are written ^, not **, in {text!r}")
    source = _INTEGER.sub(r"\g<0>.", " ".join(text.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():  # the tokenizer's warnings (1if) become SyntaxErrors
            warnings.simplefilter("error")
            tree = ast.parse(source, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:  # the last two: deep nesting
        reason = exc.msg if isinstance(exc, SyntaxError) else "nested too deep"
        raise ProfileSpecError(f"cannot read {text!r}: {reason}") from None

    def convert(node: ast.expr, depth: int) -> tuple:
        if depth > _MAX_DEPTH:
            raise ProfileSpecError(f"{text!r} nests deeper than {_MAX_DEPTH} levels")
        match node:  # source is one line of ASCII: its column offsets are characters
            case ast.Constant(col_offset=i, end_col_offset=j) if _NUMBER.fullmatch(source[i:j]):
                return ("num", float(source[i:j]))
            case ast.Name(id="u"):
                return ("var",)
            case ast.Name(id=name):
                raise ProfileSpecError(f"unknown name {name!r} in {text!r}")
            case ast.UnaryOp(op=ast.UAdd(), operand=arg):
                return convert(arg, depth + 1)
            case ast.UnaryOp(op=ast.USub(), operand=arg):
                return ("neg", convert(arg, depth + 1))
            case ast.BinOp(left=left, op=op, right=right) if type(op) in _BINARY:
                return (_BINARY[type(op)], convert(left, depth + 1), convert(right, depth + 1))
            case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name in _FUNCTIONS:
                return ("call", name, convert(arg, depth + 1))
        raise ProfileSpecError(f"unexpected {ast.get_source_segment(source, node)!r} in {text!r}")

    return convert(tree.body, 1)


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
