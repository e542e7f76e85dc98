"""Restricted arithmetic expressions over u, differentiated by forward jets.

Formulas are read by Python's parser with ``^`` for powers, under Python's
precedence: ``-u^2`` is -(u^2), ``2^-2`` is 0.25 and ``^`` groups to the
right.  The language is ASCII numbers (007, 1., .5e-1), the variable u,
unary ``+ -``, binary ``+ - * / ^``, parentheses, and ln, sinh, cosh, j0,
i0 of one argument.  Exponents must be constant.  A tree nested deeper
than _MAX_DEPTH levels is refused.  Python compiles the checked tree, with
each number called as ``_const(x)`` (Jet3.const) and unary ``+`` dropped:
every operation is one Jet3 operation on two jets, nothing is folded (2^u
stays refused), and the code runs with empty builtins.
"""

from __future__ import annotations

import ast
import re
import warnings
from types import CodeType

from . import autodiff as ad
from .autodiff import Jet3
from .bessel import DEFAULT_SERIES, SeriesConfig
from .errors import ProfileSpecError
from .profiles import ProfileCurve, ProfileFamily, profile_from_jet

__all__ = ["parse_expression", "expression_profile"]

_BAD_CHAR = re.compile(r"[^A-Za-z0-9_.+\-*/^()\s]")
_NUMBER = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?")
# a piece of formula text as Python source spells it: a run of whitespace as
# one space, an integer as a float (Python refuses 007 and integers past
# 4,300 digits, but 007. parses, to the same value), ^ as ** and all else as is
_PIECE = re.compile(r"(\s+)|((?<![\w.])(?<![eE][+-])\d+(?![\w.]))|.")
# CPython's parser stops at 200 nested parentheses; operator chains (u+u+...+u,
# ----u) are bounded alike, so check's recursion stays inside Python's limit
_MAX_DEPTH = 200

_FUNCTIONS = {
    "ln": ad.ln,
    "sinh": ad.sinh,
    "cosh": ad.cosh,
    "j0": ad.j0,
    "i0": ad.i0,
}
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_expression(text: str) -> CodeType:
    """Check a formula and compile it for _evaluate; raises ProfileSpecError
    on bad input."""
    if (bad := _BAD_CHAR.search(text)) is not None:
        raise ProfileSpecError(f"unexpected character {bad.group()!r} at position {bad.start()}")
    if "**" in text:
        raise ProfileSpecError(f"powers are written ^, not **, in {text!r}")
    source, cols = "", []  # cols[k]: the column of formula that source[k] spells
    for piece in _PIECE.finditer(formula := text.strip()):
        word = " " if piece[1] else piece[0] + "." if piece[2] else piece[0].replace("^", "**")
        source += word
        cols += (piece.start() + min(k, len(piece[0]) - 1) for k in range(len(word)))
    try:
        with warnings.catch_warnings():  # the tokenizer's warnings (1if) become SyntaxErrors
            warnings.simplefilter("error")
            tree = ast.parse(source, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:  # the last two: deep nesting
        reason = exc.msg if isinstance(exc, SyntaxError) else "nested too deep"
        raise ProfileSpecError(f"cannot read {text!r}: {reason}") from None

    def call(name: str, arg: ast.expr) -> ast.Call:
        return ast.Call(ast.Name(name, ast.Load()), [arg], [])

    def check(node: ast.expr, depth: int) -> ast.expr:
        if depth > _MAX_DEPTH:
            raise ProfileSpecError(f"{text!r} nests deeper than {_MAX_DEPTH} levels")
        match node:  # source is one line of ASCII: its column offsets are characters
            case ast.Constant(col_offset=i, end_col_offset=j) if _NUMBER.fullmatch(source[i:j]):
                return call("_const", ast.Constant(float(source[i:j])))
            case ast.Name(id="u"):
                return node
            case ast.Name(id=name):
                raise ProfileSpecError(f"unknown name {name!r} in {text!r}")
            case ast.UnaryOp(op=ast.UAdd(), operand=arg):
                return check(arg, depth + 1)
            case ast.UnaryOp(op=ast.USub(), operand=arg):
                return ast.UnaryOp(node.op, check(arg, depth + 1))
            case ast.BinOp(left=left, op=op, right=right) if isinstance(op, _OPERATORS):
                return ast.BinOp(check(left, depth + 1), op, check(right, depth + 1))
            case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name in _FUNCTIONS:
                return call(name, check(arg, depth + 1))
        segment = formula[cols[node.col_offset] : cols[node.end_col_offset - 1] + 1]
        raise ProfileSpecError(f"unexpected {segment!r} in {text!r}")

    body = ast.Expression(check(tree.body, 1))
    return compile(ast.fix_missing_locations(body), "<formula>", "eval")


def _evaluate(code: CodeType, u: Jet3, cfg: SeriesConfig) -> Jet3:
    # _FUNCTIONS is read per call, so wrappers put into it apply
    j0, i0 = _FUNCTIONS["j0"], _FUNCTIONS["i0"]
    names = {**_FUNCTIONS, "j0": lambda x: j0(x, cfg), "i0": lambda x: i0(x, cfg)}
    return eval(code, {"__builtins__": {}}, {**names, "u": u, "_const": Jet3.const})


def expression_profile(
    text: str,
    domain: tuple[float, float] | None = None,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> ProfileCurve:
    """Build a ProfileCurve from an expression in u, derivatives via jets."""
    code = parse_expression(text)
    from .profiles import _resolve_domain

    dom = _resolve_domain(domain)

    def jet(u):  # a float or an array of radii
        return _evaluate(code, Jet3.variable(u), cfg).as_tuple()

    return profile_from_jet(jet, dom, ProfileFamily.CUSTOM, {"expression": text})
