import math
import sys

import pytest

from sigeom.autodiff import Jet3, cosh, i0, j0, ln, sinh
from sigeom.errors import DomainError, ProfileSpecError
from sigeom.expressions import parse_expression


def _check_jet(jet, f0, f1, f2, f3, tol=1e-12):
    assert jet.f0 == pytest.approx(f0, rel=tol, abs=tol)
    assert jet.f1 == pytest.approx(f1, rel=tol, abs=tol)
    assert jet.f2 == pytest.approx(f2, rel=tol, abs=tol)
    assert jet.f3 == pytest.approx(f3, rel=tol, abs=tol)


def test_variable_and_const():
    u = Jet3.variable(3.0)
    _check_jet(u, 3.0, 1.0, 0.0, 0.0)
    _check_jet(Jet3.const(5.0), 5.0, 0.0, 0.0, 0.0)


def test_product_rule_third_order():
    # (u^2) * (u^3) = u^5: derivatives 5u^4, 20u^3, 60u^2
    u = Jet3.variable(2.0)
    jet = (u * u) * (u * u * u)
    _check_jet(jet, 32.0, 80.0, 160.0, 240.0)


def test_quotient():
    u = Jet3.variable(2.0)
    jet = 1.0 / u
    _check_jet(jet, 0.5, -0.25, 0.25, -0.375)


def test_power_with_real_exponent():
    u = Jet3.variable(4.0)
    jet = u**0.5
    _check_jet(jet, 2.0, 0.25, -1.0 / 32.0, 3.0 / 256.0)


def test_power_rejects_varying_exponent():
    u = Jet3.variable(2.0)
    with pytest.raises(DomainError):
        u**u


def test_const_base_power():
    u = Jet3.variable(1.0)
    jet = 2.0**u
    l2 = math.log(2.0)
    _check_jet(jet, 2.0, 2.0 * l2, 2.0 * l2 * l2, 2.0 * l2**3)


def test_ln_chain():
    u = Jet3.variable(2.0)
    jet = ln(u * u)  # = 2 ln u: derivatives 2/u, -2/u^2, 4/u^3
    _check_jet(jet, 2.0 * math.log(2.0), 1.0, -0.5, 0.5)


def test_hyperbolics():
    x = 0.7
    u = Jet3.variable(x)
    _check_jet(sinh(u), math.sinh(x), math.cosh(x), math.sinh(x), math.cosh(x))
    _check_jet(cosh(u), math.cosh(x), math.sinh(x), math.cosh(x), math.sinh(x))


def test_bessel_jets_compose():
    # chain rule through the argument scaling: d/du j0(2u) = 2 J0'(2u)
    from sigeom.bessel import j0_jet

    u = Jet3.variable(1.1)
    jet = j0((2.0 * u))
    ref = j0_jet(2.2)
    _check_jet(jet, ref[0], 2.0 * ref[1], 4.0 * ref[2], 8.0 * ref[3])
    jet_i = i0(u)
    from sigeom.bessel import i0_jet

    ref_i = i0_jet(1.1)
    _check_jet(jet_i, *ref_i)


def test_float_passthrough():
    assert ln(math.e) == pytest.approx(1.0)
    assert sinh(0.0) == 0.0
    assert j0(0.0) == 1.0
    assert i0(0.0) == 1.0


def test_parser_rejects_garbage():
    # from "u**2" on: spellings that Python's parser takes and formulas do not
    for bad in ("u +", "2 **", "foo(u)", "u @ 2", "(u", "u)",
                "u**2", "1_0", "0x1", "1j", "True", "u<2", "ln(u,u)", "ln(u,)", "ln(x=u)", "u.real",
                "[u]", "not u", "~u", "u%2", "u//2", "ln(*u)", "ln(^u)", "2(u)", "1if u else u",
                "__import__(u)", "_const(u)", "eval(u)", "u.__class__", "j0.__call__(u)"):
        with pytest.raises(ProfileSpecError):
            parse_expression(bad)


@pytest.mark.parametrize("text, segment", [
    ("2(u)", "2(u)"),
    ("u//2", "u//2"),
    (" 1 +\tu\n//  007^2 ", "u\n//  007^2"),
])
def test_parser_refusals_quote_the_formula_as_written(text, segment):
    with pytest.raises(ProfileSpecError) as info:
        parse_expression(text)
    assert str(info.value) == f"unexpected {segment!r} in {text!r}"


def test_compiled_formula_names_only_u_const_and_the_functions():
    code = parse_expression("-2*ln(u)^2/sinh(+u)+cosh(u)-j0(u)*i0(.5)")
    assert sorted(code.co_names) == ["_const", "cosh", "i0", "j0", "ln", "sinh", "u"]


def test_evaluate_reads_the_function_table_per_call_and_no_builtins(monkeypatch):
    from sigeom import expressions
    from sigeom.bessel import DEFAULT_SERIES

    seen = []

    def spy(x):
        seen.append(sys._getframe(1).f_builtins)
        return ln(x)

    code = parse_expression("ln(u)")
    monkeypatch.setitem(expressions._FUNCTIONS, "ln", spy)
    u = Jet3.variable(2.0)
    assert expressions._evaluate(code, u, DEFAULT_SERIES) == ln(u)
    assert seen == [{}]


def test_poles_are_domain_errors():
    zero = Jet3.variable(1.0) - 1.0
    with pytest.raises(DomainError, match="^jet division by zero value$"):
        1.0 / zero
    with pytest.raises(DomainError, match=r"^\(0\.0\)\^\(-2\.0\) is undefined: 0 to a negative"):
        zero**-2


@pytest.mark.parametrize("text, jet", [
    ("007*u", (7.0 * 0.7, 7.0, 0.0, 0.0)),
    ("0" * 4400 + "7*u", (7.0 * 0.7, 7.0, 0.0, 0.0)),  # past Python's 4,300-digit integers
    ("--u", (0.7, 1.0, 0.0, 0.0)),
    ("+u", (0.7, 1.0, 0.0, 0.0)),
    ("u\n+\t1", (1.7, 1.0, 0.0, 0.0)),
    ("2^-2^2", (0.0625, 0.0, 0.0, 0.0)),  # 2^(-(2^2))
    (".5e1*u", (5.0 * 0.7, 5.0, 0.0, 0.0)),
])
def test_parser_accepts_the_formula_spellings(text, jet):
    from sigeom.expressions import _evaluate
    from sigeom.bessel import DEFAULT_SERIES

    assert _evaluate(parse_expression(text), Jet3.variable(0.7), DEFAULT_SERIES).as_tuple() == jet


def test_parser_precedence():
    from sigeom.expressions import _evaluate
    from sigeom.bessel import DEFAULT_SERIES

    ast = parse_expression("2 + 3 * u ^ 2")
    got = _evaluate(ast, Jet3.variable(2.0), DEFAULT_SERIES)
    assert got.f0 == pytest.approx(14.0)
    ast2 = parse_expression("-u^2")  # unary minus binds outside the power
    got2 = _evaluate(ast2, Jet3.variable(3.0), DEFAULT_SERIES)
    assert got2.f0 == pytest.approx(-9.0)
    ast3 = parse_expression("2^-2")
    got3 = _evaluate(ast3, Jet3.variable(1.0), DEFAULT_SERIES)
    assert got3.f0 == pytest.approx(0.25)
