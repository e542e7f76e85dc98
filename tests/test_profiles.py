import math

import pytest

from sigeom import (
    DomainError,
    NonConvergenceError,
    ProfileCurve,
    ProfileFamily,
    RevolutionSurface,
    SeriesConfig,
    StencilError,
    bessel_profile,
    constant_h_profile,
    constant_k_profile,
    curvatures,
    derivative_consistency_error,
    eval_profile,
    expression_profile,
    linear_profile,
    log_profile,
    power_profile,
)
from sigeom.bessel import bessel_i0, bessel_j0, bessel_k0, k0_jet


def _sample(lo, hi, n=50):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


# ----------------------------------------------------------------------
# constant curvature family


def test_constant_k_requires_positive_k0():
    with pytest.raises(DomainError):
        constant_k_profile(0.0, 1.0)
    with pytest.raises(DomainError):
        constant_k_profile(-1.0, 1.0)


def test_constant_k_degenerate_c1_is_quadratic():
    p = constant_k_profile(1.0, 0.0)
    assert eval_profile(p, 2.0) == pytest.approx(2.0, rel=1e-14)  # u^2/2
    p4 = constant_k_profile(4.0, 0.0)
    assert eval_profile(p4, 3.0) == pytest.approx(9.0, rel=1e-14)  # u^2
    s = RevolutionSurface(p4, u_range=(0.5, 5.0))
    for u in _sample(0.5, 5.0):
        K, _ = curvatures(s, u)
        assert K == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("k0,c1", [(1.0, 0.0), (1.0, 1.0), (4.0, 0.5), (2.0, -3.0)])
def test_constant_k_has_constant_curvature(k0, c1):
    p = constant_k_profile(k0, c1)
    lo, hi = p.domain
    s = RevolutionSurface(p, u_range=(lo, hi))
    for u in _sample(lo, hi):
        K, _ = curvatures(s, u)
        assert K == pytest.approx(k0, abs=1e-8)


def test_constant_k_empty_domain():
    with pytest.raises(DomainError):
        constant_k_profile(1.0, -200.0)  # needs u > ~14, outside the default range
    with pytest.raises(DomainError):
        constant_k_profile(1.0, -4.0, domain=(0.5, 1.5))  # needs u > 2


def test_constant_k_refuses_an_overflowing_psi():
    # c1 + k0 u^2 overflows at u = 2, so f' = psi is inf, and f'' = k0 u / psi is 0
    p = constant_k_profile(1e308, 1e308)
    assert math.isfinite(eval_profile(p, 0.5, 1))
    for order in range(4):
        with pytest.raises(DomainError, match=r"sqrt\(c1 \+ k0 u\^2\) overflows at u = 2.0$"):
            eval_profile(p, 2.0, order)


def test_constant_k_value_survives_an_overflowing_log_argument():
    # 2 sqrt(k0) (sqrt(k0) u + psi) is 2e308 at u = 0.5, past the float range,
    # while psi and f itself are finite: the logarithm is taken as a sum
    mpmath = pytest.importorskip("mpmath")
    k0, c1, u = 1e308, 1.0, 0.5
    p = constant_k_profile(k0, c1)
    with mpmath.workdps(50):
        rt, psi = mpmath.sqrt(k0), mpmath.sqrt(c1 + k0 * mpmath.mpf(u) ** 2)
        ref = u / 2 * psi + c1 / (2 * rt) * mpmath.log(2 * rt * (rt * u + psi))
        got = eval_profile(p, u)
        assert math.isfinite(got)
        assert abs((got - ref) / ref) <= 1e-15
    assert got == pytest.approx(1.25e153, rel=1e-15)


def test_constant_k_offset_does_not_move_curvature():
    a = constant_k_profile(1.0, 1.0)
    b = constant_k_profile(1.0, 1.0, offset=17.5)
    assert eval_profile(b, 2.0) - eval_profile(a, 2.0) == pytest.approx(17.5, rel=1e-14)
    assert eval_profile(a, 2.0, 1) == eval_profile(b, 2.0, 1)


# ----------------------------------------------------------------------
# constant mean curvature family


@pytest.mark.parametrize("h0,c1,c2", [(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, -1.0, 5.0)])
def test_constant_h_has_constant_mean_curvature(h0, c1, c2):
    p = constant_h_profile(h0, c1, c2)
    s = RevolutionSurface(p, u_range=(0.5, 4.0))
    for u in _sample(0.5, 4.0):
        _, H = curvatures(s, u)
        assert H == pytest.approx(h0, abs=1e-10)


def test_constant_h_zero_with_log_is_minimal():
    p = constant_h_profile(0.0, 1.0, 0.0)  # f = ln u
    assert eval_profile(p, 1.0) == 0.0
    s = RevolutionSurface(p, u_range=(0.5, 5.0))
    for u in _sample(0.5, 5.0):
        _, H = curvatures(s, u)
        assert abs(H) < 1e-14  # exact cancellation up to a final rounding


# ----------------------------------------------------------------------
# log family


def test_log_profile_values():
    p = log_profile(-2.0, 0.0)  # f = ln u
    assert eval_profile(p, 1.0) == 0.0
    assert eval_profile(p, 1.0, 2) == -1.0
    assert eval_profile(p, 2.0, 1) == 0.5


def test_log_profile_lambda_zero_rejected():
    with pytest.raises(DomainError):
        log_profile(0.0, 1.0)


@pytest.mark.parametrize("lam", [-2.0, 2.0, 5.0, -0.7])
def test_log_profile_is_minimal(lam):
    p = log_profile(lam, 0.3)
    s = RevolutionSurface(p, u_range=(0.5, 5.0))
    for u in _sample(0.5, 5.0):
        _, H = curvatures(s, u)
        assert abs(H) < 1e-14  # exact cancellation up to a final rounding


@pytest.mark.parametrize("lam,c", [(-2.0, 0.0), (3.0, 1.5), (0.25, -2.0)])
def test_log_matches_constant_h_family_exactly(lam, c):
    a = log_profile(lam, c)
    b = constant_h_profile(0.0, -2.0 / lam, c)
    for u in _sample(0.2, 9.5, 40):
        for order in range(4):
            assert eval_profile(a, u, order) == eval_profile(b, u, order)


_TINY, _HUGE = 5e-324, 1.7976931348623157e308


def _log_closed_forms(lam, c):
    # f = a ln u + c with a = -2/lam: the log family's own closed forms
    a = -2.0 / lam
    return (lambda u: a * math.log(u) + c, lambda u: a / u, lambda u: -(a / (u * u)),
            lambda u: (2.0 * a) / (u * u * u))


def _bits(fn, u):
    try:
        return fn(u).hex()
    except ZeroDivisionError:  # u*u or u*u*u underflows to 0
        return "ZeroDivisionError"


@pytest.mark.parametrize("domain", [None, (0.5, 5.0), (1e-320, 1.7e308), (_TINY, 4 * _TINY),
                                    (1e-200, 1e-199), (0.9, 1.1), (1e300, _HUGE)])
def test_log_profile_keeps_the_bits_of_its_closed_forms(domain):
    # log_profile is constant_h_profile's h0 = -0.0 member; its h0 terms must
    # not move a bit, signed zeros and the ends of the float range included
    lams = [_TINY, -_TINY, 2.2250738585072014e-308, -1e-300, 0.3, -1.0, 2.0, -7.5,
            1e10, -1e200, 1.8e308, -_HUGE]
    cs = [0.0, -0.0, _TINY, -_TINY, 1.0, -0.3, 1e-300, -1e300, _HUGE]
    for lam in lams:
        for c in cs:
            p = log_profile(lam, c, domain)
            assert p.family is ProfileFamily.LOG_TYPE and p.params == {"lam": lam, "c": c}
            lo, hi = p.domain
            for u in {lo, hi, math.sqrt(lo) * math.sqrt(hi), math.nextafter(lo, hi), 1.0}:
                if lo <= u <= hi:
                    got = [_bits(lambda x: eval_profile(p, x, k), u) for k in range(4)]
                    assert got == [_bits(fn, u) for fn in _log_closed_forms(lam, c)]


# ----------------------------------------------------------------------
# power family


def test_power_profile_validation():
    with pytest.raises(DomainError):
        power_profile(1.0, 1.0, 1.0)  # mu/lam = 1
    with pytest.raises(DomainError):
        power_profile(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        power_profile(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        power_profile(1.0, 2.0, 0.0)


def test_power_profile_values():
    p = power_profile(1.0, 2.0, 1.0)  # f = 1 + u^2
    assert eval_profile(p, 2.0) == pytest.approx(5.0, rel=1e-14)
    assert eval_profile(p, 2.0, 1) == pytest.approx(4.0, rel=1e-14)
    assert p.family is ProfileFamily.POWER_TYPE


# ----------------------------------------------------------------------
# solution family of the radial eigen-ODE


@pytest.mark.parametrize("lam3", [1.0, 4.0, 0.5])
def test_bessel_profile_positive_lambda_solves_ode(lam3):
    p = bessel_profile(lam3, 1.0, 0.0)
    for u in _sample(0.5, 5.0):
        res = eval_profile(p, u, 2) + eval_profile(p, u, 1) / u + lam3 * eval_profile(p, u)
        assert abs(res) < 1e-7


@pytest.mark.parametrize("lam3", [-1.0, -0.5])
def test_bessel_profile_negative_lambda_solves_ode(lam3):
    p = bessel_profile(lam3, 1.0, 0.25)
    for u in _sample(0.5, 5.0):
        res = eval_profile(p, u, 2) + eval_profile(p, u, 1) / u + lam3 * eval_profile(p, u)
        assert abs(res) < 1e-7


def test_bessel_profile_matches_bessel_functions():
    p = bessel_profile(1.0, 1.0, 0.0)
    assert eval_profile(p, 1.3) == pytest.approx(bessel_j0(1.3), rel=1e-14)
    q = bessel_profile(-4.0, 1.0, 0.0)
    assert eval_profile(q, 1.3) == pytest.approx(bessel_i0(2.6), rel=1e-14)


def test_k0_only_profile_sums_no_i0():
    # past x of about 258 I0's series does not converge; a profile without
    # I0 never sums it, and one with it is refused there
    p = bessel_profile(-1.0, 0.0, 2.0, domain=(1.0, 700.0))
    assert eval_profile(p, 600.0) == 2.0 * bessel_k0(600.0) > 0.0
    assert eval_profile(p, 600.0, 3) == 2.0 * k0_jet(600.0)[3] < 0.0
    with pytest.raises(NonConvergenceError):
        eval_profile(bessel_profile(-1.0, 1.0, 2.0, domain=(1.0, 700.0)), 600.0)


def test_bessel_profile_zero_solution_allowed():
    p = bessel_profile(4.0, 0.0, 0.0)
    assert eval_profile(p, 1.0) == 0.0
    assert eval_profile(p, 1.0, 1) == 0.0


def test_bessel_profile_lambda_zero_rejected():
    with pytest.raises(DomainError):
        bessel_profile(0.0, 1.0, 0.0)


# ----------------------------------------------------------------------
# evaluation contract


def test_eval_profile_order_and_domain_checks():
    p = constant_h_profile(1.0, 0.0, 0.0)
    assert eval_profile(p, 2.0, 1) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        eval_profile(p, 2.0, 4)
    with pytest.raises(DomainError):
        eval_profile(p, 0.0)
    with pytest.raises(DomainError):
        eval_profile(bessel_profile(1.0, 1.0, 0.0), 0.0)


@pytest.mark.parametrize("domain, message", [
    ((1.0, math.inf), "profile domain must be a finite interval, got (1.0, inf)"),
    ((math.nan, 1.0), "profile domain must be a finite interval, got (nan, 1.0)"),
    ((0.0, 1.0), "profile domain must exclude u <= 0, got (0.0, 1.0)"),
    ((-1.0, 1.0), "profile domain must exclude u <= 0, got (-1.0, 1.0)"),
])
def test_profile_curve_refuses_a_bad_domain(domain, message):
    with pytest.raises(DomainError) as info:
        ProfileCurve(lambda u, orders=(0, 1, 2, 3): [math.exp(u)] * len(orders), domain)
    assert str(info.value) == message


@pytest.mark.parametrize("domain", [(2.0, 1.0), (2.0, 2.0)])
def test_constructors_refuse_an_empty_domain(domain):
    with pytest.raises(DomainError) as info:
        linear_profile(1.0, 0.0, domain=domain)
    assert str(info.value) == f"empty domain [{domain[0]!r}, {domain[1]!r}]"


def test_default_domain():
    p = log_profile(-2.0, 0.0)
    assert p.domain == (0.1, 10.0)


def test_linear_profile_exact_zero_curvature():
    p = linear_profile(2.0, 1.0)
    s = RevolutionSurface(p, u_range=(0.5, 5.0))
    for u in _sample(0.5, 5.0):
        K, _ = curvatures(s, u)
        assert K == 0.0


# ----------------------------------------------------------------------
# derivative consistency across every family


@pytest.mark.parametrize(
    "profile",
    [
        constant_k_profile(1.0, 1.0),
        constant_k_profile(4.0, -0.5),
        constant_h_profile(1.0, -1.0, 5.0),
        log_profile(-2.0, 0.0),
        power_profile(1.0, 3.0, 1.0),
        power_profile(2.0, 1.0, -1.5),
        bessel_profile(1.0, 1.0, 0.3, domain=(0.3, 8.0)),
        bessel_profile(-1.0, 0.5, 0.25, domain=(0.3, 8.0)),
        linear_profile(1.0, 2.0),
        expression_profile("u^2 + 3*ln(u)"),
    ],
    ids=lambda p: f"{p.family.value}:{sorted(p.params.items())}",
)
def test_analytic_derivatives_match_finite_differences(profile):
    assert derivative_consistency_error(profile, n_points=20, seed=3) < 1e-5


@pytest.mark.parametrize(
    "profile",
    [
        constant_k_profile(1.0, -1.0, domain=(1.0001, 1.0003)),
        log_profile(1.0, 0.0, domain=(1e-4, 2e-4)),
        power_profile(1.0, 3.0, 1.0, domain=(1.0, 1.0005)),
    ],
    ids=["constk", "log", "power"],
)
def test_derivative_consistency_refuses_a_stencil_leaving_the_domain(profile):
    # the five-point stencil reaches u +- 2h, h = 5e-4 max(1, |u|): wider
    # than each of these domains
    lo, hi = profile.domain
    with pytest.raises(StencilError, match=rf"step h=.* leaves the profile domain \[{lo!r}, {hi!r}\]"):
        derivative_consistency_error(profile)


# ----------------------------------------------------------------------
# expression profiles


def test_expression_profile_polynomial():
    p = expression_profile("u^2 + 3*ln(u)")
    u = 2.0
    assert eval_profile(p, u) == pytest.approx(4.0 + 3.0 * math.log(2.0), rel=1e-14)
    assert eval_profile(p, u, 1) == pytest.approx(2.0 * u + 3.0 / u, rel=1e-14)
    assert eval_profile(p, u, 2) == pytest.approx(2.0 - 3.0 / (u * u), rel=1e-14)
    assert eval_profile(p, u, 3) == pytest.approx(6.0 / (u * u * u), rel=1e-14)


def test_expression_profile_bessel_function():
    p = expression_profile("j0(2*u) + 0.5")
    u = 1.2
    assert eval_profile(p, u) == pytest.approx(bessel_j0(2.4) + 0.5, rel=1e-13)


def test_expression_profile_hyperbolics():
    p = expression_profile("sinh(u) / cosh(u)")
    u = 0.8
    assert eval_profile(p, u) == pytest.approx(math.tanh(u), rel=1e-13)
    sech2 = 1.0 / math.cosh(u) ** 2
    assert eval_profile(p, u, 1) == pytest.approx(sech2, rel=1e-12)


def test_expression_profile_respects_series_config():
    p = expression_profile("i0(u)", cfg=SeriesConfig(rel_tol=1e-15, max_terms=200))
    assert eval_profile(p, 2.0) == pytest.approx(bessel_i0(2.0), rel=1e-14)
