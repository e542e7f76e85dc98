import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sigeom import (
    EULER_GAMMA,
    BesselKind,
    DomainError,
    NonConvergenceError,
    SeriesConfig,
    bessel_i0,
    bessel_j,
    bessel_j0,
    bessel_k0,
    bessel_y0,
    gamma,
    harmonic,
    jp_pair_solution,
    modified_pair_solution,
    ode_residual,
    pochhammer,
)
import sigeom.bessel as bessel
from sigeom.bessel import i0_jet, j0_jet, jp_jet, k0_jet, y0_jet

from mp_bessel import JET_BOUND, jet_error, modified_jet_errors, plain_jet_errors, plain_jet_reference

# step for finite-difference residual checks; large arguments need the
# x-proportional cap to keep the log-singular functions resolved near 0
def _fd_step(x):
    return min(8e-3, x / 80.0)


# ----------------------------------------------------------------------
# gamma / pochhammer / harmonic


def test_gamma_small_integers():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    for n in range(2, 15):
        assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)


def _gamma_quadrature(x):
    # the integrand has an integrable singularity q^(x-1) at 0 for x < 1;
    # hand that factor to the algebraic-weight rule and integrate the rest
    if x < 1.0:
        head, _ = quad(lambda q: math.exp(-q), 0.0, 1.0,
                       weight="alg", wvar=(x - 1.0, 0.0), epsabs=0.0, epsrel=1e-13)
        tail, _ = quad(lambda q: math.exp(-q) * q ** (x - 1.0), 1.0, math.inf,
                       epsabs=0.0, epsrel=1e-13, limit=300)
        return head + tail
    val, _ = quad(lambda q: math.exp(-q) * q ** (x - 1.0), 0.0, math.inf,
                  epsabs=0.0, epsrel=1e-13, limit=300)
    return val


@pytest.mark.parametrize("x", [0.5, 0.25, 1.5, 3.7, 10.3, 20.0, 37.5, 50.0])
def test_gamma_against_quadrature(x):
    assert gamma(x) == pytest.approx(_gamma_quadrature(x), rel=1e-12)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_reflection_negative():
    # Gamma(-0.5) = -2 sqrt(pi)
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)


def test_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma(x)


# gamma is math.gamma: the Lanczos approximation it replaced was 5.8e-14
# relative off on [1e-3, 50]
@pytest.mark.parametrize("x", [*np.geomspace(1e-3, 50.0, 61).tolist(), -0.5, -1.7, -2.3, -7.25, -20.9])
def test_gamma_against_mpmath(x):
    want = mpmath.gamma(mpmath.mpf(x))
    assert abs(gamma(x) - want) <= 2e-15 * abs(want), x


def test_gamma_edges():
    for x, message in ((math.nan, "gamma requires a finite argument, got nan"),
                       (-math.inf, "gamma requires a finite argument, got -inf"),
                       (-3.0, "gamma has a pole at -3.0")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            gamma(x)
    for x in (171.7, 1e-320):  # Gamma overflows: the Lanczos gamma returned inf
        with pytest.raises(OverflowError):
            gamma(x)
    # Gamma underflows: the Lanczos gamma raised OverflowError
    assert gamma(-171.5) == 1.9316265431712e-310
    assert math.copysign(1.0, gamma(-200.5)) == -1.0 and gamma(-200.5) == 0.0


@given(st.floats(min_value=0.1, max_value=48.0, allow_nan=False))
@settings(max_examples=200)
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_pochhammer_examples():
    assert pochhammer(2.7, 0) == 1.0
    assert pochhammer(-3.1, 0) == 1.0
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(1.5, 3) == pytest.approx(13.125, rel=1e-14)


@given(st.floats(min_value=0.1, max_value=20.0), st.integers(min_value=0, max_value=10))
@settings(max_examples=200)
def test_pochhammer_gamma_ratio(k, n):
    assert pochhammer(k, n) == pytest.approx(gamma(k + n) / gamma(k), rel=1e-10)


def test_harmonic_examples():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)


def test_harmonic_euler_limit():
    n = 10**6
    assert abs(harmonic(n) - math.log(n) - EULER_GAMMA) < 1e-6


def test_series_harmonic_numbers_take_no_recursion(monkeypatch):
    # the log series' phi(n), correctly rounded from an exact ratio; a
    # fresh table up to n = 5000 (a recursion per n would pass Python's
    # limit of 1000 frames)
    monkeypatch.setattr(bessel, "_HARMONIC", [(0, 1)])
    assert bessel._phi.__wrapped__(5000) == float(sum(Fraction(1, m) for m in range(1, 5001)))
    assert bessel._phi.__wrapped__(7) == float(Fraction(363, 140))


# ----------------------------------------------------------------------
# order-zero values against exact rational partial sums


def _j0_fraction(x_num, x_den, terms=40):
    # exact partial sum of sum (-1)^n (x/2)^(2n) / (n!)^2 for rational x
    q = Fraction(x_num, x_den) ** 2 / 4
    acc = Fraction(0)
    t = Fraction(1)
    for n in range(terms):
        acc += t
        t = -t * q / Fraction((n + 1) * (n + 1))
    return acc


def _i0_fraction(x_num, x_den, terms=40):
    q = Fraction(x_num, x_den) ** 2 / 4
    acc = Fraction(0)
    t = Fraction(1)
    for n in range(terms):
        acc += t
        t = t * q / Fraction((n + 1) * (n + 1))
    return acc


def test_j0_exact_oracle():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(1.0) == pytest.approx(float(_j0_fraction(1, 1)), abs=5e-16)
    assert bessel_j0(1.0) == pytest.approx(0.7651976866, abs=1e-10)
    assert bessel_j0(2.5) == pytest.approx(float(_j0_fraction(5, 2)), abs=5e-16)


def test_i0_exact_oracle():
    assert bessel_i0(0.0) == 1.0
    assert bessel_i0(2.0) == pytest.approx(float(_i0_fraction(2, 1)), abs=1e-15)
    assert bessel_i0(2.0) == pytest.approx(2.2795853023, abs=1e-10)


@given(st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=100)
def test_i0_even_and_at_least_one(x):
    assert bessel_i0(-x) == bessel_i0(x)
    assert bessel_i0(x) >= 1.0


def test_i0_monotone():
    xs = [0.1 * k for k in range(101)]
    vals = [bessel_i0(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_j0_bounded_and_oscillating():
    xs = [0.05 * k for k in range(201)]
    vals = [bessel_j0(x) for x in xs]
    assert max(abs(v) for v in vals) <= 1.0
    assert min(vals) < -0.3  # it does go negative on [0, 10]


def test_j0_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    flo = bessel_j0(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = bessel_j0(mid)
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(2.404825558, abs=1e-7)
    assert abs(bessel_j0(2.4048255577)) < 1e-9


def test_truncation_monotonicity():
    loose = SeriesConfig(rel_tol=1e-8)
    tight = SeriesConfig(rel_tol=1e-14)
    for x in (0.5, 2.0, 5.0, 8.5, 10.0):
        assert abs(bessel_j0(x, loose) - bessel_j0(x, tight)) < 1e-7


def test_non_convergence_raises():
    with pytest.raises(NonConvergenceError):
        bessel_j0(10.0, SeriesConfig(rel_tol=1e-15, max_terms=3))


def test_j0_i0_domain():
    for bad in (math.nan, math.inf, -math.inf):
        for fn in (bessel_j0, j0_jet, bessel_i0, i0_jet):
            with pytest.raises(DomainError, match=f"requires finite x, got {bad!r}$"):
                fn(bad)


def _rounded_series_jet(sign, x):
    """J0 (sign -1) or I0 (+1) and three derivatives at a small x, from five
    terms of the series in mpmath, each rounded once."""
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        return tuple(
            float(sum(sign**n * mpmath.ff(2 * n, k) * m ** (2 * n - k) / (4**n * mpmath.factorial(n) ** 2)
                      for n in range(5) if 2 * n >= k))
            for k in range(4)
        )


# below 2^-26 the J0/I0 jets are their Taylor limit (1, s x/2, s/2, 3x/8),
# the rounded jet there; f''' used to be 0 below 2^-340
@pytest.mark.parametrize("x", [6.3e-212, 1e-160, 5e-324, 2.0**-511 * (1.0 - 2.0**-53)])
def test_j0_i0_jets_at_tiny_arguments(x):
    for jet, sign in ((j0_jet, -1.0), (i0_jet, 1.0)):
        assert jet(x) == _rounded_series_jet(sign, x)
        for arg in (x, -x):
            assert jet(arg) == (1.0, 0.5 * sign * arg, 0.5 * sign, 0.375 * arg)


def test_j0_i0_jets_at_zero_keep_their_bits():
    for arg in (0.0, -0.0):
        for jet, want in ((j0_jet, (1.0, 0.0, -0.5, 0.0)), (i0_jet, (1.0, 0.0, 0.5, 0.0))):
            got = np.array(jet(arg))
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_j0_i0_jets_just_above_the_tiny_bound():
    # the Taylor limit below 2^-26 and the jet summed from the series rows
    # above are within 1.5 ulp of mpmath on either side of the switch
    for x in np.geomspace(2.0**-28, 2.0**-24, 80).tolist():
        for jet, kind in ((j0_jet, "j"), (i0_jet, "i")):
            for got, want in zip(jet(x), plain_jet_reference(kind, 0.0, x)):
                assert abs(mpmath.mpf(got) - want) <= 1.5 * math.ulp(float(want)), x


def test_j0_i0_third_derivatives_take_their_first_term_at_small_x():
    # J0''' = 3x/8 - 5x^3/96 + ..., I0''' = 3x/8 + 5x^3/96 + ...: the row
    # of f'''/h starts at 3/4, and no series stops before its n = 2 term
    xs = np.concatenate((np.geomspace(2.0**-250, 1e-7, 40), [5e-8, 1e-8]))
    for jet, sign in ((j0_jet, -1.0), (i0_jet, 1.0)):
        for x in xs.tolist():
            m = mpmath.mpf(x)
            want = float(3 * m / 8 + sign * 5 * m**3 / 96)
            assert abs(jet(x)[3] - want) <= 1e-14 * want, x
            assert abs(jet(-x)[3] + want) <= 1e-14 * want, -x
        # from the Taylor limit below 2^-26 to the series above, one array
        # call gives a pointwise call's bits
        lanes = np.concatenate(([2.0**-341, 2.0**-340, 2.0**-339, 2.0**-300, 2.0**-256], xs))
        got = np.array(jet(lanes)).view(np.int64)
        assert (got == np.array([jet(x) for x in lanes.tolist()]).T.view(np.int64)).all()
        # f''' is 3x/8, where it used to be 0 below the old 2^-340 bound and
        # its first term underflowed up to about 2^-254
        for x in (2.0**-340, 2.0**-300, 2.0**-268):
            assert jet(x) == (1.0, 0.5 * sign * x, 0.5 * sign, 0.375 * x)


# near 2^-332 the Y0/K0 jets' 2/x^3 term overflows Dekker's split (a nan third
# derivative), and below 5.6e-103 the float range: they refuse x < 2^-330
@pytest.mark.parametrize("x", [1e-200, 1e-110, 1e-105, 3e-103, 2.0**-330 * (1.0 - 2.0**-53)])
def test_y0_k0_jets_refuse_tiny_arguments(x):
    for jet in (y0_jet, k0_jet):
        for arg in (x, np.array([1.0, x, 1e-300, 2.0])):
            with pytest.raises(DomainError, match=rf"requires finite x >= 2\*\*-330, got {x!r}$"):
                jet(arg)


@pytest.mark.parametrize("x", [2.0**-330, 1.5 * 2.0**-330])
def test_y0_k0_jets_at_the_tiny_bound(x):
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        k0, k1 = mpmath.besselk(0, m), mpmath.besselk(1, m)
        y0, y1 = mpmath.bessely(0, m), mpmath.bessely(1, m)
        # K0' = -K1 and K1' = -K0 - K1/x; Y0' = -Y1 and Y1' = Y0 - Y1/x
        refs = {
            k0_jet: (k0, -k1, k0 + k1 / m, -k1 - k0 / m - 2 * k1 / m**2),
            y0_jet: (y0, -y1, -y0 + y1 / m, y1 + y0 / m - 2 * y1 / m**2),
        }
        for jet, want in refs.items():
            for got in (jet(x), [c[0] for c in jet(np.array([x, 1.0]))]):
                for g, w in zip(got, want):
                    assert abs(mpmath.mpf(float(g)) - w) <= 1e-15 * abs(w)


# every order of the Y0/K0 jets against mpmath (tests/mp_bessel.py) on
# [2^-330, 20]: relative for K0, against max(1, |Y0^(k)|) for Y0; an array
# call gives each pointwise call's bits, and f is the value to within an ulp.
# K0 also where denser probes of [18, 20] found the double-double series'
# largest errors, 5.6e-15 and 1.07e-14 (then within a bound of 2e-14)
JET_XS = np.concatenate((np.geomspace(2.0**-330, 1.0, 150), np.linspace(1.0, 20.0, 150)))
K0_XS = np.concatenate((JET_XS, [19.960416666666667, 19.960933333333333]))


@pytest.mark.parametrize("kind, jet, value", [("y0", y0_jet, bessel_y0), ("k0", k0_jet, bessel_k0)])
def test_y0_k0_jets_against_mpmath(kind, jet, value):
    xs = K0_XS if kind == "k0" else JET_XS
    lanes = np.array(jet(xs))
    for x, column in zip(xs.tolist(), lanes.T):
        got = jet(x)
        assert np.array(got).view(np.int64).tolist() == column.view(np.int64).tolist(), x
        assert jet_error(kind, x, got) <= JET_BOUND, x
        assert abs(got[0] - value(x)) <= math.ulp(got[0]), x


# every order of the J0, I0 and J_p jets against mpmath (tests/mp_bessel.py)
# on [2^-60, 20], through the switch to the J0/I0 Taylor limit at 2^-26,
# against max(1, |f^(k)|).  The bounds used to be 1e-11 for the J0/I0 f'''
# (their rows stopped on the value row) and 2e-10 and 3e-10 for J_0.3 and
# J_-1.7 (their series divided by n (p + n) with p + n rounded).
PLAIN_JET_XS = np.concatenate((np.geomspace(2.0**-60, 1.0, 150), np.linspace(1.0, 20.0, 100)[1:]))


@pytest.mark.parametrize("kind, p, jet, bounds", [
    ("j", 0.0, j0_jet, (JET_BOUND,) * 4),
    ("i", 0.0, i0_jet, (JET_BOUND,) * 4),
    ("j", 1.25, lambda x: jp_jet(1.25, x), (JET_BOUND,) * 3 + (1e-14,)),
    ("j", 0.3, lambda x: jp_jet(0.3, x), (JET_BOUND,) * 4),
    ("j", -1.7, lambda x: jp_jet(-1.7, x), (JET_BOUND,) * 4),
], ids=["j0", "i0", "jp(1.25)", "jp(0.3)", "jp(-1.7)"])
def test_plain_jets_against_mpmath(kind, p, jet, bounds):
    for x in PLAIN_JET_XS.tolist():
        errors = plain_jet_errors(kind, p, x, jet(x))
        assert all(e <= bound for e, bound in zip(errors, bounds)), (x, errors)


# every order of jp_jet against mpmath from 2^-60 to 100, densest around
# the crossovers to Miller's recurrence (x_c = 2 to 5.8 here): the
# double-double series was 4e-9 off past x = 30, and 8.8e-14 at p = -1.999
# through its Lanczos gamma
JP_JET_XS = np.concatenate((np.geomspace(2.0**-60, 1.0, 80), np.linspace(0.5, 12.0, 47),
                            np.linspace(12.0, 100.0, 177)))


@pytest.mark.parametrize("p", [0.3, 1.25, -1.7, -2.3, 7.3, -1.999, 0.001])
def test_jp_jets_against_mpmath_to_100(p):
    for x in JP_JET_XS.tolist():
        errors = plain_jet_errors("j", p, x, jp_jet(p, x))
        assert max(errors) <= JET_BOUND, (x, errors)


# every x in (0, 30] that the double-double series answered at |p| <= 100 is
# answered, and an array call gives each x's bits: the series refused only
# where math.pow overflowed in (x/2)^p, and it answered +-inf where
# (x/2)^p / Gamma(1+p) overflows, which is now refused
@pytest.mark.parametrize("p", [-100.3, -40.3, -10.3, -2.3, -0.7, 0.3, 1.25, 10.3, 40.3, 100.3])
def test_jp_answers_every_x_to_30(p):
    xs, values = [], []
    for x in np.concatenate((np.geomspace(1e-300, 0.05, 150), np.linspace(0.05, 30.0, 600))).tolist():
        try:
            math.pow(0.5 * x, p)
        except OverflowError:
            continue
        if math.isinf(math.pow(0.5 * x, p) / math.gamma(1.0 + p)):
            with pytest.raises(DomainError, match=re.escape(f"p={p!r} overflows at x={x!r}")):
                bessel_j(p, x)
            continue
        xs.append(x)
        values.append(bessel_j(p, x))
    assert np.array(bessel_j(p, np.array(xs))).tolist() == values


# past about p = 120 Miller's unnormalised sequence would pass the float
# range at a raised max_terms; it is scaled by exact powers of 2
@pytest.mark.parametrize("p, x", [(150.3, 30.0), (300.3, 40.0), (-150.3, 30.0), (500.3, 400.0)])
def test_jp_miller_rescales_at_a_raised_max_terms(p, x):
    cfg = SeriesConfig(max_terms=2000)
    want = mpmath.besselj(p, x)
    assert abs(bessel_j(p, x, cfg) - want) <= 1e-13 * abs(want)
    assert bessel_j(p, np.array([x, 2.0 * x]), cfg)[0] == bessel_j(p, x, cfg)


# 2p overflows for |p| > 8.9e307, where the non-integer test's math.floor
# raised OverflowError
@pytest.mark.parametrize("p", [1e308, -1e308, 1.7976931348623157e308])
def test_jp_refuses_an_infinite_2p(p):
    want = "^" + re.escape(f"bessel_j requires a finite 2p, got p={p!r}") + "$"
    for run in (lambda: bessel_j(p, 1.0), lambda: bessel_j(p, np.array([1.0, 2.0])), lambda: jp_jet(p, 1.0)):
        with pytest.raises(DomainError, match=want):
            run()


# x^3 is subnormal below 2^-340 and jp_jet's a3 divides by it: 1e-110 ended
# in a ZeroDivisionError, 1e-100 still has all four values
def test_jp_jet_refuses_x_below_the_tiny_bound():
    assert all(math.isfinite(v) for v in jp_jet(0.3, 1e-100))
    for x in (1e-110, 2.0**-341, 0.0):
        with pytest.raises(DomainError, match=rf"^jp_jet requires x >= 2\*\*-340, got {x!r}$"):
            jp_jet(0.3, x)


# for p < 0 the prefactors a_k ~ x^(p-k) overflow at small x, below about
# 4.2e-66 for p = -1.7: jp_jet(-1.7, 1e-90) returned (-7.6e152, 1.3e243,
# -inf, nan)
@pytest.mark.parametrize("x", [1e-90, 2.0**-330, 4.220262892150197e-66])
def test_jp_jet_refuses_an_overflowing_jet(x):
    want = "^" + re.escape(f"jp_jet of order p=-1.7 overflows at x={x!r}") + "$"
    with pytest.raises(DomainError, match=want):
        jp_jet(-1.7, x)
    assert all(math.isfinite(v) for v in jp_jet(-1.7, 4.7e-66))


# (x/2)^p / Gamma(1+p) overflows for large negative p at small x, where
# bessel_j returned +-inf: -inf at (-171.3, 0.5), inf at (-100.3, 0.01)
@pytest.mark.parametrize("p, x", [(-171.3, 0.5), (-100.3, 0.01)])
def test_bessel_j_refuses_an_overflowing_value(p, x):
    want = "^" + re.escape(f"bessel_j of order p={p!r} overflows at x={x!r}") + "$"
    with pytest.raises(DomainError, match=want):
        bessel_j(p, x)
    with pytest.raises(DomainError, match=re.escape(f"jp_jet of order p={p!r} overflows")):
        jp_jet(p, x)
    # an array refuses its first non-finite lane, as a pointwise loop does:
    # before a lane past Miller's reach, and after a lane that converges
    xs = np.array([3.0, x, 2.0 * x, 200.0])
    with pytest.raises(DomainError, match=want):
        bessel_j(p, xs)
    assert math.isfinite(bessel_j(p, 3.0))
    with pytest.raises(NonConvergenceError):
        bessel_j(p, np.array([200.0, x]))


# below about x = 0.03 (x/2)^p itself overflows for p = -171.3: math.pow
# raised a bare OverflowError ("math range error") that named neither p nor x
@pytest.mark.parametrize("x", [1e-5, 0.03, 1e-100])
def test_jp_refuses_an_overflowing_power(x):
    p = -171.3
    want = "^" + re.escape(f"bessel_j of order p={p!r} overflows at x={x!r}") + "$"
    with pytest.raises(DomainError, match=want):
        bessel_j(p, x)
    with pytest.raises(DomainError, match=want.replace("bessel_j", "jp_jet")):
        jp_jet(p, x)
    # a pointwise loop's order: after a lane that converges, before a lane
    # past Miller's reach, and after an earlier refusal
    with pytest.raises(DomainError, match=want):
        bessel_j(p, np.array([3.0, x, 0.5, 200.0]))
    with pytest.raises(NonConvergenceError):
        bessel_j(p, np.array([200.0, x]))


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(rel_tol=2.0)
    with pytest.raises(ValueError):
        SeriesConfig(max_terms=0)


# ----------------------------------------------------------------------
# y0 / k0


def test_y0_domain_and_limit():
    with pytest.raises(DomainError):
        bessel_y0(0.0)
    with pytest.raises(DomainError):
        bessel_y0(-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for fn in (bessel_y0, y0_jet):
            with pytest.raises(DomainError, match=f"got {bad!r}$"):
                fn(bad)
    assert bessel_y0(1e-8) < -10.0
    assert bessel_y0(1e-12) < bessel_y0(1e-8)


# at 13 terms J0's rows have not converged at these x while Y0's log series
# has: the value sums Y0's series alone, the jet also sums the J0 jet
Y0_ONLY_XS = [1.84, 1.841, 1.842]


def test_y0_value_sums_no_j0_row():
    cfg = SeriesConfig(max_terms=13)
    for x in Y0_ONLY_XS:
        with pytest.raises(NonConvergenceError, match=f"at x={x!r}$"):
            y0_jet(x, cfg)
        assert bessel_y0(x, cfg) == bessel_y0(x) == y0_jet(x)[0]
    xs = np.array([0.5, *Y0_ONLY_XS, 1.0])
    assert bessel_y0(xs, cfg).tolist() == [bessel_y0(x) for x in xs.tolist()]


def test_k0_domain_and_limit():
    with pytest.raises(DomainError):
        bessel_k0(0.0)
    with pytest.raises(DomainError):
        bessel_k0(-0.5)
    for bad in (math.nan, math.inf, -math.inf):
        for fn in (bessel_k0, k0_jet):
            with pytest.raises(DomainError, match=f"got {bad!r}$"):
                fn(bad)
    assert bessel_k0(1e-8) > 10.0
    assert bessel_k0(1e-12) > bessel_k0(1e-8)


# the order-zero values against mpmath at 50 digits, 200 arguments each:
# (function, oracle, upper end of the range, bound, error scale).  J0 is
# bounded by 1, so its error is absolute; Y0's is absolute up to |Y0| = 1 and
# relative past it, near its log singularity; I0 and K0 are relative.  K0 is
# cut at 20, where the series still holds 3.5e-15 (1.1e-10 at 25).
ORDER0_ORACLES = {
    "j0": (bessel_j0, mpmath.besselj, 25.0, 1e-15, lambda ref: 1),
    "y0": (bessel_y0, mpmath.bessely, 25.0, 1e-15, lambda ref: max(1, abs(ref))),
    "i0": (bessel_i0, mpmath.besseli, 25.0, 1e-15, abs),
    "k0": (bessel_k0, mpmath.besselk, 20.0, 1e-14, abs),
}


@pytest.mark.parametrize("name", sorted(ORDER0_ORACLES))
def test_order0_values_against_mpmath(name):
    fn, oracle, hi, bound, scale = ORDER0_ORACLES[name]
    with mpmath.workdps(50):
        for x in np.geomspace(1e-3, hi, 200).tolist():
            ref = oracle(0, mpmath.mpf(x))
            err = abs(mpmath.mpf(fn(x)) - ref) / scale(ref)
            assert err <= bound, (x, float(err))


def _fd_derivative(fn, x):
    h = 1e-6 * max(1.0, abs(x))
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_wronskian_j0_y0(x):
    lhs = bessel_j0(x) * _fd_derivative(bessel_y0, x) - _fd_derivative(bessel_j0, x) * bessel_y0(x)
    assert lhs == pytest.approx(2.0 / (math.pi * x), abs=1e-8)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_wronskian_i0_k0(x):
    lhs = bessel_i0(x) * _fd_derivative(bessel_k0, x) - _fd_derivative(bessel_i0, x) * bessel_k0(x)
    assert lhs == pytest.approx(-1.0 / x, abs=1e-8)


def _i0_top() -> float:
    """The largest x, to 1e-3, whose I0 jet the default SeriesConfig sums."""
    lo, hi = 200.0, 300.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        try:
            i0_jet(mid)
            lo = mid
        except NonConvergenceError:
            hi = mid
    return lo


I0_TOP = _i0_top()
# I0 through the switch to its Taylor limit at 2^-26, densest near the top,
# where its terms' rounding adds up most (3.98e-15 at x = 257.56, in f);
# K0 through the switch to its trapezoidal rule at 2, and at 80, where the
# double-double series gave -251
I0_XS = np.concatenate((np.geomspace(2.0**-60, 1.0, 80), np.linspace(1.0, I0_TOP, 200),
                        np.linspace(I0_TOP - 30.0, I0_TOP, 100)))
K0_WIDE_XS = np.concatenate((np.geomspace(2.0**-330, 700.0, 300), np.linspace(1.9, 2.1, 41), [80.0]))


@pytest.mark.parametrize("kind, jet, value, xs", [
    ("i0", i0_jet, bessel_i0, I0_XS), ("k0", k0_jet, bessel_k0, K0_WIDE_XS),
])
def test_i0_k0_jets_relative_to_mpmath(kind, jet, value, xs):
    # every order relative to mpmath across each jet's domain, and the value;
    # an array call gives each pointwise call's bits, and each value is its
    # jet's f
    lanes = np.array(jet(xs))
    for x, column in zip(xs.tolist(), lanes.T):
        got = jet(x)
        assert np.array(got).view(np.int64).tolist() == column.view(np.int64).tolist(), x
        assert max(modified_jet_errors(kind, x, got)) <= JET_BOUND, x
        assert modified_jet_errors(kind, x, [value(x)])[0] <= JET_BOUND, x
        assert value(x) == got[0], x


# K0 and K1 = -K0' on the lanes of K0's trapezoidal rule, x >= 2, densest
# just past the switch from the log series (which is 1.9e-15 off at 1.9,
# under JET_BOUND above): within 1e-15 relative of mpmath, where Steed's
# CF2 was 2.2e-15 off near x = 4
K0_RULE_XS = np.concatenate((np.linspace(2.0, 2.1, 21), np.geomspace(2.0, 700.0, 500)))


def _k0_k1_errors(cfg=bessel.DEFAULT_SERIES) -> np.ndarray:
    """The relative errors of K0 and K0' = -K1 at each x of K0_RULE_XS."""
    got = np.array(k0_jet(K0_RULE_XS, cfg)[:2]).T
    return np.array([modified_jet_errors("k0", x, row) for x, row in zip(K0_RULE_XS.tolist(), got)])


def test_k0_k1_from_two_within_1e_15():
    errors = _k0_k1_errors()
    assert errors.max() <= 1e-15, K0_RULE_XS[errors.max(axis=1).argmax()]


@pytest.mark.parametrize("rel_tol", [1e-2, 1e-5, 1e-8, 1e-12])
def test_k0_rule_meets_a_loose_rel_tol(rel_tol):
    # the rule takes its step and nodes from rel_tol, and stays within it
    errors = _k0_k1_errors(SeriesConfig(rel_tol=rel_tol))
    assert errors.max() <= rel_tol, K0_RULE_XS[errors.max(axis=1).argmax()]


def test_i0_value_is_the_jets_f():
    # bessel_i0 is row 0 of the rows i0_jet divides by x^k, as bessel_k0 is
    # k0_jet's f: one array call each, through x = 258 near I0_TOP
    xs = np.linspace(-30.0, 258.0, 20001)
    got, want = bessel_i0(xs), np.asarray(i0_jet(xs)[0])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# x (I0 K0' - I0' K0) = -1 wherever both jets are summed: a check that needs
# no mpmath.  Each product is within 2 JET_BOUND and at most about 1 in
# size, so the sum is within 4 JET_BOUND of -1, plus its rounding
I0_K0_XS = np.concatenate((np.geomspace(2.0**-330, I0_TOP, 600), np.linspace(1.5, 2.5, 101)))


def test_i0_k0_jet_wronskian():
    i, k = np.array(i0_jet(I0_K0_XS)), np.array(k0_jet(I0_K0_XS))
    w = I0_K0_XS * (i[0] * k[1] - i[1] * k[0])
    assert np.abs(w + 1.0).max() <= 4.0 * JET_BOUND + 4.0 * 2.0**-53


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=2.0**-330, max_value=1e300))
def test_k0_jet_orders_alternate_in_sign(x):
    # K0 > 0, K0' = -K1 < 0, K0'' > 0 and K0''' < 0 until they underflow
    f = k0_jet(x)
    assert f[0] >= 0.0 and f[1] <= 0.0 and f[2] >= 0.0 and f[3] <= 0.0
    assert bessel_k0(x) == f[0]


# ----------------------------------------------------------------------
# J0 and Y0 in float64: the alternating series below x = 2, Miller's
# recurrence and Neumann's series from there up to the cap of max_terms


def _j0_top() -> float:
    """The largest x, to 1e-3, whose J0 jet the default SeriesConfig sums:
    there Miller's start N reaches max_terms = 200."""
    lo, hi = 100.0, 130.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        try:
            j0_jet(mid)
            lo = mid
        except NonConvergenceError:
            hi = mid
    return lo


J0_TOP = _j0_top()
# through the switch to the J0 Taylor limit at 2^-26 (J0) and the Y0 jets'
# bound 2^-330, densest about the switch to Miller's recurrence at x = 2
# and up to the cap
J0_WIDE_XS = np.concatenate((np.geomspace(2.0**-60, J0_TOP, 300), np.linspace(1.9, 2.1, 41),
                             np.linspace(J0_TOP - 20.0, J0_TOP, 40), [80.0]))
Y0_WIDE_XS = np.concatenate((np.geomspace(2.0**-330, J0_TOP, 300), np.linspace(1.9, 2.1, 41),
                             np.linspace(J0_TOP - 20.0, J0_TOP, 40), [80.0]))


def test_j0_y0_refuse_past_the_cap():
    assert 116.0 < J0_TOP < 117.0
    for fn in (j0_jet, y0_jet, bessel_j0, bessel_y0):
        with pytest.raises(NonConvergenceError, match="within 200 terms at x=117.0$"):
            fn(117.0)


@pytest.mark.parametrize("kind, jet, value, xs", [
    ("j0", j0_jet, bessel_j0, J0_WIDE_XS), ("y0", y0_jet, bessel_y0, Y0_WIDE_XS),
])
def test_j0_y0_jets_against_mpmath_to_the_cap(kind, jet, value, xs):
    # every order within 4e-15 of max(1, |f^(k)|), and the value is the
    # jet's f bit for bit; one array call, whose lanes lie on both sides of
    # x = 2, gives each pointwise call's bits
    lanes, values = np.array(jet(xs)), value(xs)
    assert values.view(np.int64).tolist() == lanes[0].view(np.int64).tolist()
    for x, column in zip(xs.tolist(), lanes.T):
        got = jet(x)
        assert np.array(got).view(np.int64).tolist() == column.view(np.int64).tolist(), x
        if kind == "j0":
            assert max(plain_jet_errors("j", 0.0, x, got)) <= JET_BOUND, x
            assert j0_jet(-x) == (got[0], -got[1], got[2], -got[3])  # even
        else:
            assert jet_error(kind, x, got) <= JET_BOUND, x
        assert value(x) == got[0], x


def test_j0_y0_values_at_80():
    # the double-double series gave 1.13 and 4.46 here
    with mpmath.workdps(50):
        for fn, oracle in ((bessel_j0, mpmath.besselj), (bessel_y0, mpmath.bessely)):
            assert abs(fn(80.0) - oracle(0, 80)) <= JET_BOUND


def _relative_errors(jet, x) -> list:
    """The relative error of each order of a J0 jet at x against mpmath."""
    with mpmath.workdps(50):
        return [float(abs(mpmath.mpf(g) - w) / abs(w)) for g, w in zip(jet, plain_jet_reference("j", 0.0, x))]


def test_j0_jet_is_relatively_accurate_at_small_x():
    # each order relative to its own size: f''' used to be formed from the
    # equation, which multiplies the error of x f' by 2/x^2 (8.3e-12
    # relative near x = 2.4e-5); the series rows of f'''/h have no such
    # factor
    for x in np.geomspace(2.0**-26, 1e-2, 200).tolist():
        assert max(_relative_errors(j0_jet(x), x)) <= JET_BOUND, x


def test_j0_y0_jet_wronskian():
    # (pi x / 2) (J0 Y0' - J0' Y0) = 1 wherever both jets are summed: a check
    # that needs no mpmath.  Each factor is within JET_BOUND max(1, |f|) of
    # its value, which bounds the error of the products
    x = Y0_WIDE_XS
    y = y0_jet(x)
    j = np.array(y.primary)
    y = np.array(y)
    w = 0.5 * np.pi * x * (j[0] * y[1] - j[1] * y[0])
    spread = (np.abs(y[1]) + np.abs(j[0]) * np.maximum(1.0, np.abs(y[1]))
              + np.abs(y[0]) + np.abs(j[1]) * np.maximum(1.0, np.abs(y[0])))
    bound = 0.5 * np.pi * x * spread * JET_BOUND + 4.0 * 2.0**-53
    assert (np.abs(w - 1.0) <= bound).all()
    assert np.abs(w - 1.0)[x < 2.0].max() <= 4.0 * JET_BOUND


# ----------------------------------------------------------------------
# ODE residuals


def test_ode_residual_constant_function():
    kind = BesselKind()
    assert ode_residual(kind, lambda x: 1.0, 2.0, 1e-3) == pytest.approx(4.0, rel=1e-12)
    modified = BesselKind(modified=True)
    assert ode_residual(modified, lambda x: 1.0, 2.0, 1e-3) == pytest.approx(-4.0, rel=1e-12)


def test_ode_residual_j0_at_3():
    # the roundoff floor of a second difference is ~4 eps |y| / h^2, so the
    # step must stay coarse enough for the truncation-dominated regime
    r = ode_residual(BesselKind(), bessel_j0, 3.0, _fd_step(3.0))
    assert abs(r) < 1e-7


def test_ode_residual_i0_at_2():
    r = ode_residual(BesselKind(modified=True), bessel_i0, 2.0, _fd_step(2.0))
    assert abs(r) < 1e-7


def test_ode_residual_h_validation():
    with pytest.raises(DomainError):
        ode_residual(BesselKind(), bessel_j0, 1.0, 0.0)


def test_bessel_kind_validation():
    with pytest.raises(ValueError):
        BesselKind(p=-1.0)


# ----------------------------------------------------------------------
# non-integer orders


def test_bessel_j_domain_checks():
    with pytest.raises(DomainError):
        bessel_j(0.5, 1.0)  # 2p integer
    with pytest.raises(DomainError):
        bessel_j(0.0, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0.25, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-0.25, 0.0)


def test_bessel_j_at_zero_positive_order():
    assert bessel_j(0.25, 0.0) == 0.0


def test_bessel_j_diverges_near_zero_negative_order():
    assert bessel_j(-0.25, 1e-12) > 100.0
    assert bessel_j(-0.25, 1e-300) > bessel_j(-0.25, 1e-12)


@pytest.mark.parametrize("p", [0.25, -0.25, 1.3, -0.7])
@pytest.mark.parametrize("x", [0.4, 1.0, 3.3])
def test_bessel_j_ode_residual_series_derivatives(p, x):
    f0, f1, f2, _ = jp_jet(p, x)
    residual = x * x * f2 + x * f1 + (x * x - p * p) * f0
    assert abs(residual) < 1e-8


def test_jp_pair_solution_solves_ode():
    y = jp_pair_solution(0.25, 0.7, -0.3)
    x = 1.7
    r = ode_residual(BesselKind(p=0.25), y, x, _fd_step(x))
    assert abs(r) < 1e-7


def test_modified_pair_solution_solves_ode():
    y = modified_pair_solution(0.5, 2.0)
    x = 1.3
    r = ode_residual(BesselKind(modified=True), y, x, _fd_step(x))
    assert abs(r) < 1e-7


# ----------------------------------------------------------------------
# jets: consistency between term-wise derivatives and finite differences


@pytest.mark.parametrize(
    "jet,fn",
    [
        (j0_jet, bessel_j0),
        (i0_jet, bessel_i0),
        (y0_jet, bessel_y0),
        (k0_jet, bessel_k0),
    ],
)
def test_jets_match_finite_differences(jet, fn):
    for x in (0.4, 1.1, 2.7, 6.3):
        f0, f1, f2, f3 = jet(x)
        h = 1e-3 * max(1.0, x)
        fm2, fm1, fc, fp1, fp2 = (fn(x + k * h) for k in (-2, -1, 0, 1, 2))
        assert f0 == pytest.approx(fc, rel=1e-12, abs=1e-12)
        fd1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
        fd2 = (-fp2 + 16 * fp1 - 30 * fc + 16 * fm1 - fm2) / (12 * h * h)
        fd3 = (fp2 - 2 * fp1 + 2 * fm1 - fm2) / (2 * h * h * h)
        assert f1 == pytest.approx(fd1, rel=1e-8, abs=1e-8)
        assert f2 == pytest.approx(fd2, rel=1e-7, abs=1e-7)
        assert f3 == pytest.approx(fd3, rel=1e-4, abs=1e-4)
