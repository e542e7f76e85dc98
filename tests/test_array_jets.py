"""Grid evaluation is bit-identical to pointwise evaluation.

Profile jets on an array of radii run each double-double series once for the
whole array (bessel), carry arrays through the forward jets (autodiff) and
feed the grid consumers (classify, surfaces).  Every value here is compared
with its pointwise counterpart as an int64 bit pattern, and every grid error
with the exception a per-radius loop raises first.
"""

import re
import types
from collections import Counter

import numpy as np
import pytest

import sigeom.bessel as bessel
from sigeom import (
    AdmissibilityError,
    DomainError,
    Grid,
    NonConvergenceError,
    ParabolicPointError,
    ProfileCurve,
    RevolutionKind,
    RevolutionSurface,
    SeriesConfig,
    bessel_profile,
    b_of_profile,
    check_eigen_i,
    check_eigen_ii,
    constant_h_profile,
    coord_laplacians_i,
    coord_laplacians_ii,
    constant_k_profile,
    curvatures,
    eigen_system_residual,
    expression_profile,
    linear_profile,
    log_profile,
    make_grid,
    mesh,
    power_profile,
    solve_radial_eigen_ode,
    verify_constant_curvature,
)
from sigeom.autodiff import Jet3
from sigeom.bessel import i0_jet, j0_jet, k0_jet, y0_jet
from sigeom.classify import EigenReport, OperatorKind, Verdict, _fit, _pattern_label
from sigeom.cli import main, parse_profile_spec
from sigeom.expressions import _evaluate, parse_expression
from sigeom.profiles import ProfileFamily
from sigeom.surfaces import _coordinate_laplacians

JETS = (j0_jet, i0_jet, y0_jet, k0_jet)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_bit_identical(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want)), np.argwhere(bits(got) != bits(want))[:5]


def pointwise(jet, xs):
    return np.array([jet(x) for x in xs.tolist()]).T


# ----------------------------------------------------------------------
# bessel: array kernels against the scalar kernels

LONG = np.concatenate([np.geomspace(1e-3, 60.0, 97), [60.0, 1e-3, 30.0, 7.25]])
# early (x ~ 1e-3: a handful of terms) and late (x ~ 60: ~120 terms) lanes
MIXED = np.array([1e-3, 59.0, 0.02, 45.5, 3.0, 60.0, 0.5, 12.0] * 5)


LOOSE = SeriesConfig(rel_tol=1e-9, max_terms=150)


# LOOSE moves the term where each of the Y0/K0 jets' two sets of sums stops
@pytest.mark.parametrize("jet", JETS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("xs, cfg", [
    pytest.param(xs, cfg, id=name + suffix)
    for cfg, suffix in ((bessel.DEFAULT_SERIES, ""), (LOOSE, "-loose"))
    for xs, name in ((LONG, "long"), (MIXED, "mixed"), (LONG[:1], "len1-small"),
                     (MIXED[1:2], "len1-large"), (LONG[::9], "short"))
])
def test_bessel_jets_array_vs_scalar(jet, xs, cfg):
    got = jet(xs, cfg)
    assert len(got) == 4
    assert_bit_identical(np.array(got), pointwise(lambda x: jet(x, cfg), xs))


def _lanes(n):
    """n arguments from 60 down to 1e-3, in a shuffled order (n = 1 is 60)."""
    return np.random.default_rng(n).permutation(np.geomspace(60.0, 1e-3, n))


# one kernel for every array length: single lanes, lengths around the
# classifier's default 21 radii, and the largest grid of the benchmark
@pytest.mark.parametrize("lanes", [1, 5, 12, 21, 23, 24, 40, 401])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_series_array_against_scalar_kernels(lanes, sign, weighted):
    xs = _lanes(lanes)
    sums = bessel._series_array(xs, sign, bessel.DEFAULT_SERIES, weighted)
    ref = [bessel._series(x, sign, bessel.DEFAULT_SERIES, 1, weighted) for x in xs.tolist()]
    for k in range(2):
        assert_bit_identical(sums[k][0], [r[k][0] for r in ref])
        assert_bit_identical(sums[k][1], [r[k][1] for r in ref])


# the kernels sum rows 0 and, for orders >= 1, x times the first derivative
# of each set; `_sums` divides it by x and forms rows 2 and 3 from the
# sums' equation, so each set has the rows 0..orders at an array and at a float
@pytest.mark.parametrize("orders", [0, 1, 2, 3])
@pytest.mark.parametrize("weighted", [False, True, bessel._BOTH], ids=["plain", "weighted", "both"])
def test_series_array_sums_the_rows_it_is_asked_for(orders, weighted):
    xs, cfg = _lanes(24), bessel.DEFAULT_SERIES
    sums = bessel._sums(xs, 1.0, cfg, weighted, bessel._log_half_dd(xs), orders)
    ref = [bessel._sums(x, 1.0, cfg, weighted, bessel._log_half_dd(x), orders) for x in xs.tolist()]
    assert len(sums) == len(ref[0]) == (orders + 1) * (2 if weighted is bessel._BOTH else 1)
    for k, (hi, lo) in enumerate(sums):
        assert_bit_identical(hi, [r[k][0] for r in ref])
        assert_bit_identical(lo, [r[k][1] for r in ref])


def test_plain_series_rows_at_zero_lanes_are_exact_zeros():
    xs = np.array([0.0, 1.5, -0.0, 4.0])
    for sign in (-1.0, 1.0):
        sums = bessel._series_array(xs, sign, bessel.DEFAULT_SERIES, False)
        ref = [bessel._series(x, sign, bessel.DEFAULT_SERIES, 1, False) for x in xs.tolist()]
        for k, (hi, lo) in enumerate(sums):
            assert_bit_identical(hi, [r[k][0] for r in ref])
            assert_bit_identical(lo, [r[k][1] for r in ref])
            if k:
                assert hi[[0, 2]].tolist() == lo[[0, 2]].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("lanes", [1, 5, 21, 24, 401])
def test_log_half_against_scalar(lanes):
    xs = _lanes(lanes)
    ln = bessel._log_half_dd(xs)
    ref = [bessel._log_half_dd(x) for x in xs.tolist()]
    assert_bit_identical(ln[0], [r[0] for r in ref])
    assert_bit_identical(ln[1], [r[1] for r in ref])


def test_jets_at_zero_and_negative_lanes():
    xs = np.array([-4.0, -0.5, 0.0, 0.5, 4.0, -0.0] * 6)
    for fn in (j0_jet, i0_jet, bessel.bessel_j0, bessel.bessel_i0):
        assert_bit_identical(np.array(fn(xs)), pointwise(fn, xs))


VALUES = (bessel.bessel_j0, bessel.bessel_i0, bessel.bessel_y0, bessel.bessel_k0)


@pytest.mark.parametrize("value", VALUES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("cfg", [bessel.DEFAULT_SERIES, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize(
    "xs", [LONG, MIXED, LONG[:1], LONG[::9]], ids=["long", "mixed", "len1", "short"]
)
def test_bessel_values_array_vs_scalar(value, cfg, xs):
    got = value(xs, cfg)
    assert_bit_identical(got, [value(x, cfg) for x in xs.tolist()])


@pytest.mark.parametrize("fn", (bessel.bessel_j0, bessel.bessel_i0, j0_jet, i0_jet),
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("xs", [
    np.zeros(3),
    # x*x subnormal or zero, and around 2^-511 where it turns normal
    np.array([6.3e-212, -1e-160, 5e-324, -0.0, 2.0**-511, -1.5e-154, 1e-150, 2.0, -3.0]),
], ids=["all-zero", "tiny"])
def test_j0_i0_at_all_zero_and_tiny_lanes(fn, xs):
    assert_bit_identical(np.array(fn(xs)), pointwise(fn, xs))


def test_empty_arrays():
    empty = np.array([])
    for fn in (*VALUES, *JETS):
        got = np.array(fn(empty))
        assert got.shape == ((0,) if fn in VALUES else (4, 0))
    for weighted in (False, True):
        sums = bessel._series_array(empty, 1.0, bessel.DEFAULT_SERIES, weighted)
        assert [(hi.shape, lo.shape) for hi, lo in sums] == [((0,), (0,))] * 2


def test_all_zero_expression_jets_take_one_array_call():
    p = expression_profile("j0(0*u)+i0(0*u)")
    us = np.linspace(0.5, 5.0, 21)
    got = np.array([np.broadcast_to(v, us.shape) for v in p.jet(us)])
    assert_bit_identical(got, np.array([p.jet(u) for u in us.tolist()]).T)


@pytest.mark.parametrize("fn", VALUES + JETS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("xs, cfg", [
    (np.array([1.0, 2.0, 40.0, 3.0, 35.0]), SeriesConfig(max_terms=30)),
    (np.array([1.0, 2.0, np.nan, -np.inf, 3.0]), bessel.DEFAULT_SERIES),
    (np.array([1.0, np.inf, 2.0, -3.0]), bessel.DEFAULT_SERIES),
    (np.array([1.0, -np.inf, 40.0, 3.0]), SeriesConfig(max_terms=30)),
], ids=["non-convergence", "nan", "inf", "-inf"])
def test_array_errors_name_the_first_failing_lane(fn, xs, cfg):
    ref = _first_error(lambda: [fn(x, cfg) for x in xs.tolist()])
    with pytest.raises(type(ref)) as exc:
        fn(xs, cfg)
    assert str(exc.value) == str(ref)


# ----------------------------------------------------------------------
# bessel: one pass for the plain and the phi-weighted sums (weighted=_BOTH)

# J0's zeros, where its plain rows stop after the weighted ones, and small
# lanes, where they stop first
J0_ZEROS = [2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281]
WITNESSES = np.array(J0_ZEROS + [1e-3, 0.25, 0.559])


def _stop_term(x, sign, weighted):
    """The fewest terms with which the scalar kernel converges at x."""
    lo, hi = 1, bessel.DEFAULT_SERIES.max_terms
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            bessel._series(x, sign, SeriesConfig(max_terms=mid), 0, weighted)
            hi = mid
        except NonConvergenceError:
            lo = mid + 1
    return lo


def test_one_pass_witnesses_stop_in_both_orders():
    for sign, orders in ((-1.0, {"plain first", "plain last"}), (1.0, {"plain first"})):
        found = set()
        for x in WITNESSES.tolist():
            plain, weighted = _stop_term(x, sign, False), _stop_term(x, sign, True)
            if plain != weighted:
                found.add("plain first" if plain < weighted else "plain last")
        assert orders <= found


def _one_pass_lanes(n):
    return np.random.default_rng(n).permutation(np.concatenate([WITNESSES, _lanes(n)])[:n])


@pytest.mark.parametrize("lanes", [1, 5, 21, 24, 101, 401])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_one_pass_sums_match_the_two_passes(lanes, sign):
    xs, cfg = _one_pass_lanes(lanes), bessel.DEFAULT_SERIES
    both = bessel._series_array(xs, sign, cfg, bessel._BOTH)
    two = bessel._series_array(xs, sign, cfg, False) + bessel._series_array(xs, sign, cfg, True)
    pointwise_both = [bessel._series(x, sign, cfg, 1, bessel._BOTH) for x in xs.tolist()]
    pointwise_two = [
        bessel._series(x, sign, cfg, 1, False) + bessel._series(x, sign, cfg, 1, True)
        for x in xs.tolist()
    ]
    assert len(both) == len(two) == 4
    for k in range(4):
        for part in (0, 1):
            assert_bit_identical(both[k][part], two[k][part])
            assert_bit_identical([r[k][part] for r in pointwise_both], two[k][part])
            assert_bit_identical([r[k][part] for r in pointwise_two], two[k][part])


def test_one_pass_on_empty_arrays():
    sums = bessel._series_array(np.array([]), -1.0, bessel.DEFAULT_SERIES, bessel._BOTH)
    assert [(hi.shape, lo.shape) for hi, lo in sums] == [((0,), (0,))] * 4


@pytest.mark.parametrize("primary,secondary", [(j0_jet, y0_jet), (i0_jet, k0_jet)])
@pytest.mark.parametrize("xs", [MIXED, WITNESSES, 2.5, J0_ZEROS[0]],
                         ids=["array", "witnesses", "float", "float-at-zero"])
def test_log_jets_carry_the_primary_jet_of_their_pass(primary, secondary, xs):
    got = secondary(xs)
    assert_bit_identical(np.array(got.primary), np.array(primary(xs)))


@pytest.mark.parametrize("jet, xs, terms", [
    # at 16 terms 3.8337 fails only J0's weighted rows and J0's zero only its plain ones
    (y0_jet, [1.0, 3.8337, 2.404825557695773, 2.0], 16),
    (y0_jet, [1.0, 2.404825557695773, 3.8337, 2.0], 16),
    (y0_jet, [0.5, 40.0, 1.0, 35.0], 16),
    # at 17 terms 5.0474 fails only I0's weighted rows
    (k0_jet, [1.0, 5.0474, 2.0, 40.0], 17),
    (k0_jet, [0.5, 40.0, 1.0, 35.0], 16),
], ids=["y0-weighted-first", "y0-plain-first", "y0-both", "k0-weighted-first", "k0-both"])
def test_one_pass_non_convergence_names_the_pointwise_x(jet, xs, terms):
    xs, cfg = np.array(xs), SeriesConfig(max_terms=terms)
    ref = _first_error(lambda: [jet(x, cfg) for x in xs.tolist()])
    assert isinstance(ref, NonConvergenceError)
    with pytest.raises(NonConvergenceError) as exc:
        jet(xs, cfg)
    assert str(exc.value) == str(ref)


@pytest.mark.parametrize("jet, name", [(y0_jet, "y0 jet"), (k0_jet, "k0 jet")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**-331, 0.0, -1.0])
def test_one_pass_jets_refuse_what_they_refused(jet, name, bad):
    want = f"{name} requires finite x >= 2**-330, got {bad!r}"
    with pytest.raises(DomainError) as scalar:
        jet(bad)
    with pytest.raises(DomainError) as array:
        jet(np.array([1.0, bad, 2.0]))
    assert str(scalar.value) == str(array.value) == want


@pytest.mark.parametrize("lam", [4.0, -4.0])
@pytest.mark.parametrize("c2", [0.5, 0.0])
def test_bessel_profile_jets_take_one_series_pass(lam, c2, monkeypatch):
    calls = []
    kernel = bessel._series_array
    monkeypatch.setattr(bessel, "_series_array", lambda *a: calls.append(a) or kernel(*a))
    p = bessel_profile(lam, 1.0, c2)
    us = np.linspace(0.2, 9.0, 101)
    got = p.jets(us)
    assert len(calls) == 1
    assert_bit_identical(got, np.array([[p.evaluate(u, k) for u in us.tolist()] for k in range(4)]))


@pytest.mark.parametrize("lam, name", [(1e300, "j0"), (-1e300, "i0")])
def test_two_term_profile_refuses_a_non_finite_x_as_its_primary(lam, name):
    p = bessel_profile(lam, 1.0, 1.0, domain=(1.0, 1e200))  # s u overflows from u = 1e159
    for run in (lambda: p.evaluate(1e200), lambda: p.jets(np.array([1e190, 1e200]))):
        with pytest.raises(DomainError, match=f"^{name} requires finite x, got inf$"):
            run()


@pytest.mark.parametrize("jet", (y0_jet, k0_jet), ids=lambda f: f.__name__)
def test_array_domain_error(jet):
    with pytest.raises(DomainError, match=r"got -0\.5$"):
        jet(np.array([1.0, 2.0, -0.5, 0.0] * 8))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            jet(np.array([1.0, 2.0, bad, 3.0] * 8))


@pytest.mark.parametrize("jet", JETS, ids=lambda f: f.__name__)
def test_array_non_convergence(jet):
    cfg = SeriesConfig(max_terms=30)
    xs = np.linspace(1.0, 40.0, 40)
    with pytest.raises(NonConvergenceError):
        jet(float(xs[-1]), cfg)
    with pytest.raises(NonConvergenceError):
        jet(xs, cfg)


# bessel_j: the order-p series on the same kernels, with x = 0 lanes (where
# a pointwise call sums nothing) and lanes past 30 (which warn)
JP_XS = np.concatenate([[0.0], MIXED[:8], [0.0, -0.0], LONG[::9], [0.0]])


def _jp_pointwise(p, xs, cfg=bessel.DEFAULT_SERIES):
    return [bessel.bessel_j(p, x, cfg) for x in xs.tolist()]


@pytest.mark.filterwarnings("ignore::sigeom.bessel.PrecisionLossWarning")
@pytest.mark.parametrize("p", [0.3, 1.7, 5.3, -0.3, -2.3])
@pytest.mark.parametrize("cfg", [bessel.DEFAULT_SERIES, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("xs", [JP_XS, LONG, LONG[:1], np.zeros(3)], ids=["mixed", "long", "len1", "zeros"])
def test_bessel_j_array_vs_scalar(p, cfg, xs):
    if p < 0.0:
        xs = xs[xs != 0.0]  # J_p diverges there
    assert_bit_identical(bessel.bessel_j(p, xs, cfg), _jp_pointwise(p, xs, cfg))


def test_bessel_j_at_zero_lanes_sums_nothing():
    # no x != 0 converges in one term, but x = 0 takes no series
    cfg = SeriesConfig(max_terms=1)
    assert_bit_identical(bessel.bessel_j(0.3, np.zeros(3), cfg), np.zeros(3))
    assert_bit_identical(bessel.bessel_j(0.3, np.array([]), cfg), np.array([]))


@pytest.mark.filterwarnings("ignore::sigeom.bessel.PrecisionLossWarning")
@pytest.mark.parametrize("p, xs, cfg", [
    (0.3, np.array([1.0, 2.0, 40.0, 3.0, 35.0]), SeriesConfig(max_terms=30)),
    (-1.7, np.array([1.0, 0.0, 2.0]), bessel.DEFAULT_SERIES),
    (0.3, np.array([1.0, 0.0, 2.0, -0.5, np.nan]), bessel.DEFAULT_SERIES),
    (0.3, np.array([1.0, 2.0, np.nan, 3.0]), bessel.DEFAULT_SERIES),
    (0.5, np.array([1.0, 2.0]), bessel.DEFAULT_SERIES),
    # a pointwise loop fails to converge before it reaches the refused x
    (0.3, np.array([1.0, 40.0, 2.0, -0.5]), SeriesConfig(max_terms=30)),
    (0.3, np.array([0.0, 1.0, 0.0]), SeriesConfig(max_terms=1)),
], ids=["non-convergence", "negative-order-at-0", "negative-x", "nan", "2p-integer",
        "non-convergence-first", "one-term"])
def test_bessel_j_array_errors_name_the_pointwise_x(p, xs, cfg):
    ref = _first_error(lambda: _jp_pointwise(p, xs, cfg))
    with pytest.raises(type(ref)) as exc:
        bessel.bessel_j(p, xs, cfg)
    assert str(exc.value) == str(ref)


def test_bessel_j_array_warns_once_per_x_past_30_in_order():
    xs = np.array([31.0, 1.0, 45.5, 30.0, 0.0, 33.0, 31.0])
    with pytest.warns(bessel.PrecisionLossWarning) as got:
        bessel.bessel_j(0.3, xs)
    with pytest.warns(bessel.PrecisionLossWarning) as want:
        _jp_pointwise(0.3, xs)
    assert [str(w.message) for w in got] == [str(w.message) for w in want]
    assert [str(w.message)[-6:-1] for w in got] == ["=31.0", "=45.5", "=33.0", "=31.0"]
    assert {w.filename for w in got} == {__file__}  # the warning names the caller


def test_array_kernels_call_ddouble_positionally(monkeypatch):
    # a counting proxy for bessel.dd that accepts positional arguments only
    calls = []

    def positional(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    dd = bessel.dd
    proxy = types.SimpleNamespace(**vars(dd))
    for name, value in vars(dd).items():
        if callable(value) and not name.startswith("_"):
            setattr(proxy, name, positional(value))
    monkeypatch.setattr(bessel, "dd", proxy)
    for jet in JETS:
        assert_bit_identical(np.array(jet(MIXED)), pointwise(jet, MIXED))
    assert "log_array" in calls and "two_prod" in calls


# ----------------------------------------------------------------------
# the in-place double-double forms of the series kernel

dd = bessel.dd


def _operands(seed):
    """Signed zeros, subnormals, magnitudes near the split's overflow and
    random magnitudes over the whole float64 range."""
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 2.2250738585072014e-308, 1e-300,
               1.5, -3.25, 2.0**27 + 1, 1e154, -1e200, 1e300, 1.7976931348623157e308]
    wide = rng.standard_normal(300) * 10.0 ** rng.integers(-320, 300, 300).astype(np.float64)
    return rng.permutation(np.concatenate([special, -np.array(special), wide]))


def _pair(seed):
    hi, lo = _operands(seed), _operands(seed + 100)
    return hi, lo * 1e-17  # not normalized either: the forms work element by element


@pytest.mark.parametrize("form", ["two_sum", "two_prod", "add", "div_f", "div_f_float"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_in_place_forms_are_their_tuple_twins(form, seed):
    name = form.removesuffix("_float")
    if name in ("two_sum", "two_prod"):
        args = (_operands(seed), _operands(seed + 10))
    else:
        args = (_pair(seed), _pair(seed + 10) if name == "add" else _operands(seed + 10))
    if form == "div_f_float":
        args = (args[0], 7.0)
    n = args[0][0].size if isinstance(args[0], tuple) else args[0].size
    out = (np.full(n, np.nan), np.full(n, np.nan))
    work = [np.full(n, np.nan) for _ in range(5)]
    with np.errstate(all="ignore"):
        want = getattr(dd, name)(*args)
        got = getattr(dd, name + "_into")(*args, out, work)
    assert got is out
    assert_bit_identical(got, want)


@pytest.mark.parametrize("over", ["x", "y"])
def test_add_into_may_write_over_an_argument(over):
    x, y = _pair(4), _pair(5)
    with np.errstate(all="ignore"):
        want = dd.add(x, y)
        got = dd.add_into(x, y, x if over == "x" else y, [np.empty(x[0].size) for _ in range(3)])
    assert_bit_identical(got, want)


def test_series_array_tuple_calls_do_not_grow_with_terms(monkeypatch):
    # every stage of the term loop runs in place: only the set-up calls a tuple form
    calls = Counter()
    proxy = types.SimpleNamespace(**vars(dd))
    for name, value in vars(dd).items():
        if callable(value) and not name.startswith("_"):
            setattr(proxy, name, lambda *a, _fn=value, _name=name: calls.update([_name]) or _fn(*a))
    monkeypatch.setattr(bessel, "dd", proxy)
    seen = []
    for top in (1.0, 32.0):  # about 10 and 60 terms
        calls.clear()
        bessel._series_array(np.linspace(top / 2, top, 101), -1.0, bessel.DEFAULT_SERIES, False)
        tuple_forms = {k: v for k, v in calls.items() if not k.endswith("_into")}
        seen.append((calls["two_prod_into"], tuple_forms))
    (short_terms, short), (long_terms, long) = seen
    assert short_terms <= 12 and long_terms >= 55
    assert short == long


def test_series_array_results_outlive_the_next_call():
    x = np.linspace(0.1, 12.0, 101)
    first = bessel._series_array(x, -1.0, bessel.DEFAULT_SERIES, False)
    kept = np.array(first)
    cfg = bessel.DEFAULT_SERIES
    second = bessel._series_array(np.linspace(0.2, 9.0, 37), 1.0, cfg, bessel._BOTH)
    third = bessel._series_array(x[:50], -1.0, cfg, True, bessel._log_half_dd(x[:50]))
    assert_bit_identical(np.array(first), kept)
    later = [a for pair in second + third for a in pair]
    assert not any(np.shares_memory(a, b) for pair in first for a in pair for b in later)


# ----------------------------------------------------------------------
# profiles: ProfileCurve.jets against stacked evaluate

EXPRESSIONS = (
    "u^2+3*ln(u)-sinh(u/4)+cosh(u/3)",
    "j0(u)+0.25*i0(u/2)*u^1.5-2/(1+u)^3",
    "j0(u-5)+i0(3-u)+u^(2*1)",
    "ln(cosh(u))*sinh(u/3)",
    "u^(0*u+2)",
    "3",
    "u",
)


def _profiles():
    out = {
        "bessel-j": bessel_profile(1.0, 1.0, 0.0),
        "bessel-jy": bessel_profile(4.0, 1.0, 0.5, domain=(0.1, 5.0)),
        "bessel-i": bessel_profile(-1.0, 2.0, 0.0),
        "bessel-ik": bessel_profile(-1.0, 0.5, 2.0),
        "constk": constant_k_profile(1.0, 1.0),
        "consth": constant_h_profile(2.0, 1.0, 0.5),
        "log": log_profile(-2.0, 0.0),
        "power": power_profile(1.0, 3.0, 1.0),
        "linear": linear_profile(2.0, 1.0),
    }
    out.update({f"expr:{e}": expression_profile(e) for e in EXPRESSIONS})
    return out


PROFILES = _profiles()


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("n", [1, 7, 101])
def test_profile_jets_vs_stacked_evaluate(name, n):
    p = PROFILES[name]
    us = np.linspace(p.domain[0], p.domain[1], n)
    got = p.jets(us)
    assert got.shape == (4, n)
    want = np.array([[p.evaluate(u, k) for k in range(4)] for u in us.tolist()]).T
    assert_bit_identical(got, want)


@pytest.mark.parametrize("name", [k for k in sorted(PROFILES) if PROFILES[k].jet is not None])
def test_jet_callable_takes_arrays(name):
    # no fallback to the per-radius loop: the jet itself handles the array
    p = PROFILES[name]
    us = np.linspace(p.domain[0], p.domain[1], 64)
    values = p.jet(us)
    got = np.array([np.broadcast_to(v, us.shape) for v in values])
    assert_bit_identical(got, np.array([p.jet(u) for u in us.tolist()]).T)


def test_jet3_carries_arrays():
    us = np.linspace(0.5, 4.0, 33)
    ast = parse_expression("cosh(u)^3/ln(1+u)-sinh(2*u)*j0(u)+i0(u)^0.5")
    got = _evaluate(ast, Jet3.variable(us), bessel.DEFAULT_SERIES).as_tuple()
    for k in range(4):
        want = [
            _evaluate(ast, Jet3.variable(u), bessel.DEFAULT_SERIES).as_tuple()[k]
            for u in us.tolist()
        ]
        assert_bit_identical(got[k], want)


def test_jets_raise_what_evaluate_raises_first():
    p = expression_profile("ln(u-3)")
    us = np.linspace(1.0, 5.0, 40)
    with pytest.raises(DomainError) as exc:
        p.jets(us)
    with pytest.raises(DomainError) as ref:
        p.evaluate(1.0)
    assert str(exc.value) == str(ref.value)
    values, err = p._leading_jets(np.linspace(3.5, 5.0, 8))
    assert err is None and values.shape == (4, 8)
    outside = log_profile(-2.0, 0.0, domain=(0.5, 5.0))
    values, err = outside._leading_jets(np.array([1.0, 2.0, 6.0, 7.0]))
    assert values.shape == (4, 2) and isinstance(err, DomainError)
    assert "u=6.0 outside" in str(err)


@pytest.mark.parametrize("profile", [bessel_profile(1.0, 1.0, 0.0), log_profile(-2.0, 0.0)],
                         ids=["jet", "closed-form"])
def test_jets_take_only_a_1d_array_of_radii(profile):
    for us in (2.0, [[1.0, 2.0], [3.0, 4.0]]):
        shape = re.escape(str(np.shape(us)))
        with pytest.raises(ValueError, match=rf"1-D array of radii, got shape {shape}$"):
            profile.jets(us)
    assert profile.jets(np.array([])).shape == (4, 0)


# ----------------------------------------------------------------------
# classify and surfaces: grid consumers against per-radius reference loops


def ref_rotational_fits(kind, a, g):
    """The fits of r1, r2 from their Laplacians a(u) (h1(v), h2(v)): the
    separable least squares over the radii, its residual times max|h_i|."""
    sinh_max, cosh_max = float(np.max(np.abs(np.sinh(g.v)))), float(np.max(np.cosh(g.v)))
    hmax = (sinh_max, cosh_max) if kind is RevolutionKind.TIMELIKE_MERIDIAN else (cosh_max, sinh_max)
    lam, res, rel = _fit(a, g.u)
    return [(lam, res * h, rel) for h in hmax]


def ref_check_eigen_i(s, g, tol=1e-6):
    f0 = np.array([s.profile.evaluate(float(u), 0) for u in g.u])
    f1 = np.array([s.profile.evaluate(float(u), 1) for u in g.u])
    f2 = np.array([s.profile.evaluate(float(u), 2) for u in g.u])
    radial = -f2 - f1 / g.u
    if s.kind is RevolutionKind.SPACELIKE_MERIDIAN:
        radial = -radial
    nv = g.v.size
    fits = [
        *ref_rotational_fits(s.kind, np.zeros(g.u.size), g),
        _fit(np.repeat(radial[:, None], nv, axis=1), np.repeat(f0[:, None], nv, axis=1)),
    ]
    return [tuple(f[i] for f in fits) for i in range(3)]


def ref_check_eigen_ii(s, g, tol=1e-6):
    timelike = s.kind is RevolutionKind.TIMELIKE_MERIDIAN
    f0 = np.empty(g.u.size)
    acoef = np.empty(g.u.size)
    ccoef = np.empty(g.u.size)
    ew_values = set()
    for i, u in enumerate(g.u):
        uu = float(u)
        f0[i] = s.profile.evaluate(uu, 0)
        d1 = s.profile.evaluate(uu, 1)
        d2 = s.profile.evaluate(uu, 2)
        B = b_of_profile(s.profile, uu)
        ew = -1.0 if d1 * d2 > 0.0 else 1.0
        ew_values.add(ew)
        acoef[i] = ew * (B - 1.0 / d1)
        ccoef[i] = ew * (B * d1 + 1.0)
    a, c3 = (acoef, ccoef) if timelike else (-acoef, -ccoef)
    nv = g.v.size
    fits = [
        *ref_rotational_fits(s.kind, a, g),
        _fit(np.repeat(c3[:, None], nv, axis=1), np.repeat(f0[:, None], nv, axis=1)),
    ]
    return [tuple(f[i] for f in fits) for i in range(3)], -1.0 in ew_values


def fresh(name):
    """A new copy of a test profile, so that no pointwise cache is shared."""
    return _profiles()[name]


SURFACES = [
    ("bessel-j", RevolutionKind.TIMELIKE_MERIDIAN, (1.0, 4.0)),
    ("bessel-jy", RevolutionKind.SPACELIKE_MERIDIAN, (0.5, 4.5)),
    ("bessel-ik", RevolutionKind.TIMELIKE_MERIDIAN, (0.5, 9.0)),
    ("expr:j0(u)+0.25*i0(u/2)*u^1.5-2/(1+u)^3", RevolutionKind.TIMELIKE_MERIDIAN, (1.0, 6.0)),
    ("log", RevolutionKind.TIMELIKE_MERIDIAN, (0.5, 5.0)),
    ("consth", RevolutionKind.SPACELIKE_MERIDIAN, (1.0, 5.0)),
]


@pytest.mark.parametrize("name,kind,u_range", SURFACES, ids=[s[0] for s in SURFACES])
@pytest.mark.parametrize("nu", [5, 21, 64])
def test_check_eigen_reports_vs_reference_loop(name, kind, u_range, nu):
    s = RevolutionSurface(fresh(name), kind, u_range, (-1.0, 1.0))
    g = make_grid(s, nu, 7)
    ref_s = RevolutionSurface(fresh(name), kind, u_range, (-1.0, 1.0))

    rep = check_eigen_i(s, g)
    lam, res, rel = ref_check_eigen_i(ref_s, g)
    assert rep.operator is OperatorKind.FIRST_FORM
    assert_bit_identical(rep.lam, lam)
    assert_bit_identical(rep.residual_sup, res)
    assert_bit_identical(rep.residual_rel, rel)

    rep = check_eigen_ii(s, g)
    (lam, res, rel), flipped = ref_check_eigen_ii(ref_s, g)
    assert rep.operator is OperatorKind.SECOND_FORM
    assert_bit_identical(rep.lam, lam)
    assert_bit_identical(rep.residual_sup, res)
    assert_bit_identical(rep.residual_rel, rel)
    assert rep.notes.startswith(_pattern_label(lam[0], lam[2], 1e-6))
    assert ("orientation: sgn(LN - M^2) = -1" in rep.notes) == flipped
    assert isinstance(rep, EigenReport) and isinstance(rep.verdict, Verdict)


@pytest.mark.parametrize("name,kind,u_range", SURFACES, ids=[s[0] for s in SURFACES])
def test_other_grid_consumers_vs_reference_loops(name, kind, u_range):
    s = RevolutionSurface(fresh(name), kind, u_range, (-1.0, 1.0))
    g = make_grid(s, 33, 5)
    ref_s = RevolutionSurface(fresh(name), kind, u_range, (-1.0, 1.0))

    rep = verify_constant_curvature(s, g)
    kh = np.array([curvatures(ref_s, float(u)) for u in g.u])
    k0, h0 = float(np.mean(kh[:, 0])), float(np.mean(kh[:, 1]))
    assert_bit_identical([rep.k0, rep.h0], [k0, h0])
    assert_bit_identical(
        [rep.k_deviation, rep.h_deviation],
        [float(np.max(np.abs(kh[:, 0] - k0))), float(np.max(np.abs(kh[:, 1] - h0)))],
    )

    worst = 0.0
    for u in g.u.tolist():
        f0, d1, d2 = (ref_s.profile.evaluate(u, k) for k in range(3))
        B = b_of_profile(ref_s.profile, u)
        ew = -1.0 if d1 * d2 > 0.0 else 1.0
        worst = max(worst, abs(ew * (B - 1.0 / d1) - 0.5 * u), abs(ew * (B * d1 + 1.0) - 2.0 * f0))
    assert_bit_identical(eigen_system_residual(s.profile, 0.5, 2.0, g.u), worst)

    m = mesh(s, 17, 3)
    z = [ref_s.profile.evaluate(u, 0) for u in np.linspace(*u_range, 17).tolist()]
    assert_bit_identical(m.vertices[::3, 2], z)


@pytest.mark.parametrize("lam3,c2", [(1.0, 0.0), (2.0, 1.0), (-3.0, 0.5)])
def test_radial_ode_certificate_vs_reference_loop(lam3, c2):
    cert = solve_radial_eigen_ode(lam3, 1.0, c2, samples=120)
    ref = bessel_profile(lam3, 1.0, c2)
    worst = 0.0
    for u in cert.sample_points.tolist():
        f0, d1, d2 = (ref.evaluate(u, k) for k in range(3))
        worst = max(worst, abs(d2 + d1 / u + lam3 * f0))
    assert_bit_identical(cert.residual_sup, worst)


# ----------------------------------------------------------------------
# CLI tables: one array evaluation per table against per-point loops

TABLE_SPECS = [
    ("bessel:lambda=4,c1=1,c2=0.5", (0.5, 4.5)),
    ("expr:f=j0(u)+0.25*i0(u/2)", (1.0, 6.0)),
    ("log:lambda=-2,c=0", (0.5, 5.0)),
    ("power:lambda=1,mu=3,c=1", (0.5, 5.0)),
]


V_RANGE = (-1.0, 0.5)
TABLE_CASES = [
    (spec, u_range, V_RANGE, action)
    for spec, u_range in TABLE_SPECS
    for action in ("laplacian1", "laplacian2", "curvature")
] + [
    # sinh and cosh of |v| > 710.5 overflow in math; the first form never
    # needs them, its rotational columns are 0
    ("log:lambda=1,c=0", (1.0, 3.0), (-800.0, 800.0), "laplacian1"),
    # the third derivative c a (a-1)(a-2) u^(a-3) overflows at u = 0.1 for
    # a = -306, while f' and f'' do not
    ("power:lambda=1,mu=-306,c=1", (0.1, 1.0), V_RANGE, "curvature"),
    ("power:lambda=1,mu=-306,c=1", (0.1, 1.0), V_RANGE, "laplacian1"),
    # f = 2/mu + u^309 overflows at u = 10, while its derivatives do not
    ("power:lambda=1,mu=309,c=1", (1.0, 10.0), V_RANGE, "laplacian2"),
]


def _table_argv(spec, kind, u_range, action, grid, v_range=V_RANGE):
    return ["surface", "--profile", spec, "--kind", kind, f"--u={u_range[0]}:{u_range[1]}",
            f"--v={v_range[0]}:{v_range[1]}", "--grid", grid, "--action", action]


@pytest.mark.parametrize("spec,u_range,v_range,action", TABLE_CASES)
@pytest.mark.parametrize("kind", ["timelike", "spacelike"])
@pytest.mark.filterwarnings("error")  # numpy must not warn where the loops are silent
def test_cli_tables_vs_per_point_loops(capsys, spec, u_range, v_range, action, kind):
    # the per-point closed forms evaluate only the profile orders they use
    assert main(_table_argv(spec, kind, u_range, action, "9x6", v_range)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    s = RevolutionSurface(parse_profile_spec(spec), RevolutionKind(kind), u_range, v_range)
    if action == "curvature":
        lines = ["u,K,H"]
        rows = [(u, *curvatures(s, u)) for u in np.linspace(*u_range, 9).tolist()]
    else:
        lines = ["u,v,d1,d2,d3"]
        op = coord_laplacians_i if action == "laplacian1" else coord_laplacians_ii
        g = make_grid(s, 9, 6)
        rows = [(u, v, *op(s, u, v)) for u in g.u.tolist() for v in g.v.tolist()]
    lines += [",".join(f"{x:.17g}" for x in row) for row in rows]
    assert out == "\n".join(lines) + "\n"
    if action == "laplacian1":
        # the rotational columns are the literal 0 of coord_laplacians_i
        assert "-0," not in out


@pytest.mark.parametrize(
    "spec,action,code,message",
    [
        # ln(2.5 - u) fails at the last grid radius (2.998) and the last sample (3)
        ("expr:f=ln(2.5-u)", "laplacian1", 3, "ln requires a positive argument, got -0.4980000000000002"),
        ("expr:f=ln(2.5-u)", "laplacian2", 3, "ln requires a positive argument, got -0.4980000000000002"),
        ("expr:f=ln(2.5-u)", "curvature", 3, "ln requires a positive argument, got 0.0"),
        # f' = 2 (u - 2) vanishes at the middle grid radius 2.0
        ("expr:f=(u-2)^2", "laplacian2", 3, "profile has f'(2.0) = 0; B is undefined"),
        # f'' = 6 (u - 2) vanishes there while f' = 3 (u - 2)^2 + 1 does not
        ("expr:f=(u-2)^3+u", "laplacian2", 4, "parabolic point (f''(2.0) ~ 0); B is undefined"),
    ],
)
@pytest.mark.parametrize("kind", ["timelike", "spacelike"])
def test_cli_tables_raise_the_first_failing_radius_error(capsys, spec, action, code, message, kind):
    # the grid radii are 1.002, 1.501, 2.0, 2.499, 2.998; the messages are the
    # ones the per-point loops printed
    assert main(_table_argv(spec, kind, (1, 3), action, "5x5")) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_grid_consumers_evaluate_only_the_orders_they_read():
    # the third derivative c a (a-1)(a-2) u^(a-3) overflows at u = 0.1 for
    # a = -306, while f, f' and f'' do not: a pointwise loop over f, f', f''
    # never meets it
    p = power_profile(1.0, -306.0, 1.0, domain=(0.1, 1.0))
    us = np.array([0.1, 0.55, 1.0])
    with pytest.raises(OverflowError):
        p.jets(us)
    want = [[p.evaluate(u, k) for u in us.tolist()] for k in (2, 0)]
    assert_bit_identical(p._jets(us, (2, 0)), want)
    for kind in RevolutionKind:
        s = RevolutionSurface(p, kind)
        assert_bit_identical(mesh(s, 3, 2).vertices[::2, 2], want[1])
        with np.errstate(invalid="ignore"):  # c = -inf - (-inf) at u = 0.1
            f0, a, c, ew = _coordinate_laplacians(s, us, 1, value=True)
        assert (a, ew) == (0.0, None)
        assert_bit_identical(f0, want[1])
        assert_bit_identical(c, [coord_laplacians_i(s, u, 0.0)[2] for u in us.tolist()])


# ----------------------------------------------------------------------
# grid errors: the exception a per-radius loop raises first

V = np.linspace(-0.9, 0.9, 5)


def _first_error(fn):
    with pytest.raises(Exception) as exc:
        fn()
    return exc.value


def _ref_second_form_loop(p, us):
    for u in us.tolist():
        for k in range(3):
            p.evaluate(u, k)
        b_of_profile(p, u)


@pytest.mark.parametrize(
    "profile,us,expected",
    [
        # f' = u - 4/u vanishes at u = 2
        (constant_h_profile(1.0, -4.0, 0.0), [1.0, 1.5, 2.0, 2.5, 3.0], AdmissibilityError),
        # f'' = 1 - 1/u^2 vanishes at u = 1
        (constant_h_profile(1.0, 1.0, 0.0), [0.5, 1.0, 1.5, 2.0, 2.5], ParabolicPointError),
        # f' = (u - 1)(u - 3): f'' = 0 at u = 2 comes before f' = 0 at u = 3
        (expression_profile("u^3/3-2*u^2+3*u"), [0.5, 2.0, 3.0, 4.0, 5.0], ParabolicPointError),
        # f' = 0 at u = 2 comes before the profile's own error at u = 6.5
        (
            expression_profile("u^2/2-4*ln(u)+ln(6-u)*0"),
            [1.0, 2.0, 3.0, 6.5, 7.0],
            AdmissibilityError,
        ),
        # the profile's own error at u = 1.5 comes before f' = 0 at u = 2
        (expression_profile("u^2/2-4*ln(u)+ln(u-1.6)*0"), [1.0, 1.5, 2.0, 3.0, 4.0], DomainError),
        # a linear profile is parabolic everywhere
        (linear_profile(1.0, 0.0), [1.0, 2.0, 3.0, 4.0, 5.0], ParabolicPointError),
    ],
)
def test_second_form_errors_match_reference_loop(profile, us, expected):
    us = np.array(us)
    ref = _first_error(lambda: _ref_second_form_loop(profile, us))
    if expected is not None:
        assert type(ref) is expected
    s = RevolutionSurface(profile, RevolutionKind.TIMELIKE_MERIDIAN, (us[0], us[-1]), (-1.0, 1.0))
    for fn in (
        lambda: check_eigen_ii(s, Grid(us, V)),
        lambda: eigen_system_residual(profile, 1.0, 1.0, us),
    ):
        err = _first_error(fn)
        assert type(err) is type(ref)
        assert str(err) == str(ref)


def test_first_form_consumers_raise_the_profile_error():
    p = expression_profile("ln(u-1.6)")
    us = np.array([1.0, 1.5, 2.0, 3.0, 4.0])
    s = RevolutionSurface(p, RevolutionKind.TIMELIKE_MERIDIAN, (1.0, 4.0), (-1.0, 1.0))
    ref = _first_error(lambda: [p.evaluate(u, k) for u in us.tolist() for k in range(3)])
    for fn in (
        lambda: check_eigen_i(s, Grid(us, V)),
        lambda: verify_constant_curvature(s, Grid(us, V)),
    ):
        err = _first_error(fn)
        assert type(err) is type(ref) and str(err) == str(ref)


def test_non_convergence_on_a_grid():
    cfg = SeriesConfig(max_terms=20)
    s = RevolutionSurface(bessel_profile(-1.0, 1.0, 1.0, cfg), u_range=(1.0, 10.0))
    for check in (check_eigen_i, check_eigen_ii):
        with pytest.raises(NonConvergenceError):
            check(s, make_grid(s, 41, 5))


def test_profile_curve_without_jet_stacks_evaluate():
    p = ProfileCurve(lambda u: u, lambda u: 1.0, lambda u: 0.0, lambda u: 0.0, (1.0, 2.0),
                     ProfileFamily.CUSTOM)
    assert p.jet is None
    want = [[1.0, 1.5, 2.0], [1.0] * 3, [0.0] * 3, [0.0] * 3]
    assert_bit_identical(p.jets(np.array([1.0, 1.5, 2.0])), want)



def test_zero_dim_arrays_take_the_scalar_path():
    for jet in (j0_jet, i0_jet):
        assert_bit_identical(np.array(jet(np.array(2.5)), dtype=np.float64), jet(2.5))
    ast = parse_expression("u^2+ln(u)")
    got = _evaluate(ast, Jet3.variable(np.array(2.5)), bessel.DEFAULT_SERIES).as_tuple()
    assert_bit_identical(got, _evaluate(ast, Jet3.variable(2.5), bessel.DEFAULT_SERIES).as_tuple())
