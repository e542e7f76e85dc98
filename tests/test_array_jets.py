"""Grid evaluation is bit-identical to pointwise evaluation.

Profile jets on an array of radii run each series kernel once for the
whole array (bessel), carry arrays through the forward jets (autodiff) and
feed the grid consumers (classify, surfaces).  Every value here is compared
with its pointwise counterpart as an int64 bit pattern, and every grid error
with the exception a per-radius loop raises first.
"""

import itertools
import math
import re

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
from sigeom.surfaces import _coordinate_laplacians
from exact_fit import check_fit

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
# early (x ~ 1e-3: a handful of terms) and late (x ~ 60: Miller's recurrence
# from N = 124, K0's rule on its fixed nodes) lanes
MIXED = np.array([1e-3, 59.0, 0.02, 45.5, 3.0, 60.0, 0.5, 12.0] * 5)


LOOSE = SeriesConfig(rel_tol=1e-9, max_terms=150)


# LOOSE moves the term where each series stops
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


def _series_kernel(x, sign, weighted):
    """The float64 series of the order-zero equation x f'' + f' - sign x f = 0
    at x, as a list of rows: I0's or J0's plain rows, or K0's or Y0's log
    series (weighted)."""
    cfg = bessel.DEFAULT_SERIES
    if weighted:
        ell = bessel._per_element(math.log, x) + bessel._ELL0
        return list(bessel._ik_series(x, cfg, bessel._k0_weights, ell, sign)[0])
    return list(bessel._ik_series(x, cfg, bessel._i0_weights, sign)[0])


# one kernel for every array length: single lanes, lengths around the
# classifier's default 21 radii, and the largest grid of the benchmark.
# sign is that of the equation x f'' + f' - sign x f = 0: -1 takes the
# alternating series of J0 and Y0, +1 those of I0 and K0
@pytest.mark.parametrize("lanes", [1, 5, 12, 21, 23, 24, 40, 401])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_series_array_against_scalar_kernels(lanes, sign, weighted):
    xs = _lanes(lanes)
    if sign < 0.0:  # J0's and Y0's series run below x = 2
        xs = xs[xs < bessel._MILLER_FROM]
    got = _series_kernel(xs, sign, weighted)
    ref = [_series_kernel(x, sign, weighted) for x in xs.tolist()]
    for k, row in enumerate(got):
        assert_bit_identical(row, [r[k] for r in ref])


# Miller's recurrence: each lane starts at its own N, from 26 at x = 2 to
# 200 at the default cap near x = 116, and J0 alone takes x < 0
MILLER_XS = np.concatenate([np.geomspace(2.0, 116.0, 37), [2.0, 116.0, 2.0000000000000004, 7.0]])


@pytest.mark.parametrize("lanes", [1, 2, 21, 41])
@pytest.mark.parametrize("y", [False, True], ids=["j0", "j0-y0"])
def test_miller_array_against_scalar_kernel(lanes, y):
    xs = np.random.default_rng(lanes).permutation(MILLER_XS)[:lanes]
    if not y:
        xs = xs * np.where(np.arange(lanes) % 2, -1.0, 1.0)
    rows, pending = bessel._miller(xs, bessel.DEFAULT_SERIES, y)
    ref = [bessel._miller(x, bessel.DEFAULT_SERIES, y)[0] for x in xs.tolist()]
    assert len(rows) == (4 if y else 2) and not pending.any()
    for k, row in enumerate(rows):
        assert_bit_identical(row, [r[k] for r in ref])


def test_miller_is_even_in_j0():
    xs = np.geomspace(2.0, 116.0, 50)
    (f, f1), _ = bessel._miller(xs, bessel.DEFAULT_SERIES, False)
    (g, g1), _ = bessel._miller(-xs, bessel.DEFAULT_SERIES, False)
    assert_bit_identical(g, f)
    assert_bit_identical(g1, -f1)


# ----------------------------------------------------------------------
# bessel: block edges of the array series, and K0's rule
#
# an array runs a block of K terms per pass, K from
# `_block_length(rows, lanes)`; a block covers the stop tests at n = jK + 1
# .. (j + 1) K, so a lane whose float loop stops at n = 0 mod K stops on
# the last term of a block and one at n = 1 mod K on the first of the next

SERIES = {  # kind: (rows, highest x, weights, sign); K0 and Y0 take ell too
    "i0": (4, 25.0, bessel._i0_weights, 1.0),
    "j0": (4, 1.99, bessel._i0_weights, -1.0),
    "k0": (2, 1.99, bessel._k0_weights, 1.0),
    "y0": (2, 1.99, bessel._k0_weights, -1.0),
}


def _ik_rows(kind, x, cfg):
    """(rows, pending) of `_ik_series` for kind at a float or an array x."""
    _, _, weights, sign = SERIES[kind]
    if weights is bessel._k0_weights:
        return bessel._ik_series(x, cfg, weights, bessel._per_element(math.log, x) + bessel._ELL0, sign)
    return bessel._ik_series(x, cfg, weights, sign)


def _pointwise_ik_rows(kind, xs, cfg):
    """Each lane's rows and whether its float loop refused it."""
    rows, refused = [], []
    for x in xs.tolist():
        try:
            rows.append(_ik_rows(kind, x, cfg)[0])
            refused.append(False)
        except NonConvergenceError:
            rows.append([np.nan] * SERIES[kind][0])
            refused.append(True)
    return np.array(rows).T, np.array(refused, dtype=bool)


def assert_series_like_pointwise(kind, xs, cfg):
    rows, pending = _ik_rows(kind, xs, cfg)
    want, refused = _pointwise_ik_rows(kind, xs, cfg)
    assert rows.shape == want.shape and pending.tolist() == refused.tolist()
    assert_bit_identical(rows[:, ~refused], want[:, ~refused])
    return pending


def _stop_terms(kind, xs):
    """The term at which the float loop stops at each x: the least
    max_terms with which it converges."""
    stops = []
    for x in xs.tolist():
        lo, hi = 1, bessel.DEFAULT_SERIES.max_terms
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                _ik_rows(kind, x, SeriesConfig(max_terms=mid))
                hi = mid
            except NonConvergenceError:
                lo = mid + 1
        stops.append(lo)
    return np.array(stops)


@pytest.mark.parametrize("kind", sorted(SERIES))
@pytest.mark.parametrize("k", [1, 2, 3, 5, 16])
def test_block_series_lanes_stop_on_block_edges(kind, k, monkeypatch):
    rows, hi, _, _ = SERIES[kind]
    xs = np.linspace(hi / 150, hi, 150)
    stops = _stop_terms(kind, xs)
    edges = stops % k <= 1  # on the last term of a block, or the first of the next
    assert k == 1 or {0, 1} <= set((stops[edges] % k).tolist()) or max(stops) < k
    lanes = np.random.default_rng(k).permutation(np.concatenate([xs[edges], xs[~edges][::7]]))
    if rows == 4:  # I0's and J0's rows at x = +-0 are their n = 0 weights
        lanes = np.concatenate([[0.0], lanes, [-0.0]])
    monkeypatch.setattr(bessel, "_block_length", lambda rows, lanes: k)
    assert not assert_series_like_pointwise(kind, lanes, bessel.DEFAULT_SERIES).any()


@pytest.mark.parametrize("kind", sorted(SERIES))
@pytest.mark.parametrize("lanes", [64, 1024])
@pytest.mark.parametrize("past", [-1, 0, 1, "twice", "twice+1"])
def test_block_series_max_terms_around_a_block(kind, lanes, past):
    # max_terms below, at and one past a block's length, and at the end of
    # the second block and one past it: converged and pending lanes in one
    # call, each as the float loop leaves it
    rows, hi, _, _ = SERIES[kind]
    k = bessel._block_length(rows, lanes)
    terms = {"twice": 2 * k, "twice+1": 2 * k + 1}.get(past) or k + past
    xs = np.random.default_rng(lanes).uniform(0.0, 1.0, lanes) ** 2 * hi + 1e-3
    pending = assert_series_like_pointwise(kind, xs, SeriesConfig(max_terms=terms))
    if kind == "i0" and lanes == 64:  # K = 16, and I0 stops from n = 4 to 45 on [0, 25]
        assert 0 < pending.sum() < lanes


@pytest.mark.parametrize("kind", sorted(SERIES))
def test_block_series_on_empty_arrays(kind):
    rows, pending = _ik_rows(kind, np.array([]), bessel.DEFAULT_SERIES)
    assert rows.shape == (SERIES[kind][0], 0) and pending.shape == (0,)


K0_RULE_XS = np.concatenate([np.geomspace(2.0, 700.0, 61), [2.0, 2.5, 40.0, 1e300]])
# the nodes of K0's rule from x = 2 up at the default rel_tol
K0_NODES = len(bessel._k0_nodes(bessel.DEFAULT_SERIES.rel_tol))


def _k0_rule_lanes(lanes):
    return np.resize(np.random.default_rng(lanes).permutation(K0_RULE_XS), lanes)


@pytest.mark.parametrize("lanes", [1, 21, 401, 4096])
def test_k0_rule_arrays_match_the_float_calls(lanes):
    # every lane takes the same fixed nodes, with no stop test
    xs, cfg = _k0_rule_lanes(lanes), bessel.DEFAULT_SERIES
    k0, k1, pending = bessel._k0_rule(xs, cfg)
    want = np.array([bessel._k0_rule(x, cfg)[:2] for x in xs.tolist()]).T
    assert not pending.any()
    assert_bit_identical([k0, k1], want)


@pytest.mark.parametrize("lanes", [1, 21, 401, 4096])
def test_k0_rule_refuses_nodes_past_max_terms(lanes):
    # one node short leaves every lane pending, and k0_jet refuses the first
    # lane from x = 2, after lanes below 2 whose log series converges
    xs, cfg = _k0_rule_lanes(lanes), SeriesConfig(max_terms=K0_NODES - 1)
    assert bessel._k0_rule(xs, cfg)[2].all()
    assert not bessel._k0_rule(xs, SeriesConfig(max_terms=K0_NODES))[2].any()
    with pytest.raises(NonConvergenceError, match=f"at x={float(xs[0])!r}$"):
        bessel._k0_rule(float(xs[0]), cfg)
    with pytest.raises(NonConvergenceError, match=f"at x={float(xs[0])!r}$"):
        k0_jet(np.concatenate([[0.5, 1.9], xs]), cfg)


@pytest.mark.parametrize("terms", [12, 20, 200])
@pytest.mark.parametrize("k", [None, 1, 3, 16])
def test_cf2_blocks_against_the_float_loop(terms, k, monkeypatch):
    # K0 from x = 2, where CF2 ran in blocks, against the float loop at any
    # block length of the log series below 2: the rule's lanes are its float
    # calls, all pending below K0_NODES terms and none from there, and
    # k0_jet over lanes on both sides of 2 gives the float jets or refuses
    # the first x that a float call refuses (the log series fails at 1.9
    # with 12 terms)
    if k is not None:
        monkeypatch.setattr(bessel, "_block_length", lambda rows, lanes: k)
    xs, cfg = np.random.default_rng(terms).permutation(K0_RULE_XS), SeriesConfig(max_terms=terms)
    k0, k1, pending = bessel._k0_rule(xs, cfg)
    for i, x in enumerate(xs.tolist()):
        try:
            want = bessel._k0_rule(x, cfg)
        except NonConvergenceError:
            assert pending[i]
            continue
        assert not pending[i]
        assert_bit_identical([k0[i], k1[i]], want[:2])
    assert pending.all() == (terms < K0_NODES) and pending.any() == pending.all()
    lanes = np.random.default_rng(k).permutation(np.concatenate([np.linspace(0.05, 1.99, 40), xs]))
    want = []
    for x in lanes.tolist():
        try:
            want.append(k0_jet(x, cfg))
        except NonConvergenceError as exc:
            with pytest.raises(NonConvergenceError, match=f"^{re.escape(str(exc))}$"):
                k0_jet(lanes, cfg)
            break
    else:
        assert_bit_identical(np.array(k0_jet(lanes, cfg)), np.array(want).T)
    assert (len(want) == lanes.size) == (terms == 200)


def test_k0_rule_on_empty_arrays():
    assert [a.shape for a in bessel._k0_rule(np.array([]), bessel.DEFAULT_SERIES)] == [(0,)] * 3


# tracemalloc peaks at the CLI's block of 4096 x (`cli._BLOCK_ROWS`), in
# units of the returned jet's 4 x 4096 float64: the block buffers of
# `_ik_series` and the rows of K0's rule stay a small multiple of it at any
# lane count
JET_PEAK_BOUND = 8.0


@pytest.mark.parametrize("jet", [i0_jet, y0_jet, k0_jet], ids=lambda f: f.__name__)
def test_jets_on_a_cli_block_keep_few_buffers_alive(jet):
    import tracemalloc

    xs = np.linspace(0.05, 25.0, 4096)
    jet(xs)  # tables and caches filled
    tracemalloc.start()
    try:
        jet(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= JET_PEAK_BOUND * 4 * xs.nbytes


def test_k0_jet_at_a_large_max_terms():
    # the weights of K0's log series read phi(n) only for the terms summed,
    # and phi(n) is built without recursion
    xs, cfg = np.array([0.5, 1.5]), SeriesConfig(max_terms=5000)
    assert_bit_identical(np.array(k0_jet(xs, cfg)), pointwise(lambda x: k0_jet(x, cfg), xs))


# J_p's series sums the rows 0..orders of its term-wise derivatives and
# stops on those rows alone, at an array as at a float
@pytest.mark.parametrize("orders", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [0.3, -1.7])
def test_series_array_sums_the_rows_it_is_asked_for(orders, p):
    xs, cfg = _lanes(24), bessel.DEFAULT_SERIES
    rows, pending = bessel._jp_series(xs, cfg, p, orders + 1)
    ref = [bessel._jp_series(x, cfg, p, orders + 1)[0] for x in xs.tolist()]
    assert len(rows) == len(ref[0]) == orders + 1 and not pending.any()
    for k, row in enumerate(rows):
        assert_bit_identical(row, [r[k] for r in ref])


def test_series_rows_at_zero_lanes_are_exact():
    xs = np.array([0.0, 1.5, -0.0, 4.0])
    cfg = bessel.DEFAULT_SERIES
    for sign in (1.0, -1.0):  # I0's and J0's float64 rows: their n = 0 weights at x = 0
        rows = bessel._ik_series(xs, cfg, bessel._i0_weights, sign)[0]
        ref = [bessel._ik_series(x, cfg, bessel._i0_weights, sign)[0] for x in xs.tolist()]
        for k, row in enumerate(rows):
            assert_bit_identical(row, [r[k] for r in ref])
            assert row[[0, 2]].tolist() == [bessel._i0_weights(0, sign)[k]] * 2


def test_jets_at_zero_and_negative_lanes():
    xs = np.array([-4.0, -0.5, 0.0, 0.5, 4.0, -0.0, -60.0, 2.0, -2.0] * 6)
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
    # a lane that does not converge ahead of one that is not finite
    (np.array([1.0, 40.0, np.inf]), SeriesConfig(max_terms=30)),
], ids=["non-convergence", "nan", "inf", "-inf", "non-convergence-then-inf"])
def test_array_errors_name_the_first_failing_lane(fn, xs, cfg):
    if fn in (bessel.bessel_k0, k0_jet) and cfg.max_terms == 30:
        cfg = SeriesConfig(max_terms=K0_NODES - 1)  # K0's rule from x = 2 takes fixed nodes
    ref = _first_error(lambda: [fn(x, cfg) for x in xs.tolist()])
    with pytest.raises(type(ref)) as exc:
        fn(xs, cfg)
    assert str(exc.value) == str(ref)


# ----------------------------------------------------------------------
# bessel: one call for each regime of a kernel pair

# J0's zeros, and small lanes
J0_ZEROS = [2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281]
WITNESSES = np.array(J0_ZEROS + [1e-3, 0.25, 0.559])


def _one_pass_lanes(n):
    return np.random.default_rng(n).permutation(np.concatenate([WITNESSES, _lanes(n)])[:n])


def _regimes_apart(xs, cut, below, above):
    """The rows of below at the lanes of xs under cut and of above at the
    rest, each called apart."""
    low = xs < cut
    rows_low, rows_high = below(xs[low])[0], above(xs[~low])[0]
    want = np.empty((len(rows_high), xs.size))
    want[:, low], want[:, ~low] = rows_low, rows_high
    return want


# with +1, K0's one call over lanes on both sides of x = 2 against its log
# series and its trapezoidal rule called apart; with -1, the J0 jet and Y0 and Y0' against
# their series and Miller's recurrence called apart
@pytest.mark.parametrize("lanes", [1, 5, 21, 24, 101, 401])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_one_pass_sums_match_the_two_passes(lanes, sign):
    xs, cfg = _one_pass_lanes(lanes), bessel.DEFAULT_SERIES
    if sign > 0.0:
        got = np.array(bessel._k0_pair(xs, cfg))

        def below(x):
            rows, pending = bessel._ik_series(x, cfg, bessel._k0_weights, bessel._per_element(math.log, x) + bessel._ELL0)
            return (rows[0], rows[1] / x), pending

        def above(x):
            k0, k1, pending = bessel._k0_rule(x, cfg)
            return (k0, -k1), pending

        want = _regimes_apart(xs, bessel._K0_RULE_FROM, below, above)
        assert_bit_identical(got, np.array([bessel._k0_pair(x, cfg) for x in xs.tolist()]).T)
    else:
        got = np.array(bessel._j0_y0(xs, cfg, True))

        def below(x):
            jet, pending = bessel._power_jet(x, cfg, -1.0)
            y = _series_kernel(x, -1.0, True)
            return (*jet, -bessel._TWO_OVER_PI * y[0], -bessel._TWO_OVER_PI * y[1] / x), pending

        def above(x):
            (f, f1, y0, y1), pending = bessel._miller(x, cfg, True)
            return (*bessel._equation_jet(x, f, f1, -1.0), y0, y1), pending

        want = _regimes_apart(xs, bessel._MILLER_FROM, below, above)
        assert_bit_identical(got, np.array([bessel._j0_y0(x, cfg, True) for x in xs.tolist()]).T)
    assert_bit_identical(got, want)


def test_one_pass_on_empty_arrays():
    empty, cfg = np.array([]), bessel.DEFAULT_SERIES
    assert np.array(bessel._j0_y0(empty, cfg, True)).shape == (6, 0)
    assert np.array(bessel._k0_pair(empty, cfg)).shape == (2, 0)


@pytest.mark.parametrize("primary,secondary", [(j0_jet, y0_jet), (i0_jet, k0_jet)])
@pytest.mark.parametrize("xs", [MIXED, WITNESSES, 2.5, J0_ZEROS[0]],
                         ids=["array", "witnesses", "float", "float-at-zero"])
def test_log_jets_carry_the_primary_jet_of_their_pass(primary, secondary, xs):
    got = secondary(xs)
    assert_bit_identical(np.array(got.primary), np.array(primary(xs)))


def test_k0_primary_is_summed_from_its_own_copy_of_x():
    xs = np.array([0.5, 3.0, 12.0, 1.5])
    got, want = k0_jet(xs), np.array(i0_jet(xs))
    xs[:] = 40.0  # after the K0 call, before its primary is first read
    assert_bit_identical(np.array(got.primary), want)


@pytest.mark.parametrize("jet, xs, terms", [
    # at 16 terms Miller's recurrence refuses every x from 2 up (it starts
    # at N = 26 at x = 2), while the series converge at 1
    (y0_jet, [1.0, 3.8337, 2.404825557695773, 2.0], 16),
    (y0_jet, [1.0, 2.404825557695773, 3.8337, 2.0], 16),
    (y0_jet, [0.5, 40.0, 1.0, 35.0], 16),
    # K0 at 12 terms: its log series fails at 1.9 and its rule, short of its
    # nodes, at 3.0 and 60, while 0.5 and 1.0 converge; the first failing
    # lane is the log series' in the first case and the rule's in the second
    # (the ids keep their earlier names)
    (k0_jet, [0.5, 1.9, 3.0, 1.0], 12),
    (k0_jet, [0.5, 3.0, 1.9, 60.0], 12),
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
    # the radii straddle x = 2: J0 takes one pass of its series and one
    # Miller recurrence, with Y0's series on top where c2 != 0; I0 one pass
    # of its four rows, and K0 one of its log series over the lanes below
    # x = 2 and one pass of its rule over the rest
    calls = []
    for name in ("_miller", "_ik_series", "_k0_rule"):
        kernel = getattr(bessel, name)
        monkeypatch.setattr(bessel, name, lambda *a, _k=kernel, _n=name: calls.append(_n) or _k(*a))
    p = bessel_profile(lam, 1.0, c2)
    us = np.linspace(0.2, 9.0, 101)
    got = p.jets(us)
    if lam > 0.0:
        want = ["_ik_series", "_miller"] + ["_ik_series"] * bool(c2)
    else:
        want = ["_ik_series"] + ["_ik_series", "_k0_rule"] * bool(c2)
    assert sorted(calls) == sorted(want)
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
    # K0 from x = 2 takes its rule's fixed nodes, one more than it is given
    cfg = SeriesConfig(max_terms=K0_NODES - 1 if jet is k0_jet else 30)
    xs = np.linspace(1.0, 40.0, 40)
    with pytest.raises(NonConvergenceError):  # the series are slowest at 40
        jet(2.0 if jet is k0_jet else float(xs[-1]), cfg)
    with pytest.raises(NonConvergenceError):
        jet(xs, cfg)


# bessel_j: the order-p series and Miller's recurrence on the same kernels,
# with x = 0 lanes (where a pointwise call sums nothing)
JP_XS = np.concatenate([[0.0], MIXED[:8], [0.0, -0.0], LONG[::9], [0.0]])


def _jp_pointwise(p, xs, cfg=bessel.DEFAULT_SERIES):
    return [bessel.bessel_j(p, x, cfg) for x in xs.tolist()]


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


def test_series_array_results_outlive_the_next_call():
    x, cfg = np.linspace(0.1, 12.0, 101), bessel.DEFAULT_SERIES
    first = bessel._jp_series(x, cfg, 0.3, 4)[0]
    kept = np.array(first)
    later = [*bessel._jp_series(np.linspace(0.2, 9.0, 37), cfg, -1.7, 4)[0],
             *bessel._jp_series(x[:50], cfg, 0.3, 1)[0]]
    assert_bit_identical(np.array(first), kept)
    assert not any(np.shares_memory(a, b) for a in first for b in later)


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


ORDER_TUPLES = [t for n in range(1, 5) for t in itertools.permutations(range(4), n)]


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_jet_takes_any_orders_at_an_array_and_jets_call_it_once(name):
    p = PROFILES[name]
    us = np.linspace(p.domain[0], p.domain[1], 64)
    for orders in ORDER_TUPLES:
        got = np.array([np.broadcast_to(v, us.shape) for v in p.jet(us, orders)])
        want = np.array([p.jet(u, orders) for u in us.tolist()], dtype=np.float64).T
        assert_bit_identical(got, want)
    # the one array call does it all: no float call, as the per-radius loop makes
    float_calls = []

    def counted(u, orders=(0, 1, 2, 3)):
        if not isinstance(u, np.ndarray):
            float_calls.append(u)
        return p.jet(u, orders)

    q = ProfileCurve(counted, p.domain, p.family, p.params)
    assert_bit_identical(q.jets(us), p.jets(us))
    assert_bit_identical(q._jets(us, (2, 0)), p.jets(us)[[2, 0]])
    assert float_calls == []


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


def ref_profile_grids(lap, f0, g):
    """Lap r3 and r3 = f at each radius, materialised along v as the grid."""
    return tuple(np.repeat(x[:, None], g.v.size, axis=1) for x in (lap, f0))


def assert_eigen_fits(rep, rotational, profile_grids, nu):
    """The fits of r1 and r2 bit for bit the reference's; r3's within the
    bound of the exact least squares of its materialised grid (its sums run
    over the nu radii).  Returns lambda1 and the exact lambda3."""
    fits = list(zip(rep.lam, rep.residual_sup, rep.residual_rel))
    assert_bit_identical(fits[:2], rotational)
    return fits[0][0], check_fit(fits[2], *profile_grids, nu)


def ref_check_eigen_i(s, g, tol=1e-6):
    f0 = np.array([s.profile.evaluate(float(u), 0) for u in g.u])
    f1 = np.array([s.profile.evaluate(float(u), 1) for u in g.u])
    f2 = np.array([s.profile.evaluate(float(u), 2) for u in g.u])
    radial = -f2 - f1 / g.u
    if s.kind is RevolutionKind.SPACELIKE_MERIDIAN:
        radial = -radial
    return ref_rotational_fits(s.kind, np.zeros(g.u.size), g), ref_profile_grids(radial, f0, g)


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
    return ref_rotational_fits(s.kind, a, g), ref_profile_grids(c3, f0, g), -1.0 in ew_values


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
    assert rep.operator is OperatorKind.FIRST_FORM
    assert_eigen_fits(rep, *ref_check_eigen_i(ref_s, g), nu)

    rep = check_eigen_ii(s, g)
    *ref, flipped = ref_check_eigen_ii(ref_s, g)
    assert rep.operator is OperatorKind.SECOND_FORM
    lam1, lam3 = assert_eigen_fits(rep, *ref, nu)
    assert rep.notes.startswith(_pattern_label(lam1, lam3, 1e-6))
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
    # a = -306, while f' and f'' do not; K = f' f''/u and c do, and the
    # tables refuse them
    ("power:lambda=1,mu=-306,c=1", (0.1, 1.0), V_RANGE, "curvature"),
    ("power:lambda=1,mu=-306,c=1", (0.1, 1.0), V_RANGE, "laplacian1"),
    # f = 2/mu + u^309 overflows at u = 10, while its derivatives do not; c,
    # from the third derivative, overflows at the last grid radius
    ("power:lambda=1,mu=309,c=1", (1.0, 10.0), V_RANGE, "laplacian2"),
]


def _table_argv(spec, kind, u_range, action, grid, v_range=V_RANGE):
    return ["surface", "--profile", spec, "--kind", kind, f"--u={u_range[0]}:{u_range[1]}",
            f"--v={v_range[0]}:{v_range[1]}", "--grid", grid, "--action", action]


@pytest.mark.parametrize("spec,u_range,v_range,action", TABLE_CASES)
@pytest.mark.parametrize("kind", ["timelike", "spacelike"])
@pytest.mark.filterwarnings("error")  # numpy must not warn where the loops are silent
def test_cli_tables_vs_per_point_loops(capsys, spec, u_range, v_range, action, kind):
    # the per-point closed forms evaluate only the profile orders they use;
    # where one of their values is not finite, the table refuses its radius
    code = main(_table_argv(spec, kind, u_range, action, "9x6", v_range))
    out, err = capsys.readouterr()
    s = RevolutionSurface(parse_profile_spec(spec), RevolutionKind(kind), u_range, v_range)
    if action == "curvature":
        lines, what = ["u,K,H"], "curvature K or H"
        rows = [(u, *curvatures(s, u)) for u in np.linspace(*u_range, 9).tolist()]
    else:
        lines, what = ["u,v,d1,d2,d3"], "profile jets or coordinate Laplacians"
        op = coord_laplacians_i if action == "laplacian1" else coord_laplacians_ii
        g = make_grid(s, 9, 6)
        rows = [(u, v, *op(s, u, v)) for u in g.u.tolist() for v in g.v.tolist()]
    refused = [row[0] for row in rows if not all(map(math.isfinite, row))]
    if refused:
        assert (code, out, err) == (3, "", f"error: {what} not finite at u = {refused[0]!r}\n")
        return
    assert (code, err) == (0, "")
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


# u*u underflows to 0 at u = 1e-200: a float c1 / (u*u) raises
# ZeroDivisionError there, where an array would give inf (c1 != 0) or nan
# (c1 = 0) without the closed-form jet's floating-point checks
@pytest.mark.parametrize("c1", [1.0, 0.0])
def test_closed_form_jets_refuse_a_zero_divisor_as_floats_do(c1):
    p = constant_h_profile(1.0, c1, 0.0, domain=(1e-200, 1.0))
    us = np.array([0.5, 1e-200, 1.0])
    with pytest.raises(ZeroDivisionError):
        p.evaluate(1e-200, 2)
    with pytest.raises(ZeroDivisionError):
        p.jets(us)
    with pytest.raises(ZeroDivisionError):
        p._jets(us, (3,))
    want = [[p.evaluate(u, k) for u in us.tolist()] for k in (0, 1)]
    assert_bit_identical(p._jets(us, (0, 1)), want)


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



def test_zero_dim_arrays_take_the_scalar_path():
    for jet in (j0_jet, i0_jet):
        assert_bit_identical(np.array(jet(np.array(2.5)), dtype=np.float64), jet(2.5))
    ast = parse_expression("u^2+ln(u)")
    got = _evaluate(ast, Jet3.variable(np.array(2.5)), bessel.DEFAULT_SERIES).as_tuple()
    assert_bit_identical(got, _evaluate(ast, Jet3.variable(2.5), bessel.DEFAULT_SERIES).as_tuple())
