import tracemalloc

import numpy as np
import pytest

from sigeom import (
    DomainError,
    Grid,
    OperatorKind,
    ParabolicPointError,
    RevolutionKind,
    RevolutionSurface,
    Verdict,
    bessel_profile,
    check_eigen_i,
    check_eigen_ii,
    constant_h_profile,
    constant_k_profile,
    eigen_system_residual,
    linear_profile,
    log_profile,
    make_grid,
    power_profile,
    solve_radial_eigen_ode,
    verify_constant_curvature,
)
from sigeom.classify import _fit


def _surf(profile, u=(0.5, 5.0), v=(-1.0, 1.0)):
    return RevolutionSurface(profile, RevolutionKind.TIMELIKE_MERIDIAN, u, v)


# ----------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(u=np.array([1.0, 2.0, 3.0, 4.0]), v=np.linspace(-1, 1, 5))  # too few
    with pytest.raises(ValueError):
        Grid(u=np.array([1.0, 1.0, 2.0, 3.0, 4.0]), v=np.linspace(-1, 1, 5))
    g = Grid(u=np.linspace(1, 4, 9), v=np.linspace(-1, 1, 6))
    assert g.u.size == 9


def test_make_grid_defaults_and_zero_avoidance():
    s = _surf(log_profile(-2.0, 0.0), v=(-1.0, 1.0))
    g = make_grid(s)
    assert g.u.size == 21 and g.v.size == 21
    assert g.u[0] > 0.5 and g.u[-1] < 5.0
    assert np.abs(g.v).min() > 1e-12  # no sample sits exactly on v = 0
    # symmetric range with odd count would hit v = 0 without the shift
    s2 = _surf(log_profile(-2.0, 0.0), v=(-0.5, 1.0))
    assert np.abs(make_grid(s2, 21, 21).v).min() > 1e-12


def test_grid_must_stay_in_ranges():
    s = _surf(log_profile(-2.0, 0.0))
    g = Grid(u=np.linspace(1.0, 6.0, 11), v=np.linspace(-0.5, 0.5, 5))
    with pytest.raises(DomainError):
        check_eigen_i(s, g)


# ----------------------------------------------------------------------
# first-form checks


def test_eigen_i_bessel_profile_example():
    s = _surf(bessel_profile(1.0, 1.0, 0.0), u=(1.0, 4.0), v=(-1.0, 1.0))
    rep = check_eigen_i(s, make_grid(s))
    assert rep.operator is OperatorKind.FIRST_FORM
    assert rep.verdict is Verdict.NULL_TWO_TYPE
    assert rep.lam[0] == 0.0 and rep.lam[1] == 0.0
    assert rep.lam[2] == pytest.approx(1.0, abs=1e-9)
    assert max(rep.residual_sup) < 1e-6


def test_eigen_i_modified_branch():
    s = _surf(bessel_profile(-1.0, 1.0, 0.0), u=(0.5, 5.0))
    rep = check_eigen_i(s, make_grid(s))
    assert rep.verdict is Verdict.NULL_TWO_TYPE
    assert rep.lam[2] == pytest.approx(-1.0, abs=1e-9)
    assert max(rep.residual_sup) < 1e-6


def test_eigen_i_quadratic_profile_fails():
    s = _surf(constant_h_profile(2.0, 0.0, 0.0))  # f = u^2, Lap r3 = -4
    rep = check_eigen_i(s, make_grid(s))
    assert rep.verdict is Verdict.NO_EIGEN_RELATION
    assert rep.lam[0] == 0.0 and rep.lam[1] == 0.0
    assert rep.residual_sup[2] > 0.1


def test_eigen_i_harmonic_profile_is_not_null_two_type():
    # f = ln u is harmonic: the relation holds with lambda3 = 0
    s = _surf(log_profile(-2.0, 0.0))
    rep = check_eigen_i(s, make_grid(s))
    assert rep.verdict is Verdict.NO_EIGEN_RELATION
    assert abs(rep.lam[2]) < 1e-9
    assert max(rep.residual_sup) < 1e-12
    assert "minimal" in rep.notes


def test_eigen_i_scaling_equivariance():
    lam3 = 1.0
    base = _surf(bessel_profile(lam3, 1.0, 0.0), u=(1.0, 4.0))
    scaled = _surf(bessel_profile(lam3, 3.0, 0.0), u=(1.0, 4.0))
    g = make_grid(base)
    a = check_eigen_i(base, g)
    b = check_eigen_i(scaled, g)
    assert a.lam[0] == b.lam[0] == 0.0
    assert a.lam[1] == b.lam[1] == 0.0
    assert b.lam[2] == pytest.approx(a.lam[2], rel=1e-12)
    assert b.verdict is a.verdict


def test_eigen_i_spacelike_kind():
    s = RevolutionSurface(
        bessel_profile(1.0, 1.0, 0.0), RevolutionKind.SPACELIKE_MERIDIAN, (1.0, 4.0), (-1.0, 1.0)
    )
    rep = check_eigen_i(s, make_grid(s))
    # the spacelike radial Laplacian flips sign: Lap r3 = +f'' + f'/u = -lambda r3
    assert rep.lam[2] == pytest.approx(-1.0, abs=1e-9)
    assert rep.verdict is Verdict.NULL_TWO_TYPE


# ----------------------------------------------------------------------
# second-form checks


def test_eigen_ii_log_example():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0), v=(-0.5, 1.0))
    rep = check_eigen_ii(s, make_grid(s))
    assert rep.operator is OperatorKind.SECOND_FORM
    assert rep.verdict is Verdict.SI_MINIMAL
    assert rep.lam[0] == pytest.approx(-2.0, abs=1e-9)
    assert rep.lam[1] == pytest.approx(-2.0, abs=1e-9)
    assert abs(rep.lam[2]) < 1e-9
    assert max(rep.residual_sup) < 1e-6
    assert "log family" in rep.notes


@pytest.mark.parametrize("lam", [5.0, 2.0, -0.7])
def test_eigen_ii_log_family_recovers_lambda(lam):
    s = _surf(log_profile(lam, 0.3), u=(0.5, 5.0), v=(-0.5, 1.0))
    rep = check_eigen_ii(s, make_grid(s))
    assert rep.verdict is Verdict.SI_MINIMAL
    assert rep.lam[0] == pytest.approx(lam, abs=1e-6)
    assert rep.lam[1] == pytest.approx(lam, abs=1e-6)
    assert abs(rep.lam[2]) < 1e-6


def test_eigen_ii_si_minimal_implies_vanishing_h():
    s = _surf(log_profile(4.0, -1.0), u=(0.5, 5.0), v=(-0.5, 1.0))
    g = make_grid(s)
    rep = check_eigen_ii(s, g)
    assert rep.verdict is Verdict.SI_MINIMAL
    curv = verify_constant_curvature(s, g, tol=1e-8)
    assert curv.is_constant_h and abs(curv.h0) < 1e-8
    assert curv.si_minimal


def test_eigen_ii_quadratic_profile_fails():
    s = _surf(constant_h_profile(2.0, 0.0, 0.0))
    rep = check_eigen_ii(s, make_grid(s))
    assert rep.verdict is Verdict.NO_EIGEN_RELATION
    # r1, r2 sit in the kernel (B = 1/f'), the third coordinate cannot fit
    assert abs(rep.lam[0]) < 1e-9 and abs(rep.lam[1]) < 1e-9
    assert rep.residual_sup[2] > 0.1
    assert "mu != 0" in rep.notes
    assert "orientation" in rep.notes  # w < 0 for f = u^2


def test_eigen_ii_parabolic_error():
    s = _surf(linear_profile(1.0, 0.0))
    with pytest.raises(ParabolicPointError):
        check_eigen_ii(s, make_grid(s))


def test_report_serialization_round_trip():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0), v=(-0.5, 1.0))
    rep = check_eigen_ii(s, make_grid(s))
    text = rep.to_text()
    lines = dict(line.split(": ", 1) for line in text.strip().splitlines())
    assert lines["operator"] == "SecondForm"
    assert lines["verdict"] == "SIMinimal"
    assert float(lines["lambda1"]) == pytest.approx(-2.0, abs=1e-9)
    assert float(lines["residual3"]) < 1e-6
    assert set(lines) == {
        "operator", "lambda1", "lambda2", "lambda3",
        "residual1", "residual2", "residual3", "verdict", "notes",
    }


# ----------------------------------------------------------------------
# fits without full grids: the same bits as _fit on the materialised grid

FIT_GRIDS = [(5, 5), (21, 21), (64, 5), (401, 401)]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _magnitudes(rng, n):
    """n values of random sign, log-uniform in magnitude over [1e-3, 1e3]."""
    return rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 3.0, n)


def _radial_cases(nu):
    rng = np.random.default_rng(nu)
    some_zeros = _magnitudes(rng, nu)
    some_zeros[rng.random(nu) < 0.3] = -0.0
    r = _magnitudes(rng, nu)
    return {
        "random": (_magnitudes(rng, nu), _magnitudes(rng, nu)),
        "eigen": (-2.5 * r, r),
        "r-zero": (_magnitudes(rng, nu), np.zeros(nu)),
        "r-signed-zeros": (_magnitudes(rng, nu), rng.choice((-0.0, 0.0), nu)),
        "all-signed-zeros": (rng.choice((-0.0, 0.0), nu), rng.choice((-0.0, 0.0), nu)),
        "some-zeros": (_magnitudes(rng, nu), some_zeros),
    }


@pytest.mark.parametrize("nu,nv", FIT_GRIDS, ids=lambda n: str(n))
@pytest.mark.parametrize("case", ["random", "eigen", "r-zero", "r-signed-zeros",
                                  "all-signed-zeros", "some-zeros"])
def test_radial_fit_matches_the_repeated_grid(nu, nv, case):
    lap, r = _radial_cases(nu)[case]
    want = _fit(np.repeat(lap[:, None], nv, axis=1), np.repeat(r[:, None], nv, axis=1))
    assert _bits(_fit(lap, r, nv)) == _bits(want)


def test_radial_fit_refuses_an_overflowing_sum():
    # every value finite, but r^2 summed over the grid is not
    r = np.array([1e160, -3e159, 2.0, 1e-3, 5e158])
    lap = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(DomainError) as grid:
        _fit(np.repeat(lap[:, None], 7, axis=1), np.repeat(r[:, None], 7, axis=1))
    with pytest.raises(DomainError) as rows:
        _fit(lap, r, 7)
    assert str(rows.value) == str(grid.value) == "eigen-fit sums overflow (max |r| = 1e+160)"


@pytest.mark.parametrize("nu,nv", FIT_GRIDS, ids=lambda n: str(n))
@pytest.mark.parametrize("timelike", [True, False], ids=["timelike", "spacelike"])
def test_rotational_fits_match_the_full_grid(nu, nv, timelike):
    rng = np.random.default_rng(nu * nv)
    u = _magnitudes(rng, nu)
    u[rng.random(nu) < 0.2] = rng.choice((-0.0, 0.0))
    v = np.sort(rng.uniform(-3.0, 3.0, nv))
    v[nv // 2] = 0.0  # sinh v = 0
    sv, cv = np.sinh(v), np.cosh(v)
    h = sv if timelike else cv
    r = u[:, None] * h
    # max|u h| is max|u| max|h| rounded once
    scale = float(np.max(np.abs(u)) * np.max(np.abs(h)))
    assert _bits(scale) == _bits(np.max(np.abs(r)))
    # a second-form Laplacian a(u) h(v) through the same path
    lap = _magnitudes(rng, nu)[:, None] * h
    assert _bits(_fit(lap, r, scale=scale)) == _bits(_fit(lap, r))
    # a harmonic coordinate: Lap r = 0, with the signs 0 * h(v) gives
    zero = 0.0 * h[None, :]
    assert _bits(_fit(None, r, scale=scale)) == _bits(_fit(zero, r)) == _bits([0.0] * 3)
    assert _bits(_fit(None, 0.0 * r, scale=0.0)) == _bits(_fit(zero, 0.0 * r))


def _widest_v_below_the_bound(umax, n):
    """Floats lo < hi = nextafter(lo) with (umax cosh v)^2 n <= 2^1022 at lo, not at hi."""
    def fits(v):
        m = float(umax * np.cosh(v))
        return m * m * n <= 2.0**1022

    lo, hi = 300.0, 400.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    assert fits(lo) and not fits(hi)
    return lo, hi


@pytest.mark.parametrize("timelike", [True, False], ids=["timelike", "spacelike"])
def test_first_form_rotational_fits_build_grids_only_past_the_overflow_bound(timelike, monkeypatch):
    import sigeom.classify as classify

    kind = RevolutionKind.TIMELIKE_MERIDIAN if timelike else RevolutionKind.SPACELIKE_MERIDIAN
    calls = []
    rotate = classify._rotate
    monkeypatch.setattr(classify, "_rotate", lambda *a: calls.append(a) or rotate(*a))
    u = np.linspace(1.0, 2.0, 5)
    lo, hi = _widest_v_below_the_bound(2.0, 25)
    for vmax, grids in ((1.0, False), (lo, False), (hi, True), (700.0, True)):
        s = RevolutionSurface(bessel_profile(1.0, 1.0, 0.0), kind, (1.0, 2.0), (vmax - 4.0, vmax))
        g = Grid(u, np.linspace(vmax - 4.0, vmax, 5))
        sv, cv = np.sinh(g.v), np.cosh(g.v)
        r1, r2 = rotate(kind, g.u[:, None], sv, cv)
        want = []
        for r in (r1, r2):
            try:
                want.append(_fit(None, r, scale=float(np.max(np.abs(r)))))
            except DomainError as exc:
                want.append(str(exc))
        calls.clear()
        try:
            got = classify._fit_coordinates(s, g, 1)[0][:2]
        except DomainError as exc:
            assert str(exc) == want[0]
        else:
            assert _bits(got) == _bits(want)
        assert len(calls) == (2 if grids else 1)  # the scales, and the grids past the bound


def test_harmonic_fit_refuses_an_overflowing_sum():
    r = np.array([[1e160, 2.0], [3.0, -4e159], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    with pytest.raises(DomainError) as grid:
        _fit(np.zeros((1, 2)), r)
    with pytest.raises(DomainError) as harmonic:
        _fit(None, r, scale=1e160)
    assert str(harmonic.value) == str(grid.value)


KINDS = [RevolutionKind.TIMELIKE_MERIDIAN, RevolutionKind.SPACELIKE_MERIDIAN]


@pytest.mark.parametrize("n", [101, 401])
@pytest.mark.parametrize("kind", KINDS, ids=["timelike", "spacelike"])
@pytest.mark.parametrize("profile", [log_profile(-2.0, 0.0), power_profile(1.0, 3.0, 1.0),
                                     constant_h_profile(2.0, 0.0, 0.0)],
                         ids=["log", "power", "consth"])
def test_second_form_fits_match_the_materialised_grids(n, kind, profile):
    from sigeom.surfaces import _coordinate_laplacians, _rotate

    s = RevolutionSurface(profile, kind, (0.5, 5.0), (-0.5, 1.0))
    g = make_grid(s, n, n)
    f0, a, c, _ = _coordinate_laplacians(s, g.u, 2, value=True)
    sv, cv = np.sinh(g.v), np.cosh(g.v)
    rs = _rotate(kind, g.u[:, None], sv, cv)
    laps = _rotate(kind, a[:, None], sv, cv)
    want = [_fit(lap, r) for lap, r in zip(laps, rs)]
    want.append(_fit(np.repeat(c[:, None], n, axis=1), np.repeat(f0[:, None], n, axis=1)))
    rep = check_eigen_ii(s, g)
    assert _bits([rep.lam, rep.residual_sup, rep.residual_rel]) == _bits(np.array(want).T)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS, ids=["timelike", "spacelike"])
def test_eigen_fits_keep_few_grid_arrays_alive(kind):
    # the second form writes r_i and Lap r_i into two grids, one rotational
    # coordinate at a time, and each fit holds one more grid temporary; the
    # first form's radial fit holds one repeated grid
    grid_bytes = 401 * 401 * 8
    for check, profile, most in ((check_eigen_ii, log_profile(-2.0, 0.0), 3.5),
                                 (check_eigen_i, bessel_profile(1.0, 1.0, 0.0), 1.5)):
        s = RevolutionSurface(profile, kind, (0.5, 5.0), (-0.5, 1.0))
        g = make_grid(s, 401, 401)
        assert _traced_peak(lambda: check(s, g)) <= most * grid_bytes


# ----------------------------------------------------------------------
# constant-curvature verification


def test_verify_constant_curvature_constk():
    s = _surf(constant_k_profile(1.0, 1.0), u=(0.5, 5.0))
    rep = verify_constant_curvature(s, make_grid(s), tol=1e-8)
    assert rep.is_constant_k
    assert rep.k0 == pytest.approx(1.0, abs=1e-8)
    assert rep.k_deviation < 1e-8


def test_verify_constant_curvature_consth():
    s = _surf(constant_h_profile(3.0, 2.0, 0.0), u=(0.5, 5.0))
    rep = verify_constant_curvature(s, make_grid(s), tol=1e-10)
    assert rep.is_constant_h
    assert rep.h0 == pytest.approx(3.0, abs=1e-10)
    assert not rep.si_minimal


def test_verify_constant_curvature_bessel_is_not_constant():
    s = _surf(bessel_profile(1.0, 1.0, 0.0), u=(1.0, 4.0))
    rep = verify_constant_curvature(s, make_grid(s), tol=1e-6)
    assert not rep.is_constant_k
    assert not rep.is_constant_h


# ----------------------------------------------------------------------
# certified radial ODE solutions


@pytest.mark.parametrize("lam3", [0.5, 1.0, 4.0, -0.5, -1.0])
def test_solve_radial_eigen_ode_certificate(lam3):
    cert = solve_radial_eigen_ode(lam3, 1.0, 0.25, domain=(0.5, 5.0))
    assert cert.residual_sup < 1e-6
    assert cert.sample_points[0] == pytest.approx(0.5)
    assert cert.sample_points[-1] == pytest.approx(5.0)


def test_solve_radial_eigen_ode_rejects_zero():
    with pytest.raises(DomainError):
        solve_radial_eigen_ode(0.0, 1.0, 0.0)


def test_solve_radial_eigen_ode_k0_branch():
    cert = solve_radial_eigen_ode(-1.0, 0.0, 1.0, domain=(0.5, 5.0))
    assert cert.residual_sup < 1e-6


# ----------------------------------------------------------------------
# the inconsistent regimes


def test_case_both_zero_is_vacuous():
    # if B = 1/f' and B f' + 1 = 0 both held, (1/f') f' + 1 = 2 would have to
    # vanish, so the pair is jointly unsatisfiable; f = u^2 realizes B = 1/f'
    # exactly and indeed lands on 2, never 0
    from sigeom import b_of_profile

    p = constant_h_profile(2.0, 0.0, 0.0)
    for u in (0.6, 1.3, 2.8):
        B = b_of_profile(p, u)
        f1 = p.evaluate(u, 1)
        assert B == pytest.approx(1.0 / f1, rel=1e-12)
        assert B * f1 + 1.0 == pytest.approx(2.0, rel=1e-12)


def test_case_lambda_zero_no_constant_mu_fits():
    # B = 1/f' forces mu f = 2; for the non-linear families shipped, 2/f is
    # not constant over any grid
    us = np.linspace(0.6, 4.6, 25)
    for p in (
        constant_h_profile(2.0, 0.0, 0.0),
        power_profile(1.0, 3.0, 1.0),
        bessel_profile(-1.0, 1.0, 0.0),
        constant_k_profile(1.0, 1.0),
    ):
        vals = np.array([2.0 / p.evaluate(float(u), 0) for u in us])
        assert vals.max() - vals.min() > 1e-2


def test_power_family_system_residual_bounded_away_from_zero():
    rng = np.random.default_rng(20240817)
    us = np.linspace(0.6, 4.6, 21)
    count = 0
    while count < 20:
        lam = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
        mu = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
        c = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        a = mu / lam
        if abs(a) < 0.1 or abs(a - 1.0) < 0.1:
            continue
        p = power_profile(lam, mu, c, domain=(0.5, 5.0))
        f0 = [p.evaluate(float(u), 0) for u in us]
        if min(abs(v) for v in f0) < 1e-3:
            continue  # keep 2/f well defined on the sample set
        res = eigen_system_residual(p, lam, mu, us)
        assert res > 1e-2, (lam, mu, c)
        count += 1
