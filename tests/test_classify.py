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
from sigeom.classify import _fit, _fit_coordinates
from exact_fit import EPS, check_fit, lambda_bound
from sigeom.cli import parse_profile_spec
from sigeom.surfaces import _coordinate_laplacians, _rotate


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_grid_refuses_a_non_finite_sample(bad):
    samples = np.array([1.0, 2.0, 3.0, 4.0, bad])
    with pytest.raises(DomainError, match=r"^grid u samples must be finite$"):
        Grid(u=samples, v=np.linspace(-1, 1, 5))
    with pytest.raises(DomainError, match=r"^grid v samples must be finite$"):
        Grid(u=np.linspace(1, 4, 5), v=samples)


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


def test_eigen_ii_lambdas_all_zero_are_not_si_minimal():
    # f = u^2/2 + 1e9 fits every coordinate within tol with lambda1 = lambda2
    # about 6e-19 and lambda3 about -2e-9: the pattern no surface satisfies
    s = _surf(constant_h_profile(1.0, 0.0, 1e9))
    rep = check_eigen_ii(s, make_grid(s))
    assert max(rep.residual_sup) <= 1e-6 and max(map(abs, rep.lam)) <= 1e-6
    assert rep.verdict is Verdict.NO_EIGEN_RELATION
    assert rep.notes.startswith("pattern lambda = mu = 0: jointly unsatisfiable")


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


# ----------------------------------------------------------------------
# scaled verdicts: a fit holds when its sup residual is at most
# tol max(1, max|r_i|)


def test_eigen_i_judges_a_large_coordinate_relative_to_its_size():
    # |Lap r3| reaches about 1e10 here: the absolute sup residual, 3.8e-5, is
    # the last ulps of that, while relative to max|r3| it is 1.2e-14
    lam3 = -19.376375334064555
    profile = parse_profile_spec(f"bessel:lambda={lam3!r},c1=-1.5111759070314932,c2=0")
    s = _surf(profile, u=(0.6690305415502815, 5.450982012892357))
    rep = check_eigen_i(s, make_grid(s, 101, 101))
    assert rep.residual_sup[2] > 1e-6 >= rep.residual_rel[2]
    assert rep.verdict is Verdict.NULL_TWO_TYPE
    assert rep.lam[2] == pytest.approx(lam3, rel=1e-8)


@pytest.mark.parametrize("spec", ["power:lambda=1,mu=2.5,c=1e9", "consth:h0=1e9,c1=3e9,c2=0"])
@pytest.mark.parametrize("kind", list(RevolutionKind), ids=lambda k: k.name)
@pytest.mark.parametrize("check", [check_eigen_i, check_eigen_ii], ids=lambda f: f.__name__)
def test_scaled_verdicts_still_refuse_large_profiles_without_a_relation(spec, kind, check):
    # profiles of size 1e9 whose coordinates fit no eigenvalue: scaled by
    # max|r_i|, their residuals stay above tol
    s = RevolutionSurface(parse_profile_spec(spec), kind, (0.669, 5.45), (-1.0, 1.0))
    assert check(s, make_grid(s, 101, 101)).verdict is Verdict.NO_EIGEN_RELATION


@pytest.mark.parametrize("spec, scale", [
    ("power:lambda=1,mu=2.5,c=1e9", "max|r3|"),  # max|r3| is about 7e8
    ("power:lambda=1,mu=2.5,c=0.25", "1"),  # max|r3| is below 1
])
def test_eigen_i_note_names_the_scaled_bound(spec, scale):
    # the note quotes the bound the verdict used, tol max(1, max|r3|), not tol
    s = _surf(parse_profile_spec(spec), u=(0.669, 0.9))
    rep = check_eigen_i(s, make_grid(s, 21, 21), tol=1e-6)
    f = np.array([s.profile.evaluate(u) for u in make_grid(s, 21, 21).u.tolist()])
    bound = 1e-6 * max(1.0, float(np.max(np.abs(f))))
    assert rep.verdict is Verdict.NO_EIGEN_RELATION
    assert rep.notes == (f"no constant eigenvalue fits coordinate 3 (sup residual "
                         f"{rep.residual_sup[2]:.3g} > tol max(1, max|r3|) = {bound:.3g})")
    assert (bound > 1e-6) is (scale == "max|r3|")


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
# fits without full grids: r3's fit runs over the radii, and r1, r2
# separate into one fit over the radii; each is held to the least squares
# of the materialised grid in exact rationals

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
    # the exact least squares of the grid repeating each radius nv times is
    # that of the radii (exact_fit), which the fit's sums of nu terms meet
    lap, r = _radial_cases(nu)[case]
    check_fit(_fit(lap, r), lap, r, nu)


def test_radial_fit_refuses_an_overflowing_sum():
    # every value finite, but r^2 summed over the radii, as over the grid, is not
    r = np.array([1e160, -3e159, 2.0, 1e-3, 5e158])
    lap = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(DomainError) as grid:
        _fit(np.repeat(lap[:, None], 7, axis=1), np.repeat(r[:, None], 7, axis=1))
    with pytest.raises(DomainError) as rows:
        _fit(lap, r)
    assert str(rows.value) == str(grid.value) == "eigen-fit sums overflow (max |r| = 1e+160)"


KINDS = [RevolutionKind.TIMELIKE_MERIDIAN, RevolutionKind.SPACELIKE_MERIDIAN]
PROFILES = {"log": log_profile(-2.0, 0.0), "power": power_profile(1.0, 3.0, 1.0),
            "consth": constant_h_profile(2.0, 0.0, 0.0)}


def _materialised(s, g, form):
    """The grids r_i = u h_i(v) and Lap r_i = a(u) h_i(v), i = 1, 2, in floats,
    and r3 = f(u) and Lap r3 = c(u) repeated along v."""
    f0, a, c, _ = _coordinate_laplacians(s, g.u, form, value=True)
    a = np.broadcast_to(a, g.u.shape)  # 0.0 on form 1
    sv, cv = np.sinh(g.v), np.cosh(g.v)
    rs = (*_rotate(s.kind, g.u[:, None], sv, cv), np.repeat(f0[:, None], g.v.size, axis=1))
    laps = (*_rotate(s.kind, a[:, None], sv, cv), np.repeat(c[:, None], g.v.size, axis=1))
    return rs, laps


@pytest.mark.parametrize("nu,nv", [(5, 5), (21, 7), (21, 21), (64, 5)], ids=lambda n: str(n))
@pytest.mark.parametrize("kind", KINDS, ids=["timelike", "spacelike"])
def test_rotational_fits_match_the_full_grid(nu, nv, kind):
    # all three fits against the least squares of the materialised float
    # grid in exact rationals; v = 0 is a sample, so the sinh v coordinate
    # holds a column of zeros and its Laplacian one of zeros signed as a(u)
    v = np.linspace(-0.5, 1.0, nv)
    v[np.argmin(np.abs(v))] = 0.0
    for name, profile in PROFILES.items():
        s = RevolutionSurface(profile, kind, (0.5, 5.0), (-0.5, 1.0))
        g = Grid(make_grid(s, nu, nv).u, v)
        for form in (1, 2):
            fits = _fit_coordinates(s, g, form)[0]
            assert _bits(fits[0][0]) == _bits(fits[1][0]), (name, form)
            if form == 1:  # harmonic: Lap r_i is 0 times h_i(v), +0 or -0
                assert _bits(fits[:2]) == _bits([[0.0] * 3] * 2)
            for i, (fit, r, lap) in enumerate(zip(fits, *_materialised(s, g, form))):
                check_fit(fit, lap, r, nu, where=(name, form, i + 1))  # each fit sums nu terms


def test_harmonic_fit_refuses_an_overflowing_sum():
    # sum(u^2) overflows over the radii as sum(r^2) does over the grid, and
    # the message names max|r1| = max|u| max|sinh v| of the grid
    s = RevolutionSurface(log_profile(1.0, 0.0, domain=(1e160, 1e161)), v_range=(-1.0, 1.0))
    g = Grid(np.linspace(1e160, 1e161, 5), np.linspace(-1.0, 1.0, 5))
    r = g.u[:, None] * np.sinh(g.v)
    with pytest.raises(DomainError) as grid:
        _fit(0.0 * r, r)
    with pytest.raises(DomainError) as fit:
        check_eigen_i(s, g)
    assert str(fit.value) == str(grid.value) == "eigen-fit sums overflow (max |r| = 1.18e+161)"


@pytest.mark.parametrize("check", [check_eigen_i, check_eigen_ii])
def test_rotational_fits_report_past_the_grid_sum_range(check):
    # sum((u cosh v)^2) overflows past v of about 354, sum(u^2) does not:
    # the fit is reported unless a residual max|a - lambda u| max|h| overflows
    for vmax, finite in ((400.0, True), (709.0, check is check_eigen_i)):
        s = RevolutionSurface(power_profile(1.0, -3.0, 1.0), v_range=(0.0, vmax))
        g = Grid(np.linspace(1.0, 2.5, 5), np.linspace(vmax - 4.0, vmax, 5))
        if finite:
            rep = check(s, g)
            assert np.isfinite([rep.lam, rep.residual_sup, rep.residual_rel]).all()
            assert _bits(rep.lam[0]) == _bits(rep.lam[1])
        else:
            with pytest.raises(DomainError) as exc:
                check(s, g)
            assert str(exc.value) == (
                "eigen-fit residual overflows: max |a - lambda u| = 6.1, max |h| = 4.11e+307"
            )


@pytest.mark.parametrize("n", [101, 401])
@pytest.mark.parametrize("kind", KINDS, ids=["timelike", "spacelike"])
@pytest.mark.parametrize("profile", list(PROFILES.values()), ids=list(PROFILES))
def test_second_form_fits_match_the_materialised_grids(n, kind, profile):
    # r1 and r2 against _fit over the materialised float grids, itself within
    # the bound of the exact least squares (its pairwise sum of n^2 terms errs
    # by well under n eps), so within twice that bound; r3 against the exact
    # least squares of its grid, which is that of the radii
    s = RevolutionSurface(profile, kind, (0.5, 5.0), (-0.5, 1.0))
    g = make_grid(s, n, n)
    rep = check_eigen_ii(s, g)
    assert _bits(rep.lam[0]) == _bits(rep.lam[1])
    rs, laps = _materialised(s, g, 2)
    for i, (r, lap) in enumerate(zip(rs[:2], laps[:2])):
        lam, res, rel = _fit(lap, r)
        products = np.abs(lap * r)
        lam_err = 2 * lambda_bound(n, lam, float(np.sum(products)), float(np.sum(r * r)))
        r_max = float(np.max(np.abs(r)))
        assert abs(rep.lam[i] - lam) <= lam_err
        res_err = 8 * EPS * (np.max(np.abs(lap)) + abs(lam) * r_max) + lam_err * r_max
        assert abs(rep.residual_sup[i] - res) <= res_err
        assert abs(rep.residual_rel[i] - rep.residual_sup[i] / r_max) <= 4 * EPS * rep.residual_rel[i]
    f0, _, c, _ = _coordinate_laplacians(s, g.u, 2, value=True)
    check_fit((rep.lam[2], rep.residual_sup[2], rep.residual_rel[2]), c, f0, n)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS, ids=["timelike", "spacelike"])
def test_eigen_fits_keep_few_grid_arrays_alive(kind):
    # every fit sums over the radii alone, on either form
    grid_bytes = 401 * 401 * 8
    for check, profile in ((check_eigen_ii, log_profile(-2.0, 0.0)),
                           (check_eigen_i, bessel_profile(1.0, 1.0, 0.0))):
        s = RevolutionSurface(profile, kind, (0.5, 5.0), (-0.5, 1.0))
        g = make_grid(s, 401, 401)
        assert _traced_peak(lambda: check(s, g)) <= 0.5 * grid_bytes


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
