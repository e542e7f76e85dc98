import math
import random

import numpy as np
import pytest

from sigeom import (
    AdmissibilityError,
    DomainError,
    ParabolicPointError,
    RevolutionKind,
    RevolutionSurface,
    ScalarField,
    StencilError,
    Vec3SI,
    apply_motion,
    b_function,
    bessel_profile,
    boost,
    constant_h_profile,
    constant_k_profile,
    coord_laplacians_i,
    coord_laplacians_ii,
    coordinate_fields,
    curvatures,
    fundamental_forms,
    fundamental_forms_fd,
    laplacian_i,
    laplacian_ii,
    linear_profile,
    log_profile,
    mesh,
    point_at,
    power_profile,
)
from sigeom.bessel import bessel_j0

TIMELIKE = RevolutionKind.TIMELIKE_MERIDIAN
SPACELIKE = RevolutionKind.SPACELIKE_MERIDIAN

# profiles with f' f'' != 0 on [0.6, 4.8]; safe for second-form work
NON_PARABOLIC = [
    constant_k_profile(1.0, 1.0),
    constant_h_profile(2.0, 0.0, 0.0),  # u^2
    log_profile(-2.0, 0.0),  # ln u
    power_profile(1.0, 3.0, 1.0),
    bessel_profile(-1.0, 1.0, 0.0),  # I0
]


def _surf(profile, kind=TIMELIKE, u=(0.6, 4.8), v=(-1.0, 1.0)):
    return RevolutionSurface(profile, kind, u, v)


# ----------------------------------------------------------------------
# construction and parameterization


def test_surface_validation():
    p = log_profile(-2.0, 0.0)
    with pytest.raises(DomainError):
        RevolutionSurface(p, TIMELIKE, (5.0, 1.0))
    with pytest.raises(DomainError):
        RevolutionSurface(p, TIMELIKE, (-1.0, 2.0))
    with pytest.raises(DomainError):
        RevolutionSurface(p, TIMELIKE, (0.05, 2.0))  # exceeds profile domain
    with pytest.raises(DomainError):
        RevolutionSurface(p, TIMELIKE, (0.5, 5.0), (1.0, -1.0))


def test_point_at_examples():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    assert point_at(s, 1.0, 0.0) == Vec3SI(0.0, 1.0, 0.0)

    sq = _surf(constant_h_profile(2.0, 0.0, 0.0), SPACELIKE, u=(0.5, 5.0))
    assert point_at(sq, 2.0, 0.0) == Vec3SI(2.0, 0.0, 4.0)

    sj = _surf(bessel_profile(1.0, 1.0, 0.0), u=(0.5, 5.0))
    got = point_at(sj, 1.0, 1.0)
    assert got.x1 == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert got.x2 == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert got.x3 == pytest.approx(bessel_j0(1.0), rel=1e-15)

    with pytest.raises(DomainError):
        point_at(sj, 0.2, 0.0)


@pytest.mark.parametrize("kind", [TIMELIKE, SPACELIKE])
def test_rotation_equivariance(kind):
    s = _surf(constant_k_profile(1.0, 1.0), kind)
    rng = random.Random(5)
    for _ in range(25):
        u = 0.7 + 3.5 * rng.random()
        v = -0.6 + 1.2 * rng.random()
        delta = -0.3 + 0.6 * rng.random()
        direct = point_at(s, u, v + delta)
        moved = apply_motion(boost(delta), point_at(s, u, v))
        assert moved.x1 == pytest.approx(direct.x1, rel=1e-12, abs=1e-12)
        assert moved.x2 == pytest.approx(direct.x2, rel=1e-12, abs=1e-12)
        assert moved.x3 == direct.x3


# ----------------------------------------------------------------------
# fundamental forms


def test_fundamental_forms_quadratic_example():
    s = _surf(constant_h_profile(2.0, 0.0, 0.0), u=(0.5, 5.0))  # f = u^2
    ff = fundamental_forms(s, 1.0, 0.3)
    assert (ff.E, ff.F, ff.G, ff.W) == (-1.0, 0.0, 1.0, -1.0)
    assert (ff.L, ff.M, ff.N) == (-2.0, 0.0, 2.0)
    assert ff.w == -4.0
    assert ff.epsilon == -1
    assert not ff.is_parabolic


@pytest.mark.parametrize("kind", [TIMELIKE, SPACELIKE])
@pytest.mark.parametrize("profile", NON_PARABOLIC, ids=lambda p: p.family.value)
def test_forms_structural_identities(kind, profile):
    s = _surf(profile, kind)
    rng = random.Random(11)
    for _ in range(20):
        u = 0.7 + 3.9 * rng.random()
        v = -0.9 + 1.8 * rng.random()
        ff = fundamental_forms(s, u, v)
        assert ff.W == pytest.approx(-u * u, rel=1e-12)
        f1 = profile.evaluate(u, 1)
        f2 = profile.evaluate(u, 2)
        assert ff.w == pytest.approx(-u * f1 * f2, rel=1e-10)
        # curvature assembly from the forms matches the closed formulas
        K, H = curvatures(s, u)
        assert -ff.epsilon * ff.w / ff.W == pytest.approx(K, rel=1e-10, abs=1e-12)
        got_h = -ff.epsilon * (ff.E * ff.N - 2 * ff.F * ff.M + ff.G * ff.L) / (2 * ff.W)
        assert got_h == pytest.approx(H, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kind", [TIMELIKE, SPACELIKE])
def test_forms_against_fd_oracle(kind):
    s = _surf(constant_k_profile(1.0, 1.0), kind)
    for u, v in ((0.8, -0.4), (2.0, 0.5), (4.0, 0.9)):
        ff = fundamental_forms(s, u, v)
        fd = fundamental_forms_fd(s, u, v)
        for name in ("E", "F", "G", "W", "L", "M", "N", "w"):
            assert getattr(ff, name) == pytest.approx(getattr(fd, name), abs=2e-6), name


@pytest.mark.parametrize("kind", [TIMELIKE, SPACELIKE])
def test_forms_refuse_a_degenerate_first_form(kind):
    # W = -u^2 underflows to -0.0 at u = 1e-200
    s = _surf(linear_profile(1.0, 0.0, domain=(1e-200, 1e-199)), kind, u=(1e-200, 1e-199))
    with pytest.raises(DomainError, match=r"^degenerate first form \(W = 0\)$"):
        fundamental_forms(s, 1e-200, 0.0)
    # at v = 15 the differences of the oracle lose E = cosh^2 v - sinh^2 v to rounding
    s = RevolutionSurface(linear_profile(1.0, 0.0), kind, (0.5, 5.0), (-20.0, 20.0))
    with pytest.raises(DomainError, match=r"^degenerate first form \(W = 0\)$"):
        fundamental_forms_fd(s, 1.0, 15.0)


@pytest.mark.parametrize("h", [1e-201, 0.0])
def test_fd_oracle_refuses_a_step_whose_square_underflows(h):
    # h*h is 0 for h = 1e-201: the second differences would divide by zero
    s = _surf(linear_profile(1.0, 0.0, domain=(1e-200, 1e-199)), u=(1e-200, 1e-199))
    with pytest.raises(DomainError, match=rf"^finite-difference step h={h!r} is too small"):
        fundamental_forms_fd(s, 5e-200, 0.0, h=h)


def test_linear_profile_is_parabolic_flagged():
    s = _surf(linear_profile(1.0, 0.0), u=(0.5, 5.0))
    ff = fundamental_forms(s, 2.0, 0.0)
    assert ff.w == 0.0
    assert ff.is_parabolic


# ----------------------------------------------------------------------
# curvatures


def test_curvature_examples():
    s = _surf(constant_h_profile(2.0, 0.0, 0.0), u=(0.5, 5.0))
    K, H = curvatures(s, 2.0)
    assert K == pytest.approx(4.0, rel=1e-14)
    assert H == pytest.approx(2.0, rel=1e-14)

    s_log = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    for u in (0.5, 1.0, 3.3):
        assert abs(curvatures(s_log, u)[1]) < 1e-14

    s_lin = _surf(linear_profile(3.0, -1.0), u=(0.5, 5.0))
    assert curvatures(s_lin, 2.0)[0] == 0.0


# ----------------------------------------------------------------------
# Laplacians: closed coordinate forms against the flux-differencing operators


def test_laplacian_i_constant_field_is_zero():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    const = ScalarField(f=lambda u, v: 7.0, du=lambda u, v: 0.0, dv=lambda u, v: 0.0)
    assert laplacian_i(s, const, 2.0, 0.3) == 0.0


def test_laplacian_i_closed_forms_examples():
    # r1 is harmonic; for f = ln u the profile coordinate is harmonic too
    # (-f'' - f'/u = 1/u^2 - 1/u^2 = 0)
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    r1, _, r3 = coordinate_fields(s)
    assert laplacian_i(s, r1, 2.0, 0.4) == pytest.approx(0.0, abs=1e-9)
    assert laplacian_i(s, r3, 2.0, 0.4) == pytest.approx(0.0, abs=1e-9)
    assert coord_laplacians_i(s, 2.0, 0.4) == (0.0, 0.0, 0.0)
    # f = u^2: -f'' - f'/u = -2 - 2 = -4
    sq = _surf(constant_h_profile(2.0, 0.0, 0.0), u=(0.5, 5.0))
    assert coord_laplacians_i(sq, 2.0, 0.4)[2] == pytest.approx(-4.0, rel=1e-14)
    _, _, q3 = coordinate_fields(sq)
    assert laplacian_i(sq, q3, 2.0, 0.4) == pytest.approx(-4.0, rel=1e-8)


@pytest.mark.parametrize("kind", [TIMELIKE, SPACELIKE])
@pytest.mark.parametrize("profile", NON_PARABOLIC, ids=lambda p: p.family.value)
def test_coord_laplacians_match_flux_operators(kind, profile):
    s = _surf(profile, kind)
    fields = coordinate_fields(s)
    rng = random.Random(23)
    for _ in range(20):
        u = 0.7 + 3.9 * rng.random()
        v = -0.9 + 1.8 * rng.random()
        closed_i = coord_laplacians_i(s, u, v)
        closed_ii = coord_laplacians_ii(s, u, v)
        for i, fld in enumerate(fields):
            assert laplacian_i(s, fld, u, v) == pytest.approx(closed_i[i], abs=1e-6)
            assert laplacian_ii(s, fld, u, v) == pytest.approx(closed_ii[i], abs=1e-6)


def test_laplacian_ii_examples():
    # f = ln u: second-form Laplacian scales r1 by -2
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    r1, _, r3 = coordinate_fields(s)
    u, v = 2.0, 0.7
    assert laplacian_ii(s, r1, u, v) == pytest.approx(-2.0 * u * math.sinh(v), rel=1e-8)
    assert laplacian_ii(s, r3, u, v) == pytest.approx(0.0, abs=1e-9)

    # f = u^2: r1 sits in the kernel, r3 maps to the constant -2
    # (the flux formula fixes the sign; w = -u f' f'' < 0 here)
    sq = _surf(constant_h_profile(2.0, 0.0, 0.0), u=(0.5, 5.0))
    q1, _, q3 = coordinate_fields(sq)
    assert laplacian_ii(sq, q1, u, v) == pytest.approx(0.0, abs=1e-9)
    assert laplacian_ii(sq, q3, u, v) == pytest.approx(-2.0, rel=1e-8)
    assert coord_laplacians_ii(sq, u, v)[2] == pytest.approx(-2.0, rel=1e-12)


def test_coord_laplacians_i_linear_and_constant():
    s = _surf(linear_profile(1.0, 0.0), u=(0.5, 5.0))  # f = u
    for u in (0.5, 2.0, 4.0):
        assert coord_laplacians_i(s, u, 0.1) == (0.0, 0.0, pytest.approx(-1.0 / u))
    s0 = _surf(linear_profile(0.0, 3.0), u=(0.5, 5.0))  # f constant
    assert coord_laplacians_i(s0, 2.0, 0.1) == (0.0, 0.0, 0.0)


def test_coord_laplacians_ii_log_at_meridian():
    # on the v = 0 meridian the ln u surface gives (0, -2u, 0) = -2 (r1, r2, 0)
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    got = coord_laplacians_ii(s, 2.0, 0.0)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(-4.0, rel=1e-12)
    assert got[2] == pytest.approx(0.0, abs=1e-15)


def test_laplacian_ii_parabolic_error():
    s = _surf(linear_profile(1.0, 0.0), u=(0.5, 5.0))
    _, _, r3 = coordinate_fields(s)
    with pytest.raises(ParabolicPointError):
        laplacian_ii(s, r3, 2.0, 0.0)
    with pytest.raises(ParabolicPointError):
        coord_laplacians_ii(s, 2.0, 0.0)


def test_laplacian_stencil_error_at_boundary():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    r1, _, _ = coordinate_fields(s)
    with pytest.raises(StencilError):
        laplacian_i(s, r1, 0.5, 0.0)
    with pytest.raises(StencilError):
        laplacian_i(s, r1, 2.0, 1.0)


def test_laplacian_fd_fallback_for_plain_fields():
    # a field without analytic partials goes through nested differencing
    s = _surf(constant_h_profile(2.0, 0.0, 0.0), u=(0.5, 5.0))
    plain = ScalarField(f=lambda u, v: u * math.sinh(v))
    analytic = coordinate_fields(s)[0]
    u, v = 2.0, 0.4
    assert laplacian_i(s, plain, u, v) == pytest.approx(
        laplacian_i(s, analytic, u, v), abs=1e-4
    )


# ----------------------------------------------------------------------
# B coefficient


def test_b_function_examples():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    for u in (0.5, 1.0, 2.0, 4.4):
        assert b_function(s, u) == pytest.approx(-u, rel=1e-10)

    sq = _surf(constant_h_profile(2.0, 0.0, 0.0), u=(0.5, 5.0))
    for u in (0.5, 1.0, 2.0, 4.4):
        assert b_function(sq, u) == pytest.approx(1.0 / (2.0 * u), rel=1e-10)


def test_b_function_power_family_closed_form():
    lam, mu, c = 1.0, 2.0, 1.0
    a = mu / lam
    s = _surf(power_profile(lam, mu, c), u=(0.5, 5.0))
    for u in (0.6, 1.7, 3.1):
        expected = math.pow(u, 1.0 - a) / (c * a * (a - 1.0))
        assert b_function(s, u) == pytest.approx(expected, rel=1e-12)


def test_b_function_errors():
    s_lin = _surf(linear_profile(1.0, 0.0), u=(0.5, 5.0))
    with pytest.raises(ParabolicPointError):
        b_function(s_lin, 2.0)
    # f' = 0 at u = 1 for f = (u^2 - ln u ...) pick consth with c1 = -1, h0 = 1
    s = _surf(constant_h_profile(1.0, -1.0, 0.0), u=(0.5, 5.0))
    with pytest.raises(AdmissibilityError):
        b_function(s, 1.0)  # f'(1) = 1 - 1 = 0


def test_v_independence():
    s = _surf(constant_k_profile(1.0, 1.0))
    u = 2.3
    base_iii = coord_laplacians_i(s, u, -0.9)[2]
    base_c = coord_laplacians_ii(s, u, -0.9)[2]
    for v in (-0.5, 0.0, 0.4, 0.99):
        assert curvatures(s, u) == curvatures(s, u)
        assert coord_laplacians_i(s, u, v)[2] == pytest.approx(base_iii, rel=1e-12)
        assert coord_laplacians_ii(s, u, v)[2] == pytest.approx(base_c, rel=1e-12)


# ----------------------------------------------------------------------
# meshes


def test_mesh_counts_and_extents():
    s = _surf(bessel_profile(1.0, 1.0, 0.0), u=(1.0, 4.0), v=(-1.0, 1.0))
    m = mesh(s, 4, 4)
    assert m.vertices.shape == (16, 3)
    assert m.faces.shape == (18, 3)

    m2 = mesh(s, 2, 2)
    assert m2.vertices.shape == (4, 3)
    assert m2.faces.shape == (2, 3)

    # recover the (u, v) extents from the embedded coordinates
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    u_back = np.sqrt(np.abs(y * y - x * x))
    assert u_back.min() == pytest.approx(1.0, rel=1e-9)
    assert u_back.max() == pytest.approx(4.0, rel=1e-9)
    v_back = np.arctanh(x / y)
    assert v_back.min() == pytest.approx(-1.0, rel=1e-9)
    assert v_back.max() == pytest.approx(1.0, rel=1e-9)


def test_mesh_finite_and_deterministic():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0), v=(-0.5, 1.0))
    a = mesh(s, 7, 5)
    b = mesh(s, 7, 5)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)
    assert np.isfinite(a.vertices).all()


def test_mesh_validation():
    s = _surf(log_profile(-2.0, 0.0), u=(0.5, 5.0))
    with pytest.raises(ValueError):
        mesh(s, 1, 5)
