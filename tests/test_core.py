import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigeom import (
    CausalClass,
    DomainError,
    Motion,
    Vec3SI,
    apply_motion,
    boost,
    causal_class,
    inverse_motion,
    is_null_eps,
    scalar_product,
    semi_norm,
    si_angle,
    vector_product,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
vecs = st.builds(Vec3SI, finite, finite, finite)


def test_vec3si_rejects_non_finite():
    with pytest.raises(DomainError):
        Vec3SI(float("nan"), 0.0, 0.0)
    with pytest.raises(DomainError):
        Vec3SI(0.0, float("inf"), 0.0)


def test_semi_norm_examples():
    assert semi_norm(Vec3SI(1, 0, 0)) == 1.0
    assert semi_norm(Vec3SI(3, 3, 7)) == 0.0
    assert semi_norm(Vec3SI(1, 2, 5)) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_scalar_product_examples():
    assert scalar_product(Vec3SI(0, 0, 2), Vec3SI(0, 0, 3)) == 6.0
    assert scalar_product(Vec3SI(1, 2, 0), Vec3SI(3, 4, 0)) == -5.0
    # isotropic vectors are orthogonal to non-isotropic ones
    assert scalar_product(Vec3SI(0, 0, 1), Vec3SI(1, 0, 0)) == 0.0


@given(vecs, vecs)
def test_scalar_product_symmetric(u, v):
    assert scalar_product(u, v) == scalar_product(v, u)


@given(vecs, vecs, vecs, finite, finite)
def test_scalar_product_bilinear_off_isotropic(u, v, w, a, b):
    # bilinearity holds on the non-isotropic branch; combinations that fall
    # into the isotropic branch switch formulas, so keep projections nonzero
    lhs_vec = Vec3SI(a * u.x1 + b * v.x1, a * u.x2 + b * v.x2, a * u.x3 + b * v.x3)
    involved = (u, v, w, lhs_vec)
    if any(p.x1 == 0.0 and p.x2 == 0.0 for p in involved):
        return
    lhs = scalar_product(lhs_vec, w)
    rhs = a * scalar_product(u, w) + b * scalar_product(v, w)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_vector_product_examples():
    assert vector_product(Vec3SI(1, 0, 0), Vec3SI(0, 0, 1)) == Vec3SI(0, 1, 0)
    assert vector_product(Vec3SI(1, 0, 0), Vec3SI(0, 1, 0)) == Vec3SI(0, 0, 0)
    w = Vec3SI(2, 5, 1)
    assert vector_product(w, w) == Vec3SI(0, 0, 0)
    # <u x v, w> = det(u, v, w~) for the first example, both sides -1
    u, v, w = Vec3SI(1, 0, 0), Vec3SI(0, 0, 1), Vec3SI(0, 1, 0)
    assert scalar_product(vector_product(u, v), w) == -1.0


def _det_with_projected_last_row(u, v, w):
    return (
        u.x1 * (v.x2 * 0.0 - v.x3 * w.x2)
        - u.x2 * (v.x1 * 0.0 - v.x3 * w.x1)
        + u.x3 * (v.x1 * w.x2 - v.x2 * w.x1)
    )


@given(vecs, vecs, vecs)
@settings(max_examples=300)
def test_vector_product_determinant_identity(u, v, w):
    lhs = scalar_product(vector_product(u, v), w)
    rhs = _det_with_projected_last_row(u, v, w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(vecs, vecs)
def test_vector_product_antisymmetric_and_degenerate(u, v):
    a = vector_product(u, v)
    b = vector_product(v, u)
    assert a.x3 == 0.0
    assert (a.x1, a.x2) == (-b.x1, -b.x2)


def test_causal_class_examples():
    assert causal_class(Vec3SI(0, 0, 0)) is CausalClass.ZERO
    assert causal_class(Vec3SI(0, 0, 4)) is CausalClass.ISOTROPIC
    assert causal_class(Vec3SI(1, 1, 3)) is CausalClass.NULL
    assert causal_class(Vec3SI(2, 1, 0)) is CausalClass.SPACELIKE
    assert causal_class(Vec3SI(1, 2, 0)) is CausalClass.TIMELIKE


def test_is_null_eps():
    assert is_null_eps(Vec3SI(1.0, 1.0 + 1e-14, 0.0))
    assert not is_null_eps(Vec3SI(1.0, 1.1, 0.0))
    assert is_null_eps(Vec3SI(1.0, 1.001, 0.0), tol=1e-2)


def test_si_angle_examples():
    e = Vec3SI(0, 1, 0)
    assert si_angle(e, e) == 0.0
    v = Vec3SI(math.sinh(1.0), math.cosh(1.0), 0.0)
    assert si_angle(e, v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        si_angle(e, Vec3SI(1, 0, 0))
    # opposite cones: scalar product positive, cosh argument < 1
    with pytest.raises(DomainError):
        si_angle(e, Vec3SI(0, -1, 0))


def test_apply_motion_examples():
    ident = Motion(0, 0, 0, 0, 0, 0)
    assert apply_motion(ident, Vec3SI(1, 2, 3)) == Vec3SI(1, 2, 3)
    # a pure boost sweeps the meridian point (0, u, f) to (u sinh v, u cosh v, f)
    u, f, v = 2.0, 0.7, 0.9
    got = apply_motion(boost(v), Vec3SI(0.0, u, f))
    assert got.x1 == pytest.approx(u * math.sinh(v), rel=1e-15)
    assert got.x2 == pytest.approx(u * math.cosh(v), rel=1e-15)
    assert got.x3 == f
    assert apply_motion(Motion(1, 0, 1, 1, 0, 0), Vec3SI(0, 0, 0)) == Vec3SI(1, 1, 1)


motions = st.builds(
    Motion,
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
points = st.builds(
    Vec3SI,
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@given(motions, points)
@settings(max_examples=300)
def test_motion_round_trip(m, p):
    q = apply_motion(inverse_motion(m), apply_motion(m, p))
    assert q.x1 == pytest.approx(p.x1, abs=1e-12)
    assert q.x2 == pytest.approx(p.x2, abs=1e-12)
    assert q.x3 == pytest.approx(p.x3, abs=1e-12)


@given(motions, points, points)
@settings(max_examples=300)
def test_motion_preserves_semi_distance(m, p, q):
    d = p - q
    # the norm comparison is ill-conditioned near the null cone and for
    # differences far below the coordinate scale; the exact null case is
    # covered separately below
    if abs(d.x1 * d.x1 - d.x2 * d.x2) <= 1e-3 * (d.x1 * d.x1 + d.x2 * d.x2):
        return
    if max(abs(d.x1), abs(d.x2)) < 1e-6:
        return
    before = semi_norm(d)
    after = semi_norm(apply_motion(m, p) - apply_motion(m, q))
    assert after == pytest.approx(before, rel=1e-10, abs=1e-12)


def test_motion_keeps_null_differences_null():
    m = Motion(0.0, 1.3, 0.0, 0.5, 0.2, -0.4)  # boost + shear, no xy-translation
    p = Vec3SI(2.0, 3.0, 1.0)
    q = Vec3SI(2.0 - 0.7, 3.0 - 0.7, 0.3)  # difference (0.7, 0.7, ...) is null
    d = apply_motion(m, p) - apply_motion(m, q)
    assert causal_class(d) in (CausalClass.NULL, CausalClass.ISOTROPIC)
    assert is_null_eps(d)


@given(motions, points, points)
@settings(max_examples=200)
def test_causal_class_invariant_under_motions(m, p, q):
    d = p - q
    cls = causal_class(d)
    if cls in (CausalClass.ZERO, CausalClass.ISOTROPIC):
        return
    if abs(d.x1 * d.x1 - d.x2 * d.x2) <= 1e-3 * (d.x1 * d.x1 + d.x2 * d.x2):
        return  # too close to the null cone for float classification
    if max(abs(d.x1), abs(d.x2)) < 1e-6:
        return  # below the rounding floor of the translated coordinates
    d2 = apply_motion(m, p) - apply_motion(m, q)
    assert causal_class(d2) is cls


def test_isotropic_differences_stay_isotropic():
    m = Motion(1.0, 0.8, -2.0, 0.3, 0.4, 0.6)
    p = Vec3SI(1.5, -2.5, 4.0)
    q = Vec3SI(1.5, -2.5, 1.0)
    d = apply_motion(m, p) - apply_motion(m, q)
    assert causal_class(d) is CausalClass.ISOTROPIC


# ----------------------------------------------------------------------
# the metric near the null cone and past the float range of x^2, against
# mpmath's exact x1^2 - x2^2


def _mp_quadratic(v):
    return mpmath.mpf(v.x1) ** 2 - mpmath.mpf(v.x2) ** 2


def test_causal_class_of_a_timelike_vector_whose_squares_overflow():
    v = Vec3SI(1e200, 2e200, 0.0)
    assert _mp_quadratic(v) < 0
    assert causal_class(v) is CausalClass.TIMELIKE


def test_semi_norm_of_a_vector_whose_squares_overflow():
    v = Vec3SI(1e200, 2e200, 0.0)
    with mpmath.workdps(50):
        ref = float(mpmath.sqrt(-_mp_quadratic(v)))
    assert semi_norm(v) == pytest.approx(ref, rel=4e-16, abs=0.0)


def test_is_null_eps_of_a_null_vector_whose_squares_overflow():
    v = Vec3SI(1e200, 1e200, 0.0)
    assert _mp_quadratic(v) == 0
    assert is_null_eps(v)


def test_semi_norm_near_the_null_cone_does_not_cancel():
    v = Vec3SI(1.0, 1.0 + 2.0**-30, 0.0)
    with mpmath.workdps(50):
        ref = float(mpmath.sqrt(-_mp_quadratic(v)))
    assert semi_norm(v) == pytest.approx(ref, rel=4e-16, abs=0.0)


# timelike vectors of either cone, |x1| <= 0.99 |x2|
timelike = st.builds(
    lambda x2, t, x3: Vec3SI(t * x2, x2, x3),
    st.one_of(st.floats(min_value=-10.0, max_value=-0.1), st.floats(min_value=0.1, max_value=10.0)),
    st.floats(min_value=-0.99, max_value=0.99),
    finite,
)


@given(timelike, st.floats(min_value=0.1, max_value=10.0))
def test_si_angle_of_parallel_vectors_is_zero(u, s):
    assert si_angle(u, u.scaled(s)) < 1e-13


def test_si_angle_past_the_float_range_of_products():
    # phi depends on directions alone: scaling by an even power of 2 keeps
    # its bits, and 1e200 and 1e-200 give the angle between the rapidities
    # atanh(1/2) and atanh(1/3) of (1, 2) and (1, 3)
    u, w = Vec3SI(1.0, 2.0, 0.0), Vec3SI(1.0, 3.0, 0.0)
    with mpmath.workdps(50):
        ref = float(mpmath.atanh(mpmath.mpf(1) / 2) - mpmath.atanh(mpmath.mpf(1) / 3))
    phi = si_angle(u, w)
    assert phi == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert si_angle(u.scaled(2.0**600), w.scaled(2.0**-600)) == phi
    for scale in (1e200, 1e-200):
        assert si_angle(u.scaled(scale), w.scaled(scale)) == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_si_angle_refuses_opposite_cones_by_name():
    with pytest.raises(DomainError, match="not in a common cone"):
        si_angle(Vec3SI(0.5, 2.0, 0.0), Vec3SI(0.5, -3.0, 0.0))


def test_si_angle_matches_mpmath():
    # phi = acosh(-<u,w> / (|u| |w|)) in 50 digits, from the same floats.
    # An angle is as well determined as the rapidities of u and w: rounding
    # u1 w2 - u2 w1 moves phi by eps (|u1 w2| + |u2 w1|) / (|u| |w| cosh phi)
    # and the norms move sinh phi by a few eps relative
    rng = random.Random(5)
    eps = 2.0**-52
    compared = 0
    while compared < 2000:
        u, w = (Vec3SI(rng.uniform(-0.99, 0.99) * x2, x2, 0.0)
                for x2 in (rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)))
        phi = si_angle(u, w)
        if phi <= 1e-3:
            continue
        compared += 1
        with mpmath.workdps(50):
            u1, u2, w1, w2 = map(mpmath.mpf, (u.x1, u.x2, w.x1, w.x2))
            ref = mpmath.acosh((u2 * w2 - u1 * w1) / mpmath.sqrt(_mp_quadratic(u) * _mp_quadratic(w)))
        bound = (abs(u.x1 * w.x2) + abs(u.x2 * w.x1)) / (semi_norm(u) * semi_norm(w) * math.cosh(phi))
        assert abs(phi - float(ref)) <= 4 * eps * (bound + phi)
