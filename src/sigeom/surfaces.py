"""Surfaces of revolution and their induced differential operators.

A surface is a profile curve swept by the boost subgroup of the motion
group: (u sinh v, u cosh v, f(u)) for a timelike meridian or
(u cosh v, u sinh v, f(u)) for a spacelike one.  Both are timelike surfaces
(W = EG - F^2 = -u^2 < 0).

Two Laplace operators act on scalar fields: the first-form operator

    Lap psi = -(1/sqrt|W|) { d_u[(G psi_u - F psi_v)/sqrt|W|]
                             - d_v[(F psi_u - E psi_v)/sqrt|W|] }

and the second-form analogue with (E, F, G, W) replaced by (L, M, N, w),
defined away from parabolic points (w = LN - M^2 = 0).  The general
operators difference the flux terms with central steps h = 1e-5 max(1, |u|);
the closed coordinate forms bypass differencing entirely.

Sign convention note: on coordinate functions the second-form operator
reduces to the pattern B(u) - 1/f' and B(u) f' + 1 (with B assembled from
f', f'', f''') only up to the orientation factor sgn(w); the closed forms
here carry that factor so that they agree with the defining flux formula
for every profile, not just those with f' f'' < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import Vec3SI
from .errors import (
    AdmissibilityError,
    DomainError,
    ParabolicPointError,
    StencilError,
)
from .profiles import ProfileCurve

__all__ = [
    "RevolutionKind",
    "RevolutionSurface",
    "FundamentalForms",
    "ScalarField",
    "Mesh",
    "point_at",
    "fundamental_forms",
    "fundamental_forms_fd",
    "curvatures",
    "laplacian_i",
    "laplacian_ii",
    "coord_laplacians_i",
    "coord_laplacians_ii",
    "b_function",
    "b_of_profile",
    "coordinate_fields",
    "mesh",
]


class RevolutionKind(Enum):
    TIMELIKE_MERIDIAN = "timelike"  # (u sinh v, u cosh v, f(u))
    SPACELIKE_MERIDIAN = "spacelike"  # (u cosh v, u sinh v, f(u))


@dataclass(frozen=True)
class RevolutionSurface:
    profile: ProfileCurve
    kind: RevolutionKind = RevolutionKind.TIMELIKE_MERIDIAN
    u_range: tuple[float, float] | None = None
    v_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        if self.u_range is None:
            object.__setattr__(self, "u_range", self.profile.domain)
        lo, hi = self.u_range
        plo, phi = self.profile.domain
        if not lo < hi:
            raise DomainError(f"u_range must be a proper interval, got {self.u_range!r}")
        if lo <= 0.0:
            raise DomainError(f"u_range must stay positive, got {self.u_range!r}")
        if lo < plo or hi > phi:
            raise DomainError(
                f"u_range {self.u_range!r} exceeds profile domain {self.profile.domain!r}"
            )
        vlo, vhi = self.v_range
        if not vlo < vhi:
            raise DomainError(f"v_range must be a proper interval, got {self.v_range!r}")


@dataclass(frozen=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    W: float
    L: float
    M: float
    N: float
    w: float
    epsilon: int
    is_parabolic: bool


@dataclass(frozen=True)
class ScalarField:
    """psi(u, v) with optional analytic partials; missing ones fall back to
    central differences of step 1e-5 max(1, |u|)."""

    f: Callable[[float, float], float]
    du: Callable[[float, float], float] | None = None
    dv: Callable[[float, float], float] | None = None
    duu: Callable[[float, float], float] | None = None
    duv: Callable[[float, float], float] | None = None
    dvv: Callable[[float, float], float] | None = None

    @property
    def has_first_partials(self) -> bool:
        return self.du is not None and self.dv is not None

    def d_u(self, u: float, v: float) -> float:
        if self.du is not None:
            return self.du(u, v)
        h = 1e-5 * max(1.0, abs(u))
        return (self.f(u + h, v) - self.f(u - h, v)) / (2.0 * h)

    def d_v(self, u: float, v: float) -> float:
        if self.dv is not None:
            return self.dv(u, v)
        h = 1e-5 * max(1.0, abs(u))
        return (self.f(u, v + h) - self.f(u, v - h)) / (2.0 * h)


def _check_point(s: RevolutionSurface, u: float, v: float) -> None:
    ulo, uhi = s.u_range
    vlo, vhi = s.v_range
    if not (ulo <= u <= uhi):
        raise DomainError(f"u={u!r} outside surface range [{ulo!r}, {uhi!r}]")
    if not (vlo <= v <= vhi):
        raise DomainError(f"v={v!r} outside surface range [{vlo!r}, {vhi!r}]")


def point_at(s: RevolutionSurface, u: float, v: float) -> Vec3SI:
    """Evaluate the parameterization of s at (u, v)."""
    _check_point(s, u, v)
    z = s.profile.evaluate(u, 0)
    if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
        return Vec3SI(u * math.sinh(v), u * math.cosh(v), z)
    return Vec3SI(u * math.cosh(v), u * math.sinh(v), z)


def _parabolic_threshold(u: float, f1: float, f2: float) -> float:
    # Scale-aware zero test for w = -u f' f''.
    return 1e-12 * u * max(abs(f1), 1.0) * max(abs(f2), 1.0)


def _second_form(s: RevolutionSurface, u: float) -> tuple[float, float, float]:
    """(L, M, N) at radius u; M = 0 for both meridian kinds."""
    f1 = s.profile.evaluate(u, 1)
    f2 = s.profile.evaluate(u, 2)
    if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
        return (-f2, 0.0, u * f1)
    return (f2, 0.0, -u * f1)


def fundamental_forms(s: RevolutionSurface, u: float, v: float) -> FundamentalForms:
    """Closed-form E, F, G, W and L, M, N, w at (u, v).

    The first form is v-independent; W = EG - F^2 = -u^2 for both kinds.
    For the timelike meridian the stored closed second form is
    (L, M, N) = (-f'', 0, u f'); the spacelike one follows from the same
    determinant definitions with the swapped parameterization.
    """
    _check_point(s, u, v)
    if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
        E, F, G = -1.0, 0.0, u * u
    else:
        E, F, G = 1.0, 0.0, -(u * u)
    W = E * G - F * F
    if W == 0.0:
        raise DomainError("degenerate first form (W = 0)")
    L, M, N = _second_form(s, u)
    w = L * N - M * M
    f1 = s.profile.evaluate(u, 1)
    f2 = s.profile.evaluate(u, 2)
    return FundamentalForms(
        E=E, F=F, G=G, W=W, L=L, M=M, N=N, w=w,
        epsilon=-1 if W < 0.0 else 1,
        is_parabolic=abs(w) < _parabolic_threshold(u, f1, f2),
    )


def _det3(a, b, c) -> float:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def fundamental_forms_fd(
    s: RevolutionSurface, u: float, v: float, h: float | None = None
) -> FundamentalForms:
    """Brute-force forms from numeric partials of the parameterization.

    Serves as the oracle for the closed forms; expect ~1e-7 agreement.
    """
    _check_point(s, u, v)
    if h is None:
        h = 1e-4 * max(1.0, abs(u))

    def r(uu: float, vv: float) -> tuple[float, float, float]:
        p = point_at(s, uu, vv)
        return (p.x1, p.x2, p.x3)

    r0 = r(u, v)
    rup, rum = r(u + h, v), r(u - h, v)
    rvp, rvm = r(u, v + h), r(u, v - h)
    ru = tuple((a - b) / (2.0 * h) for a, b in zip(rup, rum))
    rv = tuple((a - b) / (2.0 * h) for a, b in zip(rvp, rvm))
    ruu = tuple((a - 2.0 * o + b) / (h * h) for a, o, b in zip(rup, r0, rum))
    rvv = tuple((a - 2.0 * o + b) / (h * h) for a, o, b in zip(rvp, r0, rvm))
    rpp = r(u + h, v + h)
    rpm = r(u + h, v - h)
    rmp = r(u - h, v + h)
    rmm = r(u - h, v - h)
    ruv = tuple(
        (a - b - c + d) / (4.0 * h * h) for a, b, c, d in zip(rpp, rpm, rmp, rmm)
    )

    def sp(a, b) -> float:
        return a[0] * b[0] - a[1] * b[1]

    E, F, G = sp(ru, ru), sp(ru, rv), sp(rv, rv)
    W = E * G - F * F
    if W == 0.0:
        raise DomainError("degenerate first form (W = 0)")
    sw = math.sqrt(abs(W))
    L = _det3(ruu, ru, rv) / sw
    M = _det3(ruv, ru, rv) / sw
    N = _det3(rvv, ru, rv) / sw
    w = L * N - M * M
    f1 = s.profile.evaluate(u, 1)
    f2 = s.profile.evaluate(u, 2)
    return FundamentalForms(
        E=E, F=F, G=G, W=W, L=L, M=M, N=N, w=w,
        epsilon=-1 if W < 0.0 else 1,
        is_parabolic=abs(w) < _parabolic_threshold(u, f1, f2),
    )


def curvatures(s: RevolutionSurface, u: float) -> tuple[float, float]:
    """(K, H) = (f' f'' / u, (f'/u + f'')/2); independent of v."""
    ulo, uhi = s.u_range
    if not (ulo <= u <= uhi):
        raise DomainError(f"u={u!r} outside surface range [{ulo!r}, {uhi!r}]")
    f1 = s.profile.evaluate(u, 1)
    f2 = s.profile.evaluate(u, 2)
    return _curvatures(u, f1, f2)


def _curvatures(u, f1, f2):
    # elementwise IEEE arithmetic: floats or arrays alike
    return (f1 * f2 / u, 0.5 * (f1 / u + f2))


def _stencil_guard(s: RevolutionSurface, u: float, v: float, h: float, factor: float) -> None:
    ulo, uhi = s.u_range
    vlo, vhi = s.v_range
    m = factor * h
    if u - m < ulo or u + m > uhi or v - m < vlo or v + m > vhi:
        raise StencilError(
            f"finite-difference stencil of half-width {m!r} leaves the surface "
            f"domain at (u, v) = ({u!r}, {v!r})"
        )


def laplacian_i(s: RevolutionSurface, field: ScalarField, u: float, v: float) -> float:
    """First-form Laplacian of a scalar field by differencing the flux terms.

    F = 0 for both meridian kinds, so the u-flux needs only psi_u and the
    v-flux only psi_v.
    """
    _check_point(s, u, v)
    h = 1e-5 * max(1.0, abs(u))
    _stencil_guard(s, u, v, h, 1.0 if field.has_first_partials else 2.5)
    timelike = s.kind is RevolutionKind.TIMELIKE_MERIDIAN

    def flux_u(uu: float, vv: float) -> float:
        G = uu * uu if timelike else -(uu * uu)
        return G * field.d_u(uu, vv) / uu

    def flux_v(uu: float, vv: float) -> float:
        E = -1.0 if timelike else 1.0
        return -E * field.d_v(uu, vv) / uu

    d_flux_u = (flux_u(u + h, v) - flux_u(u - h, v)) / (2.0 * h)
    d_flux_v = (flux_v(u, v + h) - flux_v(u, v - h)) / (2.0 * h)
    return -(d_flux_u - d_flux_v) / u


def laplacian_ii(s: RevolutionSurface, field: ScalarField, u: float, v: float) -> float:
    """Second-form Laplacian; raises ParabolicPointError if w vanishes
    anywhere on the stencil."""
    _check_point(s, u, v)
    h = 1e-5 * max(1.0, abs(u))
    _stencil_guard(s, u, v, h, 1.0 if field.has_first_partials else 2.5)

    def sqrt_w(uu: float) -> float:
        L, M, N = _second_form(s, uu)
        w = L * N - M * M
        f1 = s.profile.evaluate(uu, 1)
        f2 = s.profile.evaluate(uu, 2)
        if abs(w) < _parabolic_threshold(uu, f1, f2):
            raise ParabolicPointError(f"parabolic point (w = {w!r}) at u = {uu!r}")
        return math.sqrt(abs(w))

    def flux_u(uu: float, vv: float) -> float:
        L, M, N = _second_form(s, uu)
        return N * field.d_u(uu, vv) / sqrt_w(uu)

    def flux_v(uu: float, vv: float) -> float:
        L, M, N = _second_form(s, uu)
        return -L * field.d_v(uu, vv) / sqrt_w(uu)

    root = sqrt_w(u)
    d_flux_u = (flux_u(u + h, v) - flux_u(u - h, v)) / (2.0 * h)
    d_flux_v = (flux_v(u, v + h) - flux_v(u, v - h)) / (2.0 * h)
    return -(d_flux_u - d_flux_v) / root


def coord_laplacians_i(s: RevolutionSurface, u: float, v: float) -> tuple[float, float, float]:
    """First-form Laplacians of the coordinate functions, in closed form.

    The rotational coordinates are harmonic; the profile coordinate gives
    -f'' - f'/u (timelike meridian) with the opposite sign for the spacelike
    one (its G carries the opposite sign).
    """
    _check_point(s, u, v)
    f1 = s.profile.evaluate(u, 1)
    f2 = s.profile.evaluate(u, 2)
    radial = -f2 - f1 / u
    if s.kind is RevolutionKind.SPACELIKE_MERIDIAN:
        radial = -radial
    return (0.0, 0.0, radial)


def b_of_profile(p: ProfileCurve, u: float) -> float:
    """B(u) = (1/(2 f'')) [ (f' + u f'')/(u f') - f'''/f'' ]."""
    f1 = p.evaluate(u, 1)
    f2 = p.evaluate(u, 2)
    f3 = p.evaluate(u, 3)
    if f1 == 0.0:
        raise AdmissibilityError(f"profile has f'({u!r}) = 0; B is undefined")
    if f2 == 0.0 or abs(u * f1 * f2) < _parabolic_threshold(u, f1, f2):
        raise ParabolicPointError(f"parabolic point (f''({u!r}) ~ 0); B is undefined")
    return (0.5 / f2) * ((f1 + u * f2) / (f1 * u) - f3 / f2)


def _second_form_coefficients(
    p: ProfileCurve, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(f, sgn(w), A, C) at the radii us, with A = sgn(w) (B - 1/f') and
    C = sgn(w) (B f' + 1): the u-factors of the second-form Laplacians of
    the coordinates (see coord_laplacians_ii).

    Raises what a loop of evaluate and b_of_profile over us would raise
    first: AdmissibilityError for f' = 0, ParabolicPointError, or the
    profile's own error.
    """
    us = np.asarray(us, dtype=np.float64)
    (f0, f1, f2, f3), exc = p._leading_jets(us)
    u = us[: f0.size]
    # _parabolic_threshold and the tests of b_of_profile, per element
    threshold = 1e-12 * u * np.maximum(np.abs(f1), 1.0) * np.maximum(np.abs(f2), 1.0)
    undefined = (f1 == 0.0) | (f2 == 0.0) | (np.abs(u * f1 * f2) < threshold)
    if undefined.any():
        b_of_profile(p, float(u[np.argmax(undefined)]))  # raises its error there
    if exc is not None:
        raise exc
    B = (0.5 / f2) * ((f1 + u * f2) / (f1 * u) - f3 / f2)  # as in b_of_profile
    ew = np.where(f1 * f2 > 0.0, -1.0, 1.0)  # sgn(w) = sgn(-u f' f'')
    return f0, ew, ew * (B - 1.0 / f1), ew * (B * f1 + 1.0)


def b_function(s: RevolutionSurface, u: float) -> float:
    ulo, uhi = s.u_range
    if not (ulo <= u <= uhi):
        raise DomainError(f"u={u!r} outside surface range [{ulo!r}, {uhi!r}]")
    return b_of_profile(s.profile, u)


def coord_laplacians_ii(s: RevolutionSurface, u: float, v: float) -> tuple[float, float, float]:
    """Second-form Laplacians of the coordinate functions, in closed form.

    With A = sgn(w) (B - 1/f') and C = sgn(w) (B f' + 1):
      timelike meridian:  (A sinh v, A cosh v, C)
      spacelike meridian: (-A cosh v, -A sinh v, -C)
    The sgn(w) factor makes these match the defining flux formula for every
    orientation of the second form (w = -u f' f'' may take either sign).
    """
    _check_point(s, u, v)
    f1 = s.profile.evaluate(u, 1)
    B = b_of_profile(s.profile, u)
    f2 = s.profile.evaluate(u, 2)
    ew = -1.0 if f1 * f2 > 0.0 else 1.0  # sgn(w) = sgn(-u f' f'')
    A = ew * (B - 1.0 / f1)
    C = ew * (B * f1 + 1.0)
    if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
        return (A * math.sinh(v), A * math.cosh(v), C)
    return (-A * math.cosh(v), -A * math.sinh(v), -C)


def coordinate_fields(s: RevolutionSurface) -> tuple[ScalarField, ScalarField, ScalarField]:
    """The coordinate functions of s as fields with full analytic partials."""
    p = s.profile
    if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
        r1 = ScalarField(
            f=lambda u, v: u * math.sinh(v),
            du=lambda u, v: math.sinh(v),
            dv=lambda u, v: u * math.cosh(v),
            duu=lambda u, v: 0.0,
            duv=lambda u, v: math.cosh(v),
            dvv=lambda u, v: u * math.sinh(v),
        )
        r2 = ScalarField(
            f=lambda u, v: u * math.cosh(v),
            du=lambda u, v: math.cosh(v),
            dv=lambda u, v: u * math.sinh(v),
            duu=lambda u, v: 0.0,
            duv=lambda u, v: math.sinh(v),
            dvv=lambda u, v: u * math.cosh(v),
        )
    else:
        r1 = ScalarField(
            f=lambda u, v: u * math.cosh(v),
            du=lambda u, v: math.cosh(v),
            dv=lambda u, v: u * math.sinh(v),
            duu=lambda u, v: 0.0,
            duv=lambda u, v: math.sinh(v),
            dvv=lambda u, v: u * math.cosh(v),
        )
        r2 = ScalarField(
            f=lambda u, v: u * math.sinh(v),
            du=lambda u, v: math.sinh(v),
            dv=lambda u, v: u * math.cosh(v),
            duu=lambda u, v: 0.0,
            duv=lambda u, v: math.cosh(v),
            dvv=lambda u, v: u * math.sinh(v),
        )
    r3 = ScalarField(
        f=lambda u, v: p.evaluate(u, 0),
        du=lambda u, v: p.evaluate(u, 1),
        dv=lambda u, v: 0.0,
        duu=lambda u, v: p.evaluate(u, 2),
        duv=lambda u, v: 0.0,
        dvv=lambda u, v: 0.0,
    )
    return (r1, r2, r3)


@dataclass(frozen=True)
class Mesh:
    """Row-major (nu x nv) vertex grid with two triangles per quad."""

    vertices: np.ndarray  # (nu*nv, 3) float64
    faces: np.ndarray  # (2*(nu-1)*(nv-1), 3) int32, zero-based
    nu: int
    nv: int


def mesh(s: RevolutionSurface, nu: int, nv: int) -> Mesh:
    """Sample the surface on an inclusive nu x nv grid and triangulate it."""
    if nu < 2 or nv < 2:
        raise ValueError(f"mesh needs nu, nv >= 2, got {nu!r} x {nv!r}")
    us = np.linspace(s.u_range[0], s.u_range[1], nu)
    vs = np.linspace(s.v_range[0], s.v_range[1], nv)
    z = s.profile.jets(us)[0]
    sv = np.sinh(vs)
    cv = np.cosh(vs)
    verts = np.empty((nu * nv, 3), dtype=np.float64)
    for i, u in enumerate(us):
        row = slice(i * nv, (i + 1) * nv)
        if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
            verts[row, 0] = u * sv
            verts[row, 1] = u * cv
        else:
            verts[row, 0] = u * cv
            verts[row, 1] = u * sv
        verts[row, 2] = z[i]
    if not np.isfinite(verts).all():
        raise DomainError("mesh produced non-finite vertices")
    faces = np.empty((2 * (nu - 1) * (nv - 1), 3), dtype=np.int32)
    k = 0
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j
            b = (i + 1) * nv + j
            c = (i + 1) * nv + j + 1
            d = i * nv + j + 1
            faces[k] = (a, b, c)
            faces[k + 1] = (a, c, d)
            k += 2
    return Mesh(vertices=verts, faces=faces, nu=nu, nv=nv)
