"""Surfaces of revolution and their induced differential operators.

A surface is a profile curve swept by the boost subgroup of the motion
group: (u sinh v, u cosh v, f(u)) for a timelike meridian or
(u cosh v, u sinh v, f(u)) for a spacelike one.  Both are timelike surfaces
(W = EG - F^2 = -u^2 < 0).

Two Laplace operators act on scalar fields: the first-form operator

    Lap psi = -(1/sqrt|W|) { d_u[(G psi_u - F psi_v)/sqrt|W|]
                             - d_v[(F psi_u - E psi_v)/sqrt|W|] }

and the second-form analogue with (E, F, G, W) replaced by (L, M, N, w),
defined away from parabolic points (w = LN - M^2 = 0): _second_form returns
(L, M, N) and the scale below which |w| counts as zero from one read of f'
and f''.  One operator,
_flux_laplacian, differences the flux terms of either form with central
steps h = 1e-5 max(1, |u|): laplacian_i and laplacian_ii apply it to the
first and the second form.  It reads the forms only through _first_form and
_second_form, never the closed-form factors below, so it serves as the
oracle for the closed coordinate forms.

On both forms the closed coordinate Laplacians are Lap r1, Lap r2 =
a(u) (h1(v), h2(v)) and Lap r3 = c(u), with (h1, h2) = (sinh, cosh) for a
timelike meridian and (cosh, sinh) for a spacelike one.  _coordinate_factors
holds the formulas for a and c, on a float or elementwise on arrays: the
pointwise coord_laplacians_i/ii apply it per point, and
_coordinate_laplacians per array of radii for the eigen fits and the
eigen-system residual in classify and the CLI tables.  _rotate applies the (h1, h2) pattern, with a = u also
to the coordinates themselves.

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
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (
    AdmissibilityError,
    DomainError,
    ParabolicPointError,
    StencilError,
)
from .profiles import ProfileCurve

if TYPE_CHECKING:
    from .core import Vec3SI

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


def _check_u(s: RevolutionSurface, u: float) -> None:
    ulo, uhi = s.u_range
    if not (ulo <= u <= uhi):
        raise DomainError(f"u={u!r} outside surface range [{ulo!r}, {uhi!r}]")


def _check_point(s: RevolutionSurface, u: float, v: float) -> None:
    _check_u(s, u)
    vlo, vhi = s.v_range
    if not (vlo <= v <= vhi):
        raise DomainError(f"v={v!r} outside surface range [{vlo!r}, {vhi!r}]")


def _rotate(kind: RevolutionKind, radial, sv, cv, out=None):
    """(radial h1(v), radial h2(v)) with (h1, h2) = (sinh, cosh) for a
    timelike meridian and (cosh, sinh) for a spacelike one.

    radial = u gives the rotational coordinates r1, r2, and radial = a of
    _coordinate_laplacians their Laplacians.  The caller passes sinh v and
    cosh v from math or numpy, whichever it has always used, since the two
    can differ in the last bit; floats and broadcasting arrays alike.  With
    `out`, a pair of arrays, the products are written into them.
    """
    h1, h2 = (sv, cv) if kind is RevolutionKind.TIMELIKE_MERIDIAN else (cv, sv)
    if out is None:
        return radial * h1, radial * h2
    return np.multiply(radial, h1, out=out[0]), np.multiply(radial, h2, out=out[1])


def point_at(s: RevolutionSurface, u: float, v: float) -> Vec3SI:
    """Evaluate the parameterization of s at (u, v)."""
    from .core import Vec3SI  # the point algebra, which no grid computation needs

    _check_point(s, u, v)
    z = s.profile.evaluate(u, 0)
    return Vec3SI(*_rotate(s.kind, u, math.sinh(v), math.cosh(v)), z)


def _parabolic_threshold(u, f1, f2):
    # Scale-aware zero test for w = -u f' f''; floats or arrays alike (numpy
    # costs a microsecond per call on floats, which the flux operators feel)
    at_least_1 = np.maximum if isinstance(f1, np.ndarray) else max
    return 1e-12 * u * at_least_1(abs(f1), 1.0) * at_least_1(abs(f2), 1.0)


def _first_form(s: RevolutionSurface, u: float) -> tuple[float, float, float]:
    """(E, F, G) at radius u; W = EG - F^2 = -u^2 for both meridian kinds."""
    if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
        return (-1.0, 0.0, u * u)
    return (1.0, 0.0, -(u * u))


def _second_form(s: RevolutionSurface, u: float):
    """((L, M, N), zero) at radius u, M = 0 for both meridian kinds: u is
    parabolic where |LN - M^2| < zero, the _parabolic_threshold of f', f''."""
    f1 = s.profile.evaluate(u, 1)
    f2 = s.profile.evaluate(u, 2)
    zero = _parabolic_threshold(u, f1, f2)
    if s.kind is RevolutionKind.TIMELIKE_MERIDIAN:
        return (-f2, 0.0, u * f1), zero
    return (f2, 0.0, -u * f1), zero


def _forms(first, second: Callable) -> FundamentalForms:
    """FundamentalForms from first = (E, F, G) and second(sqrt|W|) = ((L, M, N),
    zero) as _second_form returns it, called only once W = 0 has been refused."""
    E, F, G = first
    W = E * G - F * F
    if W == 0.0:
        raise DomainError("degenerate first form (W = 0)")
    (L, M, N), zero = second(math.sqrt(abs(W)))
    w = L * N - M * M
    return FundamentalForms(
        E=E, F=F, G=G, W=W, L=L, M=M, N=N, w=w,
        epsilon=-1 if W < 0.0 else 1,
        is_parabolic=abs(w) < zero,
    )


def fundamental_forms(s: RevolutionSurface, u: float, v: float) -> FundamentalForms:
    """Closed-form E, F, G, W and L, M, N, w at (u, v).

    The first form is v-independent; W = EG - F^2 = -u^2 for both kinds.
    For the timelike meridian the stored closed second form is
    (L, M, N) = (-f'', 0, u f'); the spacelike one follows from the same
    determinant definitions with the swapped parameterization.
    """
    _check_point(s, u, v)
    return _forms(_first_form(s, u), lambda sw: _second_form(s, u))


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
    if h * h == 0.0:
        raise DomainError(f"finite-difference step h={h!r} is too small: h*h underflows to 0")

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

    first = (sp(ru, ru), sp(ru, rv), sp(rv, rv))
    return _forms(first, lambda sw: (tuple(_det3(d, ru, rv) / sw for d in (ruu, ruv, rvv)),
                                     _second_form(s, u)[1]))


def curvatures(s: RevolutionSurface, u: float) -> tuple[float, float]:
    """(K, H) = (f' f'' / u, (f'/u + f'')/2); independent of v."""
    _check_u(s, u)
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


def _flux_coefficients(s: RevolutionSurface, u: float, form: int) -> tuple[float, float, float]:
    """(G, E, sqrt|W|) = (G, E, u) of the first form (form 1), or
    (N, L, sqrt|w|) of the second (form 2), at radius u; the second form
    raises ParabolicPointError where w vanishes."""
    if form == 1:
        E, _, G = _first_form(s, u)
        return G, E, u
    (L, M, N), zero = _second_form(s, u)
    w = L * N - M * M
    if abs(w) < zero:
        raise ParabolicPointError(f"parabolic point (w = {w!r}) at u = {u!r}")
    return N, L, math.sqrt(abs(w))


def _flux_laplacian(
    s: RevolutionSurface, field: ScalarField, u: float, v: float, form: int
) -> float:
    """The Laplacian of the first (form 1) or second (form 2) form at (u, v)
    by central differences of the flux terms.

    F = M = 0 for both meridian kinds, so the u-flux G psi_u / sqrt|W| needs
    only psi_u and the v-flux -E psi_v / sqrt|W| only psi_v.  The centre
    radius is read first: a parabolic centre is refused before any stencil
    point.
    """
    _check_point(s, u, v)
    h = 1e-5 * max(1.0, abs(u))
    _stencil_guard(s, u, v, h, 1.0 if field.has_first_partials else 2.5)
    _, E, root = _flux_coefficients(s, u, form)

    def flux_u(uu: float) -> float:
        G, _, root_uu = _flux_coefficients(s, uu, form)
        return G * field.d_u(uu, v) / root_uu

    def flux_v(vv: float) -> float:
        return -E * field.d_v(u, vv) / root

    d_flux_u = (flux_u(u + h) - flux_u(u - h)) / (2.0 * h)
    d_flux_v = (flux_v(v + h) - flux_v(v - h)) / (2.0 * h)
    return -(d_flux_u - d_flux_v) / root


def laplacian_i(s: RevolutionSurface, field: ScalarField, u: float, v: float) -> float:
    """First-form Laplacian of a scalar field by differencing the flux terms
    (_flux_laplacian over (E, F, G, W))."""
    return _flux_laplacian(s, field, u, v, 1)


def laplacian_ii(s: RevolutionSurface, field: ScalarField, u: float, v: float) -> float:
    """Second-form Laplacian (_flux_laplacian over (L, M, N, w)); raises
    ParabolicPointError if w vanishes anywhere on the stencil."""
    return _flux_laplacian(s, field, u, v, 2)


def _b_coefficient(u, f1, f2, f3):
    # elementwise IEEE arithmetic: floats or arrays alike
    return (0.5 / f2) * ((f1 + u * f2) / (f1 * u) - f3 / f2)


def _b_undefined(u, f1, f2):
    # where B is undefined (f' = 0 or a parabolic point); floats or arrays alike
    return (f1 == 0.0) | (f2 == 0.0) | (abs(u * f1 * f2) < _parabolic_threshold(u, f1, f2))


def _check_b_defined(u: float, f1: float, f2: float) -> None:
    if f1 == 0.0:
        raise AdmissibilityError(f"profile has f'({u!r}) = 0; B is undefined")
    if _b_undefined(u, f1, f2):
        raise ParabolicPointError(f"parabolic point (f''({u!r}) ~ 0); B is undefined")


def b_of_profile(p: ProfileCurve, u: float) -> float:
    """B(u) = (1/(2 f'')) [ (f' + u f'')/(u f') - f'''/f'' ]."""
    f1 = p.evaluate(u, 1)
    f2 = p.evaluate(u, 2)
    f3 = p.evaluate(u, 3)
    _check_b_defined(u, f1, f2)
    return _b_coefficient(u, f1, f2, f3)


def _coordinate_factors(kind: RevolutionKind, form: int, u, f1, f2, f3=None):
    """(a, c, sgn(w)) from the profile derivatives at u, so that the
    coordinate Laplacians of the first (form 1) or second (form 2) form are

        (Lap r1, Lap r2) = _rotate(kind, a, sinh v, cosh v),  Lap r3 = c.

    Timelike meridian: form 1 has a = 0 (the rotational coordinates are
    harmonic) and c = -f'' - f'/u; form 2 has a = sgn(w) (B - 1/f') and
    c = sgn(w) (B f' + 1).  A spacelike meridian negates c, and a on form 2
    (its G and N carry the opposite sign).  On form 1, a is the float +0.0
    and sgn(w) is None.  Floats or arrays alike; form 2 is defined only
    where _check_b_defined passes.
    """
    flip = kind is RevolutionKind.SPACELIKE_MERIDIAN
    if form == 1:
        c = -f2 - f1 / u
        return 0.0, -c if flip else c, None
    ew = 1.0 - 2.0 * (f1 * f2 > 0.0)  # sgn(w) = sgn(-u f' f'')
    B = _b_coefficient(u, f1, f2, f3)
    a, c = ew * (B - 1.0 / f1), ew * (B * f1 + 1.0)
    return (-a, -c, ew) if flip else (a, c, ew)


def _coordinate_laplacians(
    s: RevolutionSurface, us, form: int, value: bool = False
) -> tuple[np.ndarray | None, np.ndarray | float, np.ndarray, np.ndarray | None]:
    """(f, a, c, sgn(w)) of _coordinate_factors at the radii us, with f only
    if value is set (None otherwise).

    Evaluates only the profile orders it reads, and raises what a pointwise
    loop over us would raise first: the profile's own error or, on the
    second form, the AdmissibilityError for f' = 0 or the
    ParabolicPointError of b_of_profile.
    """
    us = np.asarray(us, dtype=np.float64)
    orders = ((0,) if value else ()) + ((1, 2) if form == 1 else (1, 2, 3))
    jets, exc = s.profile._leading_jets(us, orders)
    if form == 2:
        u, f1, f2 = us[: jets.shape[1]], jets[-3], jets[-2]
        undefined = _b_undefined(u, f1, f2)
        if undefined.any():
            i = int(np.argmax(undefined))
            _check_b_defined(float(u[i]), float(f1[i]), float(f2[i]))
    if exc is not None:
        raise exc
    a, c, ew = _coordinate_factors(s.kind, form, us, *jets[int(value):])
    return (jets[0] if value else None), a, c, ew


def _require_finite_radii(us, *columns, what="profile jets or coordinate Laplacians") -> None:
    """Refuse the first radius of us at which a column (a constant, or a value
    or a row of values per radius) is not finite, saying that `what` is not."""
    finite = np.ones(us.shape, dtype=bool)
    for column in columns:
        ok = np.isfinite(column)
        finite &= ok.all(axis=tuple(range(1, ok.ndim)))
    if not finite.all():
        raise DomainError(f"{what} not finite at u = {float(us[np.argmin(finite)])!r}")


def _coord_laplacians(s: RevolutionSurface, u: float, v: float, form: int):
    """(Lap r1, Lap r2, Lap r3) of the first (form 1) or second (form 2) form
    at (u, v) from _coordinate_factors; on form 2, b_of_profile's checks
    come first."""
    _check_point(s, u, v)
    fs = [s.profile.evaluate(u, k) for k in ((1, 2) if form == 1 else (1, 2, 3))]
    if form == 2:
        _check_b_defined(u, fs[0], fs[1])
    a, c, _ = _coordinate_factors(s.kind, form, u, *fs)
    if form == 1:  # harmonic rotational coordinates, whatever sinh v and cosh v are
        return (0.0, 0.0, c)
    return (*_rotate(s.kind, a, math.sinh(v), math.cosh(v)), c)


def coord_laplacians_i(s: RevolutionSurface, u: float, v: float) -> tuple[float, float, float]:
    """First-form Laplacians of the coordinate functions, in closed form.

    The rotational coordinates are harmonic; the profile coordinate gives
    -f'' - f'/u (timelike meridian) with the opposite sign for the spacelike
    one (its G carries the opposite sign).
    """
    return _coord_laplacians(s, u, v, 1)


def b_function(s: RevolutionSurface, u: float) -> float:
    _check_u(s, u)
    return b_of_profile(s.profile, u)


def coord_laplacians_ii(s: RevolutionSurface, u: float, v: float) -> tuple[float, float, float]:
    """Second-form Laplacians of the coordinate functions, in closed form.

    With A = sgn(w) (B - 1/f') and C = sgn(w) (B f' + 1):
      timelike meridian:  (A sinh v, A cosh v, C)
      spacelike meridian: (-A cosh v, -A sinh v, -C)
    The sgn(w) factor makes these match the defining flux formula for every
    orientation of the second form (w = -u f' f'' may take either sign).
    """
    return _coord_laplacians(s, u, v, 2)


def coordinate_fields(s: RevolutionSurface) -> tuple[ScalarField, ScalarField, ScalarField]:
    """The coordinate functions of s as fields with analytic first partials."""
    p = s.profile

    def rotational(k: int) -> ScalarField:
        # d/du sets the radial factor to 1; d/dv swaps sinh and cosh
        return ScalarField(
            f=lambda u, v: _rotate(s.kind, u, math.sinh(v), math.cosh(v))[k],
            du=lambda u, v: _rotate(s.kind, 1.0, math.sinh(v), math.cosh(v))[k],
            dv=lambda u, v: _rotate(s.kind, u, math.cosh(v), math.sinh(v))[k],
        )

    r3 = ScalarField(
        f=lambda u, v: p.evaluate(u, 0),
        du=lambda u, v: p.evaluate(u, 1),
        dv=lambda u, v: 0.0,
    )
    return (rotational(0), rotational(1), r3)


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
    z = s.profile._jets(us, (0,))[0]
    verts = np.empty((nu, nv, 3), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowed vertex is refused just below
        _rotate(s.kind, us[:, None], np.sinh(vs), np.cosh(vs), out=(verts[..., 0], verts[..., 1]))
    verts[..., 2] = z[:, None]
    if not np.isfinite(verts).all():
        raise DomainError("mesh produced non-finite vertices")
    # quad (i, j) has corners a = i nv + j, b = a + nv, c = b + 1, d = a + 1
    # and gives the faces (a, b, c) and (a, c, d), written in place
    faces = np.empty((nu - 1, nv - 1, 6), dtype=np.int32)
    a = faces[..., 0]
    np.add(np.arange(nu - 1, dtype=np.int32)[:, None] * nv, np.arange(nv - 1, dtype=np.int32), out=a)
    for k, corner in enumerate((nv, nv + 1, 0, nv + 1, 1), start=1):
        np.add(a, corner, out=faces[..., k])
    return Mesh(vertices=verts.reshape(-1, 3), faces=faces.reshape(-1, 3), nu=nu, nv=nv)
