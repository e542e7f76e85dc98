"""Eigenvalue fits for the coordinate Laplace relations and family verdicts.

Given a revolution surface and a sample grid, estimate per-coordinate
eigenvalues lambda_i in Lap r_i = lambda_i r_i (first or second form) by
grid least squares, report sup residuals, and name the outcome (a fit
holds when its sup residual is at most tol max(1, max|r_i|), see _holds):

  NullTwoType     first form, lambda1 = lambda2 = 0 and lambda3 != 0
  SIMinimal       second form, lambda1 = lambda2 != 0 and lambda3 = 0
  NoEigenRelation no constant eigenvalue fits within tolerance (a result,
                  not an error: several parameter regimes are provably
                  inconsistent and are expected to land here)

All grid reductions go through numpy's pairwise summation, so repeated runs
produce bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import DEFAULT_SERIES, SeriesConfig
from .errors import DomainError
from .profiles import ProfileCurve, ProfileFamily, bessel_profile
from .surfaces import RevolutionSurface, _coordinate_laplacians, _curvatures, _rotate

__all__ = [
    "OperatorKind",
    "Verdict",
    "MIN_GRID_SAMPLES",
    "Grid",
    "make_grid",
    "EigenReport",
    "check_eigen_i",
    "check_eigen_ii",
    "CurvatureReport",
    "verify_constant_curvature",
    "CertifiedProfile",
    "solve_radial_eigen_ode",
    "eigen_system_residual",
]


class OperatorKind(Enum):
    FIRST_FORM = "FirstForm"
    SECOND_FORM = "SecondForm"


class Verdict(Enum):
    NULL_TWO_TYPE = "NullTwoType"
    SI_MINIMAL = "SIMinimal"
    NO_EIGEN_RELATION = "NoEigenRelation"


#: fewest samples per axis that a Grid accepts
MIN_GRID_SAMPLES = 5


@dataclass(frozen=True)
class Grid:
    """Strictly increasing u and v sample sequences, at least 5 x 5."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        for name, arr in (("u", u), ("v", v)):
            if arr.ndim != 1 or arr.size < MIN_GRID_SAMPLES:
                raise ValueError(
                    f"grid {name} needs at least {MIN_GRID_SAMPLES} samples, got {arr.size}"
                )
            # DomainError: a range narrower than make_grid's margins ends here
            if not np.isfinite(arr).all():
                raise DomainError(f"grid {name} samples must be finite")
            if not (np.diff(arr) > 0.0).all():
                raise DomainError(f"grid {name} samples must be strictly increasing")


def make_grid(s: RevolutionSurface, nu: int = 21, nv: int = 21) -> Grid:
    """Uniform grid pulled inside the ranges by a finite-difference margin;
    the v samples avoid v = 0 exactly (shifted by half a step) so the first
    coordinate never vanishes along a sample line."""
    ulo, uhi = s.u_range
    vlo, vhi = s.v_range
    mu = max(1e-3 * (uhi - ulo), 2.5e-5 * max(1.0, abs(ulo), abs(uhi)))
    mv = max(1e-3 * (vhi - vlo), 2.5e-5 * max(1.0, abs(vlo), abs(vhi)))
    us = np.linspace(ulo + mu, uhi - mu, nu)
    step = (vhi - vlo - 2.0 * mv) / max(nv - 1, 1)
    vs = np.linspace(vlo + mv, vhi - mv, nv)
    for shift in (step / 2.0, step / 4.0, step / 8.0):
        if np.abs(vs).min() > 1e-9 * max(step, 1e-300):
            break
        vs = np.linspace(vlo + mv + shift, vhi - mv, nv)
    return Grid(u=us, v=vs)


@dataclass(frozen=True)
class EigenReport:
    operator: OperatorKind
    lam: tuple[float, float, float]
    residual_sup: tuple[float, float, float]
    residual_rel: tuple[float, float, float]
    verdict: Verdict
    notes: str

    def to_text(self) -> str:
        """Flat key-value block consumed by the CLI."""
        lines = [f"operator: {self.operator.value}"]
        for i in range(3):
            lines.append(f"lambda{i + 1}: {self.lam[i]:.17g}")
        for i in range(3):
            lines.append(f"residual{i + 1}: {self.residual_sup[i]:.17g}")
        lines.append(f"verdict: {self.verdict.value}")
        lines.append(f"notes: {self.notes}")
        return "\n".join(lines) + "\n"


def _check_grid(s: RevolutionSurface, g: Grid) -> None:
    ulo, uhi = s.u_range
    vlo, vhi = s.v_range
    if g.u[0] < ulo or g.u[-1] > uhi or g.v[0] < vlo or g.v[-1] > vhi:
        raise DomainError("grid samples leave the surface ranges")


def _fit(lap: np.ndarray | float, r: np.ndarray, nv: int = 1) -> tuple[float, float, float]:
    """Least-squares lambda with sup residual, absolute and relative.

    lambda = sum(lap * r) / sum(r^2); when r vanishes identically the
    eigenvalue is 0 by convention and the residual is sup|lap|.  Raises
    DomainError when either sum overflows.  With nv > 1, lap and r are per
    radius, each value standing for a grid row of nv: numpy sums the
    products repeated nv times pairwise exactly as the flat grid, and a
    maximum does not depend on order.  One temporary of the repeated size
    is alive at a time: each product (or its repeat) is freed once summed,
    and the residual is formed in the lam * r array.
    """
    scale = float(np.max(np.abs(r)))
    with np.errstate(all="ignore"):  # an overflowed sum is refused just below
        denom = _grid_sum(r, r, nv)
        num = _grid_sum(lap, r, nv)
    if not (np.isfinite(denom) and np.isfinite(num)):
        raise DomainError(f"eigen-fit sums overflow (max |r| = {scale:.3g})")
    lam = 0.0 if denom == 0.0 else num / denom
    t = lam * r
    res = float(np.max(np.abs(np.subtract(lap, t, out=t), out=t)))
    rel = res / scale if scale > 0.0 else res
    return lam, res, rel


def _grid_sum(x: np.ndarray, r: np.ndarray, nv: int) -> float:
    """numpy's pairwise sum of x * r over the grid, each value repeated nv times."""
    xr = x * r
    return float(np.sum(np.repeat(xr, nv) if nv > 1 else xr))


def _fit_coordinates(s: RevolutionSurface, g: Grid, form: int):
    """The three (lambda, sup residual, relative residual) fits of
    Lap r_i = lambda_i r_i on the grid, and sgn(w) per radius (None on the
    first form), from the closed coordinate Laplacians.

    The rotational coordinates r_i = u h_i(v) have Lap r_i = a(u) h_i(v)
    (a = 0 on the first form), so their grid least squares separates into
    one fit over the radii: lambda_1 = lambda_2 = sum(a u) / sum(u^2), and
    the sup residual is max|a - lambda u| max|h_i|.

    Raises DomainError at the first radius where the profile or a
    coordinate Laplacian is not finite, or the first v where cosh v
    overflows, and where a sum, lambda or residual is not finite.
    """
    _check_grid(s, g)
    with np.errstate(all="ignore"):  # inf and nan are refused just below
        f0, a, c, ew = _coordinate_laplacians(s, g.u, form, value=True)
        sv, cv = np.sinh(g.v), np.cosh(g.v)
    finite = np.isfinite(f0) & np.isfinite(a) & np.isfinite(c)
    if not finite.all():
        u = float(g.u[np.argmin(finite)])
        raise DomainError(f"profile jets or coordinate Laplacians not finite at u = {u!r}")
    if not np.isfinite(cv).all():  # |sinh v| < cosh v
        v = float(g.v[np.argmin(np.isfinite(cv))])
        raise DomainError(f"cosh v overflows at v = {v!r}")
    try:
        lam, res, rel = _fit(a, g.u)
    except DomainError:  # refused below, naming max|r| = max|u| max|h_i|
        lam = res = rel = math.inf
    u_max = float(np.max(np.abs(g.u)))
    fits = []
    for h in _rotate(s.kind, 1.0, float(np.max(np.abs(sv))), float(np.max(cv))):
        if not math.isfinite(lam):
            raise DomainError(f"eigen-fit sums overflow (max |r| = {u_max * h:.3g})")
        if not math.isfinite(res * h):
            raise DomainError(
                f"eigen-fit residual overflows: max |a - lambda u| = {res:.3g}, max |h| = {h:.3g}"
            )
        fits.append((lam, res * h, rel))
    return (*fits, _fit(c, f0, g.v.size)), ew


def _holds(fit, tol: float) -> bool:
    """Whether a (lambda, sup residual, relative residual) fit holds: its sup
    residual is at most tol max(1, max|r_i|), the relative one being the sup
    over max|r_i|.  A part of Lap r_i below tol max|r_i| is not seen."""
    _, sup, rel = fit
    return sup <= tol or rel <= tol


def _eigen_report(operator: OperatorKind, fits, verdict: Verdict, notes: str) -> EigenReport:
    """The report of the three (lambda, sup residual, relative residual) fits."""
    lam, residual_sup, residual_rel = zip(*fits)
    return EigenReport(operator, lam, residual_sup, residual_rel, verdict, notes)


def check_eigen_i(s: RevolutionSurface, g: Grid, tol: float = 1e-6) -> EigenReport:
    """Fit Lap r_i = lambda_i r_i for the first-form operator.

    Uses the closed coordinate Laplacians (the rotational coordinates are
    harmonic; the profile coordinate gives -f'' - f'/u up to the meridian
    sign), so the fit is limited only by the profile's own accuracy.
    """
    fits, _ = _fit_coordinates(s, g, 1)
    l3, s3, rel3 = fits[2]
    verdict = Verdict.NO_EIGEN_RELATION  # Lap r1 = Lap r2 = 0: their fits are (0, 0, 0)
    if not _holds(fits[2], tol):
        bound = tol * max(1.0, s3 / rel3)  # s3 / rel3 is max|r3| (1 where r3 = 0)
        notes = (f"no constant eigenvalue fits coordinate 3 "
                 f"(sup residual {s3:.3g} > tol max(1, max|r3|) = {bound:.3g})")
    elif abs(l3) <= tol:
        notes = (
            "eigen relation holds with lambda3 = 0: harmonic profile coordinate "
            "((s-i)-minimal), excluded from null 2-type"
        )
    else:
        verdict, notes = Verdict.NULL_TWO_TYPE, "lambda1 = lambda2 = 0 with lambda3 != 0"
    return _eigen_report(OperatorKind.FIRST_FORM, fits, verdict, notes)


def _pattern_label(lam: float, mu: float, tol: float) -> str:
    lam_zero = abs(lam) <= tol
    mu_zero = abs(mu) <= tol
    if lam_zero and mu_zero:
        return (
            "pattern lambda = mu = 0: jointly unsatisfiable "
            "(B = 1/f' and B f' + 1 = 0 would force 2 = 0)"
        )
    if lam_zero:
        return "pattern lambda = 0, mu != 0: forces mu f = 2 with f non-linear; no solution"
    if mu_zero:
        return "pattern lambda != 0, mu = 0: the (s-i)-minimal log family"
    return "pattern lambda != 0 != mu: power family, jointly inconsistent"


def check_eigen_ii(s: RevolutionSurface, g: Grid, tol: float = 1e-6) -> EigenReport:
    """Fit the second-form relation using the closed coordinate forms.

    The two rotational coordinates share one fitted eigenvalue (see
    _fit_coordinates), so the pattern is read from (lambda1, lambda3).
    Raises ParabolicPointError if any grid radius has f' f'' = 0.
    """
    fits, ew = _fit_coordinates(s, g, 2)
    l1, l3 = fits[0][0], fits[2][0]
    notes = [_pattern_label(l1, l3, tol)]
    if all(_holds(fit, tol) for fit in fits) and abs(l1) > tol and abs(l3) <= tol:
        verdict = Verdict.SI_MINIMAL
        if s.profile.family is ProfileFamily.LOG_TYPE:
            notes.append(
                "log family f = (-2/lambda) ln u + c; the sign is pinned by the "
                "first-coordinate eigenvalue fit"
            )
    else:
        verdict = Verdict.NO_EIGEN_RELATION
    if (ew == -1.0).any():
        notes.append(
            "orientation: sgn(LN - M^2) = -1 on (part of) the grid; the closed "
            "coordinate forms include that sign factor"
        )
    return _eigen_report(OperatorKind.SECOND_FORM, fits, verdict, "; ".join(notes))


@dataclass(frozen=True)
class CurvatureReport:
    is_constant_k: bool
    k0: float
    k_deviation: float
    is_constant_h: bool
    h0: float
    h_deviation: float
    si_minimal: bool


def verify_constant_curvature(s: RevolutionSurface, g: Grid, tol: float = 1e-6) -> CurvatureReport:
    """Sample K(u) and H(u) over the grid radii and test for constancy."""
    _check_grid(s, g)
    f1, f2 = s.profile._jets(g.u, (1, 2))
    ks, hs = _curvatures(g.u, f1, f2)
    k0 = float(np.mean(ks))
    h0 = float(np.mean(hs))
    k_dev = float(np.max(np.abs(ks - k0)))
    h_dev = float(np.max(np.abs(hs - h0)))
    is_k = k_dev <= tol
    is_h = h_dev <= tol
    return CurvatureReport(
        is_constant_k=is_k,
        k0=k0,
        k_deviation=k_dev,
        is_constant_h=is_h,
        h0=h0,
        h_deviation=h_dev,
        si_minimal=is_h and abs(h0) <= tol,
    )


@dataclass(frozen=True)
class CertifiedProfile:
    """A profile together with the sup of its radial ODE residual
    |f'' + f'/u + lambda3 f| over the certificate sample points."""

    profile: ProfileCurve
    residual_sup: float
    sample_points: np.ndarray


def solve_radial_eigen_ode(
    lambda3: float,
    c1: float,
    c2: float,
    cfg: SeriesConfig = DEFAULT_SERIES,
    domain: tuple[float, float] | None = None,
    samples: int = 200,
) -> CertifiedProfile:
    """Solve f'' + f'/u + lambda3 f = 0 (lambda3 != 0) and certify the residual.

    Delegates to bessel_profile and evaluates the residual on a uniform
    sample of [max(0.1, lo), hi].
    """
    if lambda3 == 0.0:
        raise DomainError("the radial eigen ODE requires lambda3 != 0")
    profile = bessel_profile(lambda3, c1, c2, cfg, domain)
    lo, hi = profile.domain
    us = np.linspace(max(0.1, lo), hi, samples)
    f0, d1, d2 = profile._jets(us, (0, 1, 2))
    worst = _sup(np.abs(d2 + d1 / us + lambda3 * f0))
    return CertifiedProfile(profile=profile, residual_sup=worst, sample_points=us)


def eigen_system_residual(
    p: ProfileCurve, lam: float, mu: float, us: np.ndarray
) -> float:
    """Sup over the samples of the two second-form eigen-system defects

        |sgn(w) (B - 1/f') - lam u|   and   |sgn(w) (B f' + 1) - mu f|.

    A genuine eigen family drives both to zero; the power family cannot.
    """
    us = np.asarray(us, dtype=np.float64)
    # a timelike meridian leaves the factors unflipped
    f0, acoef, ccoef, _ = _coordinate_laplacians(RevolutionSurface(p), us, 2, value=True)
    return _sup(np.concatenate((np.abs(acoef - lam * us), np.abs(ccoef - mu * f0))))


def _sup(values: np.ndarray) -> float:
    """max(0, values) skipping NaN, as a running Python max from 0 does."""
    return float(np.fmax.reduce(values, initial=0.0))
