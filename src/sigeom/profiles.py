"""Generating curves of revolution surfaces: f(u) with closed-form derivatives.

Each constructor returns an immutable ProfileCurve carrying f and its first
three derivatives as callables on a positive closed interval (u = 0 is always
excluded; every downstream curvature and Laplacian formula divides by u).
Each family is defined once: log_profile is constant_h_profile's H = 0 member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .bessel import DEFAULT_SERIES, SeriesConfig, i0_jet, j0_jet, k0_jet, y0_jet
from .errors import DomainError, StencilError

__all__ = [
    "ProfileFamily",
    "ProfileCurve",
    "DEFAULT_DOMAIN",
    "eval_profile",
    "profile_from_jet",
    "constant_k_profile",
    "constant_h_profile",
    "bessel_profile",
    "log_profile",
    "power_profile",
    "linear_profile",
    "derivative_consistency_error",
]

DEFAULT_DOMAIN = (0.1, 10.0)


class ProfileFamily(Enum):
    CONSTANT_K = "ConstantK"
    CONSTANT_H = "ConstantH"
    BESSEL_TYPE = "BesselType"
    LOG_TYPE = "LogType"
    POWER_TYPE = "PowerType"
    CUSTOM = "Custom"


@dataclass(frozen=True)
class ProfileCurve:
    """A planar generating curve u -> f(u) with analytic derivatives d1..d3."""

    f: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]
    domain: tuple[float, float]
    family: ProfileFamily = ProfileFamily.CUSTOM
    params: dict = field(default_factory=dict)
    #: value-plus-derivatives callable that also takes an array of radii,
    #: set by profile_from_jet; `jets` calls it once per array
    jet: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise DomainError(f"profile domain must be a finite interval, got {self.domain!r}")
        if lo <= 0.0:
            raise DomainError(f"profile domain must exclude u <= 0, got {self.domain!r}")

    def evaluate(self, u: float, order: int = 0) -> float:
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be 0..3, got {order!r}")
        lo, hi = self.domain
        if not (lo <= u <= hi):
            raise self._outside(u)
        return (self.f, self.d1, self.d2, self.d3)[order](u)

    def _outside(self, u: float) -> DomainError:
        lo, hi = self.domain
        return DomainError(f"u={u!r} outside profile domain [{lo!r}, {hi!r}]")

    def jets(self, us) -> np.ndarray:
        """(4, n) array of f, f', f'', f''' at the 1-D array of radii us.

        Bit-identical to stacking `evaluate`, and raises what a loop of
        `evaluate` over us would raise first.  A profile built by
        `profile_from_jet` evaluates its jet once on the whole array.
        """
        return self._jets(us, (0, 1, 2, 3))

    def _jets(self, us, orders: tuple[int, ...]) -> np.ndarray:
        """The rows of `jets` for the derivative orders listed, raising only
        what evaluating those orders would raise: grid consumers ask for the
        orders they read, as their pointwise loops did."""
        values, exc = self._leading_jets(us, orders)
        if exc is not None:
            raise exc
        return values

    def _leading_jets(self, us, orders=(0, 1, 2, 3)) -> tuple[np.ndarray, Exception | None]:
        """Rows of `_jets` at the radii of us before the first one where a loop
        of `evaluate` would raise, and that exception (None if there is none).

        Grid consumers with checks of their own per radius use this to raise
        whichever comes first, their check or the profile's.
        """
        us = np.asarray(us, dtype=np.float64)
        if us.ndim != 1:
            raise ValueError(f"profile jets need a 1-D array of radii, got shape {us.shape}")
        lo, hi = self.domain
        inside = (lo <= us) & (us <= hi)
        n = us.size if inside.all() else int(np.argmin(inside))
        exc = None if n == us.size else self._outside(float(us[n]))
        us = us[:n]
        if self.jet is not None and n:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    values = self.jet(us)
                return np.array([np.broadcast_to(values[k], us.shape) for k in orders]), exc
            except (ArithmeticError, ValueError):
                pass  # the loop below finds the radius and its exception
        fns = [(self.f, self.d1, self.d2, self.d3)[k] for k in orders]
        rows = []
        for u in us.tolist():
            try:
                rows.append([fn(u) for fn in fns])
            except (ArithmeticError, ValueError) as err:
                exc = err
                break
        return np.array(rows).reshape(-1, len(fns)).T, exc


def eval_profile(p: ProfileCurve, u: float, order: int = 0) -> float:
    """f(u), f'(u), f''(u) or f'''(u) per order, with domain checking."""
    return p.evaluate(u, order)


def _resolve_domain(
    domain: tuple[float, float] | None, open_lo: float = 0.0
) -> tuple[float, float]:
    """Intersect the requested (or default) domain with (open_lo, inf)."""
    if domain is None:
        lo = max(DEFAULT_DOMAIN[0], open_lo + 1e-3 * max(1.0, open_lo))
        hi = DEFAULT_DOMAIN[1]
        if lo >= hi:
            raise DomainError(
                f"empty domain: natural lower bound {open_lo!r} exhausts the default range"
            )
        return (lo, hi)
    lo, hi = float(domain[0]), float(domain[1])
    if lo <= open_lo:
        raise DomainError(f"domain [{lo!r}, {hi!r}] reaches into u <= {open_lo!r}")
    if lo >= hi:
        raise DomainError(f"empty domain [{lo!r}, {hi!r}]")
    return (lo, hi)


def profile_from_jet(
    jet: Callable[[float], tuple[float, float, float, float]],
    domain: tuple[float, float],
    family: ProfileFamily = ProfileFamily.CUSTOM,
    params: dict | None = None,
) -> ProfileCurve:
    """Wrap a value-plus-derivatives callable as a ProfileCurve.

    The jet must also accept a float64 array of radii and then return four
    arrays (or floats, for components constant in u) that are bit-identical
    to calling it per radius; `ProfileCurve.jets` calls it that way.  For
    pointwise use it is memoized, so that evaluating f, d1, d2, d3 at the
    same u costs a single series evaluation.
    """
    cached = lru_cache(maxsize=4096)(jet)
    return ProfileCurve(
        f=lambda u: cached(u)[0],
        d1=lambda u: cached(u)[1],
        d2=lambda u: cached(u)[2],
        d3=lambda u: cached(u)[3],
        domain=domain,
        family=family,
        params=dict(params or {}),
        jet=jet,
    )


def constant_k_profile(
    k0: float, c1: float, offset: float = 0.0, domain: tuple[float, float] | None = None
) -> ProfileCurve:
    """Profile whose surface has constant curvature K = k0 > 0.

    f(u) = (u/2) psi + (c1 / (2 sqrt(k0))) ln|2 sqrt(k0) (sqrt(k0) u + psi)| + offset,
    psi = sqrt(c1 + k0 u^2).  Then f' = psi, f'' = k0 u / psi, f''' = k0 c1 / psi^3,
    so K = f' f'' / u = k0 identically.  The additive offset never enters K.
    Every order refuses, with a DomainError, a radius where psi overflows.
    """
    if not (k0 > 0.0):
        raise DomainError(f"constant_k_profile requires k0 > 0, got {k0!r}")
    open_lo = math.sqrt(-c1 / k0) if c1 < 0.0 else 0.0
    dom = _resolve_domain(domain, open_lo)
    rt = math.sqrt(k0)
    log_coef = c1 / (2.0 * rt)

    def psi(u: float) -> float:
        root = math.sqrt(c1 + k0 * u * u)
        if root == math.inf:
            raise DomainError(f"constant_k_profile: sqrt(c1 + k0 u^2) overflows at u = {u!r}")
        return root

    def f(u: float) -> float:
        root = psi(u)
        val = 0.5 * u * root + offset
        if c1 != 0.0:
            ln = math.log(abs(2.0 * rt * (rt * u + root)))
            if ln == math.inf:  # only where the product overflows: sum its logarithms
                ln = math.log(2.0) + math.log(rt) + math.log(rt * u + root)
            val += log_coef * ln
        return val

    def d2(u: float) -> float:
        return k0 * u / psi(u)

    def d3(u: float) -> float:
        root = psi(u)
        return k0 * c1 / (root * root * root)

    return ProfileCurve(
        f, psi, d2, d3, dom, ProfileFamily.CONSTANT_K,
        {"k0": k0, "c1": c1, "offset": offset},
    )


def constant_h_profile(
    h0: float, c1: float, c2: float, domain: tuple[float, float] | None = None
) -> ProfileCurve:
    """Profile with constant mean curvature H = h0: f = (h0/2) u^2 + c1 ln u + c2."""
    dom = _resolve_domain(domain)

    def f(u: float) -> float:
        return 0.5 * h0 * u * u + c1 * math.log(u) + c2

    def d1(u: float) -> float:
        return h0 * u + c1 / u

    def d2(u: float) -> float:
        return h0 - c1 / (u * u)

    def d3(u: float) -> float:
        return (2.0 * c1) / (u * u * u)

    return ProfileCurve(
        f, d1, d2, d3, dom, ProfileFamily.CONSTANT_H, {"h0": h0, "c1": c1, "c2": c2}
    )


def log_profile(lam: float, c: float, domain: tuple[float, float] | None = None) -> ProfileCurve:
    """f(u) = (-2/lam) ln u + c; the family whose second-form coordinate
    eigenvalues come out as (lam, lam, 0).

    It is the H = 0 member of constant_h_profile, with h0 = -0.0: that is
    the additive identity of IEEE arithmetic, so the h0 terms leave every
    bit of f, f', f'' and f''' as c1 = -2/lam alone gives them.
    """
    if lam == 0.0:
        raise DomainError("log_profile requires lam != 0")
    return replace(
        constant_h_profile(-0.0, -2.0 / lam, c, domain),
        family=ProfileFamily.LOG_TYPE,
        params={"lam": lam, "c": c},
    )


def power_profile(
    lam: float, mu: float, c: float, domain: tuple[float, float] | None = None
) -> ProfileCurve:
    """f(u) = 2/mu + c u^(mu/lam); exhibits the inconsistency of the
    both-eigenvalues-nonzero branch of the second-form eigen system.

    The exponent a = mu/lam must avoid {0, 1} (f would be constant or linear).
    """
    if lam == 0.0 or mu == 0.0 or c == 0.0:
        raise DomainError("power_profile requires lam, mu, c all nonzero")
    a = mu / lam
    if a == 0.0 or a == 1.0:
        raise DomainError(f"power_profile requires mu/lam outside {{0, 1}}, got {a!r}")
    dom = _resolve_domain(domain)
    base = 2.0 / mu

    def f(u: float) -> float:
        return base + c * math.pow(u, a)

    def d1(u: float) -> float:
        return c * a * math.pow(u, a - 1.0)

    def d2(u: float) -> float:
        return c * a * (a - 1.0) * math.pow(u, a - 2.0)

    def d3(u: float) -> float:
        return c * a * (a - 1.0) * (a - 2.0) * math.pow(u, a - 3.0)

    return ProfileCurve(
        f, d1, d2, d3, dom, ProfileFamily.POWER_TYPE, {"lam": lam, "mu": mu, "c": c}
    )


def linear_profile(a: float, b: float, domain: tuple[float, float] | None = None) -> ProfileCurve:
    """f(u) = a u + b; the K = 0 degenerate case (and parabolic everywhere)."""
    dom = _resolve_domain(domain)
    return ProfileCurve(
        f=lambda u: a * u + b,
        d1=lambda u: a,
        d2=lambda u: 0.0,
        d3=lambda u: 0.0,
        domain=dom,
        family=ProfileFamily.CUSTOM,
        params={"form": "linear", "a": a, "b": b},
    )


def bessel_profile(
    lambda3: float,
    c1: float,
    c2: float,
    cfg: SeriesConfig = DEFAULT_SERIES,
    domain: tuple[float, float] | None = None,
) -> ProfileCurve:
    """Solution family of f'' + f'/u + lambda3 f = 0 (lambda3 != 0).

    lambda3 > 0: f(u) = c1 J0(s u) + c2 Y0(s u) with s = sqrt(lambda3);
    lambda3 < 0: f(u) = c1 I0(s u) + c2 K0(s u) with s = sqrt(-lambda3).
    Derivatives come from the Bessel jets (the series' f and f', the
    higher orders from the Bessel equation), scaled by the chain rule.
    """
    if lambda3 == 0.0 or not math.isfinite(lambda3):
        raise DomainError(f"bessel_profile requires nonzero finite lambda3, got {lambda3!r}")
    s = math.sqrt(abs(lambda3))
    if lambda3 > 0.0:
        primary, secondary = j0_jet, y0_jet
    else:
        primary, secondary = i0_jet, k0_jet
    dom = _resolve_domain(domain)

    def jet(u):
        x = s * u
        if c2 == 0.0:
            raw = tuple(c1 * v for v in primary(x, cfg))
        else:
            try:
                b = secondary(x, cfg)  # its series also give the primary jet
            except DomainError:
                primary(x, cfg)  # the primary refuses a non-finite x first, as it did
                raise
            a = b.primary
            raw = tuple(c1 * a[k] + c2 * b[k] for k in range(4))
        return (raw[0], s * raw[1], s * s * raw[2], s * s * s * raw[3])

    return profile_from_jet(
        jet, dom, ProfileFamily.BESSEL_TYPE, {"lambda3": lambda3, "c1": c1, "c2": c2}
    )


def derivative_consistency_error(p: ProfileCurve, n_points: int = 20, seed: int = 0) -> float:
    """Worst relative deviation between d1..d3 and five-point central
    differences of f at n_points interior samples.

    The relative denominator is floored at 1 so that near-zero derivatives
    do not blow the ratio up.  Raises StencilError where a stencil u +- 2h,
    h = 5e-4 max(1, |u|), would leave the profile domain.
    """
    import random

    lo, hi = p.domain
    span = hi - lo
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_points):
        u = lo + span * (0.06 + 0.88 * rng.random())
        h = 5e-4 * max(1.0, abs(u))
        if u - 2.0 * h < lo or u + 2.0 * h > hi:
            raise StencilError(
                f"five-point stencil of step h={h!r} leaves the profile domain "
                f"[{lo!r}, {hi!r}] at u={u!r}"
            )
        fm2, fm1, f0, fp1, fp2 = (p.f(u + k * h) for k in (-2, -1, 0, 1, 2))
        fd1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
        fd2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
        fd3 = (fp2 - 2.0 * fp1 + 2.0 * fm1 - fm2) / (2.0 * h * h * h)
        for got, ref in ((p.d1(u), fd1), (p.d2(u), fd2), (p.d3(u), fd3)):
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return worst
