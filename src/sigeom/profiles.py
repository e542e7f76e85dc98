"""Generating curves of revolution surfaces: f(u) with closed-form derivatives.

Each constructor returns an immutable ProfileCurve carrying f and its first
three derivatives as one jet, at a radius or an array of radii, on a positive
closed interval (u = 0 is always excluded; every downstream curvature and
Laplacian formula divides by u).  Each family is defined once: log_profile
is constant_h_profile's H = 0 member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .bessel import DEFAULT_SERIES, SeriesConfig, i0_jet, j0_jet, k0_jet, y0_jet
from .bessel import _is_array, _per_element
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
_ORDERS = (0, 1, 2, 3)


class ProfileFamily(Enum):
    CONSTANT_K = "ConstantK"
    CONSTANT_H = "ConstantH"
    BESSEL_TYPE = "BesselType"
    LOG_TYPE = "LogType"
    POWER_TYPE = "PowerType"
    CUSTOM = "Custom"


@dataclass(frozen=True)
class ProfileCurve:
    """A planar generating curve u -> f(u), given by its jet: jet(u, orders)
    lists those orders of (f, f', f'', f'''), all four by default, at a float
    u or a 1-D float64 array of radii (a row may be a float where it is
    constant in u).  At a float it raises what computing those orders in
    turn raises (`profile_from_jet` computes all four at once); at an array
    it has the float calls' bits, and raises an ArithmeticError or
    ValueError where one of them raises (or may, where one gives nan)."""

    jet: Callable
    domain: tuple[float, float]
    family: ProfileFamily = ProfileFamily.CUSTOM
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise DomainError(f"profile domain must be a finite interval, got {self.domain!r}")
        if lo <= 0.0:
            raise DomainError(f"profile domain must exclude u <= 0, got {self.domain!r}")

    def evaluate(self, u: float, order: int = 0) -> float:
        if order not in _ORDERS:
            raise ValueError(f"derivative order must be 0..3, got {order!r}")
        lo, hi = self.domain
        if not (lo <= u <= hi):
            raise self._outside(u)
        return self.jet(u, (order,))[0]

    def _outside(self, u: float) -> DomainError:
        lo, hi = self.domain
        return DomainError(f"u={u!r} outside profile domain [{lo!r}, {hi!r}]")

    def jets(self, us) -> np.ndarray:
        """(4, n) array of f, f', f'', f''' at the 1-D array of radii us.

        Bit-identical to stacking `evaluate`, and raises what a loop of
        `evaluate` over us would raise first, from one call of the jet.
        """
        return self._jets(us, _ORDERS)

    def _jets(self, us, orders: tuple[int, ...]) -> np.ndarray:
        """The rows of `jets` for the derivative orders listed, raising only
        what evaluating those orders would raise: grid consumers ask for the
        orders they read, as their pointwise loops did."""
        values, exc = self._leading_jets(us, orders)
        if exc is not None:
            raise exc
        return values

    def _leading_jets(self, us, orders=_ORDERS) -> tuple[np.ndarray, Exception | None]:
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
        if n:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    values = self.jet(us, orders)
                return np.array([np.broadcast_to(v, us.shape) for v in values]), exc
            except (ArithmeticError, ValueError):
                pass  # the jet's float calls below find the radius and its exception
        rows = []
        for u in us.tolist():
            try:
                rows.append(self.jet(u, orders))
            except (ArithmeticError, ValueError) as err:
                exc = err
                break
        return np.array(rows).reshape(-1, len(orders)).T, exc


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


def _closed_form_jet(rows: Callable, *libm: Callable) -> Callable:
    """The jet whose orders are rows(*libm), functions of u in IEEE + - * /
    and the functions of one radius in libm, which at an array run per
    element (`_per_element`), for the float calls' bits; there a division by
    zero or an invalid operation raises."""
    at_float = rows(*libm)
    at_array = rows(*(partial(_per_element, fn) for fn in libm))

    def jet(u, orders=_ORDERS):
        if isinstance(u, float) or not _is_array(u):
            if len(orders) == 1:  # what `evaluate` asks for, on the cheapest path
                return (at_float[orders[0]](u),)
            return [at_float[k](u) for k in orders]
        with np.errstate(divide="raise", over="ignore", invalid="raise"):
            return [at_array[k](u) for k in orders]

    return jet


def profile_from_jet(
    jet: Callable[[float], tuple[float, float, float, float]],
    domain: tuple[float, float],
    family: ProfileFamily = ProfileFamily.CUSTOM,
    params: dict | None = None,
) -> ProfileCurve:
    """Wrap a value-plus-derivatives callable as a ProfileCurve.

    The jet must also accept a float64 array of radii and then return four
    arrays (or floats, for components constant in u) that are bit-identical
    to calling it per radius.  Its float calls are memoized, so that
    pointwise readers asking for f', f'' and f''' one at a time at the same
    u cost a single evaluation.
    """
    cached = lru_cache(maxsize=4096)(jet)

    def orders_jet(u, orders=_ORDERS):
        values = cached(u) if isinstance(u, float) or not _is_array(u) else jet(u)
        return (values[orders[0]],) if len(orders) == 1 else [values[k] for k in orders]

    return ProfileCurve(orders_jet, domain, family, dict(params or {}))


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

    def d3(u: float) -> float:
        root = psi(u)
        return k0 * c1 / (root * root * root)

    def rows(f, psi, d3):
        return (f, psi, lambda u: k0 * u / psi(u), d3)

    jet = _closed_form_jet(rows, f, psi, d3)
    return ProfileCurve(jet, dom, ProfileFamily.CONSTANT_K, {"k0": k0, "c1": c1, "offset": offset})


def constant_h_profile(
    h0: float, c1: float, c2: float, domain: tuple[float, float] | None = None
) -> ProfileCurve:
    """Profile with constant mean curvature H = h0: f = (h0/2) u^2 + c1 ln u + c2."""
    dom = _resolve_domain(domain)

    def rows(log):
        return (
            lambda u: 0.5 * h0 * u * u + c1 * log(u) + c2,
            lambda u: h0 * u + c1 / u,
            lambda u: h0 - c1 / (u * u),
            lambda u: (2.0 * c1) / (u * u * u),
        )

    jet = _closed_form_jet(rows, math.log)
    return ProfileCurve(jet, dom, ProfileFamily.CONSTANT_H, {"h0": h0, "c1": c1, "c2": c2})


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

    def rows(pow):
        return (
            lambda u: base + c * pow(u, a),
            lambda u: c * a * pow(u, a - 1.0),
            lambda u: c * a * (a - 1.0) * pow(u, a - 2.0),
            lambda u: c * a * (a - 1.0) * (a - 2.0) * pow(u, a - 3.0),
        )

    jet = _closed_form_jet(rows, math.pow)
    return ProfileCurve(jet, dom, ProfileFamily.POWER_TYPE, {"lam": lam, "mu": mu, "c": c})


def linear_profile(a: float, b: float, domain: tuple[float, float] | None = None) -> ProfileCurve:
    """f(u) = a u + b; the K = 0 degenerate case (and parabolic everywhere)."""
    dom = _resolve_domain(domain)
    rows = (lambda u: a * u + b, lambda u: a, lambda u: 0.0, lambda u: 0.0)
    jet = _closed_form_jet(lambda: rows)
    return ProfileCurve(jet, dom, ProfileFamily.CUSTOM, {"form": "linear", "a": a, "b": b})


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
    Derivatives come from the Bessel jets, scaled by the chain rule.
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
                b = secondary(x, cfg)
            except DomainError:
                primary(x, cfg)  # the primary refuses a non-finite x first, as it did
                raise
            # Y0's pass also sums the J0 jet; K0's primary, the I0 jet, is
            # summed on reading, so a K0-only profile sums no I0
            a = b.primary if c1 != 0.0 else (0.0,) * 4
            raw = tuple(c1 * a[k] + c2 * b[k] for k in range(4))
        return (raw[0], s * raw[1], s * s * raw[2], s * s * s * raw[3])

    return profile_from_jet(
        jet, dom, ProfileFamily.BESSEL_TYPE, {"lambda3": lambda3, "c1": c1, "c2": c2}
    )


def derivative_consistency_error(p: ProfileCurve, n_points: int = 20, seed: int = 0) -> float:
    """Worst relative deviation between f', f'', f''' and five-point central
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
        fm2, fm1, f0, fp1, fp2 = (p.jet(u + k * h, (0,))[0] for k in (-2, -1, 0, 1, 2))
        fd1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
        fd2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
        fd3 = (fp2 - 2.0 * fp1 + 2.0 * fm1 - fm2) / (2.0 * h * h * h)
        for got, ref in zip(p.jet(u, (1, 2, 3)), (fd1, fd2, fd3)):
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return worst
