"""Special functions built from truncated power series.

The module provides the gamma function, the rising factorial, harmonic
numbers, and the six Bessel-family functions J_{+-p}, J0, Y0, I0, K0 as
truncated series about the regular singular point x = 0, together with a
finite-difference ODE residual used as a self-check.

Accuracy notes.  The order-zero series cancel catastrophically for moderate
x (at x = 10 the largest J0 term is ~678 against a sum of ~0.25, and K0
is the difference of two ~6000-sized pieces), so all series are accumulated
in double-double arithmetic and rounded once at the end; Y0 and K0 are summed
in the merged form sum_n (phi(n) -/+ L) * term_n with L = ln(x/2) + gamma
carried in double-double, which keeps their absolute error at the level of
the final rounding even where the two textbook pieces nearly cancel.

Grid evaluation.  The order-zero jets also take a float64 array of
arguments, which is how profile jets are evaluated on a grid of radii: each
series then runs once over the whole array.  Every element performs the
same double-double operations as a pointwise call, and its sums are frozen
at the term where the pointwise loop stops, so the results are
bit-identical.  Only IEEE + - * / and square roots run on whole arrays;
libm calls (log, pow and Python's **) stay per element with the same Python
call, because numpy's vectorized versions can differ in the last bit.
Arrays shorter than _MIN_ARRAY_LANES use the pointwise kernels, which are
faster there.  y0_jet and k0_jet can reuse the J0/I0 series that a j0_jet
or i0_jet call at the same x has already summed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _ddouble as dd
from .errors import DomainError, NonConvergenceError

__all__ = [
    "EULER_GAMMA",
    "SeriesConfig",
    "DEFAULT_SERIES",
    "BesselKind",
    "PrecisionLossWarning",
    "gamma",
    "pochhammer",
    "harmonic",
    "bessel_j",
    "bessel_j0",
    "bessel_y0",
    "bessel_i0",
    "bessel_k0",
    "j0_jet",
    "y0_jet",
    "i0_jet",
    "k0_jet",
    "jp_jet",
    "ode_residual",
    "jp_pair_solution",
    "modified_pair_solution",
]

#: Euler-Mascheroni constant; its correctness is pinned by the
#: harmonic-number limit test rather than trusted blindly.
EULER_GAMMA = 0.57721566490153286

_EULER_GAMMA_DD = (EULER_GAMMA, -4.942915152430645e-18)
_PI_DD = (3.141592653589793, 1.2246467991473532e-16)
_TWO_OVER_PI_DD = dd.div((2.0, 0.0), _PI_DD)

# Series-based J values lose relative accuracy past this argument
# (cancellation outgrows the compensated accumulation).
_LARGE_X = 30.0

# Arrays shorter than this sum their series and logarithms element by
# element with the scalar kernels.  The array kernels cost about 1 ms per
# call in numpy dispatch whatever the length; j0_jet/k0_jet on x in
# [0.1, 9] measured the two paths even between 21 and 26 elements, with the
# scalar one 5-20% faster at 21 (the classifier's default grid).
_MIN_ARRAY_LANES = 24


class PrecisionLossWarning(UserWarning):
    """Emitted when an argument leaves the accuracy contract of a series."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy: stop once two consecutive terms fall below
    rel_tol times the running sum, fail after max_terms."""

    rel_tol: float = 1e-15
    max_terms: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms!r}")


DEFAULT_SERIES = SeriesConfig()


@dataclass(frozen=True)
class BesselKind:
    """Which sign the (x^2 - p^2) term carries in the defining equation.

    modified=False: x^2 y'' + x y' + (x^2 - p^2) y = 0
    modified=True:  x^2 y'' + x y' - (x^2 - p^2) y = 0
    """

    modified: bool = False
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.p < 0.0 or not math.isfinite(self.p):
            raise ValueError(f"order p must be finite and >= 0, got {self.p!r}")


# ----------------------------------------------------------------------
# gamma, rising factorial, harmonic numbers


_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = 2.5066282746310002


def gamma(x: float) -> float:
    """Gamma function by a fixed-coefficient rational (Lanczos) approximation.

    Contract: relative error <= 1e-12 on (0, 50].  Negative non-integer
    arguments are handled through the reflection formula; poles raise.
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma requires a finite argument, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma has a pole at {x!r}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * math.exp((z + 0.5) * math.log(t) - t) * acc


def pochhammer(k: float, n: int) -> float:
    """Rising factorial k (k+1) ... (k+n-1); equals 1 for n = 0."""
    if n < 0:
        raise ValueError(f"pochhammer requires n >= 0, got {n!r}")
    result = 1.0
    for i in range(n):
        result *= k + i
    return result


def harmonic(n: int) -> float:
    """Sum of 1/m for m = 1..n; the empty sum for n = 0."""
    if n < 0:
        raise ValueError(f"harmonic requires n >= 0, got {n!r}")
    return math.fsum(1.0 / m for m in range(1, n + 1))


# ----------------------------------------------------------------------
# series kernels (double-double internals)


def _small(term_hi: float, sum_hi: float, rel_tol: float) -> bool:
    if sum_hi != 0.0:
        return abs(term_hi) <= rel_tol * abs(sum_hi)
    return term_hi == 0.0


def _add_derivative_terms(sums: list[dd.DD], t: dd.DD, m: int, x: float) -> None:
    """Add the term-wise derivatives of the series term t, of degree m in x,
    to sums[1:] in place: the k-th is t m (m-1) ... (m-k+1) / x^k, and none
    is added once k > m.  Unrolled: as a loop over k it made the order-3
    kernels about 9% slower."""
    orders = len(sums) - 1
    if orders >= 1 and m >= 1:
        sums[1] = dd.add(sums[1], dd.div_f(dd.mul_f(t, float(m)), x))
    if orders >= 2 and m >= 2:
        sums[2] = dd.add(sums[2], dd.div_f(dd.mul_f(t, float(m * (m - 1))), x * x))
    if orders >= 3 and m >= 3:
        sums[3] = dd.add(
            sums[3], dd.div_f(dd.mul_f(t, float(m * (m - 1) * (m - 2))), x * x * x)
        )


def _series(x: float, sign: float, cfg: SeriesConfig, orders: int, weighted: bool) -> list[dd.DD]:
    """Sums of sum_n w(n) sign^n (x/2)^(2n) / (n!)^2 and its first `orders`
    term-wise derivatives, with w = 1 (weighted=False: J0, I0) or w = phi(n),
    the harmonic numbers (weighted=True; phi(0) = 0, so the n = 0 term
    vanishes).  Requires x != 0 when orders > 0."""
    q = dd.mul_f(dd.two_prod(x, x), 0.25 * sign)
    sums = [(0.0, 0.0)] * (orders + 1)
    b = (1.0, 0.0)
    phi = (0.0, 0.0)
    streak = 0
    n = 0
    while n < cfg.max_terms:
        t = dd.mul(b, phi) if weighted else b
        sums[0] = dd.add(sums[0], t)
        if orders:
            _add_derivative_terms(sums, t, 2 * n, x)
        n += 1
        b = dd.div_f(dd.mul(b, q), float(n * n))
        if weighted:
            phi = dd.add(phi, dd.div_f((1.0, 0.0), float(n)))
        if _small(b[0] * phi[0] if weighted else b[0], sums[0][0], cfg.rel_tol):
            streak += 1
            if streak >= 2:
                return sums
        else:
            streak = 0
    raise NonConvergenceError(
        f"series did not meet rel_tol={cfg.rel_tol} within {cfg.max_terms} terms at x={x!r}"
    )


def _merged_log_series(x: float, sign: float, ell: dd.DD, cfg: SeriesConfig) -> dd.DD:
    """sum_n (phi(n) - ell) sign^n (x/2)^(2n) / (n!)^2.

    This is K0 (sign +1) and -(pi/2) Y0 (sign -1) in a single sum, which makes
    the stopping rule reference the cancelled total rather than the two large
    textbook pieces, preserving absolute accuracy for small results.
    """
    q = dd.mul_f(dd.two_prod(x, x), 0.25 * sign)
    s = (0.0, 0.0)
    b = (1.0, 0.0)
    phi = (0.0, 0.0)
    streak = 0
    n = 0
    while n < cfg.max_terms:
        t = dd.mul(b, dd.add(phi, dd.neg(ell)))
        s = dd.add(s, t)
        n += 1
        b = dd.div_f(dd.mul(b, q), float(n * n))
        phi = dd.add(phi, dd.div_f((1.0, 0.0), float(n)))
        nxt = b[0] * (phi[0] - ell[0])
        if _small(nxt, s[0], cfg.rel_tol):
            streak += 1
            if streak >= 2:
                return s
        else:
            streak = 0
    raise NonConvergenceError(
        f"series did not meet rel_tol={cfg.rel_tol} within {cfg.max_terms} terms at x={x!r}"
    )


def _is_array(x) -> bool:
    """True for the arrays that take the array paths; a 0-d array is a scalar."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _per_element(fn, *args):
    """fn(*args) for floats; for arrays, fn on every element as Python floats.

    Array code calls libm (math.* and Python's **) through this, because
    numpy's vectorized versions can differ from them in the last bit.
    """
    if not any(_is_array(a) for a in args):
        return fn(*args)
    cols = [np.broadcast_to(a, np.broadcast(*args).shape).tolist() for a in args]
    return np.array([fn(*vals) for vals in zip(*cols)], dtype=np.float64)


def _ipow(v, k: int):
    """v**k with Python's float power, per element for arrays."""
    return _per_element(lambda e: e**k, v)


def _stack_dd(per_element: list) -> list[dd.DD]:
    """Per-element lists [lane][k] of double-doubles to one (hi, lo) pair of
    arrays per k."""
    return [
        (np.array([v[0] for v in col]), np.array([v[1] for v in col]))
        for col in zip(*per_element)
    ]


def _series_array(x: np.ndarray, sign: float, cfg: SeriesConfig, weighted: bool) -> list[dd.DD]:
    """`_series` with orders = 3 at every element of an array x with no zeros.

    Each lane runs the double-double operations of the scalar loop, and its
    sums are frozen at the term where the scalar loop would return, so the
    results are bit-identical to summing each element on its own.  The three
    derivative terms are computed as one (3, n) operation per term.  Short
    arrays run the scalar kernel per element, which costs less there.
    """
    if x.size < _MIN_ARRAY_LANES:
        return _stack_dd([_series(v, sign, cfg, 3, weighted) for v in x.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        q = dd.mul_f(dd.two_prod(x, x), 0.25 * sign)
        xx = x * x
        divisors = np.stack((x, xx, xx * x))
        sums = (np.zeros((4, x.size)), np.zeros((4, x.size)))
        hi = np.empty((4, x.size))
        lo = np.empty((4, x.size))
        pending = np.ones(x.size, dtype=bool)
        was_small = np.zeros(x.size, dtype=bool)
        b = (np.ones(x.size), np.zeros(x.size))
        phi = (0.0, 0.0)
        n = 0
        while n < cfg.max_terms:
            t = dd.mul(b, phi) if weighted else b
            m = 2 * n
            rows = min(m, 3)  # the k-th derivative takes a term once m >= k
            if rows:
                fac = np.array((m, m * (m - 1), m * (m - 1) * (m - 2))[:rows], dtype=np.float64)
                d = dd.div_f(dd.mul_f(t, fac[:, None]), divisors[:rows])
                terms = (np.concatenate((t[0][None], d[0])), np.concatenate((t[1][None], d[1])))
            else:
                terms = (t[0][None], t[1][None])
            if rows == 3:
                sums = dd.add(sums, terms)
            else:
                head = dd.add((sums[0][: rows + 1], sums[1][: rows + 1]), terms)
                sums = (
                    np.concatenate((head[0], sums[0][rows + 1 :])),
                    np.concatenate((head[1], sums[1][rows + 1 :])),
                )
            n += 1
            b = dd.div_f(dd.mul(b, q), float(n * n))
            if weighted:
                phi = dd.add(phi, dd.div_f((1.0, 0.0), float(n)))
                lead = b[0] * phi[0]
            else:
                lead = b[0]
            # `_small` in one expression: with a zero sum it is |lead| <= 0, which
            # is lead == 0; a streak of two is a small term now and one before
            small = np.abs(lead) <= cfg.rel_tol * np.abs(sums[0][0])
            stop = pending & small & was_small
            was_small = small
            if stop.any():
                hi[:, stop] = sums[0][:, stop]
                lo[:, stop] = sums[1][:, stop]
                pending &= ~stop
                if not pending.any():
                    return list(zip(hi, lo))
    raise NonConvergenceError(
        f"series did not meet rel_tol={cfg.rel_tol} within {cfg.max_terms} terms "
        f"at x={float(x[np.argmax(pending)])!r}"
    )


def _log_half_dd(x) -> dd.DD:
    """ln(x/2) + gamma in double-double; x may be a float64 array."""
    if _is_array(x):
        if x.size < _MIN_ARRAY_LANES:
            ln = _stack_dd([[dd.log(v)] for v in (0.5 * x).tolist()])[0]
        else:
            ln = dd.log_array(0.5 * x)
        return dd.add(ln, _EULER_GAMMA_DD)
    return dd.add(dd.log(0.5 * x), _EULER_GAMMA_DD)


# ----------------------------------------------------------------------
# order-zero values


def bessel_j0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """J0(x) = sum_n (-1)^n (x/2)^(2n) / (n!)^2; entire and even."""
    return dd.to_float(_series(x, -1.0, cfg, 0, False)[0])


def bessel_i0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """I0(x) = sum_n (x/2)^(2n) / (n!)^2; entire, even, >= 1."""
    return dd.to_float(_series(x, 1.0, cfg, 0, False)[0])


def bessel_y0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Y0(x) = (2/pi) { (ln(x/2) + gamma) J0(x) - sum_n (-1)^n phi(n) (x/2)^(2n)/(n!)^2 }."""
    if x <= 0.0:
        raise DomainError(f"y0 requires x > 0, got {x!r}")
    merged = _merged_log_series(x, -1.0, _log_half_dd(x), cfg)
    return dd.to_float(dd.mul(_TWO_OVER_PI_DD, dd.neg(merged)))


def bessel_k0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """K0(x) = -(ln(x/2) + gamma) I0(x) + sum_n phi(n) (x/2)^(2n)/(n!)^2."""
    if x <= 0.0:
        raise DomainError(f"k0 requires x > 0, got {x!r}")
    return dd.to_float(_merged_log_series(x, 1.0, _log_half_dd(x), cfg))


# ----------------------------------------------------------------------
# jets: value and term-wise series derivatives up to third order


class _Order0Jet(tuple):
    """(f, f', f'', f''') of J0 or I0 at x, carrying the double-double series
    sums it was rounded from, so that Y0 or K0 at the same x can reuse them."""

    def __new__(cls, sums: list[dd.DD], x, cfg: SeriesConfig):
        self = super().__new__(cls, (dd.to_float(v) for v in sums))
        self.sums, self.x, self.cfg = sums, x, cfg
        return self


def _sums(x, sign: float, cfg: SeriesConfig, weighted: bool) -> list[dd.DD]:
    """Order-3 sums of `_series` at x, a float or an array."""
    if _is_array(x):
        return _series_array(x, sign, cfg, weighted)
    return _series(x, sign, cfg, 3, weighted)


def _order0_jet(x, sign: float, cfg: SeriesConfig, at_zero: tuple[float, float, float, float]):
    if _is_array(x):
        zero = x == 0.0
        if zero.any():
            values = np.array(at_zero)[:, None].repeat(x.size, axis=1)
            values[:, ~zero] = _order0_jet(x[~zero], sign, cfg, at_zero)
            return tuple(values)
    elif x == 0.0:
        return at_zero
    return _Order0Jet(_sums(x, sign, cfg, False), x, cfg)


def _order0_sums(jet, x, cfg: SeriesConfig, sign: float) -> list[dd.DD]:
    """The J0/I0 series sums of `jet`, which must come from the same x and
    cfg, or freshly summed ones when jet is None."""
    if jet is None:
        return _sums(x, sign, cfg, False)
    if not (jet.x is x or np.array_equal(jet.x, x)) or jet.cfg != cfg:
        raise ValueError("the reused jet was computed at a different x or series config")
    return jet.sums


def _require_positive(x, name: str) -> None:
    if _is_array(x):
        bad = x <= 0.0
        if bad.any():
            raise DomainError(f"{name} requires x > 0, got {float(x[np.argmax(bad)])!r}")
    elif x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got {x!r}")


def j0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(J0, J0', J0'', J0''')(x) by term-wise differentiation of the series.

    x may be a 1-D float64 array: each component is then an array,
    bit-identical to evaluating every element on its own.
    """
    return _order0_jet(x, -1.0, cfg, (1.0, 0.0, -0.5, 0.0))


def i0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(I0, I0', I0'', I0''')(x); x may be a 1-D float64 array."""
    return _order0_jet(x, 1.0, cfg, (1.0, 0.0, 0.5, 0.0))


def y0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES, j0=None) -> tuple[float, float, float, float]:
    """(Y0, Y0', Y0'', Y0''')(x), assembling the log factor by the product rule.

    x may be a 1-D float64 array.  Passing j0 = j0_jet(x, cfg) reuses the J0
    series that call summed instead of summing it again.
    """
    _require_positive(x, "y0")
    j = _order0_sums(j0, x, cfg, -1.0)
    s = _sums(x, -1.0, cfg, True)
    ell = _log_half_dd(x)
    inv = 1.0 / x
    out = []
    # (ell*J0)^(k) expanded with ell' = 1/x, ell'' = -1/x^2, ell''' = 2/x^3
    g0 = dd.add(dd.mul(ell, j[0]), dd.neg(s[0]))
    g1 = dd.add(dd.add(dd.mul(ell, j[1]), dd.mul_f(j[0], inv)), dd.neg(s[1]))
    g2 = dd.add(
        dd.add(dd.mul(ell, j[2]), dd.mul_f(j[1], 2.0 * inv)),
        dd.add(dd.mul_f(j[0], -inv * inv), dd.neg(s[2])),
    )
    g3 = dd.add(
        dd.add(dd.mul(ell, j[3]), dd.mul_f(j[2], 3.0 * inv)),
        dd.add(
            dd.add(dd.mul_f(j[1], -3.0 * inv * inv), dd.mul_f(j[0], 2.0 * _ipow(inv, 3))),
            dd.neg(s[3]),
        ),
    )
    for g in (g0, g1, g2, g3):
        out.append(dd.to_float(dd.mul(_TWO_OVER_PI_DD, g)))
    return tuple(out)


def k0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES, i0=None) -> tuple[float, float, float, float]:
    """(K0, K0', K0'', K0''')(x); x may be a 1-D float64 array.  Passing

    i0 = i0_jet(x, cfg) reuses the I0 series that call summed."""
    _require_positive(x, "k0")
    i = _order0_sums(i0, x, cfg, 1.0)
    t = _sums(x, 1.0, cfg, True)
    ell = _log_half_dd(x)
    inv = 1.0 / x
    nl = dd.neg(ell)
    g0 = dd.add(dd.mul(nl, i[0]), t[0])
    g1 = dd.add(dd.add(dd.mul(nl, i[1]), dd.mul_f(i[0], -inv)), t[1])
    g2 = dd.add(
        dd.add(dd.mul(nl, i[2]), dd.mul_f(i[1], -2.0 * inv)),
        dd.add(dd.mul_f(i[0], inv * inv), t[2]),
    )
    g3 = dd.add(
        dd.add(dd.mul(nl, i[3]), dd.mul_f(i[2], -3.0 * inv)),
        dd.add(
            dd.add(dd.mul_f(i[1], 3.0 * inv * inv), dd.mul_f(i[0], -2.0 * _ipow(inv, 3))),
            t[3],
        ),
    )
    return tuple(dd.to_float(g) for g in (g0, g1, g2, g3))


# ----------------------------------------------------------------------
# non-integer order


def _check_jp_args(p: float, x: float) -> None:
    if not (math.isfinite(p) and math.isfinite(x)):
        raise DomainError("bessel_j requires finite arguments")
    if float(2.0 * p) == math.floor(2.0 * p):
        raise DomainError(f"bessel_j requires 2p to be a non-integer, got p={p!r}")
    if x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0 for non-integer order, got {x!r}")
    if x == 0.0 and p < 0.0:
        raise DomainError(f"bessel_j diverges at x = 0 for negative order p={p!r}")
    if abs(x) > _LARGE_X:
        warnings.warn(
            f"bessel_j series loses accuracy for |x| > {_LARGE_X} (x={x!r})",
            PrecisionLossWarning,
            stacklevel=3,
        )


def _jp_sums(p: float, x: float, cfg: SeriesConfig, orders: int) -> list[dd.DD]:
    """Sums of S(x) = sum_n (-1)^n (x/2)^(2n) / ((1+p)_n n!) and derivatives."""
    q = dd.mul_f(dd.two_prod(x, x), -0.25)
    sums = [(0.0, 0.0)] * (orders + 1)
    t = (1.0, 0.0)
    streak = 0
    n = 0
    while n < cfg.max_terms:
        sums[0] = dd.add(sums[0], t)
        if orders:
            _add_derivative_terms(sums, t, 2 * n, x)
        n += 1
        t = dd.div(dd.mul(t, q), dd.two_prod(float(n), p + n))
        if _small(t[0], sums[0][0], cfg.rel_tol):
            streak += 1
            if streak >= 2:
                return sums
        else:
            streak = 0
    raise NonConvergenceError(
        f"series did not meet rel_tol={cfg.rel_tol} within {cfg.max_terms} terms at x={x!r}"
    )


def bessel_j(p: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """J_p(x) = (x/2)^p / Gamma(1+p) * sum_n (-1)^n (x/2)^(2n) / ((1+p)_n n!).

    p may be negative (the second Frobenius branch); 2p must not be an integer.
    """
    _check_jp_args(p, x)
    if x == 0.0:
        return 0.0  # p > 0 here; the x^p prefactor wins
    pref = math.pow(0.5 * x, p) / gamma(1.0 + p)
    return pref * dd.to_float(_jp_sums(p, x, cfg, 0)[0])


def jp_jet(p: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(J_p, J_p', J_p'', J_p''')(x) for x > 0 via the product rule on
    A(x) = x^p / (2^p Gamma(1+p)) and the term-wise differentiated sum."""
    _check_jp_args(p, x)
    if x == 0.0:
        raise DomainError("jp_jet requires x > 0")
    s = [dd.to_float(v) for v in _jp_sums(p, x, cfg, 3)]
    a0 = math.pow(0.5 * x, p) / gamma(1.0 + p)
    a1 = p * a0 / x
    a2 = p * (p - 1.0) * a0 / (x * x)
    a3 = p * (p - 1.0) * (p - 2.0) * a0 / (x * x * x)
    return (
        a0 * s[0],
        a1 * s[0] + a0 * s[1],
        a2 * s[0] + 2.0 * a1 * s[1] + a0 * s[2],
        a3 * s[0] + 3.0 * a2 * s[1] + 3.0 * a1 * s[2] + a0 * s[3],
    )


# ----------------------------------------------------------------------
# residual self-check and solution combinations


def ode_residual(kind: BesselKind, y: Callable[[float], float], x: float, h: float) -> float:
    """x^2 y'' + x y' +/- (x^2 - p^2) y with five-point central differences.

    The caller interprets the magnitude; no thresholding happens here.  The
    stencil reaches x +/- 2h, which must stay inside y's domain.
    """
    if h <= 0.0:
        raise DomainError(f"ode_residual requires h > 0, got {h!r}")
    ym2 = y(x - 2.0 * h)
    ym1 = y(x - h)
    y0 = y(x)
    yp1 = y(x + h)
    yp2 = y(x + 2.0 * h)
    d1 = (-yp2 + 8.0 * yp1 - 8.0 * ym1 + ym2) / (12.0 * h)
    d2 = (-yp2 + 16.0 * yp1 - 30.0 * y0 + 16.0 * ym1 - ym2) / (12.0 * h * h)
    sign = -1.0 if kind.modified else 1.0
    return x * x * d2 + x * d1 + sign * (x * x - kind.p * kind.p) * y0


def jp_pair_solution(
    p: float, c1: float, c2: float, cfg: SeriesConfig = DEFAULT_SERIES
) -> Callable[[float], float]:
    """General solution c1 J_p + c2 J_{-p} of the order-p equation (2p non-integer)."""

    def y(x: float) -> float:
        return c1 * bessel_j(p, x, cfg) + c2 * bessel_j(-p, x, cfg)

    return y


def modified_pair_solution(
    c1: float, c2: float, cfg: SeriesConfig = DEFAULT_SERIES
) -> Callable[[float], float]:
    """General solution c1 I0 + c2 K0 of the modified order-zero equation."""

    def y(x: float) -> float:
        out = c1 * bessel_i0(x, cfg)
        if c2 != 0.0:
            out += c2 * bessel_k0(x, cfg)
        return out

    return y
