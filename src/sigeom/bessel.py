"""Special functions built from truncated power series.

The module provides the gamma function, the rising factorial, harmonic
numbers, and the six Bessel-family functions J_{+-p}, J0, Y0, I0, K0 as
truncated series about the regular singular point x = 0, all summed by
`_series` or its array twin, together with a finite-difference ODE residual
used as a self-check.

Accuracy notes.  The order-zero series cancel catastrophically for moderate
x (at x = 10 the largest J0 term is ~678 against a sum of ~0.25, and K0
is the difference of two ~6000-sized pieces), so all series are accumulated
in double-double arithmetic and rounded once at the end.  The Y0 and K0
values are the ell-offset row of `_series`, one merged sum stopped on the
cancelled total, which keeps their absolute error at the level of the final
rounding even where the two textbook pieces nearly cancel.  The Y0 and K0
jets share one assembly (`_log_jet`) from J0/I0 and phi-weighted sums that
are summed and stopped apart: not the merged form, so they lose accuracy
where the pieces cancel.

Grid evaluation.  The order-zero values and jets and J_p's value also take
a float64 array of arguments, which is how profile jets are evaluated on a
grid of radii and how the CLI tabulates: each series then runs once over the
array, each term as one pass over four stacked rows (see _series_array).
Every element performs the same double-double operations as a pointwise
call, and its sums are frozen at the term where the pointwise loop stops, so
the results are bit-identical at any array length.  Only IEEE + - * / and
square roots run on whole arrays; libm calls (log, pow and Python's **) stay
per element with the same Python call, because numpy's vectorized versions
can differ in the last bit.  y0_jet and k0_jet can reuse the J0/I0 series
that a j0_jet or i0_jet call at the same x has already summed.
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


def _series(
    x: float, sign: float, cfg: SeriesConfig, orders: int, weighted: bool, ell: dd.DD = (0.0, 0.0),
    p: float = 0.0,
) -> list[dd.DD]:
    """Sums of sum_n w(n) sign^n (x/2)^(2n) / (n! (1+p)_n) and its first
    `orders` term-wise derivatives, with w = 1 (weighted=False: J0, I0 and,
    with sign -1, the sum of J_p) or w = phi(n) - ell, phi the harmonic
    numbers (weighted=True; phi(0) = 0).  Requires x != 0 when orders > 0.

    With ell = ln(x/2) + gamma, row 0 of the weighted sums is K0 (sign +1)
    and -(pi/2) Y0 (sign -1) in a single sum whose stopping rule references
    the cancelled total, not the two large textbook pieces.
    """
    q = dd.mul_f(dd.two_prod(x, x), 0.25 * sign)
    nell = dd.neg(ell)
    sums = [(0.0, 0.0)] * (orders + 1)
    b = (1.0, 0.0)
    phi = (0.0, 0.0)
    streak = 0
    n = 0
    while n < cfg.max_terms:
        # adding ell = 0 gives phi's bits back: the jets' sums skip it
        t = dd.mul(b, dd.add(phi, nell) if ell[0] else phi) if weighted else b
        sums[0] = dd.add(sums[0], t)
        if orders and n:
            # t has degree m in x; its k-th derivative is t m (m-1) ... (m-k+1) / x^k,
            # none once k > m.  Unrolled: a loop over k made the kernels ~9% slower.
            m = 2 * n
            sums[1] = dd.add(sums[1], dd.div_f(dd.mul_f(t, float(m)), x))
            if orders >= 2:
                sums[2] = dd.add(sums[2], dd.div_f(dd.mul_f(t, float(m * (m - 1))), x * x))
            if orders >= 3 and m >= 3:
                sums[3] = dd.add(
                    sums[3], dd.div_f(dd.mul_f(t, float(m * (m - 1) * (m - 2))), x * x * x)
                )
        n += 1
        # J_p divides by n (p + n); the order-0 sums by n^2, which is exact
        b = dd.mul(b, q)
        b = dd.div(b, dd.two_prod(float(n), p + n)) if p else dd.div_f(b, float(n * n))
        if weighted:
            phi = dd.add(phi, dd.div_f((1.0, 0.0), float(n)))
        if _small(b[0] * (phi[0] - ell[0]) if weighted else b[0], sums[0][0], cfg.rel_tol):
            streak += 1
            if streak >= 2:
                return sums
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


def _series_array(
    x: np.ndarray, sign: float, cfg: SeriesConfig, weighted: bool, ell: dd.DD = (0.0, 0.0), p: float = 0.0
) -> list[dd.DD]:
    """`_series` with orders = 3 at every element of an array x, ell a pair of
    floats or of arrays like x.  Rows 1-3 are not finite where x = 0.

    Each term is one pass of each double-double stage over stacked (4, n)
    rows: [b; t; t; t] (the series base, and this term of degree m) times
    [q; m; m(m-1); m(m-1)(m-2)], divided by [(n+1)^2; x; x^2; x^3], is the
    next b and this term's derivatives, and with t in place of b one add
    takes them into the four sums.  The b row's product error gets
    b_hi q_lo + b_lo q_hi as in `dd.mul`, the others t_lo m... as in
    `dd.mul_f`, and for p != 0 the next b is b q / (n (p + n)) by `dd.div`:
    each element sees the IEEE operations of the scalar loop.
    Rows with m < k take no term, and each lane's sums are frozen at the
    term where the scalar loop returns, so the results are bit-identical.
    """
    lanes = x.size
    hi, lo = np.empty((4, lanes)), np.empty((4, lanes))
    if not lanes:
        return list(zip(hi, lo))
    nell = dd.neg(ell) if np.any(ell[0]) else None  # None: as in `_series`, skip ell = 0
    with np.errstate(all="ignore"):
        q = dd.mul_f(dd.two_prod(x, x), 0.25 * sign)
        xx = x * x
        divisors = np.stack((x, x, xx, xx * x))  # row 0 is set to (n+1)^2 per term
        factors = np.stack((q[0], x, x, x))  # rows 1-3 are set to m, m(m-1), ...
        rows = (np.empty((4, lanes)), np.empty((4, lanes)))
        rows[0][0], rows[1][0] = 1.0, 0.0
        b = (rows[0][0], rows[1][0])  # views: b is updated in place
        sums = (np.zeros((4, lanes)), np.zeros((4, lanes)))
        pending = np.ones(lanes, dtype=bool)
        was_small = np.zeros(lanes, dtype=bool)
        phi = (0.0, 0.0)
        n = 0
        while n < cfg.max_terms:
            t = dd.mul(b, phi if nell is None else dd.add(phi, nell)) if weighted else b
            rows[0][1:], rows[1][1:] = t[0], t[1]
            m = 2 * n
            fac = np.array([[m], [m * (m - 1)], [m * (m - 1) * (m - 2)]], dtype=np.float64)
            factors[1:] = fac
            prod, e = dd.two_prod(rows[0], factors)
            e[0] += b[0] * q[1] + b[1] * q[0]
            e[1:] += rows[1][1:] * fac
            n += 1
            divisors[0] = float(n * n)
            bq = dd.two_sum(prod, e)
            step = dd.div_f(bq, divisors)
            if p:  # J_p's next b, as in `_series`
                step[0][0], step[1][0] = dd.div((bq[0][0], bq[1][0]), dd.two_prod(float(n), p + n))
            # step holds the next b and this term's derivatives; b moves
            # into the stacked rows and this term takes its row
            rows[0][0], rows[1][0] = step[0][0], step[1][0]
            step[0][0], step[1][0] = rows[0][1], rows[1][1]
            k = min(m, 3) + 1  # the k-th derivative takes a term once m >= k
            if k == 4:
                sums = dd.add(sums, step)
            else:
                sums[0][:k], sums[1][:k] = dd.add(
                    (sums[0][:k], sums[1][:k]), (step[0][:k], step[1][:k])
                )
            if weighted:
                phi = dd.add(phi, dd.div_f((1.0, 0.0), float(n)))
                lead = b[0] * (phi[0] - ell[0])
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


def _sums(x, sign: float, cfg: SeriesConfig, weighted: bool, ell=(0.0, 0.0), orders=3, p=0.0):
    """`_series` at a float x (rows 0..orders), `_series_array` at an array (all four)."""
    if _is_array(x):
        return _series_array(x, sign, cfg, weighted, ell, p)
    return _series(x, sign, cfg, orders, weighted, ell, p)


def _log_half_dd(x) -> dd.DD:
    """ln(x/2) + gamma in double-double; x may be a float64 array."""
    ln = dd.log_array(0.5 * x) if _is_array(x) else dd.log(0.5 * x)
    return dd.add(ln, _EULER_GAMMA_DD)


def _require_finite(x, name: str, low: float = -math.inf, what: str = "finite x") -> None:
    """Refuse x unless low < x < inf, saying it requires `what`; for arrays,
    at every element, naming the first one refused."""
    if _is_array(x):
        bad = ~((x > low) & (x < math.inf))
        if bad.any():
            raise DomainError(f"{name} requires {what}, got {float(x[np.argmax(bad)])!r}")
    elif not low < x < math.inf:
        raise DomainError(f"{name} requires {what}, got {x!r}")


# ----------------------------------------------------------------------
# order-zero values; like the jets, they take a 1-D float64 array for x


def bessel_j0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """J0(x) = sum_n (-1)^n (x/2)^(2n) / (n!)^2; entire and even."""
    _require_finite(x, "j0")
    return dd.to_float(_sums(x, -1.0, cfg, False, orders=0)[0])


def bessel_i0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """I0(x) = sum_n (x/2)^(2n) / (n!)^2; entire, even, >= 1."""
    _require_finite(x, "i0")
    return dd.to_float(_sums(x, 1.0, cfg, False, orders=0)[0])


def bessel_y0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Y0(x) = (2/pi) { (ln(x/2) + gamma) J0(x) - sum_n (-1)^n phi(n) (x/2)^(2n)/(n!)^2 }."""
    _require_finite(x, "y0", 0.0, "finite x > 0")
    merged = _sums(x, -1.0, cfg, True, _log_half_dd(x), 0)[0]
    return dd.to_float(dd.mul(_TWO_OVER_PI_DD, dd.neg(merged)))


def bessel_k0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """K0(x) = -(ln(x/2) + gamma) I0(x) + sum_n phi(n) (x/2)^(2n)/(n!)^2."""
    _require_finite(x, "k0", 0.0, "finite x > 0")
    return dd.to_float(_sums(x, 1.0, cfg, True, _log_half_dd(x), 0)[0])


# ----------------------------------------------------------------------
# jets: value and term-wise series derivatives up to third order


class _Order0Jet(tuple):
    """(f, f', f'', f''') of J0 or I0 at x, carrying the double-double series
    sums it was rounded from, so that Y0 or K0 at the same x can reuse them."""

    def __new__(cls, sums: list[dd.DD], x, cfg: SeriesConfig):
        self = super().__new__(cls, (dd.to_float(v) for v in sums))
        self.sums, self.x, self.cfg = sums, x, cfg
        return self


# Below this |x|, x*x is subnormal: the series' divisions by x^2 and x^3 lose
# digits or divide by zero.  The jet there is (1, sign x/2, sign/2, 0), its
# limit at x = 0 and within 4 ulp of the series' jet just above 2^-511.
_TINY = 2.0**-511


def _order0_jet(x, sign: float, cfg: SeriesConfig) -> _Order0Jet:
    """The J0 (sign -1) or I0 (sign +1) jet at x: one series call, and the
    sums (lead, 0) where |x| < _TINY; the float of (-0.0, 0.0) is 0.0."""
    _require_finite(x, "i0" if sign > 0.0 else "j0")
    lead = (1.0, 0.5 * sign * x, 0.5 * sign, 0.0)
    if not _is_array(x):
        sums = [(v, 0.0) for v in lead] if abs(x) < _TINY else _sums(x, sign, cfg, False)
        return _Order0Jet(sums, x, cfg)
    sums, tiny = _sums(x, sign, cfg, False), np.abs(x) < _TINY
    if tiny.any():
        sums = [(np.where(tiny, v, hi), np.where(tiny, 0.0, lo)) for (hi, lo), v in zip(sums, lead)]
    return _Order0Jet(sums, x, cfg)


def _order0_sums(jet, x, cfg: SeriesConfig, sign: float) -> list[dd.DD]:
    """The J0/I0 series sums of `jet`, which must come from the same x and
    cfg, or freshly summed ones when jet is None."""
    if jet is None:
        return _sums(x, sign, cfg, False)
    if not (jet.x is x or np.array_equal(jet.x, x)) or jet.cfg != cfg:
        raise ValueError("the reused jet was computed at a different x or series config")
    return jet.sums


def j0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(J0, J0', J0'', J0''')(x) by term-wise differentiation of the series.

    x may be a 1-D float64 array: each component is then an array,
    bit-identical to evaluating every element on its own.
    """
    return _order0_jet(x, -1.0, cfg)


def i0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(I0, I0', I0'', I0''')(x); x may be a 1-D float64 array."""
    return _order0_jet(x, 1.0, cfg)


# The Y0/K0 jets refuse x < 2^-330: below 2^-332 their 2/x^3 term overflows
# Dekker's split (f''' is nan), below 5.6e-103 the float range.  From 2^-330
# up all four orders are within 3.2e-16 of mpmath.
_LOG_JET_LOW = math.nextafter(2.0**-330, 0.0)


def _log_jet(x, sign: float, cfg: SeriesConfig, base) -> list[dd.DD]:
    """h^(k), k = 0..3, of h = (ln(x/2) + gamma) B - S by the product rule:
    B is the J0 (sign -1) or I0 (sign +1) series, reused from `base` when it
    is a jet at the same x, and S its phi-weighted twin.  Y0 = (2/pi) h and
    K0 = -h; every double-double operation is odd, so K0 takes the bits of
    assembling -h directly."""
    _require_finite(x, "k0 jet" if sign > 0.0 else "y0 jet", _LOG_JET_LOW, "finite x >= 2**-330")
    b = _order0_sums(base, x, cfg, sign)
    s = _sums(x, sign, cfg, True)
    ell = _log_half_dd(x)
    inv = 1.0 / x
    # (ell*B)^(k) expanded with ell' = 1/x, ell'' = -1/x^2, ell''' = 2/x^3
    h0 = dd.add(dd.mul(ell, b[0]), dd.neg(s[0]))
    h1 = dd.add(dd.add(dd.mul(ell, b[1]), dd.mul_f(b[0], inv)), dd.neg(s[1]))
    h2 = dd.add(
        dd.add(dd.mul(ell, b[2]), dd.mul_f(b[1], 2.0 * inv)),
        dd.add(dd.mul_f(b[0], -inv * inv), dd.neg(s[2])),
    )
    h3 = dd.add(
        dd.add(dd.mul(ell, b[3]), dd.mul_f(b[2], 3.0 * inv)),
        dd.add(
            dd.add(dd.mul_f(b[1], -3.0 * inv * inv), dd.mul_f(b[0], 2.0 * _ipow(inv, 3))),
            dd.neg(s[3]),
        ),
    )
    return [h0, h1, h2, h3]


def y0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES, j0=None) -> tuple[float, float, float, float]:
    """(Y0, Y0', Y0'', Y0''')(x), assembling the log factor by the product rule.

    x may be a 1-D float64 array.  Passing j0 = j0_jet(x, cfg) reuses the J0
    series that call summed instead of summing it again.
    """
    return tuple(dd.to_float(dd.mul(_TWO_OVER_PI_DD, h)) for h in _log_jet(x, -1.0, cfg, j0))


def k0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES, i0=None) -> tuple[float, float, float, float]:
    """(K0, K0', K0'', K0''')(x); x may be a 1-D float64 array.  Passing
    i0 = i0_jet(x, cfg) reuses the I0 series that call summed."""
    return tuple(dd.to_float(dd.neg(h)) for h in _log_jet(x, 1.0, cfg, i0))


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


def _jp_sum(p: float, x: np.ndarray, cfg: SeriesConfig) -> np.ndarray:
    """The sum of J_p's series at each x != 0 of an array, and 1 at x = 0,
    where a pointwise `bessel_j` sums nothing."""
    out = np.ones(x.shape)
    nonzero = x != 0.0
    out[nonzero] = dd.to_float(_sums(x[nonzero], -1.0, cfg, False, orders=0, p=p)[0])
    return out


def bessel_j(p: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """J_p(x) = (x/2)^p / Gamma(1+p) * sum_n (-1)^n (x/2)^(2n) / ((1+p)_n n!).

    p may be negative (the second Frobenius branch); 2p must not be an integer.
    x may be a 1-D float64 array: each element is checked and takes its libm
    prefactor in order, and the series runs once over the array; values and
    errors are a pointwise loop's, and each x past 30 warns once, in order.
    """
    if not _is_array(x):
        _check_jp_args(p, x)
        if x == 0.0:
            return 0.0  # p > 0 here; the x^p prefactor wins
        pref = math.pow(0.5 * x, p) / gamma(1.0 + p)
        return pref * dd.to_float(_sums(x, -1.0, cfg, False, orders=0, p=p)[0])
    pref = np.zeros(x.shape)
    for i, e in enumerate(x.tolist()):
        try:
            _check_jp_args(p, e)
            if e:
                pref[i] = math.pow(0.5 * e, p) / gamma(1.0 + p)
        except (ArithmeticError, ValueError):
            _jp_sum(p, x[:i], cfg)  # a pointwise loop meets an earlier non-convergence first
            raise
    return pref * _jp_sum(p, x, cfg)


def jp_jet(p: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(J_p, J_p', J_p'', J_p''')(x) for x > 0 via the product rule on
    A(x) = x^p / (2^p Gamma(1+p)) and the term-wise differentiated sum."""
    _check_jp_args(p, x)
    if x == 0.0:
        raise DomainError("jp_jet requires x > 0")
    s = [dd.to_float(v) for v in _sums(x, -1.0, cfg, False, p=p)]
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
