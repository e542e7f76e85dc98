"""Special functions: the gamma function, the rising factorial, harmonic
numbers, the Bessel-family functions J_{+-p}, J0, Y0, I0 and K0, and a
finite-difference ODE residual used as a self-check.

J0, Y0 and J_p are truncated series about the regular singular point
x = 0, summed by `_series` or its array twin.  These series cancel
catastrophically for moderate x (at x = 10 the largest J0 term is ~678
against a sum of ~0.25), so they are accumulated in double-double
arithmetic and rounded once at the end.  Y0, value and jet alike, is the
merged rows of `_series`: the terms (phi(n) - ell) t_n, ell = ln(x/2) +
gamma, and x times their derivatives, summed as one series stopped on the
cancelled total.  The kernels sum f and x f'; `_equation_rows` divides
x f' by x and forms f'' and f''' from the series' own equation
x f'' + (2p+1) f' + x f = 0.

I0 and K0 run in float64 on algorithms that do not cancel, both summed by
`_ik_series`:
- I0 is the four rows sum_n w(n) t_n, t_n = (x/2)^(2n) / (n!)^2, with
  w(n) = 1, 2n, 2n (2n-1) and 2n (2n-1) (2n-2): x^k I0^(k) for k = 0..3.
  Every term is positive, so nothing cancels; I0^(k) is row k over x^k,
  and `bessel_i0` is row 0, the jet's f bit for bit;
- K0 below x = 2 is the merged log series sum_n (phi(n) - ell) t_n, which
  cancels at most about 5x there (the textbook -ell I0 + sum phi(n) t_n
  cancels 12x at x = 2);
- K0 from x = 2 up is Steed's CF2 (Numerical Recipes, `bessik` at order
  0), which gives K0 and K1, and K0' = -K1 (`_cf2`).
K0's f'' and f''' come from the equation f'' = f - f'/x, f''' = f' -
(f'' - f'/x)/x; its orders alternate in sign, so that nothing cancels.
Every order of the I0 and K0 jets is within 4e-15 relative of mpmath: I0
up to x of about 258, past which the default SeriesConfig refuses its
series, and K0 on [2^-330, 700].  Below |x| = 2^-26, where the equation's
f''' of J0 cancels, the J0 and I0 jets are their Taylor limit.

Grid evaluation.  The order-zero values and jets and J_p's value also take
a float64 array of arguments (profile jets on a grid of radii, CLI
tables): each kernel then runs once over the array (see _series_array),
each lane frozen at the term where the pointwise loop stops, so the
results are bit-identical at any array length.  Only IEEE + - * / and
square roots run on whole arrays; libm calls (exp, log, pow and Python's
**) stay per element, because numpy's vectorized versions can differ in
the last bit.  y0_jet sums the J0 series in the same pass and returns its
jet as `primary`, so a profile c1 J0 + c2 Y0 takes both jets from one
call; k0_jet's `primary`, the I0 jet, is summed on first use, so that K0
is not refused where I0's series does not converge.
"""

from __future__ import annotations

import functools
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
_NEG_TWO_OVER_PI_DD = dd.div((-2.0, 0.0), _PI_DD)

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


# `weighted` of the series kernels for both sets of sums: the plain rows,
# then the merged ones
_BOTH = (False, True)


def _series(
    x: float, cfg: SeriesConfig, orders: int, weighted, ell: dd.DD = (0.0, 0.0), p: float = 0.0,
) -> list[dd.DD]:
    """The sum of sum_n w(n) (-1)^n (x/2)^(2n) / (n! (1+p)_n) and, if orders,
    x times its term-wise derivative, with w = 1 (weighted=False: J0 and the
    sum of J_p) or the merged weight w = phi(n) - ell (weighted=True, p = 0),
    phi the harmonic numbers and ell the value at x of a function with
    ell' = 1/x.  `_sums` forms the derivatives from these two rows.  No sum
    stops before its n = 2 term, which f''' needs at small x.  weighted=_BOTH
    returns the rows of both, plain first, from two passes (`_series_array`
    sums both in one; the bits are the same).

    With ell = ln(x/2) + gamma, the merged rows are those of -(pi/2) Y0,
    stopped on the cancelled total, not on the two large textbook pieces.
    """
    if weighted is _BOTH:
        return _series(x, cfg, orders, False, ell, p) + _series(x, cfg, orders, True, ell, p)
    q = dd.mul_f(dd.two_prod(x, x), -0.25)
    nell, ax = dd.neg(ell), abs(x)
    m2 = dd.mul_f(nell, 2.0)  # -2 ell, exact
    s, xds, b, was_small = (0.0, 0.0), (0.0, 0.0), (1.0, 0.0), False
    n = 0
    while n < cfg.max_terms:
        t = dd.mul(b, dd.add(_phi(n), nell)) if weighted else b
        if orders:  # x t' of a term of degree 2n: b 2n, or b d, d = 2n (phi(n) - ell) - 1, if merged
            if weighted:
                xds = dd.add(xds, dd.mul(b, dd.add(_dphi(n), dd.mul_f(m2, float(n)))))
            else:
                xds = dd.add(xds, dd.mul_f(b, float(2 * n)))
        s = dd.add(s, t)
        n += 1
        # J_p divides by n (p + n), with p + n exact; the order-0 sums by n^2, which is exact
        b = dd.mul(b, q)
        b = dd.div(b, dd.mul_f(dd.two_sum(p, float(n)), float(n))) if p else dd.div_f(b, float(n * n))
        lead, tol = abs(b[0] * (_phi(n)[0] - ell[0]) if weighted else b[0]), cfg.rel_tol * abs(s[0])
        if orders:  # the next term's x t' is about 2n times it: so scaled, the test also
            # holds the derivative's truncation below rel_tol |f|
            lead, tol = lead * max(2.0 * n, ax), tol * ax
        # the next term is small against the sum; with a zero sum, lead <= 0 is lead == 0
        if not lead <= tol:
            was_small = False
        elif was_small and n > 2:
            return [s, xds] if orders else [s]
        else:
            was_small = True
    raise _unconverged(x, cfg)


def _unconverged(x, cfg: SeriesConfig) -> NonConvergenceError:
    """The refusal of a series, or of CF2, that did not converge at x."""
    return NonConvergenceError(
        f"series did not meet rel_tol={cfg.rel_tol} within {cfg.max_terms} terms at x={float(x)!r}"
    )


@functools.lru_cache(maxsize=None)
def _phi(n: int) -> dd.DD:
    """The harmonic number phi(n) in double-double, as `_series` sums it."""
    return dd.add(_phi(n - 1), dd.div_f((1.0, 0.0), float(n))) if n else (0.0, 0.0)


@functools.lru_cache(maxsize=None)
def _dphi(n: int) -> dd.DD:
    """2n phi(n) - 1 in double-double, the part of a merged term's d free of ell."""
    return dd.add_f(dd.mul_f(_phi(n), float(2 * n)), -1.0)


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
    x: np.ndarray, cfg: SeriesConfig, weighted, ell: dd.DD = (0.0, 0.0), p: float = 0.0,
    orders: int = 1,
) -> list[dd.DD]:
    """`_series` at every element of an array x, ell a pair of floats or of
    arrays like x: row 0 and, if orders, row 1 of each set of sums, an exact
    zero in row 1 of the plain set where x = 0.

    Pass n is one run of each double-double stage over stacked rows, each a
    multiplicand times a factor: b (the series base) times c = phi(n) - ell
    and d (the merged t and x t'), q and 2n (plain x t'), and -2 ell times
    n + 1.  Divided by (n+1)^2, or for p != 0 by (n+1) (p+n+1), the b q row
    is the next b; the sums' stage also forms the next c = phi(n+1) + (-ell)
    and d = (2(n+1) phi(n+1) - 1) + (-2 ell)(n+1), as `dd.add` does.  The
    c, d and q rows' product errors get a_hi f_lo + a_lo f_hi as in
    `dd.mul`, the others a_lo f as in `dd.mul_f`: each element sees the IEEE
    operations of the scalar loop, its sums frozen where that loop stops
    them, so the results are bit-identical.  The stages run in place
    (`dd.*_into`).
    """
    both, plain = weighted is _BOTH, weighted is _BOTH or not weighted
    per_set, sets = (2 if orders else 1), (2 if both else 1)
    kp, k = int(plain and per_set > 1), int(weighted and per_set > 1)
    lanes, top = x.size, per_set * sets  # the rows of the sums
    hi, lo = np.empty((top, lanes)), np.empty((top, lanes))
    if not lanes:
        return list(zip(hi, lo))
    # the rows: b c and b d (merged), b q at ib, b 2n (plain), then at ie
    # -2 ell (n + 1), the next d's ell part
    ib = (1 + k) if weighted else 0
    ie = ib + 1 + kp
    head = top - per_set  # the merged set's row 0 in the sums
    with np.errstate(all="ignore"):
        q = dd.mul_f(dd.two_prod(x, x), -0.25)
        space = np.zeros((13, ie + k, lanes))
        rows, prod, bq = (space[i : i + 2] for i in range(0, 6, 2))
        work, factors, flo = list(space[6:11]), space[11], space[12]
        work_b = [a[ib] for a in work]
        # the sums and `step`, this pass's terms in their rows; with the merged
        # set ib more rows, where the next c and d are formed
        acc = np.zeros((7, top + (ib if weighted else 0), lanes))
        sums, step, work_top = tuple(acc[:2]), acc[2:4], acc[4:]
        factors[ib], flo[ib] = q
        if weighted:  # c and d of n = 0, and -ell and -2 ell
            nell = dd.neg(ell)
            m2 = dd.mul_f(nell, 2.0)
            factors[0], flo[0] = dd.add(_phi(0), nell)
            step[0, top], step[1, top] = nell
            if k:
                factors[1], flo[1] = dd.add(_dphi(0), dd.mul_f(m2, 0.0))
                rows[0][ie], rows[1][ie] = m2
        b = (rows[0][ib], rows[1][ib])  # views: b is updated in place
        b[0][:] = 1.0
        pending = np.ones((sets, lanes), dtype=bool)
        was_small = np.zeros((sets, lanes), dtype=bool)
        lead, tol, ax = np.empty((sets, lanes)), np.empty((sets, lanes)), np.abs(x)
        n, active = 0, True
        while active:
            if n == cfg.max_terms:
                raise _unconverged(x[np.argmax(pending.any(axis=0))], cfg)
            rows[:, :ie] = rows[:, ib : ib + 1]
            if kp:
                factors[ib + 1] = 2 * n
            if k:
                factors[ie] = n + 1
            dd.two_prod_into(rows[0], factors, prod, work)
            t, v = work[0], work[1][: ib + 1]  # the product errors' low-part terms
            np.multiply(rows[1], factors, t)
            np.multiply(rows[0][: ib + 1], flo[: ib + 1], v)
            np.add(v, t[: ib + 1], t[: ib + 1])
            np.add(prod[1], t, prod[1])
            n += 1
            dd.two_sum_into(prod[0], prod[1], bq, work)
            if plain:  # this pass's b and x b'
                step[:, 0], step[:, 1:per_set] = rows[:, ib], bq[:, ib + 1 : ie]
            if weighted:  # t and x t', and phi(n) and 2n phi(n) - 1 with -2n ell for the next c and d
                step[:, head:top], (acc[0, top], acc[1, top]) = bq[:, :ib], _phi(n)
                if k:
                    step[:, top + 1], (acc[0, top + 1], acc[1, top + 1]) = bq[:, ie], _dphi(n)
            if p:  # J_p's next b, as in `_series`
                divisor = dd.mul_f(dd.two_sum(p, float(n)), float(n))
                rows[0][ib], rows[1][ib] = dd.div((bq[0][ib], bq[1][ib]), divisor)
            else:
                dd.div_f_into(bq[:, ib], float(n * n), rows[:, ib], work_b)
            dd.add_into(sums, step, sums, work_top)
            # each set's small-term test, as in `_series`; a streak of two is
            # a small term now and one before, and none stops before n = 2
            if plain:
                lead[0] = b[0]
            if weighted:  # the next c and d, and the merged lead
                factors[:ib], flo[:ib] = acc[0, top:], acc[1, top:]
                np.multiply(b[0], _phi(n)[0] - ell[0], lead[-1])
            np.abs(lead, lead)
            np.multiply(cfg.rel_tol, np.abs(sums[0][:top:per_set]), tol)
            if orders:
                np.multiply(lead, np.maximum(2.0 * n, ax), lead)
                np.multiply(tol, ax, tol)
            small = lead <= tol
            stop, was_small = pending & small & was_small, small
            if n > 2 and stop.any():
                frozen = np.repeat(stop, per_set, axis=0)  # each set's rows
                np.copyto(hi, sums[0][:top], where=frozen)
                np.copyto(lo, sums[1][:top], where=frozen)
                pending &= ~stop
                active = pending.any()
    return list(zip(hi, lo))


def _sums(x, cfg: SeriesConfig, weighted, ell=(0.0, 0.0), orders=3, p=0.0):
    """The rows f, f', f'', f''' (0..orders) of each set of sums that
    `weighted` asks for.  `_series` at a float x and `_series_array` at an
    array sum f and x f'; `_equation_rows` forms the rest from the sums' own
    equation, which the merged sums (p = 0) solve as -(pi/2) Y0 does."""
    if _is_array(x):
        sums = _series_array(x, cfg, weighted, ell, p, min(orders, 1))
    else:
        sums = _series(x, cfg, min(orders, 1), weighted, ell, p)
    if not orders:
        return sums
    rows = []
    for f, xf1 in zip(sums[::2], sums[1::2]):
        rows += _equation_rows(x, f, xf1, orders, p)
    return rows


def _equation_rows(x, f: dd.DD, xf1: dd.DD, orders: int = 3, p: float = 0.0) -> list[dd.DD]:
    """f, f', f'', f''' (0..orders) in double-double from f and x f': x f' is
    divided by x here alone, and f'' and f''' come from the J family's
    equation x f'' + (2p+1) f' + x f = 0: f'' = -(2p+1) f'/x - f,
    f''' = -(2p+1) (f'' - f'/x)/x - f'."""
    c = dd.neg(dd.two_sum(2.0 * p, 1.0))  # -(2p+1), exact
    with np.errstate(all="ignore"):  # lanes with x = 0, which the jets replace
        f1 = dd.div_f(xf1, x)
        f1_x = dd.div_f(f1, x)
        f2 = dd.add(dd.mul(c, f1_x), dd.neg(f))
        f3 = dd.add(dd.mul(c, dd.div_f(dd.add(f2, dd.neg(f1_x)), x)), dd.neg(f1))
    return [f, f1, f2, f3][: orders + 1]


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
# I0 and K0 in float64

# K0 takes the log series below this x and CF2 from it up: the series
# cancels about 5x at x = 2 and 20x at 3; CF2 takes about 76 terms at 2
# and would take 150 at 1
_CF2_FROM = 2.0
# ell = ln(x/2) + gamma as ln x + (gamma - ln 2), since x/2 underflows for
# subnormal x
_ELL0 = EULER_GAMMA - math.log(2.0)


def _i0_weights(n: int) -> tuple:
    """The weights 1, 2n, 2n (2n-1), 2n (2n-1) (2n-2) of I0's rows: sum_n
    w(n) t_n, t_n = (x/2)^(2n) / (n!)^2, is x^k I0^(k) for k = 0..3."""
    m = 2.0 * n
    return 1.0, m, m * (m - 1.0), m * (m - 1.0) * (m - 2.0)


def _k0_weights(n: int, ell) -> tuple:
    """The weights phi(n) - ell and 2n (phi(n) - ell) - 1 of K0's rows, K0
    and x K0' for ell = ln(x/2) + gamma, a float or an array."""
    c = _phi(n)[0] - ell
    return c, 2.0 * n * c - 1.0


def _ik_series(x, cfg: SeriesConfig, weights, *args) -> tuple:
    """(rows, pending): the rows sum_n w(n) t_n of w = weights(n, *args),
    summed in plain float64 at a float or an array x, t_n formed as
    t_(n-1) (x/2) / n (x/2) / n, and the lanes of an array that did not
    converge within max_terms (None at a float, which is refused instead).
    They stop once the next term of every row has been at most rel_tol
    times the row's sum for two terms running, past n = 2; an array has
    each lane frozen where a float stops."""
    array = _is_array(x)
    h, n, was_small = 0.5 * x, 0, False
    t = np.ones(x.shape) if array else 1.0
    w = weights(0, *args)
    sums = [0.0] * len(w)
    pending, ends = (np.ones(x.shape, dtype=bool), np.zeros((len(w), x.size))) if array else (None, None)
    with np.errstate(all="ignore"):
        while n < cfg.max_terms:
            sums = [s + wj * t for s, wj in zip(sums, w)]
            n += 1
            t = t * h / n * h / n
            w = weights(n, *args)
            small = True
            for wj, s in zip(w, sums):
                small = small & (abs(wj * t) <= cfg.rel_tol * abs(s))
            stop, was_small = small & was_small & (n > 2), small
            if array:
                np.copyto(ends, sums, where=pending & stop)
                pending &= ~stop
                stop = not pending.any()
            if stop:
                break
        else:
            if not array:
                raise _unconverged(x, cfg)
    return (ends if array else sums), pending


def _cf2(x, cfg: SeriesConfig) -> tuple:
    """(K0, K1, pending) at x >= 2, a float or an array, by Steed's CF2
    (Numerical Recipes' `bessik` at order 0).  Its series s = 1 + sum dels
    stops once dels^2 <= rel_tol |s| (|prev| - |dels|), that is once the rest
    of a series falling by |dels / prev| a term is at most rel_tol |s|, and
    the last term of h is at most rel_tol |h|.  A float x is refused if it
    does not converge within max_terms; an array x has each lane frozen
    where a float x stops, and `pending` marks those that did not converge
    (None at a float x)."""
    array = _is_array(x)
    # past x = 750 e^-x, and so K0 and K1, underflow to 0 whatever s and h
    # are; CF2 runs at 750 there, since b + 2 is inexact once x passes 2^53
    b = 2.0 * (1.0 + (np.minimum(x, 750.0) if array else min(x, 750.0)))
    d = h = delh = 1.0 / b
    q1, q2, q, c, a = 0.0, 1.0, 0.25, 0.25, -0.25
    prev = q * delh
    s, i = 1.0 + prev, 1
    # the lanes still summing, and s and h where each lane stopped
    pending, ends = (np.ones(x.shape, dtype=bool), np.ones((2, x.size))) if array else (None, None)
    with np.errstate(all="ignore"):
        while i < cfg.max_terms:
            i += 1
            a -= 2.0 * (i - 1)
            c = -a * c / i
            q1, q2 = q2, (q1 - b * q2) / a
            q = q + c * q2
            b = b + 2.0
            d = 1.0 / (b + a * d)
            delh = (b * d - 1.0) * delh
            h = h + delh
            dels = q * delh
            s = s + dels
            small = (dels * dels <= cfg.rel_tol * abs(s) * (abs(prev) - abs(dels))) & (
                abs(delh) <= cfg.rel_tol * abs(h))
            if array:
                np.copyto(ends, (s, h), where=pending & small)
                pending &= ~small
                small = not pending.any()
            if small:
                break
            prev = dels
        else:
            if not array:
                raise _unconverged(x, cfg)
        if array:
            s, h = ends
            k0 = np.sqrt(math.pi / (2.0 * x)) * _per_element(math.exp, -x) / s
        else:
            k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
        return k0, k0 * (x + 0.5 - 0.25 * h) / x, pending


def _refuse_pending(x: np.ndarray, pending: np.ndarray, cfg: SeriesConfig) -> None:
    """Refuse the first lane of x that did not converge, as a pointwise loop would."""
    if pending.any():
        raise _unconverged(x[np.argmax(pending)], cfg)


def _k0_pair(x, cfg: SeriesConfig) -> tuple:
    """(K0, K0') at x > 0, a float or an array: the log series below x = 2,
    CF2 from there."""
    if not _is_array(x):
        if x < _CF2_FROM:
            k0, xk0 = _ik_series(x, cfg, _k0_weights, math.log(x) + _ELL0)[0]
            return k0, xk0 / x
        k0, k1, _ = _cf2(x, cfg)
        return k0, -k1
    low, out = x < _CF2_FROM, np.empty((2, x.size))
    xs, pending = x[low], np.zeros(x.shape, dtype=bool)
    rows, pending[low] = _ik_series(xs, cfg, _k0_weights, _per_element(math.log, xs) + _ELL0)
    with np.errstate(over="ignore"):  # K0' at subnormal x, where only the value is read
        out[0, low], out[1, low] = rows[0], rows[1] / xs
    k0, k1, pending[~low] = _cf2(x[~low], cfg)
    out[0, ~low], out[1, ~low] = k0, -k1
    _refuse_pending(x, pending, cfg)
    return out[0], out[1]


# ----------------------------------------------------------------------
# order-zero values; like the jets, they take a 1-D float64 array for x


def bessel_j0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """J0(x) = sum_n (-1)^n (x/2)^(2n) / (n!)^2; entire and even."""
    _require_finite(x, "j0")
    return dd.to_float(_sums(x, cfg, False, orders=0)[0])


def bessel_i0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """I0(x) = sum_n (x/2)^(2n) / (n!)^2; entire, even, >= 1."""
    _require_finite(x, "i0")
    return _i0_rows(x, cfg)[0]


def bessel_y0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Y0(x) = (2/pi) { (ln(x/2) + gamma) J0(x) - sum_n (-1)^n phi(n) (x/2)^(2n)/(n!)^2 }."""
    _require_finite(x, "y0", 0.0, "finite x > 0")
    return dd.to_float(dd.mul(_NEG_TWO_OVER_PI_DD, _sums(x, cfg, True, _log_half_dd(x), 0)[0]))


def bessel_k0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """K0(x) = sum_n (phi(n) - ln(x/2) - gamma) (x/2)^(2n)/(n!)^2 below x = 2,
    Steed's CF2 from there; positive, and `k0_jet`'s f bit for bit."""
    _require_finite(x, "k0", 0.0, "finite x > 0")
    return _k0_pair(x, cfg)[0]


# ----------------------------------------------------------------------
# jets: value and derivatives up to third order


# Below this |x|, J0's f''' = -(f'' - f'/x)/x - f' cancels to 3x/8 from
# terms of about 1/(2x): against mpmath it is 2.6 ulp off on [2^-27, 2^-26]
# and 1.3 ulp on [2^-26, 2^-25], where the Taylor limit (1, -x/2, -1/2,
# 3x/8) of the jet at x = 0 is 0.73 and 2.9 ulp off.  The I0 jet, whose
# f''' is its own row, takes its limit (1, x/2, 1/2, 3x/8) below it too.
_SMALL = 2.0**-26


def _plain_jet(x, sign: float, rows) -> tuple:
    """The J0 (sign -1) or I0 (sign +1) jet from its float rows, or the
    Taylor limit where |x| < _SMALL; rows may be None at such a float x."""
    limit = (1.0, 0.5 * sign * x + 0.0, 0.5 * sign, 0.375 * x + 0.0)  # + 0.0: +0 at x = -0
    if not _is_array(x):
        return limit if abs(x) < _SMALL else tuple(rows)
    small = np.abs(x) < _SMALL
    return tuple(np.where(small, v, r) for v, r in zip(limit, rows))


def j0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(J0, J0', J0'', J0''')(x) from the series and its Bessel equation.

    x may be a 1-D float64 array: each component is then an array,
    bit-identical to evaluating every element on its own.  A float
    |x| < _SMALL sums nothing, since the sums would divide by x = 0.
    """
    _require_finite(x, "j0")
    if not _is_array(x) and abs(x) < _SMALL:
        return _plain_jet(x, -1.0, None)
    return _plain_jet(x, -1.0, [dd.to_float(v) for v in _sums(x, cfg, False)])


def _i0_rows(x, cfg: SeriesConfig) -> list:
    """x^k I0^(k)(x), k = 0..3, from `_ik_series`, whose terms are all
    positive; an array lane that did not converge is refused."""
    rows, pending = _ik_series(x, cfg, _i0_weights)
    if pending is not None:
        _refuse_pending(x, pending, cfg)
    return rows


def i0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(I0, I0', I0'', I0''')(x): the rows of `_i0_rows` divided by x^k, so
    f is `bessel_i0` bit for bit; x may be a 1-D float64 array."""
    _require_finite(x, "i0")
    if not _is_array(x) and abs(x) < _SMALL:
        return _plain_jet(x, 1.0, None)
    rows = _i0_rows(x, cfg)
    with np.errstate(all="ignore"):  # lanes with x = 0, which the Taylor limit replaces
        x2 = x * x
        jet = rows[0], rows[1] / x, rows[2] / x2, rows[3] / (x2 * x)
    return _plain_jet(x, 1.0, jet)


# The Y0/K0 jets refuse x < 2^-330: below 2^-332 the 2/x^3 of Y0's n = 0
# term overflows Dekker's split (f''' is nan), below 5.6e-103 the float range.
_LOG_JET_LOW = math.nextafter(2.0**-330, 0.0)


class _LogJet(tuple):
    """(f, f', f'', f''') of Y0 or K0 at x, with the J0 or I0 jet at x as
    `primary`: Y0's from the same series pass, K0's summed on first use from
    its own copy of x, so that K0 is not refused where I0's series fails."""

    @functools.cached_property
    def primary(self) -> tuple:
        return i0_jet(*self._args)


def y0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(Y0, Y0', Y0'', Y0''')(x): -2/pi times the merged rows of `_series`
    at x, ell = ln(x/2) + gamma (row 0 is `bessel_y0`'s sum), with the J0
    jet at x as `primary`, both summed by `_sums(..., _BOTH)`: one stacked
    pass over a 1-D float64 array x, two passes at a float, with the same
    bits."""
    _require_finite(x, "y0 jet", _LOG_JET_LOW, "finite x >= 2**-330")
    sums = _sums(x, cfg, _BOTH, _log_half_dd(x))
    jet = _LogJet(dd.to_float(dd.mul(_NEG_TWO_OVER_PI_DD, v)) for v in sums[4:])
    jet.primary = _plain_jet(x, -1.0, [dd.to_float(v) for v in sums[:4]])
    return jet


def k0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(K0, K0', K0'', K0''')(x): `_k0_pair`'s K0, which is `bessel_k0`, and
    K0', then f'' and f''' from the equation, each order of one sign; the I0
    jet at x is `primary`.  x may be a 1-D float64 array."""
    _require_finite(x, "k0 jet", _LOG_JET_LOW, "finite x >= 2**-330")
    f, f1 = _k0_pair(x, cfg)
    f2 = f - f1 / x
    jet = _LogJet((f, f1, f2, f1 - (f2 - f1 / x) / x))
    jet._args = (x.copy() if _is_array(x) else x, cfg)
    return jet


# ----------------------------------------------------------------------
# non-integer order


def _check_jp_args(p: float, x: float) -> None:
    if not (math.isfinite(p) and math.isfinite(x)):
        raise DomainError("bessel_j requires finite arguments")
    if not math.isfinite(2.0 * p):
        raise DomainError(f"bessel_j requires a finite 2p, got p={p!r}")
    if float(2.0 * p) == math.floor(2.0 * p):
        raise DomainError(f"bessel_j requires 2p to be a non-integer, got p={p!r}")
    if x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0 for non-integer order, got {x!r}")
    if x == 0.0 and p < 0.0:
        raise DomainError(f"bessel_j diverges at x = 0 for negative order p={p!r}")
    if abs(x) > _LARGE_X:
        warnings.warn(f"bessel_j series loses accuracy for |x| > {_LARGE_X} (x={x!r})",
                      PrecisionLossWarning, stacklevel=3)


def _jp_sum(p: float, x: np.ndarray, cfg: SeriesConfig) -> np.ndarray:
    """The sum of J_p's series at each x != 0 of an array, and 1 at x = 0,
    where a pointwise `bessel_j` sums nothing."""
    out = np.ones(x.shape)
    nonzero = x != 0.0
    out[nonzero] = dd.to_float(_sums(x[nonzero], cfg, False, orders=0, p=p)[0])
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
        return pref * dd.to_float(_sums(x, cfg, False, orders=0, p=p)[0])
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
    """(J_p, J_p', J_p'', J_p''')(x) for x >= 2^-340 via the product rule on
    A(x) = x^p / (2^p Gamma(1+p)) and the rows of the sum; a jet that
    overflows is refused."""
    _check_jp_args(p, x)
    if x < 2.0**-340:  # x^3 is subnormal or 0 there, and a3 divides by it
        raise DomainError(f"jp_jet requires x >= 2**-340, got {x!r}")
    s = [dd.to_float(v) for v in _sums(x, cfg, False, p=p)]
    a0 = math.pow(0.5 * x, p) / gamma(1.0 + p)
    a1 = p * a0 / x
    a2 = p * (p - 1.0) * a0 / (x * x)
    a3 = p * (p - 1.0) * (p - 2.0) * a0 / (x * x * x)
    jet = (
        a0 * s[0],
        a1 * s[0] + a0 * s[1],
        a2 * s[0] + 2.0 * a1 * s[1] + a0 * s[2],
        a3 * s[0] + 3.0 * a2 * s[1] + 3.0 * a1 * s[2] + a0 * s[3],
    )
    if not all(math.isfinite(v) for v in jet):  # a prefactor, like a3 ~ x^(p-3), overflowed
        raise DomainError(f"jp_jet of order p={p!r} overflows at x={x!r}")
    return jet


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
