"""Special functions: the gamma function, the rising factorial, harmonic
numbers, the Bessel-family functions J_{+-p}, J0, Y0, I0 and K0, and a
finite-difference ODE residual used as a self-check.

Every kernel runs in float64 on an algorithm that cancels little:
- I0 is the four rows sum_n w(n) t_n, t_n = (x/2)^(2n) / (n!)^2, with
  w(n) = 1, 1/(n+1), (2n+1)/(2n+2) and (2n+3)/(2 (n+1) (n+2)): f, f'/h,
  f'' and f'''/h, h = x/2 (`_i0_weights`).  Every term is positive, so
  nothing cancels;
- J0 below |x| = 2 is the same rows with alternating signs, which cancel
  at most about 4.5x there;
- K0 below x = 2 is the merged log series sum_n (phi(n) - ell) t_n,
  ell = ln(x/2) + gamma, which cancels at most about 5x there (the
  textbook -ell I0 + sum phi(n) t_n cancels 12x at x = 2), with x K0';
  below x = 2, -(pi/2) Y0 and x times its derivative are the same rows
  with (-1)^n;
- J0, J0' = -J1, Y0 and Y0' from |x| = 2 up come from Miller's downward
  recurrence, Y0 as Neumann's series in its J_2k (`_miller`);
- K0 and K1 from x = 2 up are the trapezoidal rule on their integrals
  (DLMF 10.32.9), on fixed nodes set by rel_tol, and K0' = -K1 (`_k0_rule`);
- J_p below its crossover x_c (`_jp_cut`) is (x/2)^p / Gamma(1+p) x^-k
  times the rows sum_n w(n) (p+2n) ... (p+2n-k+1) t_n,
  w(n) = (-1)^n n! / (1+p)_n (`_jp_weights`): each order is its own
  term-wise series, so no product rule cancels; from x_c up it is Miller's
  recurrence at the order q = p - floor(p) (`_jp_miller`).
`_ik_series` sums each series.  Where a kernel gives only f and f', f''
and f''' come from its equation: x f'' + f' -+ x f = 0 at order zero
(`_equation_jet`), and Bessel's equation for J_p.  Each order-zero value
is row 0 of its jet's sums, the jet's f bit for bit; J_p's value sums its
f row alone.  Every order of the I0 and K0 jets is within 4e-15 relative of
mpmath: I0 up to x of about 258, past which the default SeriesConfig
refuses its series, and K0 on [2^-330, 700], K0 and K1 within 1e-15 from
x = 2.  Every order of the J0, Y0 and J_p jets is within 4e-15 of
max(1, |f^(k)|): J0 and Y0 up to x of about 116, past which the default
SeriesConfig refuses Miller's start, and J_p (measured for |p| <= 25.3)
on [2^-60, 100].  Below |x| = 2^-26 the J0 and I0 jets are their Taylor
limit.

Grid evaluation.  The order-zero values and jets and J_p's value also take
a float64 array of arguments (profile jets on a grid of radii, CLI
tables): each kernel then runs once over the lanes of its regime, each
lane frozen at the term where a pointwise loop stops, or started where a
pointwise recurrence starts, so the results are bit-identical at any array
length.  The series (`_ik_series`) run a block of terms per pass, of a
length set by the lane count, and test where each lane stops once per
block rather than once per term; a float x runs the plain loop.  K0's rule
takes the same nodes at every lane, and so needs no stop test.  Only IEEE
+ - * / and square roots run on whole arrays; libm calls (exp, log, pow
and Python's **) stay per element, because numpy's vectorized versions can
differ in the last bit.  y0_jet sums the J0 jet in the same call and
returns it as `primary`, so a profile c1 J0 + c2 Y0 takes both jets from
one call; k0_jet's `primary`, the I0 jet, is summed on first use, so that
K0 is not refused where I0's series does not converge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "EULER_GAMMA",
    "SeriesConfig",
    "DEFAULT_SERIES",
    "BesselKind",
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


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy of every kernel; each refuses an x where it would
    need more than max_terms steps.
    - The series (`_ik_series`) stop once the next term of every row has
      been at most rel_tol times the row's sum for two terms running, and
      are refused past max_terms terms.
    - Miller's recurrence (J0, Y0 and J_p from their crossovers) starts at
      an order N set by x, and for J_p > 0 by p too; N past max_terms is
      refused, and rel_tol does not enter.
    - K0's trapezoidal rule takes a node count set by rel_tol, refused
      past max_terms nodes."""

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


def gamma(x: float) -> float:
    """Gamma function by `math.gamma`.  Poles and non-finite x raise
    DomainError.  Where Gamma(x) overflows (x past about 171.62, or
    0 < x < 5.6e-309) math.gamma's OverflowError propagates; below about
    x = -171.6 the result is subnormal or +-0."""
    if not math.isfinite(x):
        raise DomainError(f"gamma requires a finite argument, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma has a pole at {x!r}")
    return math.gamma(x)


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


def _unconverged(x, cfg: SeriesConfig) -> NonConvergenceError:
    """The refusal of a series, a recurrence or a rule that did not converge at x."""
    return NonConvergenceError(
        f"series did not meet rel_tol={cfg.rel_tol} within {cfg.max_terms} terms at x={float(x)!r}"
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
# kernels in float64

# K0 takes the log series below this x and the trapezoidal rule on its
# integral from it up: the series cancels about 5x at x = 2 and 20x at 3,
# and the rule's integrands are analytic for |Im v| < sqrt(2x) >= 2 there
_K0_RULE_FROM = 2.0
# J0 and Y0 take their alternating series below this |x| and Miller's
# recurrence from it up: J0's series cancels about 4.5x at x = 2
_MILLER_FROM = 2.0
# ell = ln(x/2) + gamma as ln x + (gamma - ln 2), since x/2 underflows for
# subnormal x
_ELL0 = EULER_GAMMA - math.log(2.0)
_TWO_OVER_PI = 2.0 / math.pi


# the harmonic numbers phi(0), phi(1), ... as exact ratios p / q of integers
# in lowest terms, extended on demand
_HARMONIC = [(0, 1)]


def _harmonic_exact(n: int) -> tuple[int, int]:
    """The harmonic number phi(n) as an exact ratio p / q of integers in
    lowest terms, by a loop over m: a longer table replaces `_HARMONIC`
    whole, so that a concurrent call never reads one half built."""
    global _HARMONIC
    table = _HARMONIC
    if len(table) <= n:
        table = list(table)
        p, q = table[-1]
        for m in range(len(table), n + 1):
            p, q = p * m + q, q * m
            g = math.gcd(p, q)
            p, q = p // g, q // g
            table.append((p, q))
        _HARMONIC = table
    return table[n]


@functools.lru_cache(maxsize=None)
def _phi(n: int) -> float:
    """The harmonic number phi(n), rounded once to float64 (the quotient of
    two Python integers is correctly rounded)."""
    p, q = _harmonic_exact(n)
    return p / q


def _i0_weights(n: int, sign: float = 1.0) -> tuple:
    """The weights of the I0 (sign 1) and J0 (sign -1) rows: with
    t_n = (x/2)^(2n) / (n!)^2 and h = x/2, sum_n w(n) t_n is f, f'/h, f''
    and f'''/h.  Term n of f' and f'' is term n + 1 of their series,
    s^(n+1) h t_n / (n+1) and s^(n+1) (2n+1) t_n / (2n+2), s = sign, and
    term n of f''' term n + 2, s^n (2n+3) h t_n / (2 (n+1) (n+2)): the
    leading weights 1, s, s/2 and 3/4 are exact, and no row is divided by
    a power of x."""
    s = -1.0 if sign < 0.0 and n & 1 else 1.0  # sign^n
    s1 = sign * s
    return s, s1 / (n + 1), s1 * (2 * n + 1) / (2 * n + 2), s * (2 * n + 3) / (2 * (n + 1) * (n + 2))


def _k0_weights(n: int, ell, sign: float = 1.0) -> tuple:
    """sign^n times the weights phi(n) - ell and 2n (phi(n) - ell) - 1: for
    ell = ln(x/2) + gamma, a float or an array, the rows of K0 and x K0'
    (sign 1), and of -(pi/2) Y0 and x times its derivative (sign -1)."""
    if sign < 0.0 and n & 1:  # the exact negations of the weights below
        c = ell - _phi(n)
        return c, 2.0 * n * c + 1.0
    c = _phi(n) - ell
    return c, 2.0 * n * c - 1.0


# the rows of `_i0_weights` at n = 0, 1, ... for each sign, as an (N, 4, 1)
# array extended on demand
_I0_TABLES: dict = {}


def _i0_weight_block(n: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """`_i0_weights` at a 1-D array of n, as an (n.size, 4, 1) array."""
    table = _I0_TABLES.get(sign)
    if table is None or len(table) <= n.max():
        rows = [_i0_weights(k, sign) for k in range(2 * int(n.max()) + 2)]
        table = _I0_TABLES[sign] = np.array(rows)[:, :, None]
    return table[n]


def _k0_weight_block(n: np.ndarray, ell, sign: float = 1.0) -> np.ndarray:
    """`_k0_weights` at a 1-D array of n, as an (n.size, 2, lanes) array:
    the weights at sign 1 times sign^n, that is c = sign^n (phi(n) - ell) and
    2n c - sign^n, since the negations of `_k0_weights` are exact."""
    w = np.empty((n.size, 2) + np.shape(ell))
    c, d = w[:, 0], w[:, 1]
    np.subtract(np.array([_phi(k) for k in n.tolist()])[:, None], ell, out=c)
    s = np.where(n & 1, -1.0, 1.0)[:, None] if sign < 0.0 else 1.0
    if sign < 0.0:
        np.multiply(c, s, out=c)
    np.multiply(2.0 * n[:, None], c, out=d)
    np.subtract(d, s, out=d)
    return w


def _jp_weights(n: int, p: float, table: list, rows: int) -> tuple:
    """The first `rows` weights w(n) ff(p+2n, k), k = 0, 1, ..., of J_p's
    rows, w(n) = (-1)^n n! / (1+p)_n and ff the falling factorial
    (p+2n) (p+2n-1) ... (p+2n-k+1): with t_n = (x/2)^(2n) / (n!)^2,
    J_p^(k) = (x/2)^p / Gamma(1+p) x^-k sum_n w(n) ff(p+2n, k) t_n, each
    order its own term-wise series.  table holds w(0), w(1), ... for one
    call, extended on demand by w(n) = -w(n-1) n / (p + n), so a float and
    an array read the same weights."""
    while len(table) <= n:
        k = len(table)
        table.append(-table[-1] * k / (p + k))
    w = [table[n]]
    for k in range(1, rows):
        w.append(w[-1] * (p + (2 * n - k + 1)))
    return tuple(w)


def _jp_weight_block(n: np.ndarray, p: float, table: list, rows: int) -> np.ndarray:
    """`_jp_weights` at a 1-D array of n, as an (n.size, rows, 1) array."""
    _jp_weights(int(n.max()), p, table, 1)
    w = [np.array(table)[n]]
    for k in range(1, rows):
        w.append(w[-1] * (p + (2 * n - k + 1)))
    return np.stack(w, axis=1)[:, :, None]


# the weights of `_ik_series` at a block of n, for an array x
_WEIGHT_BLOCKS = {_i0_weights: _i0_weight_block, _k0_weights: _k0_weight_block,
                  _jp_weights: _jp_weight_block}


# The element budget of a block of the array series: a block of K terms
# of `_ik_series` summing `rows` rows over L lanes has
# K = _BLOCK_ELEMENTS // (rows L), at least 1 and at most
# _BLOCK_MAX.  Longer blocks make fewer numpy calls a term, but past about
# this many elements their (K, rows, L) buffers leave the cache and a term
# costs more than in a per-term loop; measured on 21 to 4096 lanes.  The
# buffers of a wide array stay a few times the rows the kernel returns.
_BLOCK_ELEMENTS = 16384
_BLOCK_MAX = 16


def _block_length(rows: int, lanes: int) -> int:
    return max(1, min(_BLOCK_MAX, _BLOCK_ELEMENTS // (rows * max(lanes, 1))))


def _freeze(ends: np.ndarray, pending: np.ndarray, stop: np.ndarray, block: np.ndarray) -> None:
    """Copy block[j] of a (K, rows, lanes) block into ends at each pending
    lane, j the first step where stop (K, lanes) holds there, and clear
    those lanes of pending."""
    hit = pending & stop.any(axis=0)
    if hit.any():  # argmax over the lanes that stop alone: along axis 0 it is slow on wide blocks
        at = np.flatnonzero(hit)
        ends[:, at] = block[stop[:, at].argmax(axis=0), :, at].T
        pending[at] = False


def _ik_series(x, cfg: SeriesConfig, weights, *args) -> tuple:
    """(rows, pending): the rows sum_n w(n) t_n of w = weights(n, *args),
    summed in plain float64 at a float or an array x, t_n formed as
    t_(n-1) (x/2) / n (x/2) / n, and the lanes of an array that did not
    converge within max_terms (False at a float, which is refused instead).
    They stop once the next term of every row has been at most rel_tol
    times the row's sum for two terms running, past n = 2.

    A float x runs the plain loop.  An array x runs blocks of K terms
    (`_block_length`), each clipped at max_terms: a block forms its t_n with
    the loop's roundings, every row's terms as one product of the weights
    at the block's n and those t_n, and adds them to the running sums in the
    loop's order; then it runs the stop test on the whole block and freezes
    each lane at its first stopping term, so that each lane's rows are a
    float's bit for bit."""
    if _is_array(x):
        return _ik_series_array(x, cfg, weights, *args)
    h, n, was_small, t = 0.5 * x, 0, False, 1.0
    w = weights(0, *args)
    sums = [0.0] * len(w)
    with np.errstate(all="ignore"):  # a 0-d array x runs here too
        while n < cfg.max_terms:
            sums = [s + wj * t for s, wj in zip(sums, w)]
            n += 1
            t = t * h / n * h / n
            w = weights(n, *args)
            small = True
            for wj, s in zip(w, sums):  # t >= 0, so |wj t| = |wj| t
                small = small & (abs(wj) * t <= cfg.rel_tol * abs(s))
            if small and was_small and n > 2:
                return sums, False
            was_small = small
    raise _unconverged(x, cfg)


def _ik_series_array(x: np.ndarray, cfg: SeriesConfig, weights, *args) -> tuple:
    """`_ik_series` at an array x, one pass per block of terms."""
    lanes, rows = x.size, len(weights(0, *args))
    k = _block_length(rows, lanes)
    ends, pending = np.zeros((rows, lanes)), np.ones(lanes, dtype=bool)
    h, n = 0.5 * x, 0
    # row j of a block: t_(n+j), the terms w t_(n+j), the sums of the terms
    # before n + j and the stop test at n + j; row 0 holds what the last
    # block left
    t, terms = np.empty((k + 1, lanes)), np.empty((k + 1, rows, lanes))
    sums, small = np.zeros((k + 1, rows, lanes)), np.zeros((k + 1, lanes), dtype=bool)
    tol, ok = np.empty((k, rows, lanes)), np.empty((k, rows, lanes), dtype=bool)
    t[0] = 1.0
    block = _WEIGHT_BLOCKS[weights]
    terms[0] = block(np.arange(1), *args)[0]
    with np.errstate(all="ignore"):
        while n < cfg.max_terms and pending.any():
            m = min(k, cfg.max_terms - n)
            for j in range(1, m + 1):
                tj = t[j]
                np.multiply(t[j - 1], h, out=tj)
                np.divide(tj, n + j, out=tj)
                np.multiply(tj, h, out=tj)
                np.divide(tj, n + j, out=tj)
            np.multiply(block(np.arange(n + 1, n + m + 1), *args), t[1 : m + 1, None], out=terms[1 : m + 1])
            for j in range(m):
                np.add(sums[j], terms[j], out=sums[j + 1])
            t[0], terms[0] = t[m], terms[m]  # carried before the test takes |terms| in place
            # the test at n + j, j = 1 .. m: term n + j of every row against its sum so far
            size = np.abs(terms[1 : m + 1], out=terms[1 : m + 1])
            bound = np.abs(sums[1 : m + 1], out=tol[:m])
            bound *= cfg.rel_tol
            np.logical_and.reduce(np.less_equal(size, bound, out=ok[:m]), axis=1, out=small[1 : m + 1])
            stop = small[1 : m + 1] & small[:m]
            stop[: max(0, 2 - n)] = False  # none stops at n + j <= 2
            _freeze(ends, pending, stop, sums[1 : m + 1])
            n += m
            sums[0], small[0] = sums[m], small[m]
    return ends, pending


@functools.lru_cache(maxsize=None)
def _k0_nodes(rel_tol: float) -> tuple:
    """The nodes v = k h, k = N..0, of `_k0_rule` at rel_tol: v^2, the
    weights w = 2h e^(-v^2), halved at v = 0, and w v^2, as floats and as a
    (2, 1) array.  With L = ln(10 / rel_tol), h = 4 pi / (4 + L) puts the
    rule's error near e^(4 - 4 pi / h) = rel_tol / 10, and
    N = ceil(sqrt(L) / h) stops where e^(-v^2) falls below that: 21 nodes,
    h = 0.3077, at the default rel_tol."""
    big_l = math.log(10.0 / rel_tol)
    h = 4.0 * math.pi / (4.0 + big_l)
    nodes = []
    for k in range(math.ceil(math.sqrt(big_l) / h), -1, -1):
        v2 = (k * h) * (k * h)
        w = (h if k == 0 else 2.0 * h) * math.exp(-v2)
        nodes.append((v2, w, w * v2, np.array([[w], [w * v2]])))
    return tuple(nodes)


def _k0_rule(x, cfg: SeriesConfig) -> tuple:
    """(K0, K1, pending) at x >= 2, a float or an array, by the trapezoidal
    rule on K0(x) = int_0^inf e^(-x cosh t) dt (DLMF 10.32.9) and K1, its
    integral with cosh t, after x (cosh t - 1) = v^2:
        K0(x) = e^(-x) int_0^inf e^(-v^2) 2 / sqrt(2x + v^2) dv,
        K1(x) = e^(-x) int_0^inf e^(-v^2) (1 + v^2 / x) 2 / sqrt(2x + v^2) dv.
    Both factors of e^(-v^2) are analytic for |Im v| < sqrt(2x), at least 2,
    so the rule converges like e^(4 - 4 pi / h) at every x >= 2 (Trefethen
    and Weideman, SIAM Review 56, 2014).  Every lane takes the same fixed
    nodes (`_k0_nodes`), summed from the last one, where the terms are
    smallest: an array's lanes are a float's bit for bit.  More nodes than
    max_terms refuse a float x and leave every lane of an array pending."""
    nodes = _k0_nodes(cfg.rel_tol)
    array = _is_array(x)
    if len(nodes) > cfg.max_terms:
        if not array:
            raise _unconverged(x, cfg)
        return np.zeros(x.shape), np.zeros(x.shape), np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):  # 2x overflows past 8.9e307, where e^(-x) is 0
        two_x = 2.0 * x
        if array:
            s, r = np.zeros((2, x.size)), np.empty(x.size)
            terms = np.empty((2, x.size))
            for v2, _, _, w in nodes:
                np.sqrt(np.add(two_x, v2, out=r), out=r)
                np.add(s, np.divide(w, r, out=terms), out=s)
            s0, s2 = s
        else:
            s0 = s2 = 0.0
            for v2, w0, w2, _ in nodes:
                r = math.sqrt(two_x + v2)
                s0, s2 = s0 + w0 / r, s2 + w2 / r
        e = _per_element(math.exp, -x)
        return e * s0, e * (s0 + s2 / x), np.zeros(x.shape, dtype=bool) if array else False


def _miller_start(m, x, cfg: SeriesConfig) -> tuple:
    """(start, top, pending) of Miller's recurrence for the order scale m, a
    float or an array: each lane's start N = m + 15 + sqrt(40 m) rounded up
    to even, and the highest.  An N past max_terms is refused at a float x,
    and pending, with start 0, in an array (False at a float)."""
    array = _is_array(m)
    half = 0.5 * (m + 15.0 + (np.sqrt if array else math.sqrt)(40.0 * m))
    if array:
        pending = half > cfg.max_terms // 2
        start = 2.0 * np.ceil(np.where(pending, 0.0, half))  # 0: never starts
        return start, int(start.max(initial=0.0)), pending
    if half > cfg.max_terms // 2:
        raise _unconverged(x, cfg)
    start = 2.0 * math.ceil(half)
    return start, int(start), False


def _miller(x, cfg: SeriesConfig, y: bool) -> tuple:
    """(rows, pending) at |x| >= 2 (x > 0 if y), a float or an array: J0 and
    J0' and, if y, Y0 and Y0'.

    Miller's downward recurrence j_(n-1) = (2n/x) j_n - j_(n+1) runs from
    j_(N+1) = 0, j_N = 1, N = |x| + 15 + sqrt(40 |x|) rounded up to even,
    and J_n = j_n / (j_0 + 2 sum_k j_2k), since J0 + 2 sum_k J_2k = 1
    (Numerical Recipes 6.5); at x < 0 the j_n are those at |x| times
    (-1)^n, so J0 is even and J0' = -J1 odd.  Y0 is Neumann's series
    (2/pi) [ell J0 - 2 sum_k (-1)^k J_2k / k], ell = ln(x/2) + gamma
    (Abramowitz and Stegun 9.1), and Y0' its term-wise derivative, with
    J_n' = (J_(n-1) - J_(n+1)) / 2.  Each lane of an array starts at its own
    N, so it does the arithmetic of a float; an N past max_terms is refused
    at a float and pending in an array (False at a float).
    """
    array = _is_array(x)
    with np.errstate(all="ignore"):
        start, top, pending = _miller_start(np.abs(x) if array else abs(x), x, cfg)
        tox = 2.0 / x
        a = b = norm = ys = ds = np.zeros(x.shape) if array else 0.0
        for n in range(top, 0, -2):  # a = j_(n+1), b = j_n
            b = b + (start == n)
            c = n * tox * b - a  # j_(n-1)
            norm = norm + b
            if y:
                k = n // 2 if n % 4 == 0 else -(n // 2)  # (-1)^k k
                ys = ys + b / k
                ds = ds + (c - a) / k
            a, b = c, (n - 1) * tox * c - b
        norm = b + 2.0 * norm
        j0, j1 = b / norm, a / norm
        if not y:
            return (j0, -j1), pending
        ell = _per_element(math.log, x) + _ELL0
        y0 = _TWO_OVER_PI * (ell * j0 - 2.0 * ys / norm)
        return (j0, -j1, y0, _TWO_OVER_PI * (j0 / x - ell * j1 - ds / norm)), pending


# J_p's Miller sequence grows by up to about 5e167 between its start and
# J_q under the default SeriesConfig; past this it is scaled down, as in
# Numerical Recipes' bessj, for a larger max_terms and p
_RESCALE = 2.0**600


def _jp_miller(x, cfg: SeriesConfig, p: float) -> tuple:
    """((J_p, J_p'), pending) at x >= 2, a float or an array.

    Miller's downward recurrence j_(nu-1) = (2 nu / x) j_nu - j_(nu+1) runs
    at the orders nu = q + n, q = p - floor(p), from j_(q+N+1) = 0,
    j_(q+N) = 1, N set by the order scale max(x, p) (`_miller_start`), and
    is normalised by sum_k (q+2k) Gamma(q+k) / k! J_(q+2k) = (x/2)^q,
    summed from the top as Horner's rule in the ratios of its weights
    (Numerical Recipes 6.5).  For p > 0, J_p and J_(p+1) are read off the
    sequence; for p < 0 the recurrence runs on from J_q and J_(q+1) down
    to J_p.  Then J_p' = (p/x) J_p - J_(p+1).  Each lane of an array starts
    at its own N, so it does the arithmetic of a float; an N past max_terms
    is refused at a float and pending in an array (False at a float).
    """
    top_order = math.floor(p)
    q = p - top_order
    array = _is_array(x)
    with np.errstate(all="ignore"):
        start, top, pending = _miller_start(np.maximum(x, p) if array else max(x, p), x, cfg)
        tox = 2.0 / x
        a = b = norm = jp = jp1 = np.zeros(x.shape) if array else 0.0
        for n in range(top, -1, -1):  # a = j_(q+n+1), b = j_(q+n)
            b = b + (start == n)
            if n % 2 == 0:  # the weights of j_(q+n+2) and j_(q+n) have the ratio r_k
                k = n // 2 + 1
                norm = b + (q + 2 * k) * (q + k - 1) / ((q + 2 * k - 2) * k) * norm
                over = abs(norm) > _RESCALE
                if over.any() if array else over:  # an exact power of 2, per lane
                    s = np.where(over, 1.0 / _RESCALE, 1.0) if array else 1.0 / _RESCALE
                    a, b, norm, jp, jp1 = a * s, b * s, norm * s, jp * s, jp1 * s
            if n == top_order:
                jp, jp1 = b, a
            if n:
                a, b = b, (q + n) * tox * b - a
        scale = _per_element(lambda e: math.pow(0.5 * e, q), x) / math.gamma(1.0 + q) / norm
        if top_order >= 0:
            f, f1 = jp * scale, jp1 * scale
        else:
            f, f1 = b * scale, a * scale
            for k in range(-top_order):  # J_(nu-1) from J_nu and J_(nu+1), nu = q - k
                f, f1 = (q - k) * tox * f - f1, f
        return (f, p / x * f - f1), pending


def _refuse_pending(x, pending, cfg: SeriesConfig) -> None:
    """Refuse the first lane of x that did not converge, as a pointwise loop would."""
    if np.any(pending):
        raise _unconverged(x[np.argmax(pending)], cfg)


def _regimes(x, cfg: SeriesConfig, cut: float, below, above):
    """The rows of below(x, cfg) where |x| < cut and of above(x, cfg) from
    there, each kernel giving (rows, pending): one call at a float x; at an
    array x one call of each over its lanes, the rows merged into one array,
    and the first lane that did not converge refused."""
    if not _is_array(x):
        return (below if abs(x) < cut else above)(x, cfg)[0]
    low = np.abs(x) < cut
    calls = [(lanes, kernel) for lanes, kernel in ((low, below), (~low, above)) if lanes.any()]
    out, pending = None, np.zeros(x.shape, dtype=bool)
    for lanes, kernel in calls or [(low, above)]:  # an empty x takes one empty call
        rows, pending[lanes] = kernel(x[lanes], cfg)
        if out is None:
            out = np.empty((len(rows), x.size))
        out[:, lanes] = rows
    _refuse_pending(x, pending, cfg)
    return out


# Below this |x| the J0 and I0 jets are the Taylor limit (1, s x/2, s/2,
# 3x/8) at 0, s = -1 and 1, with +0 for the odd orders at x = -0; against
# mpmath it is 0.73 ulp off on [2^-27, 2^-26] and 2.9 ulp on [2^-26, 2^-25],
# where the rows of the series are within 1.5 ulp.
_SMALL = 2.0**-26


def _power_jet(x, cfg: SeriesConfig, sign: float) -> tuple:
    """(jet, pending): the I0 (sign 1) or J0 (sign -1) jet at a float or an
    array x from the rows of `_ik_series` with `_i0_weights`, the second
    and fourth times h = x/2, or the Taylor limit where |x| < _SMALL, which
    sums nothing at such a float x."""
    limit = (1.0, 0.5 * sign * x + 0.0, 0.5 * sign, 0.375 * x + 0.0)  # + 0.0: +0 at x = -0
    if not _is_array(x) and abs(x) < _SMALL:
        return limit, False
    rows, pending = _ik_series(x, cfg, _i0_weights, sign)
    h = 0.5 * x
    jet = rows[0], h * rows[1], rows[2], h * rows[3]
    if _is_array(x):
        small = np.abs(x) < _SMALL
        jet = tuple(np.where(small, v, r) for v, r in zip(limit, jet))
    return jet, pending


def _equation_jet(x, f, f1, sign: float) -> tuple:
    """(f, f', f'', f''') of a solution of x f'' + f' - sign x f = 0 from f
    and f': J0 and Y0 (sign -1), K0 (sign 1)."""
    f1_x = f1 / x
    f2 = sign * f - f1_x
    return f, f1, f2, sign * f1 - (f2 - f1_x) / x


def _y0_log(x, cfg: SeriesConfig) -> tuple:
    """((Y0, Y0'), pending) at 0 < x < 2: -(2/pi) times the rows of Y0's log
    series, -(pi/2) Y0 and x times its derivative, which `_k0_weights`
    gives with sign -1."""
    rows, pending = _ik_series(x, cfg, _k0_weights, _per_element(math.log, x) + _ELL0, -1.0)
    with np.errstate(over="ignore"):  # Y0' at subnormal x, where only the value is read
        return (-_TWO_OVER_PI * rows[0], -_TWO_OVER_PI * rows[1] / x), pending


def _j0_y0(x, cfg: SeriesConfig, y: bool):
    """The J0 jet and, if y, Y0 and Y0' at x (x > 0 if y), in six rows:
    below |x| = 2 `_power_jet` and `_y0_log`; from there `_miller`, with
    J0'' and J0''' from the equation."""

    def below(x, cfg):
        jet, pending = _power_jet(x, cfg, -1.0)
        if not y:
            return jet, pending
        rows, more = _y0_log(x, cfg)
        return (*jet, *rows), pending | more

    def above(x, cfg):
        rows, pending = _miller(x, cfg, y)
        return (*_equation_jet(x, rows[0], rows[1], -1.0), *rows[2:]), pending

    return _regimes(x, cfg, _MILLER_FROM, below, above)


def _k0_pair(x, cfg: SeriesConfig) -> tuple:
    """(K0, K0') at x > 0, a float or an array: the log series below x = 2,
    the trapezoidal rule from there."""

    def below(x, cfg):
        rows, pending = _ik_series(x, cfg, _k0_weights, _per_element(math.log, x) + _ELL0)
        with np.errstate(over="ignore"):  # K0' at subnormal x, where only the value is read
            return (rows[0], rows[1] / x), pending

    def above(x, cfg):
        k0, k1, pending = _k0_rule(x, cfg)
        return (k0, -k1), pending

    return _regimes(x, cfg, _K0_RULE_FROM, below, above)


# ----------------------------------------------------------------------
# order-zero values; like the jets, they take a 1-D float64 array for x


def bessel_j0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """J0(x) = sum_n (-1)^n (x/2)^(2n) / (n!)^2; entire and even, and
    `j0_jet`'s f bit for bit."""
    return j0_jet(x, cfg)[0]


def bessel_i0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """I0(x) = sum_n (x/2)^(2n) / (n!)^2; entire, even, >= 1, and `i0_jet`'s
    f bit for bit."""
    return i0_jet(x, cfg)[0]


def bessel_y0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Y0(x) = (2/pi) { (ln(x/2) + gamma) J0(x) - sum_n (-1)^n phi(n) (x/2)^(2n)/(n!)^2 }
    below x = 2, summed as Y0's log series alone (`_y0_log`), and Neumann's
    series in Miller's J_2k from there; `y0_jet`'s f bit for bit.  Below
    x = 2 it is not refused where only the J0 rows, which `y0_jet` also
    sums, do not converge."""
    _require_finite(x, "y0", 0.0, "finite x > 0")

    def above(x, cfg):
        rows, pending = _miller(x, cfg, True)
        return rows[2:], pending

    return _regimes(x, cfg, _MILLER_FROM, _y0_log, above)[0]


def bessel_k0(x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """K0(x) = sum_n (phi(n) - ln(x/2) - gamma) (x/2)^(2n)/(n!)^2 below x = 2,
    the trapezoidal rule on its integral from there; positive, and
    `k0_jet`'s f bit for bit."""
    _require_finite(x, "k0", 0.0, "finite x > 0")
    return _k0_pair(x, cfg)[0]


# ----------------------------------------------------------------------
# jets: value and derivatives up to third order


def j0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(J0, J0', J0'', J0''')(x): the rows of its series (`_power_jet`) below
    |x| = 2, Miller's J0 and J0' = -J1 and the equation from there.  x may
    be a 1-D float64 array: each component is then an array, bit-identical
    to evaluating every element on its own."""
    _require_finite(x, "j0")
    return tuple(_j0_y0(x, cfg, False))


def i0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(I0, I0', I0'', I0''')(x): the rows of its series (`_power_jet`),
    whose terms are all positive; x may be a 1-D float64 array."""
    _require_finite(x, "i0")
    jet, pending = _power_jet(x, cfg, 1.0)
    _refuse_pending(x, pending, cfg)
    return jet


# The Y0/K0 jets refuse x < 2^-330, below which their f''' of about 1/x^3
# nears the float range (it overflows below 5.6e-103).
_LOG_JET_LOW = math.nextafter(2.0**-330, 0.0)


class _LogJet(tuple):
    """(f, f', f'', f''') of Y0 or K0 at x, with the J0 or I0 jet at x as
    `primary`: Y0's from the same call, K0's summed on first use from its
    own copy of x, so that K0 is not refused where I0's series fails."""

    @functools.cached_property
    def primary(self) -> tuple:
        return i0_jet(*self._args)


def y0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(Y0, Y0', Y0'', Y0''')(x): `bessel_y0`'s Y0 and Y0', then f'' and f'''
    from the equation, with the J0 jet at x, which the same kernels sum, as
    `primary`.  x may be a 1-D float64 array."""
    _require_finite(x, "y0 jet", _LOG_JET_LOW, "finite x >= 2**-330")
    rows = _j0_y0(x, cfg, True)
    jet = _LogJet(_equation_jet(x, rows[4], rows[5], -1.0))
    jet.primary = tuple(rows[:4])
    return jet


def k0_jet(x, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(K0, K0', K0'', K0''')(x): `_k0_pair`'s K0, which is `bessel_k0`, and
    K0', then f'' and f''' from the equation, each order of one sign; the I0
    jet at x is `primary`.  x may be a 1-D float64 array."""
    _require_finite(x, "k0 jet", _LOG_JET_LOW, "finite x >= 2**-330")
    jet = _LogJet(_equation_jet(x, *_k0_pair(x, cfg), 1.0))
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


def _jp_cut(p: float) -> float:
    """J_p's crossover x_c: its series below, Miller's recurrence from there.
    For p > 0 the series' |terms| sum to at most e^(x^2 / (4 (p+1))), e at
    x_c = 2 sqrt(p+1); against mpmath neither 0.75 nor 1.25 times x_c did
    better, for p from -10.3 to 25.3."""
    return 2.0 * math.sqrt(p + 1.0) if p > 0.0 else 2.0


def _jp_prefactor(p: float, x: float) -> float:
    """(x/2)^p / Gamma(1+p), refused where Gamma(1+p) is 0 or overflows."""
    try:
        g = gamma(1.0 + p)
    except OverflowError:
        g = math.inf
    if g == 0.0 or math.isinf(g):
        raise DomainError(f"bessel_j requires Gamma(1+p) to be finite and nonzero, got p={p!r}")
    return math.pow(0.5 * x, p) / g


def _jp_series(x, cfg: SeriesConfig, p: float, rows: int) -> tuple:
    """(rows, pending) of J_p's series (`_jp_weights`) at x, a float or an
    array: J_p^(k) x^k over the prefactor, k < rows."""
    return _ik_series(x, cfg, _jp_weights, p, [1.0], rows)


def _jp_value(x, cfg: SeriesConfig, p: float, cut: float):
    """J_p at x > 0, a float or an array, over the prefactor below cut."""

    def above(x, cfg):
        (f, _), pending = _jp_miller(x, cfg, p)
        return (f,), pending

    return _regimes(x, cfg, cut, lambda x, cfg: _jp_series(x, cfg, p, 1), above)[0]


def bessel_j(p: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """J_p(x) = (x/2)^p / Gamma(1+p) * sum_n (-1)^n (x/2)^(2n) / ((1+p)_n n!)
    below `_jp_cut`, Miller's recurrence from there.

    p may be negative (the second Frobenius branch); 2p must not be an integer.
    x may be a 1-D float64 array: each element is checked and takes its libm
    prefactor in order, and each kernel runs once over its lanes; values and
    errors are a pointwise loop's.
    """
    cut = _jp_cut(p)
    if not _is_array(x):
        _check_jp_args(p, x)
        if x == 0.0:
            return 0.0  # p > 0 here; the x^p prefactor wins
        a0 = _jp_prefactor(p, x) if x < cut else 1.0
        value = a0 * _jp_value(x, cfg, p, cut)
        if not math.isfinite(value):  # the prefactor, or its product, overflowed
            raise DomainError(f"bessel_j of order p={p!r} overflows at x={x!r}")
        return value
    a0 = np.ones(x.shape)
    for i, e in enumerate(x.tolist()):
        try:
            _check_jp_args(p, e)
            if 0.0 < e < cut:
                a0[i] = _jp_prefactor(p, e)
            if math.isinf(a0[i]):
                bessel_j(p, e, cfg)  # refuses e: its series, or the overflow
        except (ArithmeticError, ValueError):
            if i:  # a pointwise loop meets an earlier refusal first
                bessel_j(p, x[:i], cfg)
            raise
    out, nonzero = np.zeros(x.shape), x != 0.0  # x = 0 sums nothing
    with np.errstate(over="ignore"):
        out[nonzero] = a0[nonzero] * _jp_value(x[nonzero], cfg, p, cut)
    if not np.isfinite(out).all():  # refused at the first such x, as a float x is
        bessel_j(p, float(x[np.argmin(np.isfinite(out))]), cfg)
    return out


def jp_jet(p: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES) -> tuple[float, float, float, float]:
    """(J_p, J_p', J_p'', J_p''')(x) for x >= 2^-340: below `_jp_cut` the
    prefactor (x/2)^p / Gamma(1+p) times x^-k and the series' rows; from
    there Miller's J_p and J_p', and J_p'' and J_p''' from Bessel's
    equation.  A jet that overflows is refused."""
    _check_jp_args(p, x)
    if x < 2.0**-340:  # x^3 is subnormal or 0 there
        raise DomainError(f"jp_jet requires x >= 2**-340, got {x!r}")
    if x < _jp_cut(p):
        a0 = _jp_prefactor(p, x)
        r0, r1, r2, r3 = _jp_series(x, cfg, p, 4)[0]
        jet = (a0 * r0, a0 / x * r1, a0 / (x * x) * r2, a0 / (x * x * x) * r3)
    else:
        (f, f1), _ = _jp_miller(x, cfg, p)
        c = p * p / (x * x) - 1.0  # x^2 f'' + x f' + (x^2 - p^2) f = 0, and its derivative
        f2 = c * f - f1 / x
        jet = (f, f1, f2, c * f1 - 2.0 * p * p / (x * x * x) * f - f2 / x + f1 / (x * x))
    if not all(math.isfinite(v) for v in jet):  # a prefactor, like a0 / x^3 ~ x^(p-3), overflowed
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
