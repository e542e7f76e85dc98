"""Double-double ("compensated") arithmetic for series summation.

The order-zero Bessel series suffer catastrophic cancellation for moderate
arguments (at x = 10 the largest J0 term is ~678 while the sum is ~0.25), so
plain float64 summation leaves absolute errors around 1e-11.  The downstream
finite-difference ODE residual checks divide such errors by h^2, which would
swamp their tolerance.  Summing with ~32 significant digits and rounding once
at the end keeps function values correct to the last bit of a float64.

Values are (hi, lo) pairs with hi = fl(hi + lo) and |lo| <= ulp(hi)/2.
Algorithms are the classic Dekker/Knuth error-free transforms; no fused
multiply-add is assumed.  They use only IEEE + - * /, so every function
except `log` also runs unchanged on pairs of float64 arrays, element by
element and with bit-identical results; `log_array` is the array form of
`log`.

For loops over arrays, `two_sum`, `two_prod`, `add` and `div_f`
also have in-place forms, `*_into(x, y, out, work)`: they write the pair
into `out`, two caller-owned arrays, through numpy's `out` argument, and
keep their intermediates in the scratch arrays `work`, so they allocate no
array.  Each runs its tuple twin's IEEE operations, operands in the same
order, so the bits are the same.
"""

from __future__ import annotations

import math as _math

import numpy as _np

DD = tuple[float, float]

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a: float, b: float) -> DD:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a: float, b: float) -> DD:
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def add(x: DD, y: DD) -> DD:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return two_sum(s, e)


def add_f(x: DD, b: float) -> DD:
    s, e = two_sum(x[0], b)
    e += x[1]
    return two_sum(s, e)


def mul(x: DD, y: DD) -> DD:
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return two_sum(p, e)


def mul_f(x: DD, b: float) -> DD:
    p, e = two_prod(x[0], b)
    e += x[1] * b
    return two_sum(p, e)


def div_f(x: DD, d: float) -> DD:
    q1 = x[0] / d
    p, e = two_prod(q1, d)
    r = ((x[0] - p) - e) + x[1]
    return two_sum(q1, r / d)


def div(x: DD, y: DD) -> DD:
    q1 = x[0] / y[0]
    r = add(x, mul_f(y, -q1))
    q2 = r[0] / y[0]
    r = add(r, mul_f(y, -q2))
    q3 = r[0] / y[0]
    q = two_sum(q1, q2)
    return add_f(q, q3)


# In-place forms.  x and y are pairs of arrays (or floats) and d, a, b
# arrays or floats that broadcast to `out`; `work` holds scratch arrays
# shaped like `out`, as many as the form names.  Neither `out` nor `work`
# may overlap an input, except that `add_into` may write over x or y.


def two_sum_into(a, b, out, work):
    """`two_sum(a, b)` into out; one scratch array."""
    s, e = out
    bb = work[0]
    _np.add(a, b, s)
    _np.subtract(s, a, bb)
    _np.subtract(s, bb, e)
    _np.subtract(a, e, e)
    _np.subtract(b, bb, bb)
    _np.add(e, bb, e)
    return out


def two_prod_into(a, b, out, work):
    """`two_prod(a, b)` into out; four scratch arrays."""
    p, err = out
    ahi, alo, bhi, blo = work[:4]
    _np.multiply(a, b, p)
    _np.multiply(_SPLIT, a, ahi)
    _np.subtract(ahi, a, alo)
    _np.subtract(ahi, alo, ahi)
    _np.subtract(a, ahi, alo)
    _np.multiply(_SPLIT, b, bhi)
    _np.subtract(bhi, b, blo)
    _np.subtract(bhi, blo, bhi)
    _np.subtract(b, bhi, blo)
    _np.multiply(ahi, bhi, err)
    _np.subtract(err, p, err)
    _np.multiply(ahi, blo, ahi)
    _np.add(err, ahi, err)
    _np.multiply(alo, bhi, bhi)
    _np.add(err, bhi, err)
    _np.multiply(alo, blo, alo)
    _np.add(err, alo, err)
    return out


def add_into(x, y, out, work):
    """`add(x, y)` into out, which may be x or y; three scratch arrays."""
    s, e, t = work[1], work[2], work[0]
    two_sum_into(x[0], y[0], (s, e), work)
    _np.add(x[1], y[1], t)
    _np.add(e, t, e)
    return two_sum_into(s, e, out, work)


def div_f_into(x, d, out, work):
    """`div_f(x, d)` into out; five scratch arrays."""
    q1, r = work[4], work[1]
    _np.divide(x[0], d, q1)
    p, e = two_prod_into(q1, d, out, work)
    _np.subtract(x[0], p, r)
    _np.subtract(r, e, r)
    _np.add(r, x[1], r)
    _np.divide(r, d, r)
    return two_sum_into(q1, r, out, work)


def neg(x: DD) -> DD:
    return (-x[0], -x[1])


def _sqrt(x: DD, root=_math.sqrt) -> DD:
    """Square root of x > 0 by one Newton step from the float estimate
    root(x[0]): the estimate is already correct to ~eps, and the step squares
    the error.  root is math.sqrt for floats and np.sqrt for arrays, which
    round alike."""
    s0 = root(x[0])
    return mul_f(add_f(div_f(x, s0), s0), 0.5)


_LN2 = (0.6931471805599453, 2.3190468138462996e-17)


def log(d: float) -> DD:
    """Natural logarithm of a positive float, accurate to ~1e-32.

    Reduction: d = m * 2^e with m in [0.5, 1); two square roots bring m^(1/4)
    close enough to 1 for the atanh series 2*sum t^(2k+1)/(2k+1) with
    t = (w-1)/(w+1) to converge in ~20 terms.
    """
    if d <= 0.0 or not _math.isfinite(d):
        raise ValueError(f"log requires a positive finite argument, got {d!r}")
    m, e = _math.frexp(d)
    w = _sqrt(_sqrt((m, 0.0)))
    t = div(add_f(w, -1.0), add_f(w, 1.0))
    t2 = mul(t, t)
    acc = t
    p = t
    k = 1
    while k < 60:
        p = mul(p, t2)
        term = div_f(p, float(2 * k + 1))
        acc = add(acc, term)
        k += 1
        if abs(term[0]) <= 1e-35 * abs(acc[0]):
            break
    ln_m = mul_f(acc, 8.0)  # times 2 for atanh, times 4 for the two square roots
    return add(ln_m, mul_f(_LN2, float(e)))


def log_array(d: _np.ndarray) -> DD:
    """`log` of every element of a float64 array, bit-identical to calling
    `log` element by element: the operations are the same, and each
    element's atanh series is frozen at the term where `log` stops it."""
    ok = _np.isfinite(d) & (d > 0.0)
    if not ok.all():
        bad = float(d[_np.argmin(ok)])
        raise ValueError(f"log requires a positive finite argument, got {bad!r}")
    m, e = _np.frexp(d)
    w = _sqrt(_sqrt((m, _np.zeros_like(m)), _np.sqrt), _np.sqrt)
    t = div(add_f(w, -1.0), add_f(w, 1.0))
    t2 = mul(t, t)
    acc = t
    p = t
    hi = _np.empty_like(d)
    lo = _np.empty_like(d)
    pending = _np.ones(d.shape, dtype=bool)
    for k in range(1, 60):
        p = mul(p, t2)
        term = div_f(p, float(2 * k + 1))
        acc = add(acc, term)
        stop = pending & (_np.abs(term[0]) <= 1e-35 * _np.abs(acc[0]))
        if stop.any():
            hi[stop] = acc[0][stop]
            lo[stop] = acc[1][stop]
            pending &= ~stop
            if not pending.any():
                break
    hi[pending] = acc[0][pending]
    lo[pending] = acc[1][pending]
    ln_m = mul_f((hi, lo), 8.0)
    return add(ln_m, mul_f(_LN2, e.astype(_np.float64)))


def to_float(x: DD) -> float:
    return x[0] + x[1]
