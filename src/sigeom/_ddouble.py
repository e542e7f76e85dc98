"""Double-double ("compensated") arithmetic for series summation.

The series of J_p suffers catastrophic cancellation for moderate arguments
(at x = 10 its largest term is in the hundreds while the sum is below 1),
so plain float64 summation leaves absolute errors around 1e-11.  Summing
with ~32 significant digits and rounding once at the end keeps its values
correct to the last bit of a float64.

Values are (hi, lo) pairs with hi = fl(hi + lo) and |lo| <= ulp(hi)/2.
Algorithms are the classic Dekker/Knuth error-free transforms; no fused
multiply-add is assumed.  They use only IEEE + - * /, so every function
also runs unchanged on pairs of float64 arrays, element by element and with
bit-identical results.

For loops over arrays, `two_sum`, `two_prod` and `add` also have
in-place forms, `*_into(x, y, out, work)`: they write the pair
into `out`, two caller-owned arrays, through numpy's `out` argument, and
keep their intermediates in the scratch arrays `work`, so they allocate no
array.  Each runs its tuple twin's IEEE operations, operands in the same
order, so the bits are the same.
"""

from __future__ import annotations

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


# In-place forms.  x and y are pairs of arrays (or floats) and a, b
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


def neg(x: DD) -> DD:
    return (-x[0], -x[1])


def to_float(x: DD) -> float:
    return x[0] + x[1]
