"""Dekker's error-free product, for the exact `%.17g` text of `_numtext`.

`two_prod(a, b)` returns (p, err) with p = fl(a b) and p + err = a b
exactly, barring overflow and underflow, by Dekker's splitting; no fused
multiply-add is assumed.  It uses only IEEE + - * /, so it also runs
unchanged on float64 arrays, element by element.
"""

from __future__ import annotations

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err
