"""Exact `%.17g` and `%d` text of whole numeric arrays, for the CSV and OBJ
writer of `sigeom.cli`.

The text of a number is a row of bytes: its characters in order, with NUL
bytes between them wherever a wider row leaves room.  The writer lays the
rows of a block side by side and deletes the NULs once, with
`bytes.translate`.

Floats with 1e-4 <= |x| < 1e17, and ±0, never reach Python's `%`: there
`%.17g` prints 17 significant digits in fixed notation, and they are an
integer D computed exactly from Dekker's error-free product (`two_prod`)
of |x| and an exact power of ten.  Integers get their digits by integer
division.  Every other float goes through `%` on its own.  Imported on the
first write, so CLI runs that write no table never compile it.
"""

from __future__ import annotations

import numpy as np

from ._ddouble import two_prod


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text of "0000" ... "9999", one uint32 each whose four bytes are
    the digits, and the trailing zeros of each ("0000" has four).

    Row 0 of the text is in full, row 1 has NUL for leading zeros ("0000"
    is all NUL), and row 2 is row 1 but with "0000" as a lone "0"."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    zero = digits == 0
    lead = zero.copy()
    trailing = zero[:, 3].astype(np.intp)
    for j in (1, 2, 3):
        lead[:, j] &= lead[:, j - 1]
        trailing += zero[:, 3 - j :].all(axis=1)
    text = np.empty((3, 10_000, 4), np.uint8)
    text[0] = digits + 48
    text[1] = text[0] * ~lead
    text[2] = text[1]
    text[2, 0, 3] = 48
    return text.view(np.uint32)[..., 0], trailing


_QUAD_TEXT, _QUAD_TZ = _quad_tables()
_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]
_POW10 = np.array([float(10**p) for p in range(21)])  # exact doubles


def _float_layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three masks of 24 bytes per (p, hi), each as three uint64 words.

    A float's 17 significant digits, after three zeros, are S[0:20].  Its
    text keeps S[min(p, 3):p] before the point and S[p:hi] after it, with
    a lead "0" where p < 4 (|x| < 1) and the point where hi > p.  The
    first mask picks S[:p] from a copy of S at byte 3, the second S[p:hi]
    from a copy at byte 4; the third holds the point at byte 3 + p and the
    lead "0" at byte 1.  Byte 0 is left for the sign."""
    j = np.arange(24)
    p = np.arange(21)[:, None, None]
    hi = np.arange(21)[None, :, None]
    before = (j >= 3 + np.minimum(p, 3)) & (j < 3 + p)
    after = (j >= 4 + p) & (j < 4 + hi)
    fixed = np.where((j == 1) & (p < 4), 48, 0) + np.where((j == 3 + p) & (hi > p), 46, 0)
    return tuple(
        np.broadcast_to(m, (21, 21, 24)).astype(np.uint8).reshape(21 * 21, 24).view(np.uint64)
        for m in (before * 255, after * 255, fixed)
    )


_BEFORE, _AFTER, _FIXED = _float_layouts()


def _quads(m: np.ndarray, count: int) -> list[np.ndarray]:
    """The last `count` four-digit groups of each non-negative integer, most
    significant first; the first holds all the higher digits."""
    groups = []
    for _ in range(count - 1):
        q = m // 10_000
        groups.append(m - q * 10_000)
        m = q
    return [m, *groups[::-1]]


def float_text(x: np.ndarray) -> np.ndarray:
    """`"%.17g" % v` of each float64 as rows of 24 bytes.

    For 1e-4 <= |v| < 1e17 and for ±0 %g prints 17 significant digits in
    fixed notation.  They are D = round(|v| * 10**(16 - k)), half to even,
    for the k with 10**16 <= D < 10**17: log10 proposes k, two_prod gives
    |v| * 10**(16 - k) exactly as hi + lo, and floor(hi + lo) outside
    [1e16, 1e17) moves k by one and tries again.  Every other value (|v| <
    1e-4, |v| >= 1e17, inf, nan) is formatted by `%` on its own."""
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e17)
    a = np.where(exact, a, 0.0)  # formatted as 0, then replaced
    k = np.floor(np.log10(np.where(exact, a, 1.0))).astype(np.intp).clip(-4, 16)
    while True:
        hi, lo = two_prod(a, _POW10[16 - k])
        # hi is whole where the product is at least 1e16; below, the sum is too
        floor = hi.astype(np.int64) + np.floor(lo).astype(np.int64)
        step = (floor >= 10**17).view(np.int8) - ((floor < 10**16) & exact).view(np.int8)
        if not step.any():
            break
        k += step
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi is even: rint rounds D
    carry = d == 10**17  # rounded up to 10**(k + 1)
    d[carry], k[carry] = 10**16, k[carry] + 1
    groups = _quads(d, 5)
    # S[:end] ends at the last non-zero digit (end = 0 for D = 0)
    end = 20 - _QUAD_TZ[groups[4]]
    zero = groups[4] == 0
    for g in range(3, -1, -1):
        if not zero.any():
            break
        end[zero] = 4 * g + 4 - _QUAD_TZ[groups[g][zero]]
        zero &= groups[g] == 0
    p = k + 4  # S[p] is the first digit after the point
    layout = p * 21 + np.maximum(p, end)
    right = np.zeros((len(d), 6), np.uint32)
    for g, group in enumerate(groups):
        right[:, g + 1] = _QUAD_TEXT[0, group]  # S at byte 4
    right = right.view(np.uint64)
    left = np.zeros_like(right)
    left.view(np.uint8)[:, :23] = right.view(np.uint8)[:, 1:]  # S at byte 3
    text = left & np.take(_BEFORE, p * 21, axis=0)
    text |= right & np.take(_AFTER, layout, axis=0)
    text |= np.take(_FIXED, layout, axis=0)
    text = text.view(np.uint8)
    text[:, 0] = np.signbit(x) * 45  # "-"
    rest = np.flatnonzero(~exact & (x != 0))
    if rest.size:
        fallback = b"".join(b"%-24.17g" % v for v in x[rest].tolist())
        text[rest] = np.frombuffer(fallback.replace(b" ", b"\0"), np.uint8).reshape(-1, 24)
    return text


def int_text(v: np.ndarray) -> np.ndarray:
    """`"%d" % i` of each int64 as a row of four-byte words: a sign word if
    any value is negative, then as many four-digit groups as the widest
    value needs, with NUL for leading zeros."""
    magnitude = np.abs(v).view(np.uint64)  # |int64 min| is 2**63
    count = -(-len(str(int(magnitude.max(initial=0)))) // 4)
    negative = v < 0
    signed = int(negative.any())
    words = np.empty((len(v), signed + count), np.uint32)
    if signed:
        words[:, 0] = np.where(negative, _MINUS, 0)
    above = np.ones(len(v), bool)  # all higher digits are zero
    for i, group in enumerate(_quads(magnitude, count)):
        words[:, signed + i] = _QUAD_TEXT[above * (1 if i < count - 1 else 2), group]
        above &= group == 0
    return words.view(np.uint8)


def number_text(values: np.ndarray) -> np.ndarray:
    """The `%d` (integers) or `%.17g` (other numbers) text of each value of a
    1-D array, one row of bytes per value."""
    if values.dtype.kind in "iu":
        return int_text(values.astype(np.int64))
    return float_text(values.astype(np.float64))
