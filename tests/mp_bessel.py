"""mpmath references for the Bessel jets, shared by the tests that check
them against the bounds documented in `sigeom.bessel`.

K0 and K1 are summed from their series (DLMF 10.31.2 and 10.31.1) in mpmath,
at 50 digits plus the digits the sums cancel, through x = 75: mpmath's
besselk takes tens to hundreds of milliseconds an argument on [2, 75], and
agrees with these sums to 1e-50 there.  Past 75 they are its besselk, which
is fast there.  Y0 and Y1 are mpmath's bessely, J_p and J_(p+1) its
besselj, and I0 and I1 its besseli.  The second and third derivatives
follow from the Bessel equation and its derivative.
"""

import functools

import mpmath

JET_BOUND = 4e-15


def _k0_k1(m):
    """K0(m) and K1(m) for an mpf m > 0, rounded to the working precision."""
    with mpmath.workdps(mpmath.mp.dps + 10 + int(m)):
        h = m / 2
        ell = mpmath.log(h) + mpmath.euler
        t, phi, i0, s0, i1, s1, k = mpmath.mpf(1), mpmath.mpf(0), 0, 0, 0, 0, 0
        while t > mpmath.eps * i0:  # t = (m/2)^(2k) / (k!)^2
            t1 = t * h / (k + 1)  # (m/2)^(2k+1) / (k! (k+1)!)
            i0, s0 = i0 + t, s0 + phi * t
            i1, s1 = i1 + t1, s1 + (2 * phi + mpmath.mpf(1) / (k + 1)) * t1
            k += 1
            t, phi = t * h * h / (k * k), phi + mpmath.mpf(1) / k
        k0, k1 = -ell * i0 + s0, 1 / m + ell * i1 - s1 / 2
    return +k0, +k1


@functools.lru_cache(maxsize=None)
def jet_reference(kind: str, x: float) -> tuple:
    """(f, f', f'', f''') of Y0 (kind "y0") or K0 ("k0") at x, to 50 digits."""
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        if kind == "k0":
            f, k1 = _k0_k1(m) if m <= 75 else (mpmath.besselk(0, m), mpmath.besselk(1, m))
            f1, sign = -k1, 1
        else:
            f, f1, sign = mpmath.bessely(0, m), -mpmath.bessely(1, m), -1
        # x^2 f'' + x f' - sign x^2 f = 0, and its derivative
        f2 = sign * f - f1 / m
        return f, f1, f2, sign * f1 - f2 / m + f1 / m**2


def jet_error(kind: str, x: float, got) -> float:
    """The worst error of got, a Y0 or K0 jet at x: relative for K0, and for
    Y0 against max(1, |Y0^(k)|)."""
    with mpmath.workdps(50):
        scale = abs if kind == "k0" else lambda w: max(1, abs(w))
        return max(float(abs(mpmath.mpf(float(g)) - w) / scale(w)) for g, w in zip(got, jet_reference(kind, x)))


@functools.lru_cache(maxsize=None)
def plain_jet_reference(kind: str, p: float, x: float) -> tuple:
    """(f, f', f'', f''') of J_p (kind "j", J0 at p = 0) or of I0 (kind "i",
    p = 0) at x > 0, to 50 digits."""
    with mpmath.workdps(50):
        m, p = mpmath.mpf(x), mpmath.mpf(p)  # p^2 and p + 1 unrounded
        if kind == "i":
            f, f1, sign = mpmath.besseli(0, m), mpmath.besseli(1, m), 1
        else:  # J_p' = (p/x) J_p - J_(p+1)
            f, sign = mpmath.besselj(p, m), -1
            f1 = p / m * f - mpmath.besselj(p + 1, m)
        # x^2 f'' + x f' - (sign x^2 + p^2) f = 0, and its derivative
        c = sign + p * p / m**2
        f2 = c * f - f1 / m
        return f, f1, f2, c * f1 - 2 * p * p / m**3 * f - f2 / m + f1 / m**2


def plain_jet_errors(kind: str, p: float, x: float, got) -> list:
    """The error of each component of got, a J_p or I0 jet at x, against
    max(1, |f^(k)|)."""
    with mpmath.workdps(50):
        return [
            float(abs(mpmath.mpf(float(g)) - w) / max(1, abs(w)))
            for g, w in zip(got, plain_jet_reference(kind, p, x))
        ]


@functools.lru_cache(maxsize=None)
def i0_jet_reference(x: float) -> tuple:
    """(I0, I0', I0'', I0''') at x > 0 to 50 digits, from the term-wise
    derivatives of I0's series, whose terms are all positive, below x = 1,
    where the equation's f''' cancels as 1/x^2; `plain_jet_reference` from
    there up."""
    if x >= 1.0:
        return plain_jet_reference("i", 0.0, x)
    with mpmath.workdps(50):
        m, rows, n = mpmath.mpf(x), [0, 0, 0, 0], 0
        t = mpmath.mpf(1)  # (x/2)^(2n) / (n!)^2
        while True:
            terms = [t * mpmath.ff(2 * n, k) / m**k for k in range(4)]
            rows = [r + term for r, term in zip(rows, terms)]
            if n > 2 and all(term <= mpmath.eps * r for term, r in zip(terms, rows)):
                return tuple(rows)
            n += 1
            t = t * (m / 2) ** 2 / n**2


def modified_jet_errors(kind: str, x: float, got) -> list:
    """The relative error of each component of got, an I0 (kind "i0") or K0
    ("k0") jet at x > 0."""
    want = i0_jet_reference(x) if kind == "i0" else jet_reference("k0", x)
    with mpmath.workdps(50):
        return [float(abs(mpmath.mpf(float(g)) - w) / abs(w)) for g, w in zip(got, want)]
