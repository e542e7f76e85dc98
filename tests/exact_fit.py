"""The least squares of Lap r = lambda r in exact rationals, against which
the float eigen fits of `sigeom.classify` are checked.

A grid whose samples repeat along v (r3 = f(u), Lap r3 = c(u)) has sums
nv times those over its radii, so its exact least squares and sup residual
are those of the radii.
"""

from fractions import Fraction

import numpy as np

EPS = 2.0**-53


def lambda_bound(n, lam, abs_num, den):
    """The largest |lambda - lambda*| allowed between a float fit that sums
    n products and the exact least squares lambda* = num / den of its
    samples, num = sum(Lap r * r), den = sum(r^2) and abs_num =
    sum|Lap r * r|.

    The float sums differ from num and den by the rounding of the samples
    (none for r3's; two a term for the separable rule, whose sums over the
    radii are the grid's divided by sum(h^2)), of the products (one) and of
    numpy's sum of n terms (at most (n - 1) eps times the sum of their
    magnitudes): by (n + 2) eps kappa |num| and (n + 2) eps den, with
    kappa = abs_num / |num| the condition number of the sum.  The division
    rounds once more, so to first order
    |lambda - lambda*| <= ((n + 2) (kappa + 1) + 1) eps |lambda*|.
    """
    return (n + 4) * EPS * (abs_num / den + abs(lam))


def exact_fit(lap, r):
    """(lambda*, sup residual, sum|lap r|, sum r^2) of the least squares of
    lap = lambda r over the samples (arrays that broadcast), in rationals;
    lambda* = 0 where r vanishes."""
    lap, r = np.broadcast_arrays(np.asarray(lap, dtype=np.float64), np.asarray(r, dtype=np.float64))
    lq, rq = [list(map(Fraction, x.ravel().tolist())) for x in (lap, r)]
    products = [x * y for x, y in zip(lq, rq)]
    den = sum(y * y for y in rq)
    lam = sum(products) / den if den else Fraction(0)
    res = max(abs(x - lam * y) for x, y in zip(lq, rq))
    return lam, res, sum(map(abs, products)), den


def check_fit(fit, lap, r, n, slack=1, where=None):
    """Assert that a (lambda, sup residual, relative residual) fit whose
    sums ran over n terms is the exact least squares of the samples lap and
    r: lambda within `slack` times `lambda_bound`, the residual within what
    that error and the roundings of lambda r and of lap - lambda r allow,
    and the relative residual the residual over max|r|; `where` names the
    fit in a failure.  Returns lambda*."""
    lam, res, rel = fit
    lam_x, res_x, abs_num, den = exact_fit(lap, r)
    r_max, lap_max = float(np.max(np.abs(r))), float(np.max(np.abs(lap)))
    if den == 0:  # lambda = 0 by convention, and the residual is max|lap|, exactly
        assert (lam, res, rel) == (0.0, lap_max, lap_max), where
        return 0.0
    lam_err = slack * lambda_bound(n, lam_x, abs_num, den)
    assert abs(Fraction(lam) - lam_x) <= lam_err, where
    res_err = 4 * slack * EPS * (lap_max + abs(lam_x) * r_max) + float(lam_err) * r_max
    assert abs(Fraction(res) - res_x) <= res_err, where
    assert abs(rel - res / r_max) <= 4 * EPS * rel, where
    return float(lam_x)
