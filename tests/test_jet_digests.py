"""Digests of the Bessel jets and values over a wide range of arguments.

`test_jet_bits` pins a dozen arguments bit for bit; these pin a few thousand
through sha256 digests of `float.hex`, so that a rewrite of the series
kernels that moves any component by one ulp anywhere below x = 28 fails
here.  The arguments are 2,001 geomspace x in [2^-330, 28] (the lower end is
the Y0/K0 jets' bound) and 500 linspace x in [1, 28], where the series take
most of their terms.  Each order-0 function is digested from pointwise calls
and from one array call, which must give the same digest; jp_jet takes
scalars only.  The digests were taken before the plain series rows were
summed as x^k times the derivative and divided once.
"""

import hashlib

import numpy as np
import pytest

from sigeom import bessel

XS = np.concatenate((np.geomspace(2.0**-330, 28.0, 2001), np.linspace(1.0, 28.0, 500)))

ORDER0 = {
    "j0_jet": (bessel.j0_jet, "f4865b519607ad87bb6e6e89d61de40325894c0de95d95741ce842c2c8ae05c7"),
    "i0_jet": (bessel.i0_jet, "191b3fb2d268e780f01cc6ee56113df80894c534247b688f9828aeb801a43c6e"),
    "y0_jet": (bessel.y0_jet, "9e2f872d7bd9fe201f0b42958305db4919ab937fbcfd36bb5cea694619da148f"),
    "k0_jet": (bessel.k0_jet, "799fd7c6ec5d7f98f2b17336d0bc2a51e86c9cca4d86077e07ef0b85b7d149d5"),
    "bessel_j0": (bessel.bessel_j0, "49a11ef0b05776f1f0c82a43bca06bc6f4a069803801961a6bb04413855421fe"),
    "bessel_i0": (bessel.bessel_i0, "ff19e6d1a6655f8eb4f05a64ae932c7104f7eba325002a40a9d9ce961dc0d4b1"),
    "bessel_y0": (bessel.bessel_y0, "8227064139a993f56c77429b6ae2ab1666fb9e88a55b1b674681343c64800fee"),
    "bessel_k0": (bessel.bessel_k0, "f29dd9c8dbf0bcbe573b20ad50942d2c0df9efddaf2a88c0d26a927a4a7ee707"),
}

JP = {
    0.3: "71c2b65eff62b4da808ae58cef145c62aa5f65d67a7a1ed45128839ff26d8a79",
    -1.7: "2c1c4ae80614fc6ea929c32cb11b7acdfbb22aeb9b0b1ac3528a5f57eca98191",
    1.25: "0a992cfc6100cf5401489756446443b6c8df4aa3c17c276cfe05c9e8f3571526",
}


def _digest(rows) -> str:
    """sha256 of the rows' components as float.hex, one line per argument."""
    text = "\n".join(" ".join(float(v).hex() for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ORDER0))
def test_order0_digests(name):
    fn, want = ORDER0[name]
    pointwise = _digest(np.atleast_1d(fn(x)) for x in XS.tolist())
    one_call = _digest(np.atleast_2d(np.array(fn(XS))).T)
    assert (pointwise, one_call) == (want, want)


@pytest.mark.parametrize("p", sorted(JP))
def test_jp_jet_digests(p):
    assert _digest(bessel.jp_jet(p, x) for x in XS.tolist()) == JP[p]
