"""Digests of the Bessel jets and values over a wide range of arguments.

`test_jet_bits` pins a dozen arguments bit for bit; these pin a few thousand
through sha256 digests of `float.hex`, so that a rewrite of the series
kernels that moves any component by one ulp anywhere below x = 28 fails
here.  The arguments are 2,001 geomspace x in [2^-330, 28] (the lower end is
the Y0/K0 jets' bound) and 500 linspace x in [1, 28], where the series take
most of their terms.  Each order-0 function is digested from pointwise calls
and from one array call, which must give the same digest; jp_jet takes
scalars only, and an x it refuses digests as an empty line.  The digests
were taken before the plain series rows were summed as x^k times the
derivative and divided once, and again when the kernels came to sum only f
and x f', with f'' and f''' formed from the Bessel equation and J_p's
divisor formed exactly; every 20th argument through x = 20 is checked
against mpmath (tests/mp_bessel.py) beside them.  The K0 digests, and
i0_jet's, whose f''' below x = 1 came to be the series' own row, were taken
again when I0 and K0 came to be summed in float64; their every 20th argument
is checked relative to mpmath through x = 28.  The I0 digests, jet and
value, were taken once more when I0 came to be four plain float64 rows
x^k I0^(k), k = 0..3, which its value shares.  The J0, Y0 and I0 digests,
jets and values, were taken again when J0 and Y0 came to be summed in
float64 (their alternating series below x = 2, Miller's recurrence and
Neumann's series from there) and the I0 and J0 rows came to be f, f'/h,
f'' and f'''/h, h = x/2, with which I0's series may stop a term earlier;
every 20th argument of every order-0 digest is checked against mpmath
through x = 28, and of J_p's through x = 20.  The K0 digests, jet and
value, were taken again when K0 and K1 from x = 2 up came to be the
trapezoidal rule on K0's integral, in place of Steed's CF2: 490 of the 504
arguments from x = 2 moved, and none below it.
"""

import hashlib

import numpy as np
import pytest

from mp_bessel import JET_BOUND, jet_error, modified_jet_errors, plain_jet_errors
from sigeom import bessel
from sigeom.errors import DomainError

XS = np.concatenate((np.geomspace(2.0**-330, 28.0, 2001), np.linspace(1.0, 28.0, 500)))
CHECKED = [x for x in XS[::20].tolist() if x <= 20.0]

ORDER0 = {
    "j0_jet": (bessel.j0_jet, "46b9b7c5880c42bb5a2f915b20a25f7c3d4db100637f56fe953e55c762274c44"),
    "i0_jet": (bessel.i0_jet, "bbe3cb53ae64fe8067e781233a491fb75ba33e53f76688c28464d59005f98023"),
    "y0_jet": (bessel.y0_jet, "25e99a844b34a737b842b7b2653c4a409fe0bb9ba57364369b1ef961039cbf39"),
    "k0_jet": (bessel.k0_jet, "7b0ef331be0b30481dab6796e7e2cc1ff18989d3a4a133ae4ba5762db20d32ae"),
    "bessel_j0": (bessel.bessel_j0, "1d7bf6da2d1c062d065ed532b892d5a81681a9b12ed010b30afe1140d68c3e28"),
    "bessel_i0": (bessel.bessel_i0, "a798786c6c35c063356eae04aa355346ecc4516a704af467ff4ed789c9fd0271"),
    "bessel_y0": (bessel.bessel_y0, "7fda014ebac97e784aa407762db16ab8a991c277414a28028afd9d8e41c2961c"),
    "bessel_k0": (bessel.bessel_k0, "a1e2c970c330137645333e554474406809195170bac3589591815ea05725df36"),
}

JP = {
    0.3: "f745540541f9a8cd25f01b7402d124cc544aeda03ff5a853c16536c7340dc82f",
    -1.7: "e0685df8f7269ee718a4cfd6051da68084c7e87a8edb073f09778bf89ab86d78",
    1.25: "f34a34d54fecb2886d0fc844d9f2357bd4f4c88be8508f07468f26e4ea97d9fd",
}


def _digest(rows) -> str:
    """sha256 of the rows' components as float.hex, one line per argument."""
    text = "\n".join(" ".join(float(v).hex() for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# the mpmath error of each digested jet or value: (kind, p) of the plain
# references, or the Y0/K0 kind of jet_error
REFERENCE = {"j0": ("j", 0.0), "i0": ("i", 0.0), "y0": "y0", "k0": "k0"}


def _error(ref, x, got) -> float:
    """The worst error of got, the leading components of a jet at x."""
    if isinstance(ref, str):
        return jet_error(ref, x, got)
    return max(plain_jet_errors(*ref, x, got))


@pytest.mark.parametrize("name", sorted(ORDER0))
def test_order0_digests(name):
    fn, want = ORDER0[name]
    pointwise = _digest(np.atleast_1d(fn(x)) for x in XS.tolist())
    one_call = _digest(np.atleast_2d(np.array(fn(XS))).T)
    assert (pointwise, one_call) == (want, want)
    ref = REFERENCE[name[:2] if name.endswith("_jet") else name[-2:]]
    for x in XS[::20].tolist():  # a jet in every order, a value against its jet's f
        assert _error(ref, x, np.atleast_1d(fn(x))) <= JET_BOUND, x
    kind = name[:2] if name.endswith("_jet") else name[-2:]
    for x in XS[::20].tolist() if kind in ("i0", "k0") else ():
        assert max(modified_jet_errors(kind, x, np.atleast_1d(fn(x)))) <= JET_BOUND, x


def _jp_row(p, x) -> tuple:
    """jp_jet(p, x), or no components where it refuses x: for p < 0 its
    prefactors overflow at small x."""
    try:
        return bessel.jp_jet(p, x)
    except DomainError:
        return ()


@pytest.mark.parametrize("p", sorted(JP))
def test_jp_jet_digests(p):
    assert _digest(_jp_row(p, x) for x in XS.tolist()) == JP[p]
    for x in CHECKED:
        row = _jp_row(p, x)
        assert not row or _error(("j", p), x, row) <= JET_BOUND, x


# K0 below x = 2, its log series, at the digested arguments under 2 and 40
# more just under the switch: the jet and the value, from pointwise calls
# and from one array call.  Taken while K0 from x = 2 was still Steed's CF2,
# it holds the log series' bits through the change to the trapezoidal rule
K0_BELOW_TWO = "b441cab1a7a9682a9da923069cd3db112c533b94ec7b82d8c68ec19fb4250d23"


def test_k0_below_two_keeps_its_bits():
    xs = np.concatenate((XS[XS < 2.0], np.linspace(1.9, 2.0, 41)[:-1]))
    pointwise = _digest((*bessel.k0_jet(x), bessel.bessel_k0(x)) for x in xs.tolist())
    one_call = _digest(np.array([*bessel.k0_jet(xs), bessel.bessel_k0(xs)]).T)
    assert (pointwise, one_call) == (K0_BELOW_TWO, K0_BELOW_TWO)
