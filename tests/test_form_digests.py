"""Digests of the flux Laplacians and the fundamental forms at fixed points.

`laplacian_i`/`laplacian_ii` difference the flux terms of the defining
formula and serve as the independent check of the closed coordinate forms,
and `fundamental_forms_fd` is the oracle of `fundamental_forms`.  These
digests pin every result bit for bit: sha256 over `float.hex` of each value,
or over the type and text of each refusal, so that a rewrite of the flux
operator or of the form assembly that moves any value by one ulp, or
refuses a point with another error, fails here.

Each CLI profile family gets two specs (one for `lin`), on both meridian
kinds, at seeded random points and at fixed points that leave the domain,
push a stencil past the surface edge (for the fields with and without
analytic partials) or sit on a parabolic radius of the second form.  The
fields are the three coordinate fields and one field without partials.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from mp_bessel import JET_BOUND, modified_jet_errors, plain_jet_errors
from sigeom import (
    RevolutionKind,
    RevolutionSurface,
    ScalarField,
    coordinate_fields,
    fundamental_forms,
    fundamental_forms_fd,
    laplacian_i,
    laplacian_ii,
)
from sigeom.bessel import i0_jet, j0_jet, k0_jet
from sigeom.cli import parse_profile_spec

U_RANGE, V_RANGE = (0.7, 4.8), (-1.0, 1.0)

SPECS = {
    "constk": ("constk:k0=1,c1=1", "constk:k0=0.5,c1=-0.2,c2=0.3"),
    # h0 - c1/u^2 vanishes at u = sqrt(12/7): a parabolic radius
    "consth": ("consth:h0=2,c1=0,c2=0", "consth:h0=0.7,c1=1.2,c2=-0.4"),
    "bessel": ("bessel:lambda=1,c1=1,c2=0", "bessel:lambda=-1,c1=0.5,c2=0.8"),
    "log": ("log:lambda=-2,c=0", "log:lambda=3,c=1"),
    "power": ("power:lambda=1,mu=3,c=1", "power:lambda=2,mu=-1,c=0.5"),
    "lin": ("lin:a=1.5,b=-0.2",),  # parabolic everywhere
    "expr": ("expr:f=u^3 - 2*u + j0(u)", "expr:f=ln(u)*cosh(u/3)"),
}

DIGESTS = {
    "constk": {
        "laplacian_i": "3f0f49604b37e912577532c6374c01a3a55e0ba5818b716c3582d95a28361565",
        "laplacian_ii": "7ec11069ff0a745a7b91c5c6fa10c2b01afe571fb7fd3e486c18c333ebc945ad",
        "fundamental_forms": "4b6202866e0849f8916549a10416bda29c16375561bd9c3043771da93c1668c3",
        "fundamental_forms_fd": "289672ff85664afe6983376497ef87ce9a4f7ec21e6b39cd32466cd309315590",
    },
    "consth": {
        "laplacian_i": "4aabc1d21c179f9748743712841fca1b60791e40e96ef7e978f779cdbdcd13cb",
        "laplacian_ii": "caf904a84084e4cb7b8f5a2779733ea9cdafa3fb1f79565a37500c2b1088b61d",
        "fundamental_forms": "b4294e928d9ce164eeee9655a9306d34f1bd10eb02758246143678b9a777ba0e",
        "fundamental_forms_fd": "b8734795906bc52d72582297d154fc410fd675f1620c8edbadca9961b3085708",
    },
    "bessel": {
        "laplacian_i": "d6acd0ce6e671ef5f1ee90146d20697baf9033db12d18d76f78d109b81e3be06",
        "laplacian_ii": "4f035034939f32dd665073547b2f414cc34c10390bfdef1d3715e99bdf70c3d2",
        "fundamental_forms": "f2a08e22599d30d1cfd1fc03348b066022df121bbb222d415cde809c142105d5",
        "fundamental_forms_fd": "f6fc7a792a53d052ed683e9239be4925b5f015664764b0e4a81b25ae6f8e6a0e",
    },
    "log": {
        "laplacian_i": "819c15e8f8e2f6b53d319cabe3c82c2678753a521712655d0b362b692a8b3a59",
        "laplacian_ii": "8beb581156a45a4df870e761a7b89c8d77cb50bb3261e5cb569835db417f2b37",
        "fundamental_forms": "2959ca508b9992936ee5f9ca70cd03971621450df424d1c00052bff613dab86e",
        "fundamental_forms_fd": "891c00f1464f6ae141b73882ae7fc96c7cf01c927d341348b21af77922ef9463",
    },
    "power": {
        "laplacian_i": "2d305e86faff7cfc2c45da6866f3a9d66b92593ce20beb5bd81ec2021d850193",
        "laplacian_ii": "2a914a2834df88e850855a682d7fb629499643a94911494e2b63a2db71960feb",
        "fundamental_forms": "36b36fba368ca20c59e13f673ad7e40b216a7a084679f32d9c7d68ff4731efc8",
        "fundamental_forms_fd": "c2bf48a2fe19e7fd5063f41628bdd354e0dafb77a813d8d1661975d1dc4fe5f4",
    },
    "lin": {
        "laplacian_i": "1d0e873b00455da69dedaeeed668f2c6971fefea955b6d6b4dcdab431bd46343",
        "laplacian_ii": "edca1b97d2dc63c15302ba18e2dd56cf0052ddb6df7a9316be9766dd57f698ee",
        "fundamental_forms": "51adeaa28d9398f6a11e4b1e308a909903263cd557b5ce07744c883f753340ef",
        "fundamental_forms_fd": "2f47ee88ccfb4d366801b5376d2d4cafa6187be3654cbdaa04e2c8c39a928e6e",
    },
    "expr": {
        "laplacian_i": "e68deabe4414a8757aba7154d936ff436c48ef96ec7c105fb8784c93c956b687",
        "laplacian_ii": "09ec6cd98323bd9cb0ec33bac235cdf20cc7d90c5d528f61af3eafaabec2188c",
        "fundamental_forms": "cda3b38eda8ead09be6853db3308be24a7d1aa5e6256d2a3f9305f21b4843889",
        "fundamental_forms_fd": "ea4e57f63cbddb74c950c138b13c44340bdea1df204428daf990988244b17d3d",
    },
}

U0 = math.sqrt(1.2 / 0.7)

FIXED_POINTS = [
    (0.7, 0.0),  # the stencil leaves the u range on the low side
    (4.8 - 6e-5, 0.5),  # only the wider stencil of a field without partials leaves it
    (1.0, 1.0 - 1.5e-5),  # likewise on the v range
    (5.0, 0.0),  # outside the surface
    (U0, 0.3),  # parabolic at the centre on the consth spec above
    # the flux stencil's step is 1e-5 u: parabolic at its lower or upper radius
    (U0 / (1.0 - 1e-5), -0.2),
    (U0 / (1.0 + 1e-5), 0.7),
]

UNSMOOTH = ScalarField(f=lambda u, v: u * u * math.cosh(v) + math.sin(u) * v)


def _line(fn, *args) -> str:
    """float.hex of the result's values, or the refusal's type and text."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, float):
        return out.hex()
    return " ".join(
        getattr(out, name).hex() for name in ("E", "F", "G", "W", "L", "M", "N", "w")
    ) + f" {out.epsilon} {out.is_parabolic}"


def _results(family: str) -> dict[str, list[str]]:
    rng = random.Random(family)
    out = {"laplacian_i": [], "laplacian_ii": [], "fundamental_forms": [], "fundamental_forms_fd": []}
    for spec in SPECS[family]:
        for kind in RevolutionKind:
            s = RevolutionSurface(parse_profile_spec(spec), kind, U_RANGE, V_RANGE)
            fields = (*coordinate_fields(s), UNSMOOTH)
            points = [(rng.uniform(*U_RANGE), rng.uniform(*V_RANGE)) for _ in range(24)]
            for u, v in points + FIXED_POINTS:
                for field in fields:
                    out["laplacian_i"].append(_line(laplacian_i, s, field, u, v))
                    out["laplacian_ii"].append(_line(laplacian_ii, s, field, u, v))
                out["fundamental_forms"].append(_line(fundamental_forms, s, u, v))
                out["fundamental_forms_fd"].append(_line(fundamental_forms_fd, s, u, v))
    return out


@pytest.mark.parametrize("family", sorted(SPECS))
def test_form_digests(family):
    got = {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in _results(family).items()
    }
    assert got == DIGESTS[family]
    # the bessel digests moved when K0, and again when I0, came to be summed
    # in float64; they and the expr digests (j0(u)) moved again when J0 did;
    # the bessel digests moved once more, at radii from u = 2, when K0 there
    # came to be the trapezoidal rule on its integral
    if family in ("bessel", "expr"):
        for x in np.linspace(*U_RANGE, 41).tolist():
            assert max(plain_jet_errors("j", 0.0, x, j0_jet(x))) <= JET_BOUND, ("j0", x)
            for kind, jet in (("i0", i0_jet), ("k0", k0_jet)):
                assert max(modified_jet_errors(kind, x, jet(x))) <= JET_BOUND, (kind, x)
