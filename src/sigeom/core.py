"""Vector and point algebra of the semi-isotropic 3-space.

The ambient space is R^3 carrying the degenerate metric dx^2 - dy^2; the
third coordinate axis is the isotropic direction, invisible to the metric.
This module provides the semi-norm, the two-branch scalar product, the
(degenerate) vector product, causal classification, hyperbolic angles
between timelike vectors, and the six-parameter motion group (a Lorentz
boost plus translation in the xy-plane composed with a shear in z).

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "Vec3SI",
    "CausalClass",
    "Motion",
    "semi_norm",
    "scalar_product",
    "vector_product",
    "causal_class",
    "is_null_eps",
    "si_angle",
    "apply_motion",
    "inverse_motion",
    "boost",
]


def _require_finite(name: str, *values: float) -> None:
    for val in values:
        if not math.isfinite(val):
            raise DomainError(f"{name} components must be finite, got {val!r}")


@dataclass(frozen=True)
class Vec3SI:
    """A point or vector (x1, x2, x3); x3 is the isotropic direction."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        _require_finite("Vec3SI", self.x1, self.x2, self.x3)

    def __add__(self, other: "Vec3SI") -> "Vec3SI":
        return Vec3SI(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Vec3SI") -> "Vec3SI":
        return Vec3SI(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Vec3SI":
        return Vec3SI(-self.x1, -self.x2, -self.x3)

    def scaled(self, factor: float) -> "Vec3SI":
        return Vec3SI(factor * self.x1, factor * self.x2, factor * self.x3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


class CausalClass(Enum):
    SPACELIKE = "Spacelike"
    TIMELIKE = "Timelike"
    NULL = "Null"
    ISOTROPIC = "Isotropic"
    ZERO = "Zero"


@dataclass(frozen=True)
class Motion:
    """Parameters (a1..a6) of a semi-isotropic congruence transformation.

    The action on (x, y, z) is
        x' = a1 + x cosh a2 + y sinh a2
        y' = a3 + x sinh a2 + y cosh a2
        z' = a4 + a5 x + a6 y + z
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float

    def __post_init__(self) -> None:
        _require_finite("Motion", self.a1, self.a2, self.a3, self.a4, self.a5, self.a6)


def semi_norm(v: Vec3SI) -> float:
    """sqrt(|x1^2 - x2^2|); the isotropic part does not contribute.

    Formed as sqrt(||x1| - |x2||) sqrt(|x1| + |x2|), which does not cancel
    near the null cone and is finite while |x1| + |x2| is.
    """
    a, b = abs(v.x1), abs(v.x2)
    return math.sqrt(abs(a - b)) * math.sqrt(a + b)


def scalar_product(u: Vec3SI, v: Vec3SI) -> float:
    """Two-branch product: u3*v3 when both xy-projections vanish, else u1*v1 - u2*v2.

    Branch membership is an exact structural test (the projection either is
    or is not the zero vector); an epsilon here would make the product jump
    at an arbitrary numeric threshold.
    """
    if u.x1 == 0.0 and u.x2 == 0.0 and v.x1 == 0.0 and v.x2 == 0.0:
        return u.x3 * v.x3
    return u.x1 * v.x1 - u.x2 * v.x2


def vector_product(u: Vec3SI, v: Vec3SI) -> Vec3SI:
    """Degenerate cross product (u2*v3 - u3*v2, u1*v3 - u3*v1, 0).

    Satisfies <u x v, w> = det(u, v, w~) with w~ the xy-projection of w.
    """
    return Vec3SI(u.x2 * v.x3 - u.x3 * v.x2, u.x1 * v.x3 - u.x3 * v.x1, 0.0)


def causal_class(v: Vec3SI) -> CausalClass:
    """Total classification; nonzero vectors with vanishing xy-projection are Isotropic."""
    if v.x1 == 0.0 and v.x2 == 0.0:
        return CausalClass.ZERO if v.x3 == 0.0 else CausalClass.ISOTROPIC
    # |x1| against |x2|: x1^2 - x2^2 rounds to 0 near the cone and overflows
    a, b = abs(v.x1), abs(v.x2)
    if a > b:
        return CausalClass.SPACELIKE
    if a < b:
        return CausalClass.TIMELIKE
    return CausalClass.NULL


def is_null_eps(v: Vec3SI, tol: float | None = None) -> bool:
    """Tolerant null test for numeric pipelines: |x1^2 - x2^2| <= tol, with
    x1^2 - x2^2 formed as (|x1| - |x2|)(|x1| + |x2|).  The default tol is
    1e-12 max(|x1|, |x2|, 1)^2; both sides are then divided by that square,
    so neither overflows."""
    a, b = abs(v.x1), abs(v.x2)
    if tol is None:
        s = max(a, b, 1.0)
        return abs(a - b) / s * (a / s + b / s) <= 1e-12
    return abs(a - b) * (a + b) <= tol


def si_angle(u: Vec3SI, v: Vec3SI) -> float:
    """Hyperbolic angle phi >= 0 between two timelike vectors with <u,v> < 0.

    Defined through <u,v> = -|u| |v| cosh(phi), and taken from
    sinh(phi) = |u1 v2 - u2 v1| / (|u| |v|), since <u,v>^2 - <u,u><v,v> =
    (u1 v2 - u2 v1)^2: the cosh argument cancels to below 1 for parallel
    vectors, the sinh one to a small number.  phi does not depend on the
    lengths of u and v, so each is first scaled by the even power of 2 that
    brings max(|x1|, |x2|) into [1/4, 1): exactly, square roots included,
    and no product then overflows or underflows.
    """
    if causal_class(u) is not CausalClass.TIMELIKE:
        raise DomainError("si_angle: first argument is not timelike")
    if causal_class(v) is not CausalClass.TIMELIKE:
        raise DomainError("si_angle: second argument is not timelike")
    u, v = _rescaled(u), _rescaled(v)
    if scalar_product(u, v) >= 0.0:
        raise DomainError("si_angle: <u,v> >= 0 (vectors not in a common cone)")
    return math.asinh(abs(u.x1 * v.x2 - u.x2 * v.x1) / (semi_norm(u) * semi_norm(v)))


def _rescaled(v: Vec3SI) -> Vec3SI:
    e = math.frexp(max(abs(v.x1), abs(v.x2)))[1]
    e += e & 1
    return Vec3SI(math.ldexp(v.x1, -e), math.ldexp(v.x2, -e), 0.0)


def apply_motion(m: Motion, p: Vec3SI) -> Vec3SI:
    c = math.cosh(m.a2)
    s = math.sinh(m.a2)
    return Vec3SI(
        m.a1 + p.x1 * c + p.x2 * s,
        m.a3 + p.x1 * s + p.x2 * c,
        m.a4 + m.a5 * p.x1 + m.a6 * p.x2 + p.x3,
    )


def inverse_motion(m: Motion) -> Motion:
    """The motion undoing m; apply_motion(inverse_motion(m), apply_motion(m, p)) == p.

    Derived by inverting the boost (negate a2) and back-substituting the
    translation and shear parameters.
    """
    c = math.cosh(m.a2)
    s = math.sinh(m.a2)
    c5 = m.a5 * c - m.a6 * s
    c6 = m.a6 * c - m.a5 * s
    return Motion(
        a1=-m.a1 * c + m.a3 * s,
        a2=-m.a2,
        a3=m.a1 * s - m.a3 * c,
        a4=-m.a4 + m.a1 * c5 + m.a3 * c6,
        a5=-c5,
        a6=-c6,
    )


def boost(delta: float) -> Motion:
    """Pure rotation about the isotropic axis (hyperbolic angle delta)."""
    return Motion(0.0, delta, 0.0, 0.0, 0.0, 0.0)
