"""Forward-mode automatic differentiation with third-order jets.

A Jet3 carries (f, f', f'', f''') through arithmetic; composition with a
univariate function uses the order-3 chain rule.  This backs the `expr`
profile family, letting user-supplied formulas feed the curvature and
Laplacian machinery without finite differences.

A component may be a float64 array, one lane per radius, which evaluates a
formula once for a whole grid (Jet3.variable(us)).  Arithmetic then runs on
whole arrays, which is exact IEEE per element; libm calls (log, sinh, cosh,
pow and Python's **) run per element with the same Python call as for a
float, since numpy's versions may differ in the last bit.  The results are
bit-identical to evaluating each radius on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import (
    DEFAULT_SERIES,
    SeriesConfig,
    _ipow,
    _is_array,
    _per_element,
    i0_jet,
    j0_jet,
)
from .errors import DomainError

__all__ = ["Jet3", "ln", "sinh", "cosh", "j0", "i0"]

_Number = (int, float)


@dataclass(frozen=True)
class Jet3:
    f0: float
    f1: float = 0.0
    f2: float = 0.0
    f3: float = 0.0

    @staticmethod
    def variable(u) -> "Jet3":
        if _is_array(u):
            return Jet3(u.astype(np.float64), 1.0)
        return Jet3(float(u), 1.0)

    @staticmethod
    def const(c: float) -> "Jet3":
        return Jet3(float(c))

    @property
    def is_constant(self) -> bool:
        return not any(np.any(c) for c in (self.f1, self.f2, self.f3))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f0, self.f1, self.f2, self.f3)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        return Jet3(self.f0 + o.f0, self.f1 + o.f1, self.f2 + o.f2, self.f3 + o.f3)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.f0, -self.f1, -self.f2, -self.f3)

    def __sub__(self, other):
        o = _coerce(other)
        return Jet3(self.f0 - o.f0, self.f1 - o.f1, self.f2 - o.f2, self.f3 - o.f3)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        o = _coerce(other)
        return Jet3(
            self.f0 * o.f0,
            self.f1 * o.f0 + self.f0 * o.f1,
            self.f2 * o.f0 + 2.0 * self.f1 * o.f1 + self.f0 * o.f2,
            self.f3 * o.f0 + 3.0 * self.f2 * o.f1 + 3.0 * self.f1 * o.f2 + self.f0 * o.f3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(_coerce(other))

    def __rtruediv__(self, other):
        return _coerce(other) * _reciprocal(self)

    def __pow__(self, other):
        if isinstance(other, Jet3):
            if not other.is_constant:
                raise DomainError("exponents in jet powers must be constant in u")
            a = other.f0
            if _is_array(a):
                if not (a == a[0]).all():
                    raise DomainError("a constant exponent must take one value on the grid")
                a = float(a[0])
        elif isinstance(other, _Number):
            a = float(other)
        else:
            return NotImplemented
        g = self.f0
        if a != math.floor(a) and np.any(g <= 0.0):
            raise DomainError(f"({g!r})^({a!r}) is undefined for a non-integer exponent")
        w0 = _per_element(math.pow, g, a)
        w1 = a * _per_element(math.pow, g, a - 1.0) if a != 0.0 else 0.0
        w2 = a * (a - 1.0) * _per_element(math.pow, g, a - 2.0) if a not in (0.0, 1.0) else 0.0
        w3 = (
            a * (a - 1.0) * (a - 2.0) * _per_element(math.pow, g, a - 3.0)
            if a not in (0.0, 1.0, 2.0)
            else 0.0
        )
        return _compose(self, w0, w1, w2, w3)

    def __rpow__(self, other):
        if not isinstance(other, _Number):
            return NotImplemented
        c = float(other)
        if c <= 0.0:
            raise DomainError(f"base of {c!r}^jet must be positive")
        lc = math.log(c)
        w0 = _per_element(math.pow, c, self.f0)
        return _compose(self, w0, lc * w0, lc * lc * w0, lc * lc * lc * w0)


def _coerce(value) -> Jet3:
    if isinstance(value, Jet3):
        return value
    if isinstance(value, _Number):
        return Jet3.const(float(value))
    raise TypeError(f"cannot mix Jet3 with {type(value).__name__}")


def _compose(g: Jet3, w0: float, w1: float, w2: float, w3: float) -> Jet3:
    """Order-3 chain rule: h = phi(g) with phi^(k)(g0) = w_k."""
    return Jet3(
        w0,
        w1 * g.f1,
        w2 * g.f1 * g.f1 + w1 * g.f2,
        w3 * _ipow(g.f1, 3) + 3.0 * w2 * g.f1 * g.f2 + w1 * g.f3,
    )


def _reciprocal(g: Jet3) -> Jet3:
    if np.any(g.f0 == 0.0):
        raise ZeroDivisionError("jet division by zero value")
    inv = 1.0 / g.f0
    return _compose(g, inv, -inv * inv, 2.0 * _ipow(inv, 3), -6.0 * _ipow(inv, 4))


def ln(x):
    if isinstance(x, Jet3):
        if np.any(x.f0 <= 0.0):
            raise DomainError(f"ln requires a positive argument, got {x.f0!r}")
        inv = 1.0 / x.f0
        return _compose(x, _per_element(math.log, x.f0), inv, -inv * inv, 2.0 * _ipow(inv, 3))
    return math.log(x)


def sinh(x):
    if isinstance(x, Jet3):
        s, c = _per_element(math.sinh, x.f0), _per_element(math.cosh, x.f0)
        return _compose(x, s, c, s, c)
    return math.sinh(x)


def cosh(x):
    if isinstance(x, Jet3):
        s, c = _per_element(math.sinh, x.f0), _per_element(math.cosh, x.f0)
        return _compose(x, c, s, c, s)
    return math.cosh(x)


def j0(x, cfg: SeriesConfig = DEFAULT_SERIES):
    if isinstance(x, Jet3):
        return _compose(x, *j0_jet(x.f0, cfg))
    return j0_jet(x, cfg)[0]


def i0(x, cfg: SeriesConfig = DEFAULT_SERIES):
    if isinstance(x, Jet3):
        return _compose(x, *i0_jet(x.f0, cfg))
    return i0_jet(x, cfg)[0]
