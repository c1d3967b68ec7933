"""Closed-form dimensional constants.

Round-sphere volumes and Yamabe invariants, critical Sobolev exponents,
the best Sobolev constant, and the dimensional coefficient that converts
a Gagliardo-Nirenberg constant into the limiting Yamabe constant of a
product with a flat factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Dims:
    """Factor dimensions (m, n) of a product of total dimension k = m + n.

    Carries the derived critical exponents used throughout:
    a = 4(k-1)/(k-2), p = 2k/(k-2), q = (k+2)/(k-2) = p - 1.
    The second factor (dimension n) is the one functions depend on, so n
    is also the radial dimension of the ground-state ODE.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m != int(self.m) or self.n != int(self.n):
            raise ValueError("dimensions must be integers")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m, n >= 1, got ({self.m}, {self.n})")
        if self.m + self.n < 3:
            raise ValueError("total dimension m + n must be at least 3")

    @property
    def k(self) -> int:
        return self.m + self.n

    @property
    def a(self) -> float:
        """Conformal Laplacian coefficient 4(k-1)/(k-2)."""
        return 4.0 * (self.k - 1) / (self.k - 2)

    @property
    def p(self) -> float:
        """Critical Sobolev exponent 2k/(k-2)."""
        return 2.0 * self.k / (self.k - 2)

    @property
    def q(self) -> float:
        """Nonlinearity exponent (k+2)/(k-2) = p - 1."""
        return (self.k + 2.0) / (self.k - 2)


def _gamma_half(twice: int) -> float:
    """Gamma(twice/2) for positive integer `twice`, by the recurrence
    Gamma(x+1) = x Gamma(x) from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi).
    """
    if twice < 1:
        raise ValueError("argument must be positive")
    val, x = (1.0, 1.0) if twice % 2 == 0 else (math.sqrt(math.pi), 0.5)
    while 2 * x < twice:
        val *= x
        x += 1.0
    return val


def sphere_volume(k: int) -> float:
    """Volume of the unit round sphere S^k, 2 pi^((k+1)/2) / Gamma((k+1)/2).

    Only half-integer Gamma values occur, so the Gamma factor is built by
    the exact recurrence rather than a special-function call.
    """
    if k < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {k}")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / _gamma_half(k + 1)


def surface_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n, i.e. Vol(S^{n-1}).

    Equals 2 for n = 1 (two half-lines), where S^0 is a point pair.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if n == 1:
        return 2.0
    return sphere_volume(n - 1)


def yamabe_sphere(k: int) -> float:
    """Yamabe invariant of the round k-sphere, k(k-1) Vol(S^k)^(2/k)."""
    if k < 3:
        raise ValueError(f"need k >= 3 for a finite critical exponent, got {k}")
    return unit_volume_sphere_scalar(k)


def sobolev_constant(n: int) -> float:
    """Best constant sigma_n in ||f||_{p_n}^2 <= sigma_n ||grad f||_2^2 on R^n,

    given in closed form by a_n / Y_n with Y_n the sphere Yamabe invariant.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    a_n = 4.0 * (n - 1) / (n - 2)
    return a_n / yamabe_sphere(n)


def coupling_constant(d: Dims) -> float:
    """Dimensional coefficient C(m, n) = a_k^(n/k) k n^(-n/k) m^(-m/k).

    Multiplying C(m, n) s^(m/k) by the inverse Gagliardo-Nirenberg constant
    gives the limiting Yamabe constant of a product whose first factor has
    unit volume and constant scalar curvature s.

    Evaluated in log space and exponentiated once, so the fractional powers
    of m and n do not compound rounding.
    """
    m, n, k = d.m, d.n, d.k
    log_c = (n / k) * math.log(d.a) + math.log(k) \
        - (n / k) * math.log(n) - (m / k) * math.log(m)
    return math.exp(log_c)


def unit_volume_sphere_scalar(m: int) -> float:
    """Scalar curvature of the round metric on S^m rescaled to unit volume.

    Under g -> c g the volume scales by c^(m/2) and the scalar curvature by
    1/c, so the unit-volume value is m(m-1) Vol(S^m)^(2/m). For m >= 3 this
    coincides numerically with the sphere Yamabe invariant.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return m * (m - 1) * sphere_volume(m) ** (2.0 / m)
