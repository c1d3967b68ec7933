"""Limiting Yamabe constants of products and the published constants table.

For a unit-volume first factor of constant scalar curvature s, the limit
of the second-factor Yamabe constants of (M^m x N^n, g + r h) as r grows
is C(m, n) s^(m/k) / sigma_{m,n}. This module assembles those values for
round-sphere factors, compares them against the sphere invariant Y_{m+n},
and turns explicit test functions into upper bounds. Those bounds are
evaluated in floating point, with 16-node Gauss-Legendre for I_p, so
they hold up to quadrature and rounding error; certifying them with
directed error bounds is open (ROADMAP.md, item 2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .functional import gn_value
from .geometry import Dims, coupling_constant, unit_volume_sphere_scalar, yamabe_sphere
from .ode import DEFAULT_CONTROLS, IntegrationControls
from .shooting import find_ground_state


@dataclass(frozen=True)
class ConstantsRow:
    """One table line: factor dims, sigma^{-1}, Y-infinity, sphere Yamabe."""

    m: int
    n: int
    sigma_inv: float
    y_inf: float
    y_sphere: float
    alpha0: float


def y_infinity(d: Dims, s_g: float, sigma_inv: float) -> float:
    """Limiting Yamabe constant C(m,n) s_g^(m/k) sigma_inv of the product.

    s_g is the (constant, positive) scalar curvature of the unit-volume
    first factor; sigma_inv the inverse Gagliardo-Nirenberg constant.
    """
    if s_g <= 0.0 or sigma_inv < 0.0:
        raise ValueError("s_g must be positive and sigma_inv non-negative")
    return coupling_constant(d) * s_g ** (d.m / d.k) * sigma_inv


def optimal_dilation(A: float, B: float, d: Dims) -> tuple[float, float]:
    """Minimize F(lambda) = lambda^(2m/k) A + lambda^(-2n/k) B over lambda.

    Returns (lambda0, F(lambda0)) with lambda0 = sqrt(nB/(mA)) and
    F(lambda0) = A^(n/k) B^(m/k) m^(-m/k) n^(-n/k) (m + n).
    """
    if A <= 0.0 or B <= 0.0:
        raise ValueError("A and B must be positive")
    m, n, k = d.m, d.n, d.k
    lam0 = math.sqrt(n * B / (m * A))
    f_min = math.exp((n / k) * math.log(A) + (m / k) * math.log(B)
                     - (m / k) * math.log(m) - (n / k) * math.log(n)) * k
    return lam0, f_min


def bound_from_profile(profile, d: Dims, s_g: float) -> float:
    """Upper bound C(m,n) s_g^(m/k) L(f) for the limiting constant, up to
    quadrature and rounding error: L(f) is evaluated in floating point,
    with 16-node Gauss-Legendre for I_p on a piecewise-linear function's
    segments that do not end at 0.

    Any admissible radial test function gives one; the ground state attains
    it. Cross-checked internally against the dilation-minimum route, which
    must agree to rounding.
    """
    res = gn_value(profile, d)
    bound = y_infinity(d, s_g, res.sigma_inv)
    denom = res.lp_norm ** 2
    _, f_min = optimal_dilation(d.a * res.grad_sq / denom,
                                s_g * res.l2_sq / denom, d)
    if abs(f_min - bound) > 1e-9 * bound:
        raise AssertionError(
            f"dilation-minimum cross-check failed: {f_min!r} vs {bound!r}")
    return bound


def table_pairs(max_total_dim: int) -> list[tuple[int, int]]:
    """All (m, n) with m, n >= 2 and m + n <= max_total_dim, ordered by
    increasing total dimension and then decreasing n."""
    if max_total_dim < 4:
        raise ValueError("max_total_dim must be at least 4")
    return [(k - n, n)
            for k in range(4, max_total_dim + 1)
            for n in range(k - 2, 1, -1)]


def build_table(max_total_dim: int = 9,
                tol_alpha: float = 1e-12,
                ctrl: IntegrationControls = DEFAULT_CONTROLS,
                collect_errors: list | None = None) -> list[ConstantsRow]:
    """Compute one ConstantsRow per pair, both factors round spheres.

    Each search starts from a guess at alpha0 out of the rows already
    solved: alpha0(m - 1, n), else alpha0(m, n - 1)^2 / alpha0(m, n - 2),
    else 2 alpha0(m, n - 1), else none. A solver failure skips that row;
    the exception is appended to `collect_errors` when a list is
    supplied, and re-raised otherwise.
    """
    rows = []
    alpha0 = {}
    for m, n in table_pairs(max_total_dim):
        d = Dims(m, n)
        if (m - 1, n) in alpha0:
            guess = alpha0[m - 1, n]
        elif (m, n - 2) in alpha0 and (m, n - 1) in alpha0:
            guess = alpha0[m, n - 1] ** 2 / alpha0[m, n - 2]
        elif (m, n - 1) in alpha0:
            guess = 2.0 * alpha0[m, n - 1]
        else:
            guess = None
        try:
            gs = find_ground_state(d, tol_alpha=tol_alpha, ctrl=ctrl,
                                   guess=guess)
            alpha0[m, n] = gs.alpha0
            sigma_inv = gn_value(gs.profile, d).sigma_inv
            y_inf = y_infinity(d, unit_volume_sphere_scalar(m), sigma_inv)
            row = ConstantsRow(m=m, n=n, sigma_inv=sigma_inv, y_inf=y_inf,
                               y_sphere=yamabe_sphere(d.k), alpha0=gs.alpha0)
            if row.y_inf >= row.y_sphere:
                # expected to hold for every computed pair; report rather
                # than fail, since beyond the published range it is only
                # conjectured
                warnings.warn(
                    f"row ({m}, {n}): limiting constant {row.y_inf:.6g} is "
                    f"not below the sphere invariant {row.y_sphere:.6g}")
            rows.append(row)
        except Exception as exc:
            if collect_errors is None:
                raise
            collect_errors.append((m, n, exc))
    return rows


def reference_constants() -> dict[str, float]:
    """Known 4-dimensional comparison values for reporting context:
    the Yamabe invariant of CP^2 and the Yamabe constant of the product
    conformal class on S^2 x S^2."""
    return {
        "Y_CP2": 12.0 * math.sqrt(2.0) * math.pi,
        "Y_S2xS2_product": 16.0 * math.pi,
    }

