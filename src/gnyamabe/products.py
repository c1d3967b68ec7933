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

import warnings
from dataclasses import dataclass

from .functional import gn_value
from .geometry import (Dims, unit_volume_sphere_scalar, y_infinity,
                       yamabe_sphere)
from .ode import DEFAULT_T_MAX
from .shooting import DEFAULT_TOL_ALPHA, find_ground_state


@dataclass(frozen=True)
class ConstantsRow:
    """One table line: factor dims, sigma^{-1}, Y-infinity, sphere Yamabe."""

    m: int
    n: int
    sigma_inv: float
    y_inf: float
    y_sphere: float
    alpha0: float


def bound_from_profile(profile, d: Dims, s_g: float) -> float:
    """Upper bound C(m,n) s_g^(m/k) L(f) for the limiting constant, up to
    quadrature and rounding error: L(f) is evaluated in floating point,
    with 16-node Gauss-Legendre for I_p on a piecewise-linear function's
    segments that do not end at 0.

    Any admissible radial test function gives one; the ground state
    attains it.
    """
    return y_infinity(d, s_g, gn_value(profile, d).sigma_inv)


def table_pairs(max_total_dim: int) -> list[tuple[int, int]]:
    """All (m, n) with m, n >= 2 and m + n <= max_total_dim, ordered by
    increasing total dimension and then decreasing n."""
    if max_total_dim < 4:
        raise ValueError("max_total_dim must be at least 4")
    return [(k - n, n)
            for k in range(4, max_total_dim + 1)
            for n in range(k - 2, 1, -1)]


def build_table(max_total_dim: int = 9,
                tol_alpha: float = DEFAULT_TOL_ALPHA,
                t_max: float = DEFAULT_T_MAX,
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
            gs = find_ground_state(d, tol_alpha=tol_alpha, t_max=t_max,
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
