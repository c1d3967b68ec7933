"""Periodic Yamabe solutions on a circle factor.

On the universal cover of (M^{n-1} x S^1, g + r^2 dtheta^2) the constant
scalar curvature equation for a function of the circle reduces to

    u'' - ((n-2)^2/4) u + (n(n-2)/4) u^((n+2)/(n-2)) = 0,

a Hamiltonian flow in the (u, u') phase plane whose closed orbits around
the positive equilibrium give the 2 pi r - periodic solutions. Periods are
computed by turning-point quadrature on the conserved energy; counting
solutions for a given circle radius reduces to comparing 2 pi r with the
period range.

Everything here runs on numpy and the stdlib: the turning points and the
inverse of the period map come from `_brentq`, a port of the Brent (1973)
root-finder. Only the time-integration referees import scipy, inside the
functions that need it: `integrate_orbit` and `return_time` (`solve_ivp`)
and `circle_quotient` (`simpson`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import surface_measure

_ORBIT_RTOL = 1e-12
_ORBIT_ATOL = 1e-14


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of scipy's `brentq.c`, so every root is the
    double scipy.optimize.brentq returns: the same update order, signbit
    tests, interpolate/extrapolate/bisect rule and step floor
    delta = (xtol + rtol |x|) / 2. Raises ValueError for a bracket whose
    ends have the same sign or a NaN function value, RuntimeError after
    `maxiter` iterations without convergence."""

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _check_dim(n: int) -> None:
    if n < 3:
        raise ValueError(f"total dimension must be >= 3, got {n}")


def constant_solution(n: int) -> float:
    """The unique positive equilibrium u_c = ((n-2)/n)^((n-2)/4)."""
    _check_dim(n)
    return ((n - 2) / n) ** ((n - 2) / 4.0)


def potential(u: float, n: int) -> float:
    """Potential V(u) = ((n-2)^2/8) (u^(2n/(n-2)) - u^2), so the flow is
    u'' = -V'(u). V has a maximum 0 at u = 0, a well at u_c, and returns
    to 0 at u = 1 (the separatrix level)."""
    _check_dim(n)
    c = (n - 2) ** 2 / 8.0
    big = 2.0 * n / (n - 2)
    return c * (np.abs(u) ** big - u * u)


def hamiltonian(u, du, n: int):
    """Conserved energy u'^2/2 + V(u)."""
    return 0.5 * np.asarray(du) ** 2 + potential(np.asarray(u), n)


def minimal_period(n: int) -> float:
    """Infimum of the closed-orbit periods: the harmonic limit at the
    equilibrium, 2 pi / sqrt(V''(u_c)) with V''(u_c) = n - 2."""
    _check_dim(n)
    return 2.0 * math.pi / math.sqrt(n - 2.0)


def _energy_gap(u: float, u_max: float, n: int,
                dh: float | None = None) -> float:
    """E - V(u) for the orbit through (u_max, 0), formed as a difference of
    like power terms; `dh` may supply u_max - u exactly when the caller
    knows it better than the subtraction does."""
    c = (n - 2) ** 2 / 8.0
    big = 2.0 * n / (n - 2)
    if dh is None:
        dh = u_max - u
    power_diff = u ** big * math.expm1(big * math.log1p(dh / u))
    return c * (power_diff - dh * (u_max + u))


# orbits with amplitude below this fraction of u_c use the series form of
# the well, which stays conditioned down to the resolvable floor
_SERIES_AMPLITUDE = 0.02
_SERIES_TERMS = 16

# resolvable amplitude window
_UMAX_REL_FLOOR = 1e-9
_UMAX_CEIL = 1.0 - 1e-13


@lru_cache(maxsize=None)
def _well_coefficients(n: int) -> tuple[float, ...]:
    """Taylor coefficients c_j = V^(j)(u_c)/j!, j = 2.., of the well.

    V(u) = c (u^P - u^2) with P = 2n/(n-2); only the j = 2 term sees the
    quadratic part. c_2 = (n-2)/2 recovers the harmonic frequency."""
    uc = constant_solution(n)
    c = (n - 2) ** 2 / 8.0
    big = 2.0 * n / (n - 2)
    coeffs = []
    falling = 1.0
    for i in range(2):
        falling *= big - i
    fact = 2.0
    for j in range(2, _SERIES_TERMS + 1):
        term = c * (falling / fact) * uc ** (big - j)
        if j == 2:
            term -= c
        coeffs.append(term)
        falling *= big - j
        fact *= j + 1
    return tuple(coeffs)


def _series_slope(v, v_max: float, coeffs):
    """S(v) = (W(v_max) - W(v)) / (v_max - v) for the well W around u_c,
    via the exactly factored power differences; no cancellation for any
    v in the orbit. E - V = (v_max - v) S(v), and S(v_min) = 0. Works
    elementwise on an array of v."""
    sigma = 1.0  # sigma_1
    vm_pow = 1.0
    total = 0.0
    for j, cj in enumerate(coeffs, start=2):
        vm_pow *= v_max
        sigma = sigma * v + vm_pow  # sigma_j = v sigma_{j-1} + v_max^{j-1}
        total += cj * sigma
    return total


def _series_slope_deriv(v: float, v_max: float, coeffs):
    """(S, dS/dv) in one pass; tau_j = sigma_j' obeys tau_{j+1} =
    sigma_j + v tau_j."""
    sigma = 1.0
    tau = 0.0
    vm_pow = 1.0
    s_val = 0.0
    d_val = 0.0
    for cj in coeffs:
        vm_pow *= v_max
        tau = sigma + v * tau
        sigma = sigma * v + vm_pow
        s_val += cj * sigma
        d_val += cj * tau
    return s_val, d_val


def _series_v_min(n: int, v_max: float) -> float:
    """Inner turning point in well coordinates v = u - u_c, polished to
    the evaluation noise of S so the near-turning nodes stay clean."""
    uc = constant_solution(n)
    coeffs = _well_coefficients(n)
    lo = -min(2.2 * v_max, 0.06 * uc)
    v = _brentq(lambda w: _series_slope(w, v_max, coeffs), lo, 0.0,
                xtol=1e-18, rtol=8.9e-16)
    for _ in range(2):
        s_val, d_val = _series_slope_deriv(v, v_max, coeffs)
        v -= s_val / d_val
    return v


def _check_window(uc: float, u_max: float) -> None:
    """Reject amplitudes outside the closed-orbit window or outside the
    part of it that is resolvable in doubles."""
    if not (uc < u_max < 1.0):
        raise ValueError(
            f"u_max must lie in the closed-orbit window ({uc:.6g}, 1), "
            f"got {u_max}")
    if u_max < uc * (1.0 + _UMAX_REL_FLOOR) or u_max > _UMAX_CEIL:
        raise ValueError(
            f"u_max={u_max!r} is outside the window resolvable in doubles, "
            f"[{uc * (1.0 + _UMAX_REL_FLOOR):.9g}, {_UMAX_CEIL!r}]")


_PHASE_NODES = 128


@lru_cache(maxsize=None)
def _phase_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The _PHASE_NODES Gauss-Legendre nodes and weights mapped to the
    phase interval [0, pi], built on first use and shared read-only."""
    x, w = leggauss(_PHASE_NODES)
    phi = 0.5 * math.pi * (x + 1.0)
    wphi = 0.5 * math.pi * w
    phi.flags.writeable = False
    wphi.flags.writeable = False
    return phi, wphi


@dataclass(frozen=True)
class CircleOrbit:
    """One closed phase-plane orbit: amplitude, period, energy level."""

    n: int
    u_max: float
    period: float
    energy: float


def orbit_period(n: int, u_max: float) -> float:
    """Period of the closed orbit through (u_max, 0) by turning-point
    quadrature.

    Substituting u = mid - amp cos(phi) absorbs the square-root
    singularities at both turning points, leaving a smooth integrand for
    Gauss-Legendre in phi."""
    uc = constant_solution(n)
    _check_window(uc, u_max)
    phi, wphi = _phase_nodes()
    if u_max - uc <= _SERIES_AMPLITUDE * uc:
        # work entirely in well coordinates v = u - u_c: rounding u_min
        # back to the u scale would poison the turning-point nodes
        coeffs = _well_coefficients(n)
        v_max = u_max - uc
        v_min = _series_v_min(n, v_max)
        amp = 0.5 * (v_max - v_min)
        dist_lo = 2.0 * amp * np.sin(0.5 * phi) ** 2
        # reduced gap (E - V)/((u - u_min)(u_max - u)) = S(v)/(v - v_min)
        reduced = _series_slope(v_min + dist_lo, v_max, coeffs) / dist_lo
    else:
        u_min = _brentq(lambda u: _energy_gap(u, u_max, n), 1e-15, uc,
                        xtol=1e-15, rtol=8.9e-16)
        amp = 0.5 * (u_max - u_min)
        # form the turning-point distances before u itself:
        # u - u_min = 2 amp sin^2(phi/2), u_max - u = 2 amp cos^2(phi/2)
        dist_lo = 2.0 * amp * np.sin(0.5 * phi) ** 2
        dist_hi = 2.0 * amp * np.cos(0.5 * phi) ** 2
        u = u_min + dist_lo
        gap = np.array([
            _energy_gap(ui, u_max, n, dh=dh)
            for ui, dh in zip(u.tolist(), dist_hi.tolist())])
        reduced = gap / (dist_lo * dist_hi)
    return 2.0 * float(np.sum(wphi / np.sqrt(2.0 * reduced)))


def circle_orbit(n: int, u_max: float) -> CircleOrbit:
    """Bundle an orbit's amplitude with its period and energy."""
    period = orbit_period(n, u_max)
    return CircleOrbit(n=n, u_max=u_max, period=period,
                       energy=float(potential(u_max, n)))


@lru_cache(maxsize=None)
def _period_window(n: int) -> tuple[float, float, float, float]:
    """Amplitude window (lo, hi) searched by orbit_for_period, with the
    periods at its ends."""
    lo = constant_solution(n) * (1.0 + 2.0 * _UMAX_REL_FLOOR)
    hi = _UMAX_CEIL
    return lo, hi, orbit_period(n, lo), orbit_period(n, hi)


def orbit_for_period(n: int, period: float) -> CircleOrbit:
    """Invert the (strictly increasing) period map on the orbit window.

    Raises ValueError when the requested period is at or below the
    harmonic minimum or beyond what the window resolves in doubles, or
    is NaN."""
    _check_dim(n)
    if math.isnan(period):
        raise ValueError(f"period must be a number, got {period}")
    if period <= minimal_period(n):
        raise ValueError(
            f"no closed orbit has period {period:.6g} <= minimal period "
            f"{minimal_period(n):.6g}")
    lo, hi, t_lo, t_hi = _period_window(n)
    if t_hi < period:
        raise ValueError(
            f"period {period:.6g} requires an orbit too close to the "
            "separatrix to resolve")
    if t_lo > period:
        raise ValueError(
            f"period {period:.6g} sits too close to the harmonic minimum "
            "to resolve the orbit amplitude")
    u = _brentq(lambda v: orbit_period(n, v) - period, lo, hi,
                xtol=1e-14, rtol=8.9e-16)
    return circle_orbit(n, u)


def count_periodic_solutions(n: int, r: float) -> int:
    """Number of distinct nonconstant positive solutions with period
    2 pi r / k for some integer k >= 1, up to time translation.

    The period map fills (T_min, infinity), so the count is the number of
    harmonics k with 2 pi r / k above the minimal period. The constant
    solution is excluded."""
    _check_dim(n)
    if not 0.0 < r < math.inf:
        raise ValueError(f"circle radius must be positive and finite, got {r}")
    x = 2.0 * math.pi * r / minimal_period(n)
    return max(0, math.ceil(x - 1e-12) - 1)


def _orbit_rhs(n: int):
    """Right-hand side (u', u'') of the circle-factor flow in the form
    solve_ivp takes, with the constants of dimension n bound once."""
    c1 = (n - 2) ** 2 / 4.0
    c2 = n * (n - 2) / 4.0
    q = (n + 2) / (n - 2)

    def f(t, y):
        u, du = y
        return (du, c1 * u - c2 * abs(u) ** (q - 1.0) * u)

    return f


def integrate_orbit(n: int, u_max: float, t_end: float, samples: int = 2049):
    """Time-integrate the orbit from (u_max, 0); returns (t, u, u') arrays."""
    from scipy.integrate import solve_ivp

    _check_dim(n)
    ts = np.linspace(0.0, t_end, samples)
    sol = solve_ivp(_orbit_rhs(n), (0.0, t_end), (u_max, 0.0), method="DOP853",
                    rtol=_ORBIT_RTOL, atol=_ORBIT_ATOL, t_eval=ts)
    if not sol.success:
        raise RuntimeError(f"orbit integration failed: {sol.message}")
    return sol.t, sol.y[0], sol.y[1]


def return_time(n: int, u_max: float) -> float:
    """First return time to the outer turning point by direct time
    integration, located as the u' downward zero crossing near one period.
    Cross-checks the quadrature period independently of it."""
    from scipy.integrate import solve_ivp

    t_guess = orbit_period(n, u_max)

    def slowing(t, y):
        return y[1]
    slowing.terminal = False
    slowing.direction = -1.0

    sol = solve_ivp(_orbit_rhs(n), (0.0, 1.5 * t_guess), (u_max, 0.0),
                    method="DOP853", rtol=_ORBIT_RTOL, atol=_ORBIT_ATOL,
                    events=slowing)
    hits = [t for t in sol.t_events[0] if t > 0.5 * t_guess]
    if not hits:
        raise RuntimeError("orbit did not return within 1.5 periods")
    return float(hits[0])


def circle_quotient(n: int, u_max: float) -> float:
    """Yamabe quotient of the periodic solution over one period.

    The first factor has volume Vol(S^{n-1}) and scalar curvature
    (n-1)(n-2); integrals run over a single period, sampled at 4097
    points. As the orbit approaches the separatrix (u_max -> 1) the
    quotient climbs to the sphere invariant Y_n from below."""
    from scipy.integrate import simpson

    _check_dim(n)
    vol_m = surface_measure(n)
    a = 4.0 * (n - 1) / (n - 2)
    p = 2.0 * n / (n - 2)
    s = (n - 1.0) * (n - 2.0)
    period = orbit_period(n, u_max)
    ts, us, dus = integrate_orbit(n, u_max, period, samples=4097)
    grad = vol_m * simpson(dus * dus, x=ts)
    sq = vol_m * simpson(us * us, x=ts)
    crit = vol_m * simpson(np.abs(us) ** p, x=ts)
    return (a * grad + s * sq) / crit ** (2.0 / p)
