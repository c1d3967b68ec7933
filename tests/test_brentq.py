"""The period map's root solves against scipy.optimize.brentq as a
test-time referee.

The package finds the inner turning points by Newton's method (in well
coordinates for small orbits, in log u otherwise) and inverts the period
map by an Illinois iteration in log delta. scipy's Brent iteration solves
the same three equations here from a bracket, and each root must agree
with the package's to within the referee's own tolerance.
"""

import math

import mpmath
import pytest
from scipy.optimize import brentq

from gnyamabe import periodic
from gnyamabe.periodic import constant_solution, minimal_period, potential


@pytest.mark.parametrize("n", [3, 4, 6, 8])
@pytest.mark.parametrize("rel", [1e-9, 1e-6, 1e-4, 0.019])
def test_series_turning_point_matches_scipy(n, rel):
    uc = constant_solution(n)
    coeffs = periodic._well_coefficients(n)
    v_max = rel * uc
    lo = -min(2.2 * v_max, 0.06 * uc)
    ref = brentq(lambda w: periodic._series_slope_deriv(w, v_max, coeffs)[0],
                 lo, 0.0, xtol=1e-18, rtol=8.9e-16)
    v_min = periodic._series_v_min(n, v_max)
    assert abs(v_min - ref) <= 1e-18 + 4e-15 * abs(ref)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
@pytest.mark.parametrize("frac", [0.03, 0.3, 0.9, 1.0 - 1e-9])
def test_inner_turning_point_matches_scipy(n, frac):
    uc = constant_solution(n)
    u_max = uc + frac * (1.0 - uc)
    delta = 1.0 - u_max
    e = periodic._energy_ratio(n, delta)
    with mpmath.workdps(50):
        exact = 1 - mpmath.mpf(delta)
        e_ref = exact ** (mpmath.mpf(2 * n) / (n - 2)) - exact ** 2
    assert e == pytest.approx(float(e_ref), rel=2e-15)
    c = (n - 2) ** 2 / 8.0
    ref = brentq(lambda u: c * e - potential(u, n), 1e-15, uc,
                 xtol=1e-300, rtol=8.9e-16)
    assert math.exp(periodic._log_u_min(n, e)) == pytest.approx(ref,
                                                                rel=1e-14)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("c", [1.0001, 1.3, 2.5])
def test_period_inverse_matches_scipy(n, c):
    xs, _ = periodic._period_table(n)
    x_sep, x_harm = xs[-1], xs[0]
    period = c * minimal_period(n)
    ref = brentq(lambda x: periodic._period(n, math.exp(x)) - period,
                 x_sep, x_harm, xtol=1e-14, rtol=8.9e-16)
    orbit = periodic.orbit_for_period(n, period)
    assert orbit.period == pytest.approx(period, rel=1e-15)
    assert orbit.delta == pytest.approx(math.exp(ref), rel=1e-13)
