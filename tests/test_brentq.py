"""periodic._brentq against scipy.optimize.brentq as a test-time referee.

The port must take the same steps as scipy's Brent iteration, so both
the sequence of evaluation points and the returned root must agree to the
last bit, on the three root solves of the period map and on plain
functions that exercise each branch of the iteration.
"""

import math

import pytest
from scipy.optimize import brentq

from gnyamabe import periodic
from gnyamabe.periodic import constant_solution, minimal_period, orbit_period


def _both(f, a, b, **kw):
    """(root, evaluation points) from scipy and from the port."""
    runs = []
    for solver in (brentq, periodic._brentq):
        xs = []

        def g(x):
            xs.append(x)
            return f(x)

        runs.append((solver(g, a, b, **kw).hex(), [x.hex() for x in xs]))
    return runs


def _assert_same(f, a, b, **kw):
    ref, port = _both(f, a, b, **kw)
    assert port == ref
    return len(ref[1])


@pytest.mark.parametrize("n", [3, 4, 6, 8])
@pytest.mark.parametrize("rel", [1e-9, 1e-6, 1e-4, 0.019])
def test_series_turning_point_matches_scipy(n, rel):
    uc = constant_solution(n)
    coeffs = periodic._well_coefficients(n)
    v_max = rel * uc
    lo = -min(2.2 * v_max, 0.06 * uc)
    _assert_same(lambda w: periodic._series_slope(w, v_max, coeffs), lo, 0.0,
                 xtol=1e-18, rtol=8.9e-16)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
@pytest.mark.parametrize("frac", [0.03, 0.3, 0.9, 1.0 - 1e-9])
def test_inner_turning_point_matches_scipy(n, frac):
    uc = constant_solution(n)
    u_max = uc + frac * (1.0 - uc)
    _assert_same(lambda u: periodic._energy_gap(u, u_max, n), 1e-15, uc,
                 xtol=1e-15, rtol=8.9e-16)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("c", [1.0001, 1.3, 2.5])
def test_period_inverse_matches_scipy(n, c):
    lo, hi, _, _ = periodic._period_window(n)
    period = c * minimal_period(n)
    _assert_same(lambda v: orbit_period(n, v) - period, lo, hi,
                 xtol=1e-14, rtol=8.9e-16)


def test_plain_functions_match_scipy():
    tol = dict(xtol=2e-12, rtol=4 * 2.0 ** -52)
    # Wallis's cubic: interpolation and extrapolation steps
    _assert_same(lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, **tol)
    # a root at either end returns that end after two calls
    assert _assert_same(lambda x: x - 1.0, 1.0, 2.0, **tol) == 2
    assert _assert_same(lambda x: x - 2.0, 1.0, 2.0, **tol) == 2
    # a step function rejects every secant step, so each step bisects
    calls = _assert_same(lambda x: -1.0 if x < 1 / 3 else 1.0, 0.0, 1.0,
                         **tol)
    assert calls > 30
    # a flat-then-steep function mixes rejected and accepted steps
    _assert_same(lambda x: math.copysign(abs(x - 0.3) ** 0.1, x - 0.3),
                 -1.0, 2.0, **tol)


def _error(solver, *args, **kw):
    with pytest.raises(Exception) as info:
        solver(*args, **kw)
    return type(info.value), str(info.value)


def test_errors_match_scipy():
    tol = dict(xtol=2e-12, rtol=4 * 2.0 ** -52)
    cases = [
        # same sign at both ends
        ((lambda x: x * x + 1.0, -2.0, 1.0), tol),
        # NaN at an end, and NaN met inside the bracket
        ((lambda x: math.nan, 0.0, 1.0), tol),
        ((lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0), tol),
        # out of iterations
        ((lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0), dict(tol, maxiter=2)),
    ]
    for args, kw in cases:
        ref = _error(brentq, *args, **kw)
        assert ref[0] in (ValueError, RuntimeError)
        assert _error(periodic._brentq, *args, **kw) == ref
