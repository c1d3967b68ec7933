import math

import numpy as np
import pytest

from gnyamabe import ode, periodic
from gnyamabe.geometry import yamabe_sphere
from gnyamabe.periodic import (CircleOrbit, circle_quotient,
                               constant_solution, count_periodic_solutions,
                               hamiltonian, integrate_orbit, minimal_period,
                               orbit_for_period, orbit_period, potential,
                               return_time)

from oracles import (circle_orbit, circle_quotient_by_time,
                     log_u_min_reference, neville_start,
                     orbit_for_period_reference, orbit_integrals_reference,
                     orbit_samples, period_reference, period_table,
                     quadrature_reference, return_time_full_orbit,
                     yamabe_quotient)


def test_constant_solution_values():
    assert constant_solution(4) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert constant_solution(3) == pytest.approx((1.0 / 3.0) ** 0.25,
                                                 rel=1e-15)
    with pytest.raises(ValueError):
        constant_solution(2)


def test_constant_solution_is_equilibrium():
    for n in (3, 4, 5, 7):
        uc = constant_solution(n)
        force = ((n - 2) ** 2 / 4.0) * uc \
            - (n * (n - 2) / 4.0) * uc ** ((n + 2.0) / (n - 2.0))
        assert abs(force) < 1e-14


def test_potential_shape():
    for n in (3, 4, 5):
        assert potential(0.0, n) == 0.0
        assert abs(potential(1.0, n)) < 1e-15
        assert potential(constant_solution(n), n) < 0.0


def test_potential_curvature_at_equilibrium():
    for n in (3, 4, 5, 9):
        uc = constant_solution(n)
        eps = 1e-5
        vpp = (potential(uc + eps, n) - 2 * potential(uc, n)
               + potential(uc - eps, n)) / eps ** 2
        assert vpp == pytest.approx(n - 2.0, abs=1e-5)


def test_harmonic_limit_of_period():
    for n in (3, 4, 5):
        uc = constant_solution(n)
        t_min = minimal_period(n)
        gaps = [orbit_period(n, uc * (1 + 10.0 ** -j)) - t_min
                for j in (1, 2, 3, 4)]
        assert all(g > -1e-7 for g in gaps)
        # amplitude halves the gap a hundredfold: quadratic approach
        for a, b in zip(gaps, gaps[1:]):
            assert abs(b) < abs(a) / 50.0
        assert abs(gaps[-1]) < 1e-6


def test_period_strictly_increasing():
    for n in (3, 4, 5):
        uc = constant_solution(n)
        grid = np.linspace(uc * 1.0001, 0.9995, 40)
        periods = [orbit_period(n, float(u)) for u in grid]
        assert np.all(np.diff(periods) > 0)


def test_period_finite_across_window():
    for n in (3, 4, 5):
        uc = constant_solution(n)
        for u_max in (uc * (1 + 1e-6), uc * 1.01, 0.99, 0.99999):
            t = orbit_period(n, u_max)
            assert math.isfinite(t)
            assert t > minimal_period(n)


def test_orbit_window_validation():
    uc = constant_solution(4)
    with pytest.raises(ValueError):
        orbit_period(4, uc * 0.5)
    with pytest.raises(ValueError):
        orbit_period(4, 1.0)
    with pytest.raises(ValueError):
        orbit_period(4, 1.5)
    # every amplitude inside the window is an orbit: at 1e-10 u_c the
    # period is the harmonic one, and the largest double below 1 is next
    # to the separatrix
    assert orbit_period(4, uc * (1.0 + 1e-10)) == pytest.approx(
        minimal_period(4), rel=1e-15)
    assert math.isfinite(orbit_period(4, 1.0 - 2.0 ** -53))


@pytest.mark.parametrize("n", range(3, 13))
def test_smallest_amplitude_meets_referee(n):
    """One ulp above u_c, the smallest amplitude in the window, the
    period meets the mpmath referee within 4 ulps (2 measured), and the
    quotient equals its value at 1e-9 u_c within 4 ulps (1 measured)
    and lies below Y_n. The referee runs with 25 digits, which give the
    same floats as 40 here in about half the time."""
    uc = constant_solution(n)
    u_max = math.nextafter(uc, 2.0)
    ref = period_reference(n, 1.0 - u_max, 25)
    assert abs(orbit_period(n, u_max) - ref) <= 4 * math.ulp(ref)
    quotient = circle_quotient(n, u_max)
    wider = circle_quotient(n, uc * (1.0 + 1e-9))
    assert abs(quotient - wider) <= 4 * math.ulp(wider)
    assert quotient < yamabe_sphere(n)


def test_orbit_closure_and_return_time():
    for n in (3, 4, 5):
        uc = constant_solution(n)
        u_max = 0.5 * (uc + 1.0)
        t_quad = orbit_period(n, u_max)
        t_ret = return_time(n, u_max)
        assert abs(t_quad - t_ret) < 1e-6
        ts, us, dus = integrate_orbit(n, u_max, t_quad)
        assert abs(us[-1] - u_max) < 1e-6
        assert abs(dus[-1]) < 1e-6


@pytest.mark.parametrize("n", [3, 4, 8])
def test_time_integration_matches_scipy(n):
    """The package's DOP853 stepper against scipy's DOP853:
    the sampled orbit and the return time to the outer turning point."""
    from scipy.integrate import solve_ivp

    c1, c2, q = (n - 2) ** 2 / 4.0, n * (n - 2) / 4.0, (n + 2) / (n - 2)

    def flow(t, y):
        return y[1], c1 * y[0] - c2 * abs(y[0]) ** (q - 1.0) * y[0]

    def turn(t, y):
        return y[1]
    turn.direction = -1.0

    for u_max in (0.5 * (constant_solution(n) + 1.0), 0.999):
        period = orbit_period(n, u_max)
        ts, us, dus = orbit_samples(n, u_max, 1.5 * period, 301)
        ref = solve_ivp(flow, (0.0, 1.5 * period), (u_max, 0.0),
                        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=ts,
                        events=turn)
        assert float(np.max(np.abs(us - ref.y[0]))) < 1e-9
        assert float(np.max(np.abs(dus - ref.y[1]))) < 1e-9
        t_ref = next(t for t in ref.t_events[0] if t > 0.5 * period)
        assert return_time(n, u_max) == pytest.approx(t_ref, rel=1e-9)


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
def test_integrate_orbit_rejects_bad_t_end(t_end):
    with pytest.raises(ValueError, match="t_end"):
        integrate_orbit(4, 0.9, t_end)


def test_energy_conservation_along_orbit():
    for n in (3, 4, 5):
        uc = constant_solution(n)
        u_max = 0.5 * (uc + 1.0)
        period = orbit_period(n, u_max)
        ts, us, dus = integrate_orbit(n, u_max, period)
        e0 = float(potential(u_max, n))
        drift = np.abs(hamiltonian(us, dus, n) - e0) / abs(e0)
        assert float(drift.max()) < 1e-9


def test_count_below_minimal_period_is_zero():
    for n in (3, 4, 5):
        r_small = minimal_period(n) / (2 * math.pi) * 0.999
        assert count_periodic_solutions(n, r_small) == 0
    assert count_periodic_solutions(4, 0.01) == 0


def test_count_nondecreasing_in_radius():
    for n in (3, 4, 5):
        grid = np.linspace(0.05, 5.0, 50)
        counts = [count_periodic_solutions(n, float(r)) for r in grid]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_jumps_at_harmonic_multiples():
    for n in (3, 4, 5):
        t_min = minimal_period(n)
        for k in (1, 2, 3):
            r_star = k * t_min / (2 * math.pi)
            assert count_periodic_solutions(n, r_star * (1 - 1e-6)) == k - 1
            assert count_periodic_solutions(n, r_star * (1 + 1e-6)) == k


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, -math.inf, math.nan,
                               1e300, 1e308])
def test_count_rejects_bad_radius(r):
    with pytest.raises(ValueError, match="circle radius"):
        count_periodic_solutions(4, r)


def test_count_just_past_a_harmonic_boundary():
    """2 pi r / T_min a hair above an integer still counts that harmonic,
    which orbit_for_period resolves above the equilibrium."""
    assert count_periodic_solutions(3, 1 + 1e-13) == 1
    assert orbit_for_period(3, 2 * math.pi * (1 + 1e-13)).u_max > \
        constant_solution(3)
    r = 3 * minimal_period(4) / (2 * math.pi) * (1 + 1e-13)
    assert count_periodic_solutions(4, r) == 3
    orbit_for_period(4, 2.0 * math.pi * r / 3)


def _direct_count(n, r):
    """Harmonics k >= 1 with 2 pi r / k above T_min, counted one by one."""
    count = 0
    while 2.0 * math.pi * r / (count + 1) > minimal_period(n):
        count += 1
    return count


@pytest.mark.parametrize("n", range(3, 13))
def test_count_matches_the_listing_test_at_boundaries(n):
    """At and a few ulps either side of each harmonic boundary 2 pi r =
    K T_min, the count is the number of k with 2 pi r / k > T_min in
    doubles: counted one by one for K up to 40, and past that checked at
    the count and one above it, as that test is monotone in k."""
    t_min = minimal_period(n)
    for big_k in [*range(1, 41), 299, 10 ** 4, 10 ** 5, 2 ** 52]:
        r = big_k * t_min / (2.0 * math.pi)
        for _ in range(4):
            r = math.nextafter(r, 0.0)
        for _ in range(9):
            count = count_periodic_solutions(n, r)
            if big_k <= 40:
                assert count == _direct_count(n, r)
            assert count == 0 or 2.0 * math.pi * r / count > t_min
            assert not 2.0 * math.pi * r / (count + 1) > t_min
            r = math.nextafter(r, math.inf)


def test_count_positive_above_minimal_period():
    for n in (3, 4, 5):
        r = 1.001 * minimal_period(n) / (2 * math.pi)
        assert count_periodic_solutions(n, r) >= 1


def test_orbit_for_period_roundtrip():
    for n in (3, 4):
        target = 1.3 * minimal_period(n)
        orb = orbit_for_period(n, target)
        assert isinstance(orb, CircleOrbit)
        assert orb.period == pytest.approx(target, rel=1e-9)
        assert orbit_period(n, orb.u_max) == pytest.approx(target, rel=1e-9)
    with pytest.raises(ValueError):
        orbit_for_period(4, 0.5 * minimal_period(4))


def test_orbit_for_period_rejects_non_finite():
    with pytest.raises(ValueError, match="period must be a number, got nan"):
        orbit_for_period(4, math.nan)
    with pytest.raises(ValueError, match="too close to the separatrix"):
        orbit_for_period(4, math.inf)


def test_orbit_for_period_fails_loudly_without_convergence(monkeypatch):
    """An inversion stopped short of its target raises rather than return
    its closest orbit as if it had converged. The interpolated start
    alone meets this target to 1.5e-16, so the test moves it 1e-6 in
    log delta and stops at one evaluation, which then misses by 1.5e-7
    relative, past _INVERSE_FAIL."""
    start = periodic._table_start
    monkeypatch.setattr(periodic, "_table_start",
                        lambda *args: start(*args) + 1e-6)
    monkeypatch.setattr(periodic, "_INVERSE_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        orbit_for_period(4, 1.3 * minimal_period(4))


def _evaluations_and_worst_miss(monkeypatch, targets):
    """(period evaluations per inversion, worst relative miss) of
    orbit_for_period over (n, target) pairs, every node of the period
    tables evaluated beforehand: a node is evaluated once per process,
    not once per inversion (test_orbit_for_period_cold_start counts
    them). The miss is |T - target| / target, as orbit_for_period
    measures it: T / target - 1 rounds any miss above the target up to
    2.2e-16 or more."""
    for n in {n for n, _ in targets}:
        period_table(n)
    calls = []
    period = periodic._period

    def counted(*args):
        calls.append(args)
        return period(*args)

    monkeypatch.setattr(periodic, "_period", counted)
    worst = max(abs(orbit_for_period(n, t).period - t) / t
                for n, t in targets)
    return len(calls) / len(targets), worst


def test_orbit_for_period_evaluation_count(monkeypatch):
    """Over 900 targets shaped like the periodic sweep (n = 3..8, 150 each
    from 1.0005 to 1.6 T_min) an inversion evaluates the period map at
    most 1.3 times on average and misses by at most 2e-15 relative: 1.14
    and 1.0e-15 from the 385-node period table's 10-node interpolant in
    sqrt(T - T_min), 2.02 from the 97-node table's, 2.91 from the 65-node
    table's 6-node one, 4.61 from the two neighbouring nodes, 7.32 from
    the window ends and 8.02 from them with regula falsi alone."""
    targets = [(n, c * minimal_period(n)) for n in range(3, 9)
               for c in np.linspace(1.0005, 1.6, 150)]
    mean, worst = _evaluations_and_worst_miss(monkeypatch, targets)
    assert mean <= 1.3
    assert worst <= 2e-15


def test_orbit_for_period_evaluation_count_across_window(monkeypatch):
    """Over n = 3..12, 120 targets each from 1 + 1e-7 to 20 T_min in
    geometric steps, which puts the interpolant's ten-node window against
    the harmonic end of the table and far from it: at most 1.23
    evaluations per inversion on average (1.07 measured, 1.78 with the
    97-node table, 2.28 with the 65-node table and six nodes, 2.82 from
    the neighbouring nodes) and a miss of at most 2e-15 (1.0e-15
    measured).
    20 T_min lies short of the separatrix end for each n; the window
    against that end is met by test_orbit_for_period_reaches_window_floor.
    """
    targets = [(n, c * minimal_period(n)) for n in range(3, 13)
               for c in np.geomspace(1.0 + 1e-7, 20.0, 120)]
    assert all(t < period_table(n)[1][-1] for n, t in targets)
    mean, worst = _evaluations_and_worst_miss(monkeypatch, targets)
    assert mean <= 1.23
    assert worst <= 2e-15


def test_orbit_for_period_cold_start(monkeypatch):
    """A first inversion evaluates only the period-table nodes it
    touches: with the node caches cleared, orbit_for_period(5, 1.5 T_min)
    makes at most 25 period evaluations (16 measured: the separatrix end,
    the nodes the bisection probes, the rest of the ten-node window and
    the orbit's own), where building the 97-node table made 98. The
    cached nodes then give the same orbit, to the bit."""
    periodic._table_nodes.cache_clear()
    periodic._start_window.cache_clear()
    calls = []
    period = periodic._period

    def counted(*args):
        calls.append(args)
        return period(*args)

    monkeypatch.setattr(periodic, "_period", counted)
    target = 1.5 * minimal_period(5)
    cold = orbit_for_period(5, target)
    assert len(calls) <= 25
    assert orbit_for_period(5, target) == cold


@pytest.mark.parametrize("n", range(3, 13))
def test_table_start_matches_neville(n):
    """The barycentric start and its slope against Neville's scheme
    through the same ten nodes, on every window of the 385-node table:
    at a tenth, half and nine tenths of each interval in y the value
    agrees to 3e-14 relative (2.2e-16 measured over n = 3..12) and the
    derivative to 1e-11 (5.5e-13). At a y equal to a node's the start
    returns that node's x, with no division by zero, and its derivative
    agrees as well. Both sides take the differences of x that carry the
    derivative on x less the window's middle node; on x itself, against
    an mpmath Neville of the same polynomial, the barycentric slope
    errs by up to 3.9e-10 and the float Neville one by 1.4e-10 (n = 3,
    5, 8)."""
    xs, ts = period_table(n)
    ys = [math.sqrt(t - ts[0]) for t in ts]
    size = periodic._START_NODES
    for i in range(1, len(ts)):
        lo = min(max(i - size // 2, 0), len(ts) - size)
        window = ys[lo:lo + size], xs[lo:lo + size]
        for f in (0.1, 0.5, 0.9):
            y = ys[i - 1] + f * (ys[i] - ys[i - 1])
            x = periodic._table_start(n, i, y)
            slope = periodic._table_slope(n, i, y)
            ref_x, ref_slope = neville_start(*window, y)
            assert abs(x - ref_x) <= 3e-14 * abs(ref_x)
            assert abs(slope - ref_slope) <= 1e-11 * abs(ref_slope)
        for j in (i - 1, i):
            assert periodic._table_start(n, i, ys[j]) == xs[j]
            slope = periodic._table_slope(n, i, ys[j])
            ref_slope = neville_start(*window, ys[j])[1]
            assert abs(slope - ref_slope) <= 1e-11 * abs(ref_slope)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_table_start_matches_mpmath(n):
    """The start and its slope against Neville's scheme carried in mpmath
    at 40 digits on the same ten nodes, on every 16th interval of the
    table and its last, at the points of test_table_start_matches_neville:
    within the same 3e-14 and 1e-11 (2.1e-16 and 5.0e-13 measured)."""
    xs, ts = period_table(n)
    ys = [math.sqrt(t - ts[0]) for t in ts]
    size = periodic._START_NODES
    for i in [*range(1, len(ts), 16), len(ts) - 1]:
        lo = min(max(i - size // 2, 0), len(ts) - size)
        window = ys[lo:lo + size], xs[lo:lo + size]
        for f in (0.1, 0.5, 0.9):
            y = ys[i - 1] + f * (ys[i] - ys[i - 1])
            ref_x, ref_slope = neville_start(*window, y, digits=40)
            x = periodic._table_start(n, i, y)
            slope = periodic._table_slope(n, i, y)
            assert abs(x - ref_x) <= 3e-14 * abs(ref_x)
            assert abs(slope - ref_slope) <= 1e-11 * abs(ref_slope)
        for j in (i - 1, i):
            ref_slope = neville_start(*window, ys[j], digits=40)[1]
            slope = periodic._table_slope(n, i, ys[j])
            assert abs(slope - ref_slope) <= 1e-11 * abs(ref_slope)


@pytest.mark.parametrize("start", [(math.nan, math.nan), (1e3, 1.0),
                                   (-1e3, -1e300), (math.inf, 0.0)],
                         ids=["nan", "above", "below", "inf"])
@pytest.mark.parametrize("n, c", [(3, 1.3), (5, 1.0005), (8, 20.0)])
def test_orbit_for_period_survives_a_bad_start(monkeypatch, n, c, start):
    """A start point that is not finite or not strictly inside the
    bracket gives way to the Illinois point, and so does a Newton step
    that a bad slope sends out of it: the inversion still meets its
    target to 1e-15, on the former inversion's orbit to the bit."""
    x, slope = start
    monkeypatch.setattr(periodic, "_table_start", lambda *args: x)
    monkeypatch.setattr(periodic, "_table_slope", lambda *args: slope)
    target = c * minimal_period(n)
    orbit = orbit_for_period(n, target)
    assert abs(orbit.period / target - 1.0) <= 1e-15
    assert orbit == orbit_for_period_reference(n, target)


@pytest.mark.parametrize("n", range(3, 41))
def test_orbit_for_period_returns_harmonic_end_orbit(n):
    """The table's harmonic end holds T_min itself, so the first doubles
    above T_min lie in its first interval and are searched as any other
    target: each is met within 8 ulps (4 measured for n = 3..40), far
    inside _INVERSE_FAIL, by an orbit between the table's first two
    nodes, above the equilibrium."""
    xs = periodic._table_nodes(n)[0]
    ts = [periodic._table_period(n, j) for j in (0, 1)]
    assert ts[0] == minimal_period(n)
    target = ts[0]
    for _ in range(4):
        target = math.nextafter(target, math.inf)
        assert ts[0] < target < ts[1]
        orbit = orbit_for_period(n, target)
        assert abs(orbit.period - target) <= 8 * math.ulp(target)
        assert math.exp(xs[1]) <= orbit.delta <= math.exp(xs[0])
        assert orbit.u_max > constant_solution(n)


@pytest.mark.parametrize("n", range(3, 41))
def test_orbit_for_period_in_the_first_table_interval(n):
    """A target between the table's first two periods, T_min itself and
    the next node's, where the ten-node window is clamped to the harmonic
    end: the interval's midpoint and the double below ts[1] are met to
    2e-15."""
    ts = [periodic._table_period(n, j) for j in (0, 1)]
    for target in (ts[0] + 0.5 * (ts[1] - ts[0]),
                   math.nextafter(ts[1], 0.0)):
        assert ts[0] < target < ts[1]
        orbit = orbit_for_period(n, target)
        assert abs(orbit.period / target - 1.0) <= 2e-15


@pytest.mark.parametrize("n, c", [(8, 20.0), (12, 3.0)])
def test_orbit_for_period_stops_on_an_unsplittable_bracket(monkeypatch, n,
                                                          c):
    """With no tolerance to stop on, the search ends once the log-delta
    bracket cannot be split further, short of _INVERSE_STEPS evaluations
    (2 and 5 measured), on an orbit that misses by at most 2.2e-16
    (1.4e-16 and 1.5e-16 measured, one ulp of the period)."""
    monkeypatch.setattr(periodic, "_INVERSE_RTOL", 0.0)
    target = c * minimal_period(n)
    mean, worst = _evaluations_and_worst_miss(monkeypatch, [(n, target)])
    assert mean < periodic._INVERSE_STEPS
    assert worst <= 2.2e-16


def test_circle_orbit_energy_window():
    n = 4
    uc = constant_solution(n)
    orb = circle_orbit(n, 0.9)
    assert uc < orb.u_max < 1.0
    energy = (n - 2) ** 2 / 8 * periodic._energy_ratio(n, orb.delta)
    assert energy == pytest.approx(float(potential(0.9, n)), rel=1e-14)
    assert energy < 0.0


def test_circle_quotient_approaches_sphere_constant():
    """The quotient climbs strictly to Y_n from below as delta = 1 - u_max
    falls to 1e-12. Its gap to Y_n is about delta relative, 1.8e-13 to
    1.7e-12 at 1e-12 against an error of about 1e-15 relative (see
    test_orbit_integrals_match_referee_near_separatrix), so every step is
    resolved. From delta near 1e-16 down to 1e-300 the gap is
    rounding-sized, at most about 1.4e-13 absolute, and is not
    asserted."""
    for n in range(3, 9):
        y_n = yamabe_sphere(n)
        values = [circle_quotient(n, 1.0 - 10.0 ** -k) for k in range(1, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < y_n for v in values)
        assert values[-1] > (1.0 - 1e-11) * y_n


def _assert_matches_reference(n, u_max, delta, digits=40):
    """The three integrals at delta, and the quotient at u_max when it is
    below 1, each within 1e-13 relative of the mpmath referee computed to
    `digits` digits; returns the referee's quotient."""
    ref = orbit_integrals_reference(n, delta, digits)
    got = periodic._quadrature(n, delta, True)[1]
    for value, expected in zip(got, ref):
        assert value == pytest.approx(expected, rel=1e-13)
    q_ref = yamabe_quotient(n, ref)
    if u_max < 1.0:
        assert circle_quotient(n, u_max) == pytest.approx(q_ref, rel=1e-13)
    return q_ref


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("frac", [0.03, 0.5, 0.99])
def test_orbit_integrals_match_referee(n, frac):
    """Across the window, from the series branch (3%) to next to the
    separatrix (99%)."""
    u_max = constant_solution(n) + frac * (1.0 - constant_solution(n))
    _assert_matches_reference(n, u_max, 1.0 - u_max)


@pytest.mark.parametrize("n, delta", [(n, 1e-12) for n in range(3, 9)]
                         + [(4, 9e-9), (4, 1e-14), (3, 1e-300),
                            (8, 1e-300)])
def test_orbit_integrals_match_referee_near_separatrix(n, delta):
    """Where time integration cannot follow the orbit (1 - u_max below
    1e-8; it gave circle_quotient(4, 1 - 1e-14) = 74.61 > Y_4) and down
    to the window floor, delta itself beyond the doubles below 1. At
    1e-12 the referee's gap Y_n - Q is at least 10x the quotient's
    error, which the sphere-constant test relies on.

    At 1e-300 the referee runs with 25 digits, which give the same
    floats as 40 for n = 3 and 8 in about half the time."""
    u_max = 1.0 - delta
    q_ref = _assert_matches_reference(
        n, u_max, 1.0 - u_max if u_max < 1.0 else delta,
        25 if delta == 1e-300 else 40)
    if delta == 1e-12:
        gap = yamabe_sphere(n) - q_ref
        assert gap > 10.0 * abs(circle_quotient(n, u_max) - q_ref)


def _time_floor():
    """The largest u_max that time integration accepts."""
    u_max = 1.0 - periodic._TIME_DELTA_FLOOR
    if 1.0 - u_max < periodic._TIME_DELTA_FLOOR:
        u_max = math.nextafter(u_max, 0.0)
    return u_max


@pytest.mark.parametrize("n", range(3, 9))
def test_circle_quotient_matches_time_integration(n):
    """The quadrature quotient against the former time integration with
    Simpson's rule, wherever that integration follows the orbit."""
    uc = constant_solution(n)
    for u_max in (uc + 0.03 * (1.0 - uc), 0.5 * (uc + 1.0), 1.0 - 1e-4,
                  _time_floor()):
        assert circle_quotient(n, u_max) == pytest.approx(
            circle_quotient_by_time(n, u_max), rel=1e-11)


@pytest.mark.parametrize("u_max", [1.0 - 1e-14, 1.0 - 9e-9, 1.0, math.nan])
def test_time_integration_rejects_the_separatrix(u_max):
    """Time integration from (u_max, 0) cannot follow an orbit within 1e-8
    of the separatrix past the saddle, so return_time and integrate_orbit
    refuse it. circle_quotient, a quadrature, refuses only u_max outside
    the window."""
    with pytest.raises(ValueError, match="separatrix"):
        return_time(4, u_max)
    with pytest.raises(ValueError, match="separatrix"):
        integrate_orbit(4, u_max, 10.0)
    if not u_max < 1.0:
        with pytest.raises(ValueError, match="closed-orbit window"):
            circle_quotient(4, u_max)


def test_time_integration_at_the_separatrix_floor():
    """The closest start the floor admits still returns on the quadrature
    period and keeps the time-integrated quotient below the sphere
    invariant."""
    u_max = _time_floor()
    for n in (3, 5, 8):
        assert return_time(n, u_max) == pytest.approx(
            orbit_period(n, u_max), rel=1e-6)
        assert 0.9999999 * yamabe_sphere(n) \
            < circle_quotient_by_time(n, u_max) < yamabe_sphere(n)


# float.hex of the period map on the separatrix distance (numpy 2.4.6,
# Python 3.11.7). (n, u_max, orbit_period(n, u_max)): per n, a
# series-branch amplitude of 1e-6 u_c and 1.5e-2 u_c, then the window
# midpoint (u_c + 1) / 2; two more towards the separatrix.
_PERIOD_PINS = [
    (3, '0x1.850948575a7e8p-1', '0x1.921fb54445b26p+2'),
    (3, '0x1.8adf14ab0557ep-1', '0x1.924751b7b1568p+2'),
    (3, '0x1.c284976c35136p-1', '0x1.aa9aa33503b2ap+2'),
    (4, '0x1.6a09fe21f3fe5p-1', '0x1.1c5831add718bp+2'),
    (4, '0x1.6f7820e6f38dbp-1', '0x1.1c64ab3e67425p+2'),
    (4, '0x1.b504f333f9de6p-1', '0x1.28f9aaeb452bfp+2'),
    (5, '0x1.5d0c04281a0a7p-1', '0x1.d05527b6e545fp+1'),
    (5, '0x1.6248440a6eca3p-1', '0x1.d06330e153d3dp+1'),
    (5, '0x1.ae85f6a4092d6p-1', '0x1.e1ffdd31b1badp+1'),
    (6, '0x1.55556bb3f4d64p-1', '0x1.921fb5444389bp+1'),
    (6, '0x1.5a740da740da6p-1', '0x1.922975883feedp+1'),
    (6, '0x1.aaaaaaaaaaaaap-1', '0x1.a006c806e158fp+1'),
    (7, '0x1.5035b48ee3740p-1', '0x1.67aba6d20ed6cp+1'),
    (7, '0x1.5540a9dcb92eep-1', '0x1.67b32dec8224bp+1'),
    (7, '0x1.a81acf431d6e2p-1', '0x1.734f88b87f875p+1'),
    (8, '0x1.4c8dd8af77188p-1', '0x1.48552f88098f8p+1'),
    (8, '0x1.518ac488d753ep-1', '0x1.485b5e173852ap+1'),
    (8, '0x1.a646e17211cc0p-1', '0x1.5274507bbfc51p+1'),
    (4, '0x1.ffffde7210be9p-1', '0x1.fca39f5810e23p+3'),
    (7, '0x1.fae147ae147aep-1', '0x1.eef742972c812p+1'),
]
# (n, c, orbit_for_period(n, c * T_min).delta), same provenance
_INVERSE_PINS = [
    (3, 1.3, '0x1.46cc310750f36p-5'),
    (4, 1.01, '0x1.bb792d10236bbp-3'),
    (5, 1.6, '0x1.10824573bbf9ep-8'),
    (6, 2.0, '0x1.d4ff162ee9e2bp-13'),
    (8, 1.05, '0x1.1bb95d02d65dcp-3'),
]


def test_period_map_pinned_bit_for_bit():
    for n, u_hex, period_hex in _PERIOD_PINS:
        assert orbit_period(n, float.fromhex(u_hex)).hex() == period_hex
    for n, c, delta_hex in _INVERSE_PINS:
        assert orbit_for_period(n, c * minimal_period(n)).delta.hex() \
            == delta_hex


@pytest.mark.parametrize("n, u_hex, period_hex", _PERIOD_PINS,
                         ids=lambda v: v if isinstance(v, int) else None)
def test_period_pins_match_referee(n, u_hex, period_hex):
    u_max = float.fromhex(u_hex)
    ref = period_reference(n, 1.0 - u_max)
    assert float.fromhex(period_hex) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("n, c, delta_hex", _INVERSE_PINS,
                         ids=lambda v: v if isinstance(v, int) else None)
def test_inverse_pins_match_referee(n, c, delta_hex):
    ref = period_reference(n, float.fromhex(delta_hex))
    assert ref == pytest.approx(c * minimal_period(n), rel=2e-15)


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("frac", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_period_matches_referee_across_window(n, frac):
    uc = constant_solution(n)
    u_max = uc + frac * (1.0 - uc)
    assert orbit_period(n, u_max) == pytest.approx(
        period_reference(n, 1.0 - u_max), rel=1e-13)


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-10, 1e-15, 1e-20])
def test_period_matches_referee_near_separatrix(n, delta):
    """orbit_period where 1 - delta rounds to a double below 1 (the orbit
    is then at the exact 1 - u_max), the map on delta itself beyond."""
    u_max = 1.0 - delta
    if u_max < 1.0:
        delta = 1.0 - u_max
        period = orbit_period(n, u_max)
    else:
        period = periodic._period(n, delta)
    assert period == pytest.approx(period_reference(n, delta), rel=1e-13)


def test_period_finite_and_increasing_to_window_floor():
    """No 0 * inf where u_min^P underflows: the map stays finite and,
    once u_min^(P-2) ~ delta^(2/(n-2)) is negligible, grows exactly like
    log(1/delta) / lambda down to the smallest delta."""
    for n in (3, 4, 8):
        lam = 0.5 * (n - 2)
        deltas = [10.0 ** -k for k in range(20, 300, 40)] + [1e-300]
        periods = [periodic._period(n, d) for d in deltas]
        assert all(math.isfinite(t) for t in periods)
        assert all(b > a for a, b in zip(periods, periods[1:]))
        slopes = [(b - a) * lam / math.log(da / db) for a, b, da, db
                  in zip(periods[1:], periods[2:], deltas[1:], deltas[2:])]
        assert max(abs(s - 1.0) for s in slopes) < 1e-12


def test_orbit_for_period_reaches_window_floor():
    for n in (3, 4, 8):
        t_sep = period_table(n)[1][-1]
        orbit = orbit_for_period(n, 0.999 * t_sep)
        assert orbit.period == pytest.approx(0.999 * t_sep, rel=1e-15)
        assert orbit.u_max == 1.0
        assert 1e-300 < orbit.delta < 1e-290


def test_circle_orbit_carries_delta():
    orb = circle_orbit(4, 0.9)
    assert orb.delta == 1.0 - 0.9
    assert orb.period == orbit_period(4, 0.9)
    tiny = orbit_for_period(4, 60.0)
    assert tiny.u_max == 1.0 and 0.0 < tiny.delta < 1e-16
    assert (4 - 2) ** 2 / 8 * periodic._energy_ratio(4, tiny.delta) < 0.0


def test_phase_nodes_built_once():
    periodic._gauss_rule.cache_clear()
    for n in (3, 4, 8):
        uc = constant_solution(n)
        for u_max in (uc * 1.001, 0.5 * (uc + 1.0), 0.999):
            orbit_period(n, u_max)
        orbit_for_period(n, 1.2 * minimal_period(n))
    assert periodic._gauss_rule.cache_info().misses == 1
    for arr in periodic._gauss_rule():
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_stored_rule_is_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    (x, w), *_ = periodic._gauss_rule()
    ref_x, ref_w = leggauss(64)
    assert x.tobytes() == (0.5 * (ref_x + 1.0)).tobytes()
    assert w.tobytes() == (0.5 * ref_w).tobytes()


def _orbit_shape(n, delta):
    """How `periodic._quadrature` splits the orbit through (1 - delta, 0):
    "series", or the number of inner panels, with "lead" where the inner
    half reaches past the last break."""
    uc, _, _, _, breaks = periodic._dimension_constants(n)
    if 1.0 - delta - uc <= periodic._SERIES_AMPLITUDE * uc:
        return "series"
    s_min = periodic._log_u_min(n, periodic._energy_ratio(n, delta))
    width = math.acosh(uc * math.exp(-s_min))
    if width > breaks[-1]:
        return "lead"
    return 1 + sum(width > brk for brk in breaks[:-1])


@pytest.mark.parametrize("n", range(3, 13))
def test_quadrature_matches_out_of_place_referee(n):
    """The in-place period quadrature returns the doubles of its former
    out-of-place form, oracles.quadrature_reference: the period and all
    three integrals to 0 ulps. The grid holds the series branch at
    amplitudes 1e-6 and 1.5e-2 u_c, every fourth node of the period
    table, from its harmonic end through one, two and three inner panels
    and the lead to delta = 1e-300, and eight of the sweep band's targets
    from 1.0005 to 1.6 T_min."""
    uc = constant_solution(n)
    table = [math.exp(x) for x in periodic._table_nodes(n)[0][::4]]
    assert table[-1] == pytest.approx(periodic._DELTA_FLOOR, rel=1e-13)
    deltas = [1.0 - uc * (1.0 + amp) for amp in (1e-6, 1.5e-2)] + table
    deltas += [orbit_for_period(n, c * minimal_period(n)).delta
               for c in np.linspace(1.0005, 1.6, 8)]
    assert {_orbit_shape(n, d) for d in deltas} == {"series", 1, 2, 3,
                                                    "lead"}
    for delta in deltas:
        for moments in (False, True):
            assert (periodic._quadrature(n, delta, moments)
                    == quadrature_reference(n, delta, moments)), \
                (delta.hex(), moments)


@pytest.mark.parametrize("n", range(3, 41))
def test_period_table_ascends_between_window_ends(n):
    """The harmonic end's period is T_min itself, where the quadrature
    lands a few ulps either side of it; every other node carries the
    quadrature's period."""
    xs, ts = period_table(n)
    assert len(xs) == len(ts) == periodic._TABLE_STEPS + 1
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert xs[-1] == math.log(periodic._DELTA_FLOOR)
    assert xs[0] == math.log(1.0 - constant_solution(n)
                             * (1.0 + periodic._HARMONIC_END))
    assert ts[0] == minimal_period(n)
    assert ts[1:] == tuple(periodic._period(n, math.exp(x)) for x in xs[1:])


@pytest.mark.parametrize("node", [0, 20, 64, 96, periodic._TABLE_STEPS])
def test_orbit_for_period_on_a_table_node(node):
    """A target equal to a node's period returns that node's orbit, the
    separatrix end's (node _TABLE_STEPS) included; the harmonic end's
    (node 0) is T_min, which no closed orbit has, and is refused."""
    n = 5
    xs, ts = period_table(n)
    if node == 0:
        with pytest.raises(ValueError, match="<= minimal period"):
            orbit_for_period(n, ts[node])
        return
    orbit = orbit_for_period(n, ts[node])
    assert orbit.delta == math.exp(xs[node])
    assert orbit.period == ts[node]


def _time_window(n):
    """u_max from the middle of the window to the time-integration floor:
    the middle, 1 - u_max = 1e-2, 1e-4, 1e-5, 1e-6 and the floor."""
    uc = constant_solution(n)
    return [0.5 * (uc + 1.0)] + [1.0 - d for d in (1e-2, 1e-4, 1e-5, 1e-6)] \
        + [_time_floor()]


@pytest.mark.parametrize("n", range(3, 13))
def test_half_orbit_return_time_matches_full_orbit(n):
    """Twice the time to the inner turning point against the former
    return time, a whole orbit stepped to the next outer turning point:
    within 1e-10 relative (4.5e-11 measured, n = 3..12), and no further
    from the quadrature period than the former one, up to 1e-10 (away
    from the separatrix both sit a few 1e-11 from it, and both miss by
    the same 2e-9 at 1 - u_max = 1e-6 and 1.5e-7 at the floor)."""
    for u_max in _time_window(n):
        half, full = return_time(n, u_max), return_time_full_orbit(n, u_max)
        period = orbit_period(n, u_max)
        assert abs(half / full - 1.0) <= 1e-10, u_max
        assert abs(half / period - 1.0) <= abs(full / period - 1.0) + 1e-10


def test_return_time_needs_no_quadrature(monkeypatch):
    """return_time steps the flow alone: with the period quadrature
    patched to raise it still returns, the same double as before."""
    expected = return_time(4, 0.9)

    def refuse(*args, **kwargs):
        raise AssertionError("return_time evaluated the quadrature")

    monkeypatch.setattr(periodic, "_quadrature", refuse)
    assert return_time(4, 0.9) == expected


def test_return_time_refuses_an_orbit_past_the_saddle(monkeypatch):
    """An orbit that reaches u <= 0 before its inner turning point has
    left the closed orbit: here the flow starts from (0.9, -1), above the
    separatrix energy, and return_time raises rather than step on."""
    def kicked(n, u_max, t_end):
        return ode._dp_steps(0.0, u_max, -1.0, 1e-2, t_end, 0.0,
                             (n - 2) ** 2 / 4.0, n * (n - 2) / 4.0,
                             4.0 / (n - 2), periodic._ORBIT_RTOL,
                             periodic._ORBIT_ATOL)

    monkeypatch.setattr(periodic, "_orbit_steps", kicked)
    with pytest.raises(RuntimeError, match="u <= 0"):
        return_time(4, 0.9)


def test_return_time_refuses_amplitudes_outside_the_window():
    """return_time no longer evaluates the period, whose window check
    refused these; an amplitude at or below u_c would start at the inner
    turning point or the equilibrium, so it is refused itself."""
    for u_max in (constant_solution(4), 0.5, -0.1):
        with pytest.raises(ValueError, match="closed-orbit window"):
            return_time(4, u_max)
    with pytest.raises(ValueError, match="dimension"):
        return_time(2, 0.9)


def test_log_u_min_matches_reference(monkeypatch):
    """Stopping Newton's method in log u once a step leaves s unchanged
    gives the doubles of the former loop, which stopped only on a step
    that did not shrink: over the energies of every period evaluation of
    sweep-shaped inversions (n = 3..8, from 1.0005 to 1.6 T_min, the
    table nodes they touch included) and, for n = 3..40, 540 separatrix
    distances each from 2% of u_c above it, where the quadrature takes
    over from the series, down to delta = 1e-300."""
    seen = []
    period = periodic._period

    def recorded(n, delta):
        seen.append((n, delta))
        return period(n, delta)

    monkeypatch.setattr(periodic, "_period", recorded)
    for n in range(3, 9):
        for c in np.linspace(1.0005, 1.6, 150):
            orbit_for_period(n, c * minimal_period(n))
    grid = [(n, float(d)) for n in range(3, 41) for d in np.geomspace(
        1.0 - constant_solution(n) * (1.0 + periodic._SERIES_AMPLITUDE),
        1e-300, 540)]
    assert len(seen) >= 900 and len(seen) + len(grid) >= 20000
    for n, delta in seen + grid:
        e = periodic._energy_ratio(n, delta)
        assert periodic._log_u_min(n, e) == log_u_min_reference(n, e), \
            (n, delta.hex())


def _starts_and_hits(n, targets):
    """For each target, whether the interpolated start alone meets it to
    _INVERSE_RTOL: a hit, which the inversion returns on one evaluation."""
    t_min = minimal_period(n)
    hits = []
    for target in targets:
        i = periodic._table_interval(n, target)
        x = periodic._table_start(n, i, math.sqrt(target - t_min))
        hits.append(abs(target - periodic._period(n, math.exp(x)))
                    <= periodic._INVERSE_RTOL * target)
    return hits


def test_orbit_for_period_matches_reference(monkeypatch):
    """The inversion that builds its search state only after its first
    evaluation misses returns the former inversion's CircleOrbit, to the
    bit, for n = 3..12: on 100 sweep-shaped targets each from 1.0005 to
    1.6 T_min, among which the interpolated start meets some on its own
    and misses others; on targets equal to table-node periods, which
    return the node with no evaluation; and at both ends of the window,
    the first double above T_min and the separatrix end's period. A hit
    makes exactly one period evaluation."""
    calls = []
    period = periodic._period

    def counted(*args):
        calls.append(args)
        return period(*args)

    hits = []
    for n in range(3, 13):
        t_min = minimal_period(n)
        ts = period_table(n)[1]
        sweep = [float(c) * t_min for c in np.linspace(1.0005, 1.6, 100)]
        nodes = [ts[j] for j in (1, 2, 30, 96, 200, periodic._TABLE_STEPS)]
        ends = [math.nextafter(t_min, math.inf), ts[-1],
                math.nextafter(ts[-1], 0.0)]
        for target in sweep + nodes + ends:
            assert orbit_for_period(n, target) \
                == orbit_for_period_reference(n, target), (n, target.hex())
        starts = _starts_and_hits(n, sweep)
        hits += starts
        with monkeypatch.context() as patch:
            patch.setattr(periodic, "_period", counted)
            for target, hit in zip(sweep, starts):
                del calls[:]
                orbit_for_period(n, target)
                assert (len(calls) == 1) == hit, (n, target.hex())
            for target in nodes:
                del calls[:]
                assert orbit_for_period(n, target).period == target
                assert not calls
    assert 0 < sum(hits) < len(hits)
