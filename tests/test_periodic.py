import math

import numpy as np
import pytest

from gnyamabe import periodic
from gnyamabe.geometry import yamabe_sphere
from gnyamabe.periodic import (CircleOrbit, circle_orbit, circle_quotient,
                               constant_solution, count_periodic_solutions,
                               hamiltonian, integrate_orbit, minimal_period,
                               orbit_for_period, orbit_period, potential,
                               return_time)


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


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_count_rejects_bad_radius(r):
    with pytest.raises(ValueError, match="circle radius"):
        count_periodic_solutions(4, r)


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


def test_circle_orbit_energy_window():
    n = 4
    uc = constant_solution(n)
    orb = circle_orbit(n, 0.9)
    assert uc < orb.u_max < 1.0
    assert orb.energy == pytest.approx(float(potential(0.9, n)), rel=1e-14)
    assert orb.energy < 0.0


def test_circle_quotient_approaches_sphere_constant():
    for n in (3, 4, 5):
        y_n = yamabe_sphere(n)
        values = [circle_quotient(n, u) for u in (0.9, 0.99, 0.999, 0.9999)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < y_n for v in values)
        assert values[-1] > 0.99 * y_n


# float.hex of the period map as computed when orbit_period still built its
# Gauss-Legendre phase nodes on every call (numpy 2.4.6, Python 3.11.7).
# (n, u_max, orbit_period(n, u_max)): per n, a series-branch amplitude of
# 1e-6 u_c and 1.5e-2 u_c, then the window midpoint (u_c + 1) / 2; two
# more towards the separatrix.
_PERIOD_PINS = [
    (3, '0x1.850948575a7e8p-1', '0x1.921fb54445633p+2'),
    (3, '0x1.8adf14ab0557ep-1', '0x1.924751b7b15e5p+2'),
    (3, '0x1.c284976c35136p-1', '0x1.aa9aa334f4e9ep+2'),
    (4, '0x1.6a09fe21f3fe5p-1', '0x1.1c5831add6ea6p+2'),
    (4, '0x1.6f7820e6f38dbp-1', '0x1.1c64ab3e670aep+2'),
    (4, '0x1.b504f333f9de6p-1', '0x1.28f9aaeb467bcp+2'),
    (5, '0x1.5d0c04281a0a7p-1', '0x1.d05527b6e5ac4p+1'),
    (5, '0x1.6248440a6eca3p-1', '0x1.d06330e1547a0p+1'),
    (5, '0x1.ae85f6a4092d6p-1', '0x1.e1ffdd31c4ca7p+1'),
    (6, '0x1.55556bb3f4d64p-1', '0x1.921fb544431b4p+1'),
    (6, '0x1.5a740da740da6p-1', '0x1.922975883f767p+1'),
    (6, '0x1.aaaaaaaaaaaaap-1', '0x1.a006c806db9dfp+1'),
    (7, '0x1.5035b48ee3740p-1', '0x1.67aba6d20eea6p+1'),
    (7, '0x1.5540a9dcb92eep-1', '0x1.67b32dec82960p+1'),
    (7, '0x1.a81acf431d6e2p-1', '0x1.734f88b89ed6ep+1'),
    (8, '0x1.4c8dd8af77188p-1', '0x1.48552f8809ff6p+1'),
    (8, '0x1.518ac488d753ep-1', '0x1.485b5e173887cp+1'),
    (8, '0x1.a646e17211cc0p-1', '0x1.5274507bb7350p+1'),
    (4, '0x1.ffffde7210be9p-1', '0x1.fca39ff57dbd7p+3'),
    (7, '0x1.fae147ae147aep-1', '0x1.eef742977e069p+1'),
]
# (n, c, orbit_for_period(n, c * T_min).u_max), same provenance
_INVERSE_PINS = [
    (3, 1.3, '0x1.eb933cef8b275p-1'),
    (4, 1.01, '0x1.9121b4bba5317p-1'),
    (5, 1.6, '0x1.fddefb7517611p-1'),
    (6, 2.0, '0x1.ffe2b00ea346ap-1'),
    (8, 1.05, '0x1.b911a8bf30ac7p-1'),
]


def test_period_map_pinned_bit_for_bit():
    for n, u_hex, period_hex in _PERIOD_PINS:
        assert orbit_period(n, float.fromhex(u_hex)).hex() == period_hex
    for n, c, u_hex in _INVERSE_PINS:
        assert orbit_for_period(n, c * minimal_period(n)).u_max.hex() == u_hex


def test_phase_nodes_built_once():
    periodic._phase_nodes.cache_clear()
    for n in (3, 4, 8):
        uc = constant_solution(n)
        for u_max in (uc * 1.001, 0.5 * (uc + 1.0), 0.999):
            orbit_period(n, u_max)
        orbit_for_period(n, 1.2 * minimal_period(n))
    assert periodic._phase_nodes.cache_info().misses == 1
    phi, wphi = periodic._phase_nodes()
    with pytest.raises(ValueError):
        phi[0] = 0.0
    with pytest.raises(ValueError):
        wphi *= 2.0
