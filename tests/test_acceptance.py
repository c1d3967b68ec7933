"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; pytest failure
output marks the criterion red otherwise. Run with -s to see the lines.
"""

import math

import numpy as np
import pytest

from gnyamabe import (Dims, bound_from_profile, build_table,
                      count_periodic_solutions, find_ground_state, gn_value,
                      hamiltonian, integrate_orbit, integrate_shot,
                      orbit_period, potential, unit_volume_sphere_scalar,
                      yamabe_sphere)
from gnyamabe.functional import radial_integrals
from gnyamabe.geometry import (coupling_constant, reference_constants,
                               sphere_volume)
from gnyamabe.ode import DEFAULT_CONTROLS, CrossedZero, TurnedUp
from gnyamabe.periodic import return_time

from golden import (ALPHA0_22, GOLDEN_TABLE, SIGMA_TOL, TESTFN_BOUND_22,
                    Y_INF_TOL, Y_SPHERE_TOL)
from oracles import (dilate, exponents_m1, hermite_integrals, ode_residual,
                     optimal_dilation, scale, sech_amplitude, sech_sigma_inv,
                     tightened)


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_table_reproduction(table9):
    rows, elapsed = table9
    assert len(rows) == len(GOLDEN_TABLE) == 21
    worst_sigma = worst_y = worst_sphere = 0.0
    for row, (m, n, sigma_ref, y_ref, sphere_ref) in zip(rows, GOLDEN_TABLE):
        assert (row.m, row.n) == (m, n)
        worst_sigma = max(worst_sigma, abs(row.sigma_inv - sigma_ref))
        worst_y = max(worst_y, abs(row.y_inf - y_ref))
        worst_sphere = max(worst_sphere, abs(row.y_sphere - sphere_ref))
        assert abs(row.sigma_inv - sigma_ref) < SIGMA_TOL, f"({m},{n})"
        assert abs(row.y_inf - y_ref) < Y_INF_TOL, f"({m},{n})"
        assert abs(row.y_sphere - sphere_ref) < Y_SPHERE_TOL, f"({m},{n})"
    assert elapsed < 10.0, f"table took {elapsed:.1f}s"
    _report(1, f"21 rows within tolerance (worst sigma {worst_sigma:.1e}, "
               f"worst y_inf {worst_y:.1e}, worst sphere {worst_sphere:.1e}) "
               f"in {elapsed:.1f}s")


def test_criterion_2_ground_state_anchor(gs22):
    assert abs(gs22.alpha0 - ALPHA0_22) < 5e-4
    above = integrate_shot(2.208, Dims(2, 2))
    below = integrate_shot(2.205, Dims(2, 2))
    assert isinstance(above, CrossedZero)
    assert isinstance(below, TurnedUp)
    _report(2, f"alpha0(2,2) = {gs22.alpha0:.6f}; 2.208 crosses, "
               "2.205 turns up")


def test_criterion_3_closed_form_oracle():
    worst_alpha = worst_sigma = 0.0
    for m in (3, 4, 5):
        q, _ = exponents_m1(m)
        # the closed form really solves the equation, independently checked
        res = ode_residual(np.linspace(0.3, 8.0, 40), q)
        assert float(np.max(res)) < 1e-6
        gs = find_ground_state(Dims(m, 1))
        alpha_err = abs(gs.alpha0 - sech_amplitude(q))
        assert alpha_err < 1e-9
        sigma = gn_value(gs.profile, Dims(m, 1)).sigma_inv
        sigma_err = abs(sigma - sech_sigma_inv(m)) / sigma
        assert sigma_err < 1e-8
        worst_alpha = max(worst_alpha, alpha_err)
        worst_sigma = max(worst_sigma, sigma_err)
    _report(3, f"(m,1) oracle: worst alpha error {worst_alpha:.1e}, "
               f"worst sigma rel error {worst_sigma:.1e}")


def test_criterion_4_test_function_bound(testfn22):
    d = Dims(2, 2)
    l_val = gn_value(testfn22, d).sigma_inv
    assert l_val < TESTFN_BOUND_22
    assert l_val > 2.41877
    bound = bound_from_profile(testfn22, d, unit_volume_sphere_scalar(2))
    eight_sqrt_3pi = 8 * math.sqrt(3 * math.pi)
    assert bound == pytest.approx(eight_sqrt_3pi * l_val, rel=1e-12)
    assert eight_sqrt_3pi * l_val < 8 * math.sqrt(6) * math.pi
    _report(4, f"L = {l_val:.7f} in (2.41877, 2.427458); bound "
               f"{bound:.5f} < Y_4 = {yamabe_sphere(4):.5f}")


def test_criterion_5_invariance_suite(gs22, testfn22, sech31_profile):
    cases = [(gs22.profile, Dims(2, 2)), (testfn22, Dims(2, 2)),
             (sech31_profile, Dims(3, 1))]
    worst = 0.0
    for profile, d in cases:
        base = gn_value(profile, d).sigma_inv
        for c in (0.1, 3.0, 100.0):
            rel = abs(gn_value(scale(profile, c), d).sigma_inv - base) / base
            assert rel < 1e-10
            worst = max(worst, rel)
        for lam in (0.5, 2.0, 10.0):
            rel = abs(gn_value(dilate(profile, lam), d).sigma_inv
                      - base) / base
            assert rel < 1e-10
            worst = max(worst, rel)
        # dilation-minimum identity F(lambda0) = s^(m/k) C(m,n) L(f)
        s_g = unit_volume_sphere_scalar(d.m)
        i_grad, i_sq, i_p = radial_integrals(profile, d)
        denom = i_p ** (2.0 / d.p)
        _, f_min = optimal_dilation(d.a * i_grad / denom,
                                    s_g * i_sq / denom, d)
        target = s_g ** (d.m / d.k) * coupling_constant(d) * base
        assert f_min == pytest.approx(target, rel=1e-9)
    _report(5, f"scale/dilation invariance to 1e-10 (worst {worst:.1e}); "
               "dilation-minimum identity to 1e-9 on 3 profiles")


def test_criterion_6_constants(capsys):
    ref = reference_constants()
    assert abs(ref["Y_CP2"] - 53.31459) <= 1e-5
    assert abs(ref["Y_S2xS2_product"] - 50.26548) <= 1e-5
    from gnyamabe.cli import main
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    printed = {}
    for line in out.splitlines():
        if "Y(CP^2)" in line:
            printed["cp2"] = float(line.split("=")[-1])
        if "Y(S^2 x S^2" in line:
            printed["s2s2"] = float(line.split("=")[-1])
    assert abs(printed["cp2"] - 53.31459) <= 1e-5
    assert abs(printed["s2s2"] - 50.26548) <= 1e-5
    for k in range(3, 13):
        recurrence = 2 * math.pi * sphere_volume(k - 2) / (k - 1)
        assert sphere_volume(k) == pytest.approx(recurrence, rel=1e-13)
    _report(6, "reference constants within 1e-5 via `constants`; volume "
               "recurrence holds to 1e-13 for k <= 12")


def test_criterion_7_periodic_properties():
    worst_drift = worst_period = 0.0
    for n in (3, 4, 5):
        u_max = 0.5 * (1.0 + (1.0 - 2.0 / n) ** ((n - 2) / 4.0))
        period = orbit_period(n, u_max)
        ts, us, dus = integrate_orbit(n, u_max, period)
        e0 = float(potential(u_max, n))
        drift = float(np.max(np.abs(hamiltonian(us, dus, n) - e0))) / abs(e0)
        assert drift < 1e-9
        gap = abs(return_time(n, u_max) - period)
        assert gap < 1e-6
        counts = [count_periodic_solutions(n, float(r))
                  for r in np.linspace(0.05, 5.0, 50)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        worst_drift = max(worst_drift, drift)
        worst_period = max(worst_period, gap)
    _report(7, f"energy drift < 1e-9 (worst {worst_drift:.1e}); period "
               f"closure < 1e-6 (worst {worst_period:.1e}); counts "
               "non-decreasing on 50-point grids")


def test_criterion_8_robustness(table9, gs22):
    rows, _ = table9
    tight_rows = build_table(9, ctrl=tightened(DEFAULT_CONTROLS, 10.0))
    for r, t in zip(rows, tight_rows):
        for field in ("alpha0", "sigma_inv", "y_inf", "y_sphere"):
            a = f"{getattr(r, field):.5g}"
            b = f"{getattr(t, field):.5g}"
            assert a == b, f"({r.m},{r.n}) {field}: {a} vs {b}"
    gaps = []
    for d in (Dims(2, 2), Dims(3, 4), Dims(2, 7)):
        gs = gs22 if (d.m, d.n) == (2, 2) else find_ground_state(d)
        ours = radial_integrals(gs.profile, d)
        ref = hermite_integrals(gs.profile, d)
        gaps.extend(abs(a - b) / b for a, b in zip(ours, ref))
    assert max(gaps) < 1e-13
    _report(8, "10x tighter tolerances preserve all 5-significant-figure "
               "entries; the integrals agree with the Hermite-Simpson "
               f"referee to {max(gaps):.1e} relative")
