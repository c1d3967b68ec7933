import math

import numpy as np
import pytest

from gnyamabe.geometry import Dims
from gnyamabe.ode import (DEFAULT_CONTROLS, Candidate, CrossedZero,
                          IntegrationControls, IntegrationFailure, TurnedUp,
                          integrate_shot, rhs, series_start)
from gnyamabe.shooting import bracket_alpha

from oracles import exponents_m1, sech_amplitude, sech_h

D22 = Dims(2, 2)

FAST = IntegrationControls(rtol=1e-9, atol=1e-11)
TIGHT = IntegrationControls(rtol=1e-12, atol=1e-14)


def test_rhs_equilibrium():
    for t in (0.1, 1.0, 7.3):
        dh, ddh = rhs(t, 1.0, 0.0, D22)
        assert dh == 0.0
        assert ddh == 0.0


def test_rhs_vanishing_nonlinearity():
    for n in (1, 2, 5):
        d = Dims(2, n) if n > 1 else Dims(3, 1)
        c = 0.37
        dh, ddh = rhs(2.0, 0.0, c, d)
        assert dh == c
        assert ddh == pytest.approx(-(d.n - 1) / 2.0 * c, rel=1e-15)


def test_rhs_value_22():
    dh, ddh = rhs(1.0, 2.0, 0.0, D22)
    assert ddh == pytest.approx(2.0 - 8.0, rel=1e-15)


def test_rhs_rejects_origin():
    with pytest.raises(ValueError):
        rhs(0.0, 1.0, 0.0, D22)


def test_series_start_equilibrium():
    h, dh = series_start(1.0, 1e-4, D22)
    assert h == 1.0
    assert dh == 0.0


def test_series_start_values():
    h, dh = series_start(2.0, 1e-3, D22)  # c = (2 - 8)/4 = -1.5
    assert h == pytest.approx(2.0 - 1.5e-6, rel=1e-15)
    assert dh == pytest.approx(-3.0e-3, rel=1e-15)
    h, dh = series_start(0.5, 1e-3, D22)  # c = 0.09375 > 0
    assert h > 0.5
    assert dh > 0.0


def test_series_start_rejects_bad_input():
    with pytest.raises(ValueError):
        series_start(-1.0, 1e-4, D22)
    with pytest.raises(ValueError):
        series_start(2.0, 1e-2, D22)


def test_classification_anchors_22():
    assert isinstance(integrate_shot(2.208, D22), CrossedZero)
    assert isinstance(integrate_shot(2.205, D22), TurnedUp)


def test_alpha_at_most_one_short_circuits():
    out = integrate_shot(1.0, D22)
    assert isinstance(out, TurnedUp)
    assert out.t_turn == 0.0
    assert out.h_at_turn == 1.0
    assert isinstance(integrate_shot(0.4, D22), TurnedUp)
    with pytest.raises(ValueError):
        integrate_shot(0.0, D22)


def test_crossed_zero_event_has_descending_slope():
    out = integrate_shot(3.0, D22)
    assert isinstance(out, CrossedZero)
    assert out.t_cross > 0.0
    assert out.dh_cross < 0.0


def test_candidate_at_sech_amplitude():
    d = Dims(3, 1)
    q, _ = exponents_m1(3)
    out = integrate_shot(sech_amplitude(q), d, TIGHT)
    assert isinstance(out, Candidate)
    profile = out.profile
    mask = profile.ts <= 10.0
    err = np.abs(profile.hs[mask] - sech_h(profile.ts[mask], q))
    assert float(err.max()) < 1e-7


def test_monotone_classification_grid():
    """No crossing shot below any turned-up shot, on every valid pair."""
    pairs = [(m, n) for m in range(1, 9) for n in range(1, 9)
             if 3 <= m + n <= 9]
    assert len(pairs) == 35
    for m, n in pairs:
        d = Dims(m, n)
        lo, hi = bracket_alpha(d, FAST)
        grid = np.linspace(1.01, hi, 100)
        turned = []
        crossed = []
        for alpha in grid:
            out = integrate_shot(float(alpha), d, FAST)
            if isinstance(out, TurnedUp):
                turned.append(alpha)
            elif isinstance(out, CrossedZero):
                crossed.append(alpha)
        assert crossed, f"no crossing up to {hi} for ({m}, {n})"
        if turned:
            assert max(turned) < min(crossed), f"order violated at ({m}, {n})"


def test_event_time_stable_under_tolerance_refinement():
    for alpha in (2.208, 2.205):
        coarse = integrate_shot(alpha, D22, DEFAULT_CONTROLS)
        fine = integrate_shot(alpha, D22, DEFAULT_CONTROLS.tightened(10.0))
        t_coarse = getattr(coarse, "t_cross", None) or coarse.t_turn
        t_fine = getattr(fine, "t_cross", None) or fine.t_turn
        assert type(coarse) is type(fine)
        assert abs(t_coarse - t_fine) < 1e-6


def test_unclassifiable_horizon_raises():
    short = IntegrationControls(t_max=2.0)
    with pytest.raises(IntegrationFailure):
        integrate_shot(1.5, D22, short)


def test_controls_validation():
    with pytest.raises(ValueError):
        IntegrationControls(rtol=1e-16)
    with pytest.raises(ValueError):
        IntegrationControls(t_start=0.1)
    with pytest.raises(ValueError):
        IntegrationControls(t_max=1e-5)
    with pytest.raises(ValueError):
        IntegrationControls(decay_threshold=2.0)
