import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnyamabe import ode, periodic
from gnyamabe.geometry import Dims
from gnyamabe.ode import (DEFAULT_CONTROLS, PROFILE_SPACING, Candidate,
                          CrossedZero, IntegrationControls, IntegrationFailure,
                          TurnedUp, integrate_shot, rhs, series_start,
                          shoot_profile)
from gnyamabe.products import table_pairs
from gnyamabe.shooting import bracket_alpha

from oracles import (exponents_m1, sample_profile_loop, sech_amplitude,
                     sech_h)

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
        IntegrationControls(t_max=1e-5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["t_max", "rtol", "atol"])
def test_controls_reject_non_finite(field, value):
    # atol = inf or rtol = inf used to accept every step and return
    # alpha0 = 26.2 for (2, 2); nan ended in a misleading step underflow
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        IntegrationControls(**{field: value})


_RANK = {TurnedUp: 0, Candidate: 1, CrossedZero: 2}


@st.composite
def _alpha_pairs(draw):
    a = draw(st.floats(1.0, 64.0, exclude_min=True, exclude_max=True))
    b = draw(st.floats(a, 64.0, exclude_min=True))
    return a, b


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(table_pairs(9) + [(3, 1)]), _alpha_pairs())
def test_classification_monotone_in_alpha(mn, ab):
    """TurnedUp < Candidate < CrossedZero never runs backwards in alpha."""
    d = Dims(*mn)
    a, b = ab
    assert _RANK[type(integrate_shot(a, d))] \
        <= _RANK[type(integrate_shot(b, d))]


# Bit-identity pins of the shooting solver: table values and shot events
# by float.hex, stored profiles by the SHA-256 of their ts, hs and dhs
# bytes. A change to the stepper or the sampler that is meant to be
# exact must reproduce every one of them.
_TABLE_PINS = [
    (2, 2, '0x1.1a64ca390bf55p+1', '0x1.359a4148cd373p+1'),
    (2, 3, '0x1.0c4531f3899cep+2', '0x1.f092a96235859p+1'),
    (3, 2, '0x1.28ef2a8b4fb47p+1', '0x1.0e8aa8d14f6dap+1'),
    (2, 4, '0x1.15807c5c7246ep+3', '0x1.6a80557d24949p+2'),
    (3, 3, '0x1.0c44889521d1bp+2', '0x1.9981401947845p+1'),
    (4, 2, '0x1.322ba09eaa16dp+1', '0x1.e71f42760e124p+0'),
    (2, 5, '0x1.3218a5ba7b74fp+4', '0x1.ee0a3c8bc86d5p+2'),
    (3, 4, '0x1.044b536502622p+3', '0x1.2288e2aadf58ap+2'),
    (4, 3, '0x1.0da229f37bf79p+2', '0x1.6109b0c2d8412p+1'),
    (5, 2, '0x1.3890a2ce5f302p+1', '0x1.c133e4bebe6b2p+0'),
    (2, 6, '0x1.6374fbdeef1dbp+5', '0x1.400fc37154e42p+3'),
    (3, 5, '0x1.0b2e37af9091bp+4', '0x1.86f08eeb09020p+2'),
    (4, 4, '0x1.f86a00c08dd13p+2', '0x1.e86e353910034p+1'),
    (5, 3, '0x1.0f215da302f20p+2', '0x1.3a528ea37a663p+1'),
    (6, 2, '0x1.3d41e1c62c749p+1', '0x1.a580e9e5fb486p+0'),
    (2, 7, '0x1.aed4ef00d9229p+6', '0x1.8f3edb593d267p+3'),
    (3, 6, '0x1.1f417da851e9ep+5', '0x1.f86e1c4dad117p+2'),
    (4, 5, '0x1.efa6de9403c31p+3', '0x1.44041c1707be1p+2'),
    (5, 4, '0x1.ef62bdb888f16p+2', '0x1.a9113789abf28p+1'),
    (6, 3, '0x1.107ffbea546bep+2', '0x1.1e6f98b3b42a6p+1'),
    (7, 2, '0x1.40d939bdcee9fp+1', '0x1.9086e45f74ffep+0'),
]
_CANDIDATE_PINS = [
    (2, 2, '0x1.1a64ca390bf55p+1', 3521, 1.0,
     'c65645f5314ef2ba20d0925788d54acf39eef63e9cdbf26e266327f2adce85a2'),
    (2, 7, '0x1.aed4ef00d9229p+6', 3139, 1.0,
     '719b68ede0444a1a10e1ac798839bb436d5837f90af6d6323bd9ac36720382c2'),
    (3, 1, '0x1.6a09e667f5165p+0', 3814, 1.0,
     '0f5960ee2af237ae1238d08ed703715fcf31cf4c6f680510bfad8614085851cb'),
    (7, 2, '0x1.40d939bdcee9fp+1', 4112, 1.0,
     '8bbc6dcf05a14743dbdc1b8c35d5072780b1e773569c738a6309ce88028e0c8f'),
]
_SHOT_PINS = [
    (2, 2, '0x1.1a9fbe76c8b44p+1', 'CrossedZero', 293,
     '0x1.31723bdc77ac9p+2', '-0x1.b08d0451c30e2p-6',
     1222, 1.0,
     '69bfcea9bd16d13f8f286a0a66ff4da7c52183bda6139fcc6d7e27d85cced4de'),
    (2, 2, '0x1.1a3d70a3d70a4p+1', 'TurnedUp', 305,
     '0x1.451f11f9dd4bfp+2', '0x1.5a069e1a9a044p-6',
     1301, None,
     '77d1565c566f51deaaf8898fdd7620f23a5ef054db6f7df1a1eed9aa685082b3'),
    (4, 4, '0x1.f86a00c08dd13p+2', 'Candidate', 597,
     '0x1.cab439224fc49p+3', '0x1.0c6f7a0b46bbap-20',
     3670, 1.0,
     '679d68480b3792516a65589f59973ec948d60f96ffd8e0648de03fa333030a35'),
]


def _profile_digest(profile):
    sha = hashlib.sha256()
    for a in (profile.ts, profile.hs, profile.dhs):
        sha.update(a.tobytes())
    return sha.hexdigest()


def test_table_pinned_bit_for_bit(table9):
    rows, _ = table9
    assert [(r.m, r.n, r.alpha0.hex(), r.sigma_inv.hex())
            for r in rows] == _TABLE_PINS


def test_candidate_profiles_pinned_bit_for_bit(gs22, gs31):
    assert gs22.alpha0.hex() == _CANDIDATE_PINS[0][2]
    assert gs31.alpha0.hex() == _CANDIDATE_PINS[2][2]
    assert _profile_digest(gs22.profile) == _CANDIDATE_PINS[0][5]
    for m, n, alpha_hex, size, tail_rate, digest in _CANDIDATE_PINS:
        out = integrate_shot(float.fromhex(alpha_hex), Dims(m, n))
        assert isinstance(out, Candidate)
        assert out.profile.ts.size == size
        assert out.profile.tail_rate == tail_rate
        assert _profile_digest(out.profile) == digest


def test_shoot_profile_pinned_bit_for_bit():
    for (m, n, alpha_hex, kind, n_steps, t_hex, y_hex, size, tail_rate,
         digest) in _SHOT_PINS:
        alpha, d = float.fromhex(alpha_hex), Dims(m, n)
        _, te, ye, steps = ode._integrate(alpha, d, DEFAULT_CONTROLS)
        assert (len(steps), te.hex(), ye.hex()) == (n_steps, t_hex, y_hex)
        out, profile = shoot_profile(alpha, d)
        assert type(out).__name__ == kind
        assert profile.ts.size == size
        assert profile.tail_rate == tail_rate
        assert _profile_digest(profile) == digest


def _same_as_loop(alpha, n, steps, t_stop):
    """The array sampler's profile, after checking it against the
    node-by-node referee bit for bit."""
    profile = ode._sample_profile(alpha, n, steps, t_stop)
    ref = sample_profile_loop(alpha, n, steps, t_stop)
    for got, want in ((profile.ts, ref.ts), (profile.hs, ref.hs),
                      (profile.dhs, ref.dhs)):
        assert got.tobytes() == want.tobytes()
    assert profile.tail_rate == ref.tail_rate
    return profile


def _shot(index):
    """(alpha, n, t_event, steps) of the _SHOT_PINS shot at `index`."""
    m, n, alpha_hex = _SHOT_PINS[index][:3]
    alpha = float.fromhex(alpha_hex)
    _, te, _, steps = ode._integrate(alpha, Dims(m, n), DEFAULT_CONTROLS)
    return alpha, n, te, steps


def _end(steps):
    return steps[-1][0] + steps[-1][1]


@pytest.mark.parametrize("index", range(len(_SHOT_PINS)))
def test_sampler_matches_loop_on_every_outcome_kind(index):
    alpha, n, te, steps = _shot(index)
    _same_as_loop(alpha, n, steps, te)


def test_sampler_matches_loop_with_stop_on_grid_node():
    alpha, n, _, steps = _shot(0)
    profile = _same_as_loop(alpha, n, steps, 3.0)
    assert profile.ts[-1] == 3.0


def test_sampler_matches_loop_with_stop_past_last_step():
    alpha, n, _, steps = _shot(0)
    steps = steps[:100]
    profile = _same_as_loop(alpha, n, steps, _end(steps) + 1.0)
    assert profile.ts[-1] <= _end(steps) < profile.ts[-1] + PROFILE_SPACING


def test_sampler_matches_loop_on_threshold_cut():
    # the first node below the decay threshold is kept
    for index in (0, 2):
        alpha, n, _, steps = _shot(index)
        profile = _same_as_loop(alpha, n, steps, _end(steps) + 1.0)
        assert profile.hs[-1] < ode._DECAY_THRESHOLD <= profile.hs[-2]


def test_sampler_matches_loop_on_slope_cut():
    # the first node with h' >= 0 is dropped
    alpha, n, _, steps = _shot(1)
    profile = _same_as_loop(alpha, n, steps, _end(steps) + 1.0)
    assert profile.dhs[-1] < 0.0
    assert profile.ts[-1] + PROFILE_SPACING <= _end(steps)
    assert profile.hs[-1] >= ode._DECAY_THRESHOLD


def test_sampler_matches_loop_with_node_on_step_end():
    # node 2 * PROFILE_SPACING ends the first step and starts the second;
    # it belongs to the first, whose end value differs from the second's
    # start here
    dt = 2 * PROFILE_SPACING
    first = (0.0, dt, 1.0, -0.5) + (-0.5,) * 6 + (-0.25,) * 6
    second = (dt, dt, 0.9, -0.5) + (-0.5,) * 6 + (-0.25,) * 6
    profile = _same_as_loop(1.0, 2, [first, second], 1.0)
    assert profile.ts[2] == dt
    assert profile.hs[2] == ode._dense_eval(first, 1.0)[0] != 0.9


@pytest.mark.parametrize("h_old, dh_old", [(0.5, 0.0), (1e-7, -1.0)])
def test_sampler_matches_loop_keeping_two_nodes(h_old, dh_old):
    # a single step with zero slopes: its first node is flat (dropped, but
    # two nodes stay) or already below the threshold (kept)
    step = (1e-4, 1.0, h_old, dh_old) + (0.0,) * 12
    profile = _same_as_loop(2.0, 2, [step], 1.0)
    assert profile.ts.size == 2


def test_event_before_first_profile_node_is_integration_failure():
    """(2, 2) from alpha = 1e3 crosses zero at t = 0.0036, before the first
    grid node 2^-8: the shot classifies, but it has no profile to give."""
    d = Dims(2, 2)
    outcome = integrate_shot(1e3, d)
    assert isinstance(outcome, CrossedZero)
    assert outcome.t_cross < PROFILE_SPACING
    with pytest.raises(IntegrationFailure, match="before the first profile"):
        shoot_profile(1e3, d)


def test_step_underflow_is_integration_failure(monkeypatch):
    """A step size driven below 1e-13 ends a shot, and an orbit, with
    IntegrationFailure; the shot's message names its initial value."""
    monkeypatch.setattr(ode, "_step_control", lambda *args: (2.0, 0.2))
    with pytest.raises(IntegrationFailure,
                       match=r"step underflow at t=.*\(alpha=2\.5\)"):
        integrate_shot(2.5, D22)
    with pytest.raises(IntegrationFailure, match="step underflow at t=0"):
        periodic.return_time(4, 0.9)


@pytest.mark.parametrize("alpha", [1e5, 1e6])
def test_non_positive_series_start_is_integration_failure(alpha):
    """From alpha^(q-1) t0^2 / (2n) > 1 the series start is already at or
    below zero; such a shot is rejected, not classified or overflowed."""
    d = Dims(2, 2)
    assert series_start(alpha, 1e-4, d)[0] <= 0.0
    for shoot in (integrate_shot, shoot_profile):
        with pytest.raises(IntegrationFailure, match="is not positive"):
            shoot(alpha, d)


def test_largest_positive_series_start_still_classifies():
    d = Dims(2, 2)
    assert series_start(1e4, 1e-4, d)[0] > 0.0
    assert isinstance(integrate_shot(1e4, d), CrossedZero)
