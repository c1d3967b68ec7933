import builtins
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnyamabe import ode, periodic, shooting
from gnyamabe.geometry import Dims
from gnyamabe.ode import (PROFILE_SPACING, CrossedZero, IntegrationFailure,
                          TurnedUp, integrate_shot, rhs, shoot_profile)
from gnyamabe.products import build_table, table_pairs
from gnyamabe.shooting import _miss, bracket_alpha, find_ground_state

from oracles import (exponents_m1, sample_profile_loop, sample_steps_loop,
                     sech_amplitude, sech_h, series_start, shot_reference,
                     step_control_reference, tighten)

D22 = Dims(2, 2)


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


def test_classification_anchors_22():
    assert isinstance(integrate_shot(2.208, D22), CrossedZero)
    assert isinstance(integrate_shot(2.205, D22), TurnedUp)


def test_alpha_at_most_one_short_circuits():
    out = integrate_shot(1.0, D22)
    assert isinstance(out, TurnedUp)
    assert out.t_event == 0.0
    assert out.h_at_turn == 1.0
    assert isinstance(integrate_shot(0.4, D22), TurnedUp)
    with pytest.raises(ValueError):
        integrate_shot(0.0, D22)


def test_crossed_zero_event_has_descending_slope():
    out = integrate_shot(3.0, D22)
    assert isinstance(out, CrossedZero)
    assert out.t_event > 0.0
    assert out.dh_cross < 0.0


def test_candidate_at_sech_amplitude(monkeypatch):
    """For n = 1 the ground state is the closed form: amplitude sqrt 2 for
    m = 3 and 1.5 for m = 5. The search converged to tol_alpha 1e-14 on
    shots at ten times tighter tolerances lands on it to 1e-12 relative
    (measured 1.4e-14 and 2.3e-14), and its profile follows it to 1e-10
    up to t = 10 (measured 4.4e-12 and 2.3e-12). At the default controls
    the shots' classification is noisy at 1e-13 relative, so whether the
    profile met the bound there depended on where the secant landed."""
    tighten(monkeypatch, 10.0)
    for m in (3, 5):
        q, _ = exponents_m1(m)
        gs = find_ground_state(Dims(m, 1), tol_alpha=1e-14)
        assert abs(gs.alpha0 / sech_amplitude(q) - 1.0) <= 1e-12
        profile = gs.profile
        mask = profile.ts <= 10.0
        err = np.abs(profile.hs[mask] - sech_h(profile.ts[mask], q))
        assert float(err.max()) < 1e-10


def test_monotone_classification_grid(monkeypatch):
    """No crossing shot below any turned-up shot, on every valid pair, at
    coarser tolerances than the default."""
    monkeypatch.setattr(ode, "_RTOL", 1e-9)
    monkeypatch.setattr(ode, "_ATOL", 1e-11)
    pairs = [(m, n) for m in range(1, 9) for n in range(1, 9)
             if 3 <= m + n <= 9]
    assert len(pairs) == 35
    for m, n in pairs:
        d = Dims(m, n)
        lo, _, hi, _ = bracket_alpha(d)
        grid = np.linspace(1.01, hi, 100)
        turned = []
        crossed = []
        for alpha in grid:
            out = integrate_shot(float(alpha), d)
            if isinstance(out, TurnedUp):
                turned.append(alpha)
            elif isinstance(out, CrossedZero):
                crossed.append(alpha)
        assert crossed, f"no crossing up to {hi} for ({m}, {n})"
        if turned:
            assert max(turned) < min(crossed), f"order violated at ({m}, {n})"


def test_event_time_stable_under_tolerance_refinement(monkeypatch):
    alphas = (2.208, 2.205)
    coarse_shots = [integrate_shot(alpha, D22) for alpha in alphas]
    tighten(monkeypatch, 10.0)
    for alpha, coarse in zip(alphas, coarse_shots):
        fine = integrate_shot(alpha, D22)
        assert type(coarse) is type(fine)
        assert abs(coarse.t_event - fine.t_event) < 1e-6


def _energy(h, dh, d):
    """E = h'^2/2 + |h|^(q+1)/(q+1) - h^2/2, with dE/dt = -(n-1)/t h'^2."""
    return 0.5 * dh * dh + abs(h) ** (d.q + 1.0) / (d.q + 1.0) - 0.5 * h * h


_A22 = float.fromhex("0x1.1a64ca390a0b7p+1")  # the _TABLE_PINS alpha0
_A27 = float.fromhex("0x1.aed4eeffd4bbfp+6")


@pytest.mark.parametrize("m, n, alpha", [
    (2, 2, _A22 * (1.0 - 1e-6)), (2, 2, _A22 * (1.0 + 1e-6)),
    (2, 7, _A27 * (1.0 - 1e-6)), (2, 7, _A27 * (1.0 + 1e-6)),
    (30, 30, 2.0), (30, 30, 50.0),
], ids=["2-2-below", "2-2-above", "2-7-below", "2-7-above", "30-30-2",
        "30-30-50"])
def test_energy_never_rises_along_a_shot(m, n, alpha):
    """The energy E = h'^2/2 + |h|^(q+1)/(q+1) - h^2/2 does not rise over
    any accepted step: near alpha0 on both sides, and on (30, 30), whose
    alpha0 is 9.0e7, from 2 and 50, two shots that creep towards h = 1
    before they turn up."""
    d = Dims(m, n)
    out = integrate_shot(alpha, d)
    for step in out.steps:
        assert _energy(*step[4:6], d) <= _energy(*step[2:4], d)


@pytest.mark.parametrize("m, n, t_turn", [(2, 30, 54.65), (30, 30, 76.00)])
def test_creeping_shot_turns_up_as_scipy_finds(m, n, t_turn):
    """From alpha = 2 the (2, 30) and (30, 30) shots creep towards h = 1,
    pass below it and turn up late. The package runs each shot to its
    turn, with no horizon, and turns up where scipy's shot does, at
    t = 54.65 and 76.00, below h = 1."""
    d = Dims(m, n)
    out = integrate_shot(2.0, d)
    assert type(out) is TurnedUp
    assert abs(out.t_event - t_turn) < 0.01
    assert 0.0 < out.h_at_turn < 1.0
    ref = shot_reference(2.0, d, 200.0)
    assert type(ref) is TurnedUp
    assert abs(ref.t_event - t_turn) < 0.01


_PROFILE = {"ts": [0.0, 1.0], "hs": [2.0, 1.0], "dhs": [0.0, -1.0],
            "d2hs": [-1.0, 0.5], "n": 2}


@pytest.mark.parametrize("change, match", [
    ({"dhs": [0.0, -1.0, -1.0]}, "matching shapes"),
    ({"ts": [0.0], "hs": [2.0], "dhs": [0.0], "d2hs": [-1.0]},
     "at least two nodes"),
    ({"ts": [0.5, 1.0]}, "start at t = 0"),
    ({"ts": [0.0, 0.0]}, "strictly increasing"),
    ({"dhs": [-1.0, -1.0]}, r"h'\(0\) = 0"),
    ({"n": 0}, "radial dimension"),
], ids=["shapes", "one-node", "start", "increasing", "slope", "n"])
def test_radial_profile_validation(change, match):
    ode.RadialProfile(**_PROFILE)
    with pytest.raises(ValueError, match=match):
        ode.RadialProfile(**{**_PROFILE, **change})


_RANK = {TurnedUp: 0, CrossedZero: 1}


@st.composite
def _alpha_pairs(draw):
    a = draw(st.floats(1.0, 64.0, exclude_min=True, exclude_max=True))
    b = draw(st.floats(a, 64.0, exclude_min=True))
    return a, b


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(table_pairs(9) + [(3, 1)]), _alpha_pairs())
def test_classification_monotone_in_alpha(mn, ab):
    """TurnedUp < CrossedZero never runs backwards in alpha."""
    d = Dims(*mn)
    a, b = ab
    assert _RANK[type(integrate_shot(a, d))] \
        <= _RANK[type(integrate_shot(b, d))]


# Bit-identity pins of the shooting solver: table values and shot events
# by float.hex, stored profiles by the SHA-256 of their ts, hs and dhs
# bytes. A change to the stepper or the sampler that is meant to be
# exact must reproduce every one of them.
_TABLE_PINS = [
    (2, 2, '0x1.1a64ca390a0b7p+1', '0x1.359a4148cd371p+1'),
    (2, 3, '0x1.0c4531f38a14bp+2', '0x1.f092a9623583fp+1'),
    (3, 2, '0x1.28ef2a8b4d757p+1', '0x1.0e8aa8d14f6d5p+1'),
    (2, 4, '0x1.15807c5c70d22p+3', '0x1.6a80557d2493bp+2'),
    (3, 3, '0x1.0c448895211d9p+2', '0x1.998140194780ep+1'),
    (4, 2, '0x1.322ba09ea603dp+1', '0x1.e71f42760e024p+0'),
    (2, 5, '0x1.3218a5b7f2ca0p+4', '0x1.ee0a3c8bb4334p+2'),
    (3, 4, '0x1.044b5364fc5d3p+3', '0x1.2288e2aadf52ap+2'),
    (4, 3, '0x1.0da229f37a605p+2', '0x1.6109b0c2d83d7p+1'),
    (5, 2, '0x1.3890a2ce5a371p+1', '0x1.c133e4bebe638p+0'),
    (2, 6, '0x1.6374fbddfa328p+5', '0x1.400fc37154683p+3'),
    (3, 5, '0x1.0b2e37af841b1p+4', '0x1.86f08eeb08ff7p+2'),
    (4, 4, '0x1.f86a00c0822b2p+2', '0x1.e86e35390ff8ep+1'),
    (5, 3, '0x1.0f215da301cf0p+2', '0x1.3a528ea37a651p+1'),
    (6, 2, '0x1.3d41e1c628410p+1', '0x1.a580e9e5fb474p+0'),
    (2, 7, '0x1.aed4eeffd4bbfp+6', '0x1.8f3edb593d041p+3'),
    (3, 6, '0x1.1f417da826b06p+5', '0x1.f86e1c4dad073p+2'),
    (4, 5, '0x1.efa6de928b574p+3', '0x1.44041c1704b00p+2'),
    (5, 4, '0x1.ef62bdb889b6fp+2', '0x1.a9113789abf1ap+1'),
    (6, 3, '0x1.107ffbea54475p+2', '0x1.1e6f98b3b42a3p+1'),
    (7, 2, '0x1.40d939bdc7a19p+1', '0x1.9086e45f74f05p+0'),
]
# The ground-state candidates find_ground_state accepts at the default
# controls, without a guess: (m, n, alpha0, profile size, tail rate,
# profile digest)
_CANDIDATE_PINS = [
    (2, 2, '0x1.1a64ca390a0b7p+1', 1762, 1.0,
     'b62f74d179ed1377bb3b31022c716e2e90e24ced9e7c83bf1c76a0bad538dd36'),
    (2, 7, '0x1.aed4eeffd4babp+6', 1573, 1.0,
     'd04d854894b567bde48233f57d2ce1ed4bfa296aa1625d2d32ad642fae39cfdd'),
    (3, 1, '0x1.6a09e667f3c61p+0', 1904, 1.0,
     '694701ddcd3c0433505882b9ca2579456550db26e8e47641aa755b15ff3ff153'),
    (7, 2, '0x1.40d939bdc7a13p+1', 2071, 1.0,
     '013256dd648f0659cbb8d08ddfa1fe9dbd4f405256ee18adbd4550e122b9e792'),
]
# (m, n, alpha, outcome, accepted steps, event time, event value, profile
# size, tail rate, profile digest) of single shots: one crossing and one
# turning (2, 2) shot, and a (4, 4) shot 5.4e-12 relative above alpha0
# that follows the ground state below the decay threshold first
_SHOT_PINS = [
    (2, 2, '0x1.1a9fbe76c8b44p+1', 'CrossedZero', 30,
     '0x1.31723bdb62647p+2', '-0x1.b08d04596aae8p-6',
     611, None,
     '536d04fe40287a92f7f9190cae51b69bbde3dea0d4cc20c469ec1bf4dc700be8'),
    (2, 2, '0x1.1a3d70a3d70a4p+1', 'TurnedUp', 32,
     '0x1.451f11fb4bd46p+2', '0x1.5a069e117d3bep-6',
     651, None,
     'cf27ef60565a313f266e3da8b5ffc4827cddd2b56ba464f70db129aba0eae398'),
    (4, 4, '0x1.f86a00c08dd13p+2', 'CrossedZero', 60,
     '0x1.05ff1d691e74fp+4', '-0x1.d37bf6fb19628p-23',
     1837, 1.0,
     '8f18d1b7dadd3d67c63d27bfd87a80fae9ec495d2df341de2d1b0ba23e54a963'),
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
    _assert_candidate_pins({(2, 2): gs22, (3, 1): gs31})


def _assert_candidate_pins(found):
    """Every _CANDIDATE_PINS ground state, from `found` by (m, n) or
    searched here, has its pinned alpha0 and profile."""
    for m, n, alpha_hex, size, tail_rate, digest in _CANDIDATE_PINS:
        gs = found.get((m, n)) or find_ground_state(Dims(m, n))
        assert gs.alpha0.hex() == alpha_hex
        assert gs.profile.ts.size == size
        assert (1.0 if gs.profile.tail else None) == tail_rate
        assert _profile_digest(gs.profile) == digest


def test_shoot_profile_pinned_bit_for_bit():
    for (m, n, alpha_hex, kind, n_steps, t_hex, y_hex, size, tail_rate,
         digest) in _SHOT_PINS:
        alpha, d = float.fromhex(alpha_hex), Dims(m, n)
        shot = ode._integrate(alpha, d)
        ye = shot.dh_cross if isinstance(shot, CrossedZero) else shot.h_at_turn
        assert (len(shot.steps), shot.t_event.hex(), ye.hex()) == (
            n_steps, t_hex, y_hex)
        out, profile = shoot_profile(alpha, d)
        assert type(out).__name__ == kind
        assert profile.ts.size == size
        assert (1.0 if profile.tail else None) == tail_rate
        assert _profile_digest(profile) == digest


def _same_as_loop(alpha, d, head, steps, t_stop):
    """The array sampler's profile, after checking it against the
    node-by-node referee: bit for bit on ts, hs and dhs, and on d2hs
    within 4 ulps of the largest of the ODE's three terms at each node,
    since the two evaluate h'' in another order and by another pow."""
    profile = ode._sample_profile(alpha, d, head, steps, t_stop)
    ref = sample_profile_loop(alpha, d, head, steps, t_stop)
    for got, want in ((profile.ts, ref.ts), (profile.hs, ref.hs),
                      (profile.dhs, ref.dhs)):
        assert got.tobytes() == want.tobytes()
    assert profile.tail == ref.tail
    ts, hs, dhs = ref.ts[1:], ref.hs[1:], ref.dhs[1:]
    terms = np.maximum.reduce([np.abs(hs), np.abs(hs) ** d.q,
                               (d.n - 1) * np.abs(dhs) / ts])
    assert np.all(np.abs(profile.d2hs[1:] - ref.d2hs[1:])
                  <= 4 * np.spacing(terms))
    assert abs(profile.d2hs[0] - ref.d2hs[0]) <= 4 * math.ulp(
        alpha ** d.q / d.n)
    return profile


def _shot(index):
    """(alpha, d, t_event, head, steps) of the _SHOT_PINS shot at
    `index`."""
    m, n, alpha_hex = _SHOT_PINS[index][:3]
    alpha, d = float.fromhex(alpha_hex), Dims(m, n)
    shot = ode._integrate(alpha, d)
    return alpha, d, shot.t_event, shot.head, shot.steps


def _end(steps):
    return steps[-1][0] + steps[-1][1]


@pytest.mark.parametrize("index", range(len(_SHOT_PINS)))
def test_sampler_matches_loop_on_every_outcome_kind(index):
    alpha, d, te, head, steps = _shot(index)
    _same_as_loop(alpha, d, head, steps, te)


@pytest.mark.parametrize("index", range(3))
def test_head_nodes_join_step_nodes(index):
    """The profile nodes on either side of t0 join without a jump: the
    first step starts from the head's doubles at t0, the last node up to
    t0 is the series' own value, and the first node past it, from the
    steps, is within the shot's tolerance of the series there, which is
    still exact to 2e-17 relative. Measured: at most 1,146 ulps
    (2.5e-13 relative) on h' of the (4, 4) shot, against rtol 1e-11."""
    alpha, d, te, head, steps = _shot(index)
    t0 = head[0]
    assert (steps[0][0], *steps[0][2:4]) == (t0, *ode._head_eval(head, t0))
    profile = ode._sample_profile(alpha, d, head, steps, te)
    i = int(np.searchsorted(profile.ts, t0, side="right"))
    assert profile.ts[i - 1] <= t0 < profile.ts[i]
    last = ode._head_eval(head, profile.ts[i - 1])
    assert (profile.hs[i - 1], profile.dhs[i - 1]) == last
    series = ode._head_eval(head, profile.ts[i])
    for got, want in zip((profile.hs[i], profile.dhs[i]), series):
        assert abs(got - want) <= ode._RTOL * abs(want)


def test_sampler_matches_loop_with_stop_on_grid_node():
    alpha, d, _, head, steps = _shot(0)
    profile = _same_as_loop(alpha, d, head, steps, 3.0)
    assert profile.ts[-1] == 3.0


def test_sampler_matches_loop_with_stop_past_last_step():
    alpha, d, _, head, steps = _shot(0)
    steps = [step for step in steps if step[0] + step[1] < 1.0]
    profile = _same_as_loop(alpha, d, head, steps, _end(steps) + 1.0)
    assert profile.ts[-1] <= _end(steps) < profile.ts[-1] + PROFILE_SPACING


def test_sampler_matches_loop_on_threshold_cut():
    # the first node below the decay threshold is kept
    for index in (0, 2):
        alpha, d, _, head, steps = _shot(index)
        profile = _same_as_loop(alpha, d, head, steps, _end(steps) + 1.0)
        assert profile.hs[-1] < ode._DECAY_THRESHOLD <= profile.hs[-2]


def test_sampler_matches_loop_on_slope_cut():
    # the first node with h' >= 0 is dropped
    alpha, d, _, head, steps = _shot(1)
    profile = _same_as_loop(alpha, d, head, steps, _end(steps) + 1.0)
    assert profile.dhs[-1] < 0.0
    assert profile.ts[-1] + PROFILE_SPACING <= _end(steps)
    assert profile.hs[-1] >= ode._DECAY_THRESHOLD


def _count_sampled(monkeypatch):
    """A list that collects the number of profile nodes each array call
    of `_head_eval` and `_sample_steps` evaluates from then on."""
    counts = []
    head_eval, sample_steps = ode._head_eval, ode._sample_steps

    def head_counted(head, t):
        if isinstance(t, np.ndarray):
            counts.append(t.size)
        return head_eval(head, t)

    def steps_counted(steps, ts):
        counts.append(ts.size)
        return sample_steps(steps, ts)

    monkeypatch.setattr(ode, "_head_eval", head_counted)
    monkeypatch.setattr(ode, "_sample_steps", steps_counted)
    return counts


def test_sampler_samples_little_past_the_cut(monkeypatch):
    """The sampler evaluates the nodes up to the end of the first step
    that ends with h below the decay threshold or h' >= 0, and the rest
    only if none of those is cut. Over the 21 profiles of
    build_table(9), which keep 38,005 nodes past t = 0, it evaluates at
    most 1,000 nodes that no profile keeps (704 measured, at most 69 for
    one profile; 16,084 when every node up to the event was evaluated)."""
    counts = _count_sampled(monkeypatch)
    kept = []
    sample_profile = shooting._sample_profile

    def recorded(*args):
        profile = sample_profile(*args)
        kept.append(profile.ts.size - 1)
        return profile

    monkeypatch.setattr(shooting, "_sample_profile", recorded)
    build_table(9)
    assert len(kept) == 21 and sum(kept) == 38005
    assert sum(counts) - sum(kept) <= 1000


def test_sampler_matches_loop_past_a_step_end_cut(monkeypatch):
    """The (3, 7) ground-state shot of build_table(14) ends its 70th of
    80 steps with h' >= 0 or h below the threshold while no node up to
    there is cut, so the sampler goes on to the remaining steps; its
    profile still has the referee's doubles."""
    alpha, d = float.fromhex("0x1.41380e7795adfp+6"), Dims(3, 7)
    shot = ode._integrate(alpha, d)
    counts = _count_sampled(monkeypatch)
    _same_as_loop(alpha, d, shot.head, shot.steps, shot.t_event)
    assert len(counts) == 3


def test_sampler_steps_on_one_step_past_a_step_end_cut(monkeypatch):
    """On that (3, 7) shot the sampler goes on only to the 71st step,
    which holds the cut node: at most 100 nodes evaluated past the cut
    (64 measured, all in that step; 951 when the remaining steps were
    sampled at once)."""
    alpha, d = float.fromhex("0x1.41380e7795adfp+6"), Dims(3, 7)
    shot = ode._integrate(alpha, d)
    counts = _count_sampled(monkeypatch)
    profile = ode._sample_profile(alpha, d, shot.head, shot.steps,
                                  shot.t_event)
    assert profile.ts.size - 1 == 1701
    assert sum(counts) - 1701 <= 100


@pytest.mark.parametrize("n, u_max", [(3, None), (4, 0.9), (8, 0.999)])
def test_orbit_sampler_matches_per_step_extension(n, u_max):
    """integrate_orbit samples the undamped flow (nm1 = 0) in one array
    pass of the extension; every sample has the doubles of the scalar
    extension of its own step."""
    if u_max is None:
        u_max = 0.5 * (periodic.constant_solution(n) + 1.0)
    t_end = 1.5 * periodic.orbit_period(n, u_max)
    ts, us, dus = periodic.integrate_orbit(n, u_max, t_end)
    ref_us, ref_dus = sample_steps_loop(
        list(periodic._orbit_steps(n, u_max, t_end)), ts)
    assert us.tobytes() == ref_us.tobytes()
    assert dus.tobytes() == ref_dus.tobytes()


def test_extension_independent_of_compensated_sum(monkeypatch):
    """From Python 3.12 on, sum() of floats is compensated. The extension
    adds its stage sums left to right as written, so under a compensated
    sum its doubles and the pinned ground states stay the same."""
    steps = _shot(2)[4] + list(periodic._orbit_steps(4, 0.9, 10.0))

    def extensions():
        return [tuple(map(float.hex, ode._dense(step))) for step in steps]

    before = extensions()
    monkeypatch.setattr(builtins, "sum",
                        lambda items, start=0: start + math.fsum(items))
    assert extensions() == before
    _assert_candidate_pins({})


def _linear_step(t_old, dt, h_old, dh_old):
    """A stored step of the flow h'' = 0 (nm1 = c1 = c2 = 0) through
    (h_old, h'_old): every h-slope is h'_old and every h'-slope is zero."""
    return ((t_old, dt, h_old, dh_old, h_old + dt * dh_old, dh_old)
            + (dh_old,) * 8 + (0.0,) * 9 + ((0.0, 0.0, 0.0, 1.0),))


def test_sampler_matches_loop_with_node_on_step_end():
    # node 2 * PROFILE_SPACING ends the first step and starts the second;
    # it belongs to the first, whose end value differs from the second's
    # start here
    dt = 2 * PROFILE_SPACING
    first = _linear_step(0.0, dt, 1.0, -0.5)
    second = _linear_step(dt, dt, 0.9, -0.5)
    profile = _same_as_loop(1.0, D22, None, [first, second], 1.0)
    assert profile.ts[2] == dt
    assert profile.hs[2] == ode._dense_eval(ode._dense(first), 1.0)[0] != 0.9


@pytest.mark.parametrize("case", ["linear", "shot"])
def test_sampler_matches_loop_with_steps_that_hold_no_time(case):
    """Fewer times than steps, so some steps hold none: before the first
    time and between two times (linear), and after the last (shot). Each
    time keeps the doubles of the scalar extension of its own step, also
    the one past the last linear step."""
    if case == "linear":  # h' = -0.5, widths in PROFILE_SPACING
        steps, t, h = [], 0.0, 1.0
        for width in (0.3, 0.3, 0.3, 1.5, 0.2, 0.2, 2.0, 0.1):
            dt = width * PROFILE_SPACING
            steps.append(_linear_step(t, dt, h, -0.5))
            t, h = t + dt, h - 0.5 * dt
        ts = np.arange(1, 6) * PROFILE_SPACING
        assert ts[-1] > _end(steps)
    else:
        steps = _shot(2)[4]
        ts = np.arange(1.0, _end(steps) - 1.0, 2.0)
    assert ts.size < len(steps)
    hs, dhs = ode._sample_steps(steps, ts)
    ref_hs, ref_dhs = sample_steps_loop(steps, ts)
    assert hs.tobytes() == ref_hs.tobytes()
    assert dhs.tobytes() == ref_dhs.tobytes()


@pytest.mark.parametrize("h_old, dh_old", [(0.5, 0.0), (1e-7, -1.0)])
def test_sampler_matches_loop_keeping_two_nodes(h_old, dh_old):
    # a single linear step: its first node is flat (dropped, but two nodes
    # stay) or already below the threshold (kept)
    step = _linear_step(1e-4, 1.0, h_old, dh_old)
    profile = _same_as_loop(2.0, D22, None, [step], 1.0)
    assert profile.ts.size == 2


def test_event_before_first_profile_node_is_integration_failure():
    """(2, 2) from alpha = 1e3 crosses zero at t = 0.0036, before the first
    grid node 2^-7: the shot classifies, but it has no profile to give."""
    d = Dims(2, 2)
    outcome = integrate_shot(1e3, d)
    assert isinstance(outcome, CrossedZero)
    assert outcome.t_event < PROFILE_SPACING
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


# (e5, e3, dt) for the step controller; with e3 = 0 and e5 = 2 the error
# norm is dt itself
_CONTROL_CASES = [
    (0.0, 0.0, 1e-3),  # err = 0
    (0.0, 5.0, 1e-3),  # err = 0 from e5 = 0 alone
    (2.0, 0.0, 1e-300),  # err tiny: factor clamped to 10
    (2.0, 0.0, 0.01),  # factor between 1 and 10
    (2.0, 0.0, 0.5),  # below 1
    (2.0, 0.0, 1.0),  # exactly 1: accepted
    (2.0, 0.0, 1.5),  # above 1
    (2.0, 0.0, 1e300),  # huge: factor clamped to 0.2
    (2.0, 0.0, math.inf),  # inf
    (math.nan, 0.0, 1e-3),  # NaN: (nan, 0.2), the step shrinks
    (math.inf, 1.0, 1e-3),  # NaN from inf / inf
    (3.7e-20, 5.1e-18, 0.0625),
]


@pytest.mark.parametrize("rejected", [False, True])
@pytest.mark.parametrize("case", _CONTROL_CASES)
def test_step_control_matches_reference(case, rejected):
    """The controller gives the referee's doubles on every kind of error
    norm, after an accepted step and after a rejected one."""
    got = ode._step_control(*case, rejected)
    want = step_control_reference(*case, rejected)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("m, n", [(2, 2), (2, 4), (3, 3), (2, 7)])
def test_steps_odd_in_the_state(m, n):
    """The radial flow is odd in (h, h'), and so is every stage of the
    stepper: from (-h, -h') it takes the same steps, at the same t and dt,
    with every stored h, h' and slope negated. The runs cross zero, so
    the stages see both signs of h."""
    d = Dims(m, n)
    alpha = 1.01 * float.fromhex(next(
        pin[2] for pin in _TABLE_PINS if pin[:2] == (m, n)))
    h, dh = series_start(alpha, 1e-4, d)
    args = (n - 1.0, 1.0, 1.0, d.q - 1.0, ode._RTOL, ode._ATOL)
    plus = list(ode._dp_steps(1e-4, h, dh, 1e-3, 20.0, *args))
    minus = list(ode._dp_steps(1e-4, -h, -dh, 1e-3, 20.0, *args))
    assert sum(step[2] < 0.0 for step in plus) > 50
    assert len(minus) == len(plus)
    for a, b in zip(plus, minus):
        assert b[:2] == a[:2] and b[23] == a[23]
        assert list(b[2:23]) == [-x for x in a[2:23]]


@pytest.mark.parametrize("alpha", [1e5, 1e6])
def test_non_positive_series_start_is_integration_failure(alpha):
    """From alpha^(q-1) t^2 / (2n) > 1 the two-term series at t = 1e-4 is
    already at or below zero. A shot starts from the series head instead,
    at t0 = 9.6e-6 and 9.6e-7 here, and classifies without overflow: it
    crosses zero at 3.6 / alpha. That is before the first profile node,
    so its profile is an IntegrationFailure."""
    d = Dims(2, 2)
    assert series_start(alpha, 1e-4, d)[0] <= 0.0
    outcome = integrate_shot(alpha, d)
    assert isinstance(outcome, CrossedZero)
    assert abs(outcome.t_event * alpha - 3.574) <= 1e-3
    with pytest.raises(IntegrationFailure, match="before the first profile"):
        shoot_profile(alpha, d)


def test_largest_positive_series_start_still_classifies():
    d = Dims(2, 2)
    assert series_start(1e4, 1e-4, d)[0] > 0.0
    assert isinstance(integrate_shot(1e4, d), CrossedZero)


def _package_tableau():
    """The package's DOP853 coefficients in scipy's layout: A (16 x 16,
    with the weights B as row 12), C (16), E3 and E5 (13) and D (4 x 16)."""
    a, c, e5 = np.zeros((16, 16)), np.zeros(16), np.zeros(13)
    for name, value in vars(ode).items():
        if match := re.fullmatch(r"_A(\d)(\d)|_A(\d+)_(\d+)", name):
            i, j = (int(g) for g in match.groups() if g)
            a[i - 1, j - 1] = value
        elif match := re.fullmatch(r"_B(\d+)", name):
            a[12, int(match[1]) - 1] = value
        elif match := re.fullmatch(r"_C(\d+)", name):
            c[int(match[1]) - 1] = value
        elif match := re.fullmatch(r"_E(\d+)", name):
            e5[int(match[1]) - 1] = value
    c[11] = c[12] = 1.0  # stage 12 and the first-same-as-last slope
    e3 = a[12, :13].copy()
    e3[[0, 8, 11]] -= (ode._BHH1, ode._BHH9, ode._BHH12)
    stored = [0, *range(5, 16)]  # K1, K6, ..., K16
    for i, (ci, row) in enumerate(ode._DENSE_STAGES, start=13):
        c[i] = ci
        a[i, stored[:len(row)]] = row
    d = np.zeros((4, 16))
    d[:, stored] = ode._D
    return a, c, e3, e5, d


def test_dop853_tableau():
    """The coefficients are scipy's DOP853 table exactly, satisfy the
    order conditions, and the continuous extension starts and ends each
    step where the step does."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    a, c, e3, e5, d = _package_tableau()
    for got, want in ((a, ref.A), (c, ref.C), (e3, ref.E3), (e5, ref.E5),
                      (d, ref.D)):
        assert np.array_equal(got, want)

    assert float(np.abs(a.sum(axis=1) - c).max()) < 1e-14
    b, nodes = a[12, :12], c[:12]
    for k in range(8):
        assert abs(b @ nodes ** k - 1.0 / (k + 1)) < 1e-14
    assert abs(b @ nodes ** 8 - 1.0 / 9) > 1e-6  # order 8, not 9

    orbit = list(periodic._orbit_steps(4, 0.9, 10.0))
    for step in _shot(2)[4] + orbit:
        dense = ode._dense(step)
        assert ode._dense_eval(dense, 0.0) == step[2:4]
        for got, old, new in zip(ode._dense_eval(dense, 1.0), step[2:4],
                                 step[4:6]):
            assert abs(got - new) <= 2.0 ** -52 * max(abs(old), abs(new))


@pytest.fixture(scope="module")
def brackets(gs22):
    """The final brackets of the (2, 2) and (2, 7) searches."""
    return {(2, 2): gs22.bracket,
            (2, 7): find_ground_state(Dims(2, 7)).bracket}


# Event errors against oracles.shot_reference (scipy's DOP853 at rtol
# 1e-13), as (shot, bound on the event time, bound on the signed miss of
# shooting._miss); a shot is an index into _SHOT_PINS or (m, n, end of
# the final bracket). Measured event-time and miss errors:
#   pin-crossed        5.1e-10   3.6e-12
#   pin-turned         7.9e-10   3.6e-12
#   pin-candidate      5.4e-2    2.3e-11
#   (2, 2) bracket     -         3.6e-12, 3.6e-12
#   (2, 7) bracket     -         1.1e-8,  1.1e-8
# Near alpha0 the event time is ill-conditioned, the miss is not. The
# converged bracket ends miss by at most 6e-11, inside the referee's own
# miss error, so scipy may classify them either way: their outcome and
# event time are compared only where the referee's miss exceeds the
# bound. The bounds are about twice the larger error of this stepper
# and of the Dormand-Prince 5(4) pair it replaced.
_REFEREE_CASES = [
    (0, 3e-9, 1.2e-11),
    (1, 3e-9, 1.2e-11),
    (2, 0.11, 5e-11),
    ((2, 2, 0), 8e-2, 1.2e-11),
    ((2, 2, 1), 8e-2, 1.2e-11),
    ((2, 7, 0), 2.5e-3, 1.4e-7),
    ((2, 7, 1), 2.5e-3, 1.4e-7),
]


@pytest.mark.parametrize("shot, t_bound, miss_bound", _REFEREE_CASES, ids=[
    "pin-crossed", "pin-turned", "pin-candidate", "bracket-22-lo",
    "bracket-22-hi", "bracket-27-lo", "bracket-27-hi"])
def test_shot_events_match_scipy(shot, t_bound, miss_bound, brackets):
    """The _SHOT_PINS shots and the bracket ends of the (2, 2) and (2, 7)
    searches have nearly the signed miss of scipy's DOP853, and wherever
    that miss resolves the classification, the same outcome at nearly
    the same event time."""
    if isinstance(shot, int):
        m, n, alpha_hex = _SHOT_PINS[shot][:3]
        alpha = float.fromhex(alpha_hex)
    else:
        m, n, end = shot
        alpha = brackets[(m, n)][end]
    d = Dims(m, n)
    out = ode._integrate(alpha, d)
    ref = shot_reference(alpha, d)
    ref_miss = _miss(ref, n)
    assert abs(_miss(out, n) - ref_miss) <= miss_bound
    if isinstance(shot, int):
        assert abs(ref_miss) > miss_bound
    if abs(ref_miss) > miss_bound:
        assert type(out) is type(ref)
        assert abs(out.t_event - ref.t_event) <= t_bound
