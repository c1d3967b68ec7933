import math

import numpy as np
import pytest

from gnyamabe import build_table, ode, shooting
from gnyamabe.functional import gn_value
from gnyamabe.geometry import Dims
from gnyamabe.ode import (DEFAULT_CONTROLS, CrossedZero, TurnedUp,
                          integrate_shot, rhs)
from gnyamabe.products import table_pairs
from gnyamabe.shooting import (Illinois, _miss, bracket_alpha,
                               find_ground_state)

from oracles import exponents_m1, sech_amplitude


def test_bracket_22():
    """The bracket keeps both of its doubling shots: the last one that
    turned up and the first one that crossed, with their misses."""
    d = Dims(2, 2)
    lo, f_lo, hi, f_hi = bracket_alpha(d)
    assert lo == hi / 2.0
    assert lo < 2.2062 < hi
    low, high = integrate_shot(lo, d), integrate_shot(hi, d)
    assert isinstance(low, TurnedUp)
    assert isinstance(high, CrossedZero)
    assert f_lo == _miss(low, d.n) < 0.0 < f_hi == _miss(high, d.n)


def test_bracket_contains_sech_amplitude():
    q, _ = exponents_m1(3)
    lo, _, hi, _ = bracket_alpha(Dims(3, 1))
    assert lo < sech_amplitude(q) < hi


def _illinois(f, lo, hi, tol=0.0):
    """Run the Illinois search on f from [lo, hi] until the bracket is at
    most tol wide or cannot be split, or a point hits an exact zero of f;
    return the search and its points, checking the sign of the end misses
    after every update."""
    search = Illinois(lo, f(lo), hi, f(hi))
    points = []
    while search.hi - search.lo > tol and len(points) < 200:
        x = search.point()
        if x is None:
            break
        points.append(x)
        fx = f(x)
        if fx == 0.0:
            break
        search.update(x, fx)
        assert search.lo < search.hi
        assert search.f_lo < 0.0 < search.f_hi
    return search, points


def test_illinois_converges_on_a_cubic():
    root = 2.0 ** (1.0 / 3.0)
    search, points = _illinois(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert abs(points[-1] - root) <= 2.0 ** -52
    assert len(points) <= 20, points
    # with the root near the low end, regula falsi alone keeps the high
    # end and creeps up from below; halving its miss moves it too
    search, points = _illinois(lambda x: x ** 3 - 1e-6, 0.0, 10.0, tol=1e-14)
    assert search.lo <= 0.01 <= search.hi
    assert search.hi - search.lo <= 1e-14
    assert len(points) <= 40, points


def test_illinois_keeps_the_signs_of_its_ends():
    search, points = _illinois(lambda x: math.tanh(x - 0.3), -5.0, 1.0,
                               tol=1e-14)
    assert search.lo <= 0.3 <= search.hi
    assert abs(points[-1] - 0.3) <= 1e-14


def test_illinois_halves_a_stale_end():
    search = Illinois(0.0, -1.0, 1.0, 1.0)
    search.update(0.5, -0.5)   # hi kept once: its miss stays
    assert search.f_hi == 1.0
    search.update(0.6, -0.25)  # hi kept twice in a row: halved
    assert (search.lo, search.f_lo, search.f_hi) == (0.6, -0.25, 0.5)
    search.update(0.7, 0.1)    # lo kept once, after hi was kept
    assert (search.hi, search.f_hi, search.f_lo) == (0.7, 0.1, -0.25)
    search.update(0.65, 0.05)  # lo kept twice in a row: halved
    assert (search.hi, search.f_lo) == (0.65, -0.125)


def test_illinois_falls_back_to_the_midpoint():
    # the regula-falsi point rounds onto the low end, with misses many
    # orders of magnitude apart or with an infinite miss at the high end
    assert Illinois(1.0, -1e-300, 2.0, 1e300).point() == 1.5
    assert Illinois(1.0, -1.0, 2.0, math.inf).point() == 1.5
    # a point strictly inside is kept
    assert Illinois(0.0, -1.0, 1.0, 3.0).point() == 0.25


def test_illinois_refuses_an_unsplittable_bracket():
    hi = math.nextafter(1.0, 2.0)
    assert Illinois(1.0, -1.0, hi, 1.0).point() is None
    assert Illinois(1.0, -1.0, 1.0, 1.0).point() is None


def test_ground_state_anchor_22(gs22):
    assert abs(gs22.alpha0 - 2.2062) < 5e-4
    lo, hi = gs22.bracket
    assert lo < gs22.alpha0 <= hi
    if hi - lo > 1e-12:
        # the search ended early on a candidate shot, which certifies
        # alpha0 directly; the shot must reproduce that classification
        from gnyamabe.ode import Candidate
        assert isinstance(integrate_shot(gs22.alpha0, Dims(2, 2)), Candidate)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 7), (7, 2), (3, 1)])
def test_bracket_labels_survive(m, n):
    gs = find_ground_state(Dims(m, n))
    lo, hi = gs.bracket
    assert isinstance(integrate_shot(lo, gs.d), TurnedUp)
    assert isinstance(integrate_shot(hi, gs.d), CrossedZero)


def test_shot_budget_per_table_row(monkeypatch):
    """Bracket and Illinois search together take at most 20 shots on every
    table row and 300 on the whole table; with a bracket that dropped its
    turned-up doubling shot they took 319."""
    shots = []

    def counted(*args, **kwargs):
        shots.append(args[0])
        return integrate_shot(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate_shot", counted)
    per_row = {}
    for m, n in table_pairs(9):
        shots.clear()
        find_ground_state(Dims(m, n))
        per_row[(m, n)] = len(shots)
    assert max(per_row.values()) <= 20, per_row
    assert sum(per_row.values()) <= 300, per_row


def test_step_budget_per_table(monkeypatch):
    """The whole table takes at most 40,000 accepted steps, and the (2, 7)
    Candidate shot at most 250. The DOP853 stepper takes 24,430 and 172;
    the Dormand-Prince 5(4) pair took 139,135 and 882 (over 319 shots)."""
    shots = []
    integrate = ode._integrate

    def counted(alpha, d, ctrl):
        kind, te, ye, steps = integrate(alpha, d, ctrl)
        shots.append(((d.m, d.n), kind, len(steps)))
        return kind, te, ye, steps

    monkeypatch.setattr(ode, "_integrate", counted)
    build_table(9)
    assert sum(count for _, _, count in shots) <= 40_000
    candidates = [count for mn, kind, count in shots
                  if mn == (2, 7) and kind == "candidate"]
    assert candidates and max(candidates) <= 250, candidates


def test_profile_positive_and_decreasing(gs22):
    p = gs22.profile
    assert np.all(p.hs > 0.0)
    assert np.all(np.diff(p.hs[1:]) < 0.0)
    assert np.all(p.dhs[1:] < 0.0)


def test_profile_ode_residual(gs22):
    """Stored h, h' are consistent through the equation: recompute h''
    by differencing h' on the uniform grid and compare with the rhs."""
    p = gs22.profile
    ts, hs, dhs = p.ts, p.hs, p.dhs
    dt = ts[1] - ts[0]
    assert np.allclose(np.diff(ts), dt, rtol=0, atol=1e-12)
    # fourth-order central difference of h'
    ddh_fd = (-dhs[4:] + 8 * dhs[3:-1] - 8 * dhs[1:-3] + dhs[:-4]) / (12 * dt)
    ddh_rhs = np.array([rhs(t, h, dh, gs22.d)[1]
                        for t, h, dh in zip(ts[2:-2], hs[2:-2], dhs[2:-2])])
    assert float(np.abs(ddh_fd - ddh_rhs).max()) < 1e-6


def test_alpha0_invariant_under_tolerance_halving(gs22):
    tighter = find_ground_state(Dims(2, 2), ctrl=DEFAULT_CONTROLS.tightened(2.0))
    assert abs(tighter.alpha0 - gs22.alpha0) < 1e-8


def test_alpha0_strictly_above_one(gs22, gs31):
    assert gs22.alpha0 > 1.0
    assert gs31.alpha0 > 1.0
    assert find_ground_state(Dims(2, 5)).alpha0 > 1.0


def test_sech_alpha0_matches_closed_form():
    for m in (3, 4, 5):
        q, _ = exponents_m1(m)
        gs = find_ground_state(Dims(m, 1))
        assert abs(gs.alpha0 - sech_amplitude(q)) < 1e-9


@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (1, 8), (1, 12), (2, 1),
                                  (5, 1)])
def test_m1_and_n1_rows_solve(m, n):
    """Rows with a one-dimensional factor, outside the published table,
    solve at the default controls. For n = 1 the ground state is the
    closed-form sech profile; for m = 1 sigma_inv is checked against a
    solve at tol_alpha = 1e-14 with tolerances ten times tighter."""
    d = Dims(m, n)
    gs = find_ground_state(d)
    if n == 1:
        amplitude = sech_amplitude(exponents_m1(m)[0])
        assert abs(gs.alpha0 / amplitude - 1.0) <= 2e-12
    else:
        tight = find_ground_state(d, tol_alpha=1e-14,
                                  ctrl=DEFAULT_CONTROLS.tightened(10.0))
        sigma_inv = gn_value(gs.profile, d).sigma_inv
        reference = gn_value(tight.profile, d).sigma_inv
        assert abs(sigma_inv / reference - 1.0) <= 1e-12


def test_tol_alpha_validation():
    # nan and inf would skip the Illinois loop and return the bracket midpoint
    for tol in (1e-20, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_ground_state(Dims(2, 2), tol_alpha=tol)


# Errors of the default ground state against a tight-control reference
# (decay threshold 1e-10, tolerances ten times tighter, tol_alpha 1e-14),
# as (m, n, bound on the alpha0 error, bound on the relative sigma_inv
# error). Measured, with a bracket that dropped its turned-up doubling
# shot / with one that keeps it:
#   (2, 2)  1.7e-12 / 3.2e-13    2.2e-16 / 1.4e-14
#   (4, 4)  6.3e-11 / 1.3e-11    2.0e-14 / 8.9e-16
#   (2, 7)  1.1e-8  / 1.0e-8     9.6e-14 / 8.0e-14
# All three stop on a Candidate shot, so alpha0 is known only to the
# Candidate window, not to tol_alpha; the bounds are about twice the
# larger error.
_TIGHT_REFEREE_CASES = [
    (2, 2, 4e-12, 3e-14),
    (4, 4, 1.5e-10, 5e-14),
    (2, 7, 2.5e-8, 2e-13),
]


@pytest.mark.parametrize("m, n, alpha_bound, sigma_bound",
                         _TIGHT_REFEREE_CASES)
def test_ground_state_matches_tight_controls(m, n, alpha_bound, sigma_bound,
                                             monkeypatch):
    d = Dims(m, n)
    gs = find_ground_state(d)
    sigma_inv = gn_value(gs.profile, d).sigma_inv
    monkeypatch.setattr(ode, "_DECAY_THRESHOLD", 1e-10)
    tight = find_ground_state(d, tol_alpha=1e-14,
                              ctrl=DEFAULT_CONTROLS.tightened(10.0))
    reference = gn_value(tight.profile, d).sigma_inv
    assert abs(gs.alpha0 - tight.alpha0) <= alpha_bound
    assert abs(sigma_inv / reference - 1.0) <= sigma_bound
