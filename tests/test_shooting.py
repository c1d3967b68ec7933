import math

import numpy as np
import pytest

from gnyamabe import build_table, ode, shooting
from gnyamabe.functional import gn_value
from gnyamabe.geometry import Dims
from gnyamabe.ode import (DEFAULT_CONTROLS, CrossedZero, TurnedUp,
                          integrate_shot, rhs)
from gnyamabe.products import table_pairs
from gnyamabe.shooting import bracket_alpha, find_ground_state

from oracles import exponents_m1, sech_amplitude


def test_bracket_22():
    lo, hi = bracket_alpha(Dims(2, 2))
    assert lo == 1.0
    assert lo < 2.2062 < hi
    assert isinstance(integrate_shot(lo, Dims(2, 2)), TurnedUp)
    assert isinstance(integrate_shot(hi, Dims(2, 2)), CrossedZero)


def test_bracket_contains_sech_amplitude():
    q, _ = exponents_m1(3)
    lo, hi = bracket_alpha(Dims(3, 1))
    assert lo < sech_amplitude(q) < hi


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
    table row and 350 on the whole table."""
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
    assert sum(per_row.values()) <= 350, per_row


def test_step_budget_per_table(monkeypatch):
    """The whole table takes at most 40,000 accepted steps, and the (2, 7)
    Candidate shot at most 250; the Dormand-Prince 5(4) pair took 139,135
    and 882."""
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
