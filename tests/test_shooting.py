import math

import numpy as np
import pytest
from scipy.special import ive, kve

from gnyamabe import build_table, ode, products, shooting
from gnyamabe.functional import gn_value
from gnyamabe.geometry import (Dims, unit_volume_sphere_scalar, y_infinity,
                               yamabe_sphere)
from gnyamabe.ode import CrossedZero, TurnedUp, integrate_shot, rhs
from gnyamabe.products import table_pairs
from gnyamabe.shooting import (Illinois, _miss, bracket_alpha,
                               find_ground_state)

from oracles import (exponents_m1, gaussian_value, pohozaev_residuals,
                     sech_amplitude, tighten)


@pytest.fixture(scope="module")
def table14():
    """build_table(14) and the (Dims, GroundState) of each of its 66
    searches, recorded as the table runs them."""
    found = []
    search = products.find_ground_state

    def recorded(d, *args, **kwargs):
        found.append((d, search(d, *args, **kwargs)))
        return found[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(products, "find_ground_state", recorded)
        rows = build_table(14)
    return rows, found


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


@pytest.mark.parametrize("guess, lo, hi", [
    (2.4, 2.4 / 1.1, 2.4),               # 9% high: one step down
    (2.0, 2.0 * 1.1, 2.0 * 1.1 ** 3),    # 9% low: a step of 1.1, then 1.21
    (100.0, 1.0, 100.0 / 1.1 ** 31),     # steps of 1.1 ... 1.1^16, then 1
    (0.5, 1.1 ** 7, 1.1 ** 15),          # from 1: 1.1, 1.21, 1.46, 2.14
], ids=["high", "low", "far-high", "below-one"])
def test_bracket_from_a_guess(guess, lo, hi):
    """From a guess the shots step towards alpha0 = 2.2062 of (2, 2) by
    1.1, 1.21, 1.4641, ..., each step the square of the one before,
    until the classification flips; alpha <= 1 turns up unshot, with
    miss -1."""
    got_lo, f_lo, got_hi, f_hi = bracket_alpha(Dims(2, 2), guess=guess)
    assert got_lo == pytest.approx(lo, rel=1e-14)
    assert got_hi == pytest.approx(hi, rel=1e-14)
    assert got_lo < 2.2062 < got_hi
    assert f_lo < 0.0 < f_hi
    if lo == 1.0:
        assert f_lo == -1.0


def test_bracket_steps_up_past_2_20():
    """From the guess 1.0100e6 at (3, 17), the step up by 1.1, to
    1.111e6, passes 2^20 = 1.0486e6, where a bracket ceiling once clipped
    it, and crosses, since alpha0 = 1.0256e6: the guessed search agrees
    with the unguessed one."""
    d = Dims(3, 17)
    guessed = find_ground_state(d, guess=1.0100e6)
    alpha0 = find_ground_state(d).alpha0
    assert abs(guessed.alpha0 - alpha0) <= 1e-12 * alpha0


@pytest.mark.parametrize("m, n, alpha0", [
    (30, 30, 9.015785e7), (20, 20, 1.746536e5), (2, 2, 2.206208)])
@pytest.mark.parametrize("guess", [1e100, 1e200, 1e250, 1e300])
def test_absurd_guess_solves_or_fails_cleanly(m, n, alpha0, guess):
    """A guess far above alpha0 steps down by growing factors. The search
    finds alpha0, or raises the IntegrationFailure of a shot it cannot
    decide (a step underflow, a head that does not descend, alpha^(q-1)
    overflowing), never an OverflowError. (30, 30) solves from 1e100 to
    1e250: from 1e200 a crossing shot's miss squares an h' past the
    double range, to +inf, and from 1e250 the steps reach alpha = 1 just
    before their next factor, 1.1^8192, would overflow."""
    try:
        gs = find_ground_state(Dims(m, n), guess=guess)
    except ode.IntegrationFailure:
        assert (m, n) != (30, 30) or guess == 1e300
        return
    assert gs.alpha0 == pytest.approx(alpha0, rel=1e-6)


@pytest.mark.parametrize("guess", [0.0, -2.0, math.nan, math.inf])
def test_bracket_rejects_an_invalid_guess(guess):
    with pytest.raises(ValueError, match="guess"):
        bracket_alpha(Dims(2, 2), guess=guess)


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


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.69, 0.71), (-50.0, 3.0),
                                    (0.7 - 1e-9, 1e6)])
def test_illinois_solves_a_linear_miss_in_one_step(lo, hi):
    """On a linear miss the first point is the root, from any bracket, and
    so is the secant point after an evaluation beside it."""
    def f(x):
        return 3.0 * (x - 0.7)

    search = Illinois(lo, f(lo), hi, f(hi))
    x = search.point()
    assert abs(x - 0.7) <= 1e-15 * max(1.0, abs(lo), abs(hi))
    search = Illinois(0.0, f(0.0), 1.0, f(1.0))
    search.update(0.9, f(0.9))
    assert abs(search.point() - 0.7) <= 1e-15


def test_illinois_secant_outside_falls_back():
    # the secant of the latest two evaluations, (1, 1) and (0.9, 0.95),
    # points to -1.0, outside [0, 0.9]: regula falsi of the ends instead
    search = Illinois(0.0, -1.0, 1.0, 1.0)
    search.update(0.9, 0.95)
    assert search.point() == 0.0 + 1.0 * (0.9 - 0.0) / (0.95 + 1.0)
    # ...and the midpoint when that point rounds onto an end
    search = Illinois(1.0, -1e-300, 2.0, 3.0)
    search.update(1.5, 1e300)
    assert search.point() == 1.25


def test_illinois_secant_reach_is_bounded():
    # two nearly equal misses would send the secant 1e3 away; it reaches
    # only _SECANT_REACH times their distance
    search = Illinois(0.0, -1.0, 10.0, 1.0)
    search.update(1e-6, -1.0 + 1e-9)
    search.update(2e-6, -1.0 + 2e-9)
    reach = shooting._SECANT_REACH * (2e-6 - 1e-6)
    assert search.point() == 2e-6 + reach


def test_ground_state_anchor_22(gs22):
    assert abs(gs22.alpha0 - 2.2062) < 5e-4
    lo, hi = gs22.bracket
    # alpha0 is the end of the converged bracket whose shot ran longest
    assert gs22.alpha0 in (lo, hi)
    assert hi - lo <= 1e-12 * gs22.alpha0
    ends = [integrate_shot(x, Dims(2, 2)) for x in (lo, hi)]
    assert max(ends, key=lambda shot: shot.t_event).t_event \
        == ends[(lo, hi).index(gs22.alpha0)].t_event


@pytest.mark.parametrize("m, n", [(2, 2), (2, 7), (7, 2), (3, 1)])
def test_bracket_labels_survive(m, n):
    d = Dims(m, n)
    gs = find_ground_state(d)
    lo, hi = gs.bracket
    assert isinstance(integrate_shot(lo, d), TurnedUp)
    assert isinstance(integrate_shot(hi, d), CrossedZero)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 7), (4, 4)])
def test_miss_is_linear_near_alpha0(m, n):
    """The weighted miss has one slope on both sides of alpha0, whatever
    the event time: its slopes at alpha0 (1 +- 1e-8) and alpha0 (1 +-
    1e-10), whose events lie about 2.3 apart in t, agree to 2e-3
    (measured 3.1e-6, 6.3e-4 and 4.5e-4). Unweighted, they spread 4.6e-3,
    2.4e-2 and 1.0e-2."""
    d = Dims(m, n)
    alpha0 = find_ground_state(d).alpha0
    slopes = [_miss(integrate_shot(alpha0 * (1.0 + delta), d), n)
              / (alpha0 * delta)
              for delta in (1e-8, -1e-8, 1e-10, -1e-10)]
    mean = sum(slopes) / len(slopes)
    assert (max(slopes) - min(slopes)) / mean <= 2e-3, slopes


@pytest.mark.parametrize("n", range(2, 8))
def test_bessel_weight_matches_scipy(n):
    """The two-term series of 2 t I_mu(t) K_mu(t) for mu = n/2 (turn) and
    (n - 2)/2 (crossing) against scipy for t >= 4: within twice its first
    omitted term, plus e^(-t), above the exponentially small part, which
    is all that is left for half-integer mu, plus 1e-13 for the rounding
    of scipy's product (up to 2.8e-14 seen). A wrong coefficient would
    miss by about 1/t^4, far above the bound at t = 50. Below t = 4 the
    weight stays positive."""
    ts = np.linspace(4.0, 50.0, 93)
    for mu in (0.5 * n, 0.5 * n - 1.0):
        c = 4.0 * mu * mu
        exact = 2.0 * ts * ive(mu, ts) * kve(mu, ts)
        got = np.array([shooting._bessel_weight(t, mu) for t in ts])
        omitted = 5.0 * (c - 1.0) * (c - 9.0) * (c - 25.0) / (1024.0 * ts ** 6)
        bound = 2.0 * np.abs(omitted) + np.exp(-ts) + 1e-13
        assert np.all(np.abs(got - exact) <= bound), (mu, got - exact)
    for mu in np.arange(0.0, 12.5, 0.5):
        assert all(shooting._bessel_weight(t, mu) > 0.0
                   for t in np.linspace(1e-3, 4.0, 60))


def test_shot_budget_per_table_row(monkeypatch):
    """Bracket and Illinois search together take at most 12 shots on every
    row of build_table(9) and 185 on the whole table. The search stopped
    on a Candidate shot before it converged, with regula-falsi steps and
    unseeded brackets, took up to 18 and 281; the converged search on the
    unweighted miss, without a closing shot, up to 12 and 204; with both,
    up to 11 and 179."""
    per_row = {}

    def counted(alpha, d, *args, **kwargs):
        per_row[(d.m, d.n)] = per_row.get((d.m, d.n), 0) + 1
        return integrate_shot(alpha, d, *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate_shot", counted)
    build_table(9)
    assert set(per_row) == set(table_pairs(9))
    assert max(per_row.values()) <= 12, per_row
    assert sum(per_row.values()) <= 185, per_row


def test_step_budget_per_table(monkeypatch):
    """The whole table takes at most 9,300 accepted steps, the (2, 7) row
    at most 730 and no shot more than 94: about 1.1 times the 8,454, 664
    and 85 of shots that start from the series head. From the two-term
    series start at t = 1e-4 the same search took 16,812, 1,632 and 181;
    on the unweighted miss it took 19,509, 2,012 and 182, the
    Candidate-stopped search 24,430, 2,545 and 172 (its (2, 7) Candidate
    shot), and the Dormand-Prince 5(4) pair 139,135 steps over 319
    shots."""
    shots = []
    integrate = ode._integrate

    def counted(alpha, d):
        outcome = integrate(alpha, d)
        shots.append(((d.m, d.n), len(outcome.steps)))
        return outcome

    monkeypatch.setattr(ode, "_integrate", counted)
    build_table(9)
    assert sum(count for _, count in shots) <= 9_300
    assert sum(count for mn, count in shots if mn == (2, 7)) <= 730
    assert max(count for _, count in shots) <= 94


def test_extension_budget_per_table(monkeypatch):
    """build_table(9) evaluates the continuous extension at most once per
    shot (its event) plus once per row (its profile, all the steps it
    samples in one array pass): 202 calls for 181 shots and 21 rows, and
    225 for the 204 shots of the search on the unweighted miss.
    Sampled one step at a time, the profiles took 2,061 calls."""
    calls, shots = [], []
    dense, integrate = ode._dense, ode._integrate

    def counted_dense(step):
        calls.append(step)
        return dense(step)

    def counted_integrate(*args):
        shots.append(args)
        return integrate(*args)

    monkeypatch.setattr(ode, "_dense", counted_dense)
    monkeypatch.setattr(ode, "_integrate", counted_integrate)
    rows = build_table(9)
    assert len(calls) <= len(shots) + len(rows), (len(calls), len(shots))
    assert len(calls) <= 225, len(calls)


def test_table_rows_converge(monkeypatch):
    """Every row of build_table(9) ends on a bracket at most
    DEFAULT_TOL_ALPHA = 1e-12 times alpha0 wide (at most 8.2e-13
    measured, at (6, 2)); the Candidate stops of the search before it
    converged left up to 7.8e-7."""
    found = []
    search = products.find_ground_state

    def recorded(d, *args, **kwargs):
        found.append(search(d, *args, **kwargs))
        return found[-1]

    monkeypatch.setattr(products, "find_ground_state", recorded)
    rows = build_table(9)
    assert shooting.DEFAULT_TOL_ALPHA == 1e-12
    assert len(found) == len(rows) == 21
    for gs, row in zip(found, rows):
        lo, hi = gs.bracket
        assert gs.alpha0 == row.alpha0 in (lo, hi)
        assert hi - lo <= 1e-12 * gs.alpha0, (row.m, row.n, lo, hi)


def test_loosest_tol_alpha_converges():
    """At the top of its range, 1e-2, the search still ends on a bracket
    at most 1e-2 alpha0 wide, on (2, 1) and on every row of
    build_table(9). The bracket it starts from is wider: doubling shots
    leave one half of hi wide, steps from a guess at least 9% of hi, and
    an end at alpha = 1 lies below alpha0 >= 3^(1/4)."""
    for m, n in [(2, 1), *table_pairs(9)]:
        gs = find_ground_state(Dims(m, n), tol_alpha=1e-2)
        lo, hi = gs.bracket
        assert gs.alpha0 in (lo, hi)
        assert hi - lo <= 1e-2 * gs.alpha0, (m, n, lo, hi)


def test_table_rows_satisfy_pohozaev(table14):
    """Every ground state of build_table(14) meets both ratios of the
    energy and Pohozaev identities, I_grad/I_p = n/k and I_sq/I_p = m/k,
    to 9e-12 (4.5e-12 measured at most, at (2, 11), where the profile's
    far-field tail model sets the floor). The shooting uses neither
    identity, so they referee each of the 66 rows independently."""
    rows, found = table14
    assert len(found) == len(rows) == 66
    for d, gs in found:
        residuals = pohozaev_residuals(gs.profile, d)
        assert max(map(abs, residuals)) <= 9e-12, (d.m, d.n, residuals)


def test_gaussian_bounds_every_table_row(table14):
    """sigma_inv is the infimum of L, so on every row of build_table(14)
    it lies below L at the Gaussian, a closed form with no shooting: by
    5.5e-4 relative at least, at (12, 2), and 3.6e-2 at most, at (2, 2)
    (measured)."""
    rows, _ = table14
    assert len(rows) == 66
    for row in rows:
        assert row.sigma_inv < gaussian_value(Dims(row.m, row.n)), row


# the constant C_n of the log-Sobolev remainder bound, per n
_LOG_SOBOLEV_C = {2: 3.0, 5: 10.5}


@pytest.mark.parametrize("m, n", [(20, 2), (40, 2), (80, 2), (158, 2),
                                  (20, 5), (40, 5), (80, 5), (155, 5)])
def test_large_k_rows_approach_log_sobolev_limit(m, n):
    """As k -> infinity at fixed n, p -> 2 and k log sigma_inv tends to
    n log(n pi e / 2), the Euclidean log-Sobolev constant (Gross 1975;
    Gaussians optimize it, Carlen 1991), with the same -n/k term as the
    Gaussian: the remainder k log sigma_inv -
    n log(n pi e / 2) + n/k lies in [-C_n / k^2, 0], C_2 = 3.0 and
    C_5 = 10.5. Measured (numpy 2.4.6, Python 3.11.7), k^2 times the
    remainder reads -2.84, -2.76, -2.71 and -2.69 at k = 22, 42, 82 and
    160 for n = 2, and -10.05, -9.63, -9.41 and -9.29 at k = 25, 45, 85
    and 160 for n = 5 (the Gaussian's own: -1.40 to -1.34 and -3.47 to
    -3.35)."""
    d = Dims(m, n)
    sigma_inv = gn_value(find_ground_state(d).profile, d).sigma_inv
    remainder = (d.k * math.log(sigma_inv)
                 - n * math.log(0.5 * n * math.pi * math.e) + n / d.k)
    assert -_LOG_SOBOLEV_C[n] / d.k ** 2 <= remainder <= 0.0


@pytest.mark.parametrize("m, n", [(2, 16), (2, 17), (2, 18), (3, 17),
                                  (2, 24), (5, 45), (10, 45), (50, 50),
                                  (60, 60)])
def test_rows_past_2_20_satisfy_pohozaev(m, n):
    """Rows of build_table(26) whose alpha0 lies past 2^20 meet both
    identities to 2.5e-12 (1.3e-12 measured, at (2, 16)), and their limit
    lies below the sphere invariant: y_inf < Y_k. So do (5, 45),
    (10, 45), (50, 50) and (60, 60), with alpha0 from 2.4e13 to 2.1e18,
    which the search reaches since its shots run to their events with no
    horizon (3.0e-13 measured). Their sigma_inv lies below L at the
    Gaussian, as on build_table(14), by 4.5e-4 relative at least, at
    (60, 60)."""
    d = Dims(m, n)
    gs = find_ground_state(d)
    residuals = pohozaev_residuals(gs.profile, d)
    assert max(map(abs, residuals)) <= 2.5e-12, residuals
    sigma_inv = gn_value(gs.profile, d).sigma_inv
    assert y_infinity(d, unit_volume_sphere_scalar(m),
                      sigma_inv) < yamabe_sphere(d.k)
    assert sigma_inv < gaussian_value(d)


@pytest.mark.parametrize("m, n", [(1, 50), (2, 58), (2, 40), (2, 35)])
def test_large_pairs_satisfy_pohozaev(m, n):
    """Large pairs at m <= 2, up to the largest the search resolves,
    meet both identities to 2e-12 (4.0e-13, 4.6e-13, 2.5e-13 and 1.7e-13
    measured). On the cubic Hermite interpolant of a 2^-8 grid they
    missed by 6.3e-11, 1.7e-11, 1.2e-11 and 1.0e-11: the grid's error,
    which grows with n. The quintic interpolant on the ODE's own h''
    removes it."""
    d = Dims(m, n)
    residuals = pohozaev_residuals(find_ground_state(d).profile, d)
    assert max(map(abs, residuals)) <= 2e-12, residuals


def test_stalled_shot_is_refused():
    """At (2, 60) the shots do not resolve alpha0: the low end of the
    final bracket creeps towards h = 1 with energy E < 0 and turns up at
    t = 139.8, later than the high end crosses, so it would be taken as
    alpha0's shot, whose profile misses the Pohozaev identity by 0.97.
    The search raises IntegrationFailure instead."""
    with pytest.raises(ode.IntegrationFailure, match="stalled above h = 1"):
        find_ground_state(Dims(2, 60))


@pytest.mark.parametrize("m, n", [(2, 2), (2, 7), (5, 2)])
@pytest.mark.parametrize("eps", [1e-10, -1e-10])
def test_pohozaev_sees_a_wrong_alpha0(m, n, eps):
    """A shot at alpha0 (1 + eps), |eps| = 1e-10, misses both ratios by
    more than 1e-11, above the 9e-12 the ground states meet (4.8e-11 to
    7.6e-10 measured): the identities catch an alpha0 error of 1e-10."""
    d = Dims(m, n)
    _, profile = ode.shoot_profile(find_ground_state(d).alpha0 * (1 + eps),
                                   d)
    for residual in pohozaev_residuals(profile, d):
        assert abs(residual) > 1e-11, (m, n, eps, residual)


def test_m1_row_takes_few_shots(monkeypatch):
    """(1, 12), whose turned-up bracket end misses by -1.9e13 against
    +7.6e6, takes at most 30 shots: 28 with secant steps, 46 with
    regula falsi, which halved that end's miss many times before it
    moved."""
    shots = []

    def counted(*args, **kwargs):
        shots.append(args[0])
        return integrate_shot(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate_shot", counted)
    gs = find_ground_state(Dims(1, 12))
    assert len(shots) <= 30, len(shots)
    lo, hi = gs.bracket
    assert hi - lo <= 1e-12 * gs.alpha0


def test_large_alpha0_bracket_is_relative():
    """tol_alpha is relative: (2, 15), with alpha0 = 3.6e5, ends on a
    bracket at most 1e-12 alpha0 wide (7.4e-14 measured), not 8.3e-3 as
    when the search stopped on a Candidate shot."""
    gs = find_ground_state(Dims(2, 15))
    lo, hi = gs.bracket
    assert hi - lo <= 1e-12 * gs.alpha0


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
    ddh_rhs = np.array([rhs(t, h, dh, Dims(2, 2))[1]
                        for t, h, dh in zip(ts[2:-2], hs[2:-2], dhs[2:-2])])
    assert float(np.abs(ddh_fd - ddh_rhs).max()) < 1e-6


def test_alpha0_invariant_under_tolerance_halving(gs22, monkeypatch):
    tighten(monkeypatch, 2.0)
    tighter = find_ground_state(Dims(2, 2))
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
def test_m1_and_n1_rows_solve(m, n, monkeypatch):
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
        tighten(monkeypatch, 10.0)
        tight = find_ground_state(d, tol_alpha=1e-14)
        sigma_inv = gn_value(gs.profile, d).sigma_inv
        reference = gn_value(tight.profile, d).sigma_inv
        assert abs(sigma_inv / reference - 1.0) <= 1e-12


def test_tol_alpha_validation():
    # nan and inf would skip the Illinois loop and return the bracket midpoint
    for tol in (1e-20, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_ground_state(Dims(2, 2), tol_alpha=tol)


def test_tol_alpha_above_the_range_refused():
    """The range is [1e-14, 1e-2] at both ends: 0.02 is refused before
    any shot."""
    assert shooting._TOL_ALPHA_RANGE == (1e-14, 1e-2)
    with pytest.raises(ValueError, match=r"0.02 not in \[1e-14, 0.01\]"):
        find_ground_state(Dims(2, 2), tol_alpha=0.02)


# Errors of the default ground state against a tight-control reference
# (decay threshold 1e-10, tolerances ten times tighter, tol_alpha 1e-14),
# as (m, n, bound on the alpha0 error, bound on the relative sigma_inv
# error). Measured:
#   (2, 2)  1.7e-12   2.2e-16
#   (4, 4)  4.0e-12   1.1e-16
#   (2, 7)  4.6e-10   1.8e-14
# Both searches converge, so this is the error of the shots, no longer
# of a Candidate window (up to 1.0e-8 for (2, 7)). The bounds are about
# twice the errors, and for sigma_inv at least 1e-15, a few rounding
# errors.
_TIGHT_REFEREE_CASES = [
    (2, 2, 4e-12, 1e-15),
    (4, 4, 8e-12, 1e-15),
    (2, 7, 1e-9, 4e-14),
]


@pytest.mark.parametrize("m, n, alpha_bound, sigma_bound",
                         _TIGHT_REFEREE_CASES,
                         ids=[f"{m}-{n}" for m, n, *_ in _TIGHT_REFEREE_CASES])
def test_ground_state_matches_tight_controls(m, n, alpha_bound, sigma_bound,
                                             monkeypatch):
    d = Dims(m, n)
    gs = find_ground_state(d)
    sigma_inv = gn_value(gs.profile, d).sigma_inv
    monkeypatch.setattr(ode, "_DECAY_THRESHOLD", 1e-10)
    tighten(monkeypatch, 10.0)
    tight = find_ground_state(d, tol_alpha=1e-14)
    reference = gn_value(tight.profile, d).sigma_inv
    assert abs(gs.alpha0 - tight.alpha0) <= alpha_bound
    assert abs(sigma_inv / reference - 1.0) <= sigma_bound
