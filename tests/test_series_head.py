"""The series head a radial shot starts from (`ode._series_head`).

The head is the Taylor series of the regular solution, exact to double
precision up to its t0. It is refereed by the same recurrence at 50
digits and 120 terms (`oracles.series_head_reference`), by scipy's
DOP853 from t = 1e-6, and on the shots that start from it.
"""

import math

import pytest
from scipy.integrate import solve_ivp

from gnyamabe import ode
from gnyamabe.geometry import Dims
from gnyamabe.ode import (CrossedZero, IntegrationFailure, TurnedUp,
                          integrate_shot, shoot_profile)
from gnyamabe.shooting import bracket_alpha

from oracles import (exponents_m1, sech_amplitude, series_head_reference,
                     series_start, shot_reference)


def _ulps(got, want):
    return abs(got - want) / math.ulp(want)


def _head_errors(alpha, d):
    """The package's head against the mpmath series: t0 relative to the
    reference's own t0, and h(t0), h'(t0) in ulps of the reference at the
    package's t0."""
    head = ode._series_head(alpha, d)
    t0 = head[0]
    h, dh = ode._head_eval(head, t0)
    ref_t0, ref_h, ref_dh = series_head_reference(alpha, d, t0)
    return abs(t0 / ref_t0 - 1.0), _ulps(h, ref_h), _ulps(dh, ref_dh)


def test_head_matches_mpmath_on_table(table9):
    """At every alpha0 of build_table(9), against the 120-term series at
    50 digits: h and h' within 4 ulps (at most 1 and 3 measured), t0
    within 2e-15 relative (5 ulps, 5.8e-16, measured). t0 is the (2J)-th
    root of the J-th coefficient, which the recurrence carries less
    exactly than the sum."""
    rows, _ = table9
    for row in rows:
        t0_err, h_ulps, dh_ulps = _head_errors(row.alpha0, Dims(row.m, row.n))
        assert t0_err <= 2e-15 and max(h_ulps, dh_ulps) <= 4.0, row


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_head_matches_mpmath_on_m1_rows(m):
    """The (m, 1) ground states, from their closed-form amplitude, to the
    bounds of the table (at most 1 ulp measured on each)."""
    alpha = sech_amplitude(exponents_m1(m)[0])
    t0_err, h_ulps, dh_ulps = _head_errors(alpha, Dims(m, 1))
    assert t0_err <= 2e-15 and max(h_ulps, dh_ulps) <= 4.0


@pytest.mark.parametrize("alpha", [1.0001, 1e4, 2.0 ** 20])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 7), (7, 2), (1, 2), (2, 15)])
def test_head_matches_mpmath_far_from_alpha0(m, n, alpha):
    """Next to 1, where 1/w - 1 cancels unless formed by expm1, and far
    above alpha0, where t0 falls to 6e-13: h(t0) and h'(t0) within 8 ulps
    (at most 4 measured). Far above alpha0 the recurrence cancels for a
    non-integer q, and t0 is within 1e-13 relative (2.0e-14 measured, at
    (2, 15) from 2^20)."""
    t0_err, h_ulps, dh_ulps = _head_errors(alpha, Dims(m, n))
    assert t0_err <= 1e-13 and max(h_ulps, dh_ulps) <= 8.0


@pytest.mark.parametrize("m, n, alpha", [
    (2, 2, 2.2062008646499544), (2, 7, 107.70794296012808),
    (7, 2, 2.5066291977557396), (4, 5, 15.48911980268415),
    (3, 1, math.sqrt(2.0)), (2, 15, 3.6e5)])
def test_head_matches_scipy(m, n, alpha):
    """(h, h') at t0 against scipy's DOP853 at its tightest rtol, 2.3e-14,
    from the two-term series start at t = 1e-6: within 1e-14 relative
    (at most 5.2e-15 measured, h' of (2, 2))."""
    d = Dims(m, n)
    head = ode._series_head(alpha, d)
    t0 = head[0]
    nm1, qm1 = n - 1.0, d.q - 1.0

    def flow(t, y):
        return y[1], -(nm1 / t) * y[1] + y[0] - abs(y[0]) ** qm1 * y[0]

    sol = solve_ivp(flow, (1e-6, t0), series_start(alpha, 1e-6, d),
                    method="DOP853", rtol=2.3e-14, atol=1e-300)
    for got, want in zip(ode._head_eval(head, t0), sol.y[:, -1]):
        assert abs(got / want - 1.0) <= 1e-14


_EDGE_SHOTS = [  # (m, n, alpha, horizon of the scipy shot, outcome)
    (2, 2, math.nextafter(1.0, 2.0), 50.0, TurnedUp),
    (2, 2, 1.0001, 50.0, TurnedUp),
    (7, 2, 1.0001, 50.0, TurnedUp),
    (2, 2, 1e4, 50.0, CrossedZero),
    (2, 2, 1e5, 50.0, CrossedZero),
    (2, 2, 1e6, 50.0, CrossedZero),
]


@pytest.mark.parametrize("m, n, alpha, t_ref, expected", _EDGE_SHOTS)
def test_edge_shots_classify_or_fail(m, n, alpha, t_ref, expected):
    """A shot from next to 1 or from far above alpha0 classifies, never
    raises OverflowError, and no event hides in the head: it descends at
    t0. The classification agrees with scipy's (`shot_reference`, run to
    t_ref) where that reference's two-term start at 1e-4 is still
    positive, and with the monotone order above alpha0 where it is not
    (1e5 and 1e6, where that start has already crossed zero)."""
    d = Dims(m, n)
    out = integrate_shot(alpha, d)
    assert type(out) is expected
    t0 = out.head[0]
    h, dh = ode._head_eval(out.head, t0)
    assert h > 0.0 and dh < 0.0 and out.t_event > t0
    if series_start(alpha, 1e-4, d)[0] > 0.0:
        assert type(shot_reference(alpha, d, t_ref)) is expected
    else:
        assert alpha > bracket_alpha(d)[2]


def test_head_that_does_not_descend_is_integration_failure(monkeypatch):
    """A head whose t0 lies past where its series holds, here from a
    threshold of 0.1 alpha, has h' > 0 at t0: the shot is refused, not
    started past an event it could not see."""
    monkeypatch.setattr(ode, "_HEAD_TOL", 0.1)
    with pytest.raises(IntegrationFailure, match="does not descend"):
        integrate_shot(3.0, Dims(2, 2))


@pytest.mark.parametrize("alpha, error, match", [
    (1e200, IntegrationFailure, r"alpha\^\(q-1\) overflows \(alpha=1e\+200\)"),
    (math.inf, ValueError, "finite.*, got inf"),
    (math.nan, ValueError, "finite.*, got nan"),
], ids=["overflow", "inf", "nan"])
@pytest.mark.parametrize("shoot", [integrate_shot, shoot_profile],
                         ids=lambda f: f.__name__)
def test_alpha_beyond_doubles_is_refused(shoot, alpha, error, match):
    """A non-finite alpha is refused on input, and one whose alpha^(q-1)
    overflows, where the head is formed, is an IntegrationFailure that
    names it: neither ends in an OverflowError."""
    with pytest.raises(error, match=match):
        shoot(alpha, Dims(2, 2))


def _head_coefficients_by_loop(alpha, d):
    """b_0..b_J of `_series_head`'s recurrence with each Miller factor
    formed in the loop, as before the factors were cached per q."""
    q, w = d.q, alpha ** (d.q - 1.0)
    b = [1.0, math.expm1((1.0 - q) * math.log(alpha)) / (2 * d.n)]
    v = [1.0]
    for j in range(2, ode._HEAD_TERMS + 1):
        acc = 0.0
        for i in range(1, j):
            acc += ((q + 1.0) * i - (j - 1)) * b[i] * v[j - 1 - i]
        v.append(acc / (j - 1))
        b.append((b[j - 1] / w - v[j - 1]) / (2 * j * (2 * j + d.n - 2)))
    return b


@pytest.mark.parametrize("alpha", [math.nextafter(1.0, 2.0), 1.0001, 2.2,
                                   107.7, 3.6e5, 2.0 ** 40])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 7), (7, 2), (3, 1), (60, 60)])
def test_cached_miller_factors_give_the_same_head(m, n, alpha):
    """The head's coefficients from the factors cached per q equal, bit
    for bit, those of the loop that forms each factor in place."""
    d = Dims(m, n)
    head = ode._series_head(alpha, d)
    b = _head_coefficients_by_loop(alpha, d)
    assert head[3] == tuple(alpha * c for c in b[1:])
