"""Radial ground-state ODE: adaptive integration and shot classification.

The initial value problem is

    h'' + (n-1)/t h' - h + |h|^(q-1) h = 0,   h(0) = alpha > 0, h'(0) = 0,

with q = (k+2)/(k-2) for total dimension k = m + n. Each shot is classified
by where the trajectory first leaves the ground-state corridor: crossing
zero (initial value too large), turning upward while 0 < h < 1 (too small),
or decaying below the threshold while still falling (ground-state candidate
at the working resolution).

The integrator is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output polynomial; event times are located by bisection on
the dense step. A hand-rolled scalar stepper keeps a full shooting run of
thousands of shots within interactive time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Dims

PROFILE_SPACING = 2.0 ** -8

# Dormand-Prince 5(4) coefficients
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)
# quartic interpolant weights (Shampine); the k2 row vanishes identically
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0),
)

# a decay crossing counts as a candidate when the slope sits within this
# relative band of the linearized tail slope -h (1 + (n-1)/(2t)); shots
# that merely pass through the threshold on their way to crossing or
# turning carry a visible growing-mode component and fall outside
_CANDIDATE_SLOPE_BAND = 0.5

_EVENT_LOCATION_TOL = 1e-10


class IntegrationFailure(RuntimeError):
    """Step-size underflow or an unclassifiable trajectory."""


@dataclass(frozen=True)
class IntegrationControls:
    """Tolerances and horizons for one shot."""

    t_max: float = 50.0
    rtol: float = 1e-11
    atol: float = 1e-13
    decay_threshold: float = 1e-6
    t_start: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.t_start <= 1e-3):
            raise ValueError("t_start must lie in (0, 1e-3]")
        if self.t_max <= self.t_start:
            raise ValueError("t_max must exceed t_start")
        if self.rtol < 1e-13 or self.atol <= 0.0:
            raise ValueError("tolerances too tight for double precision")
        if not (0.0 < self.decay_threshold < 1.0):
            raise ValueError("decay_threshold must lie in (0, 1)")

    def tightened(self, factor: float) -> "IntegrationControls":
        """Same controls with both tolerances divided by `factor`."""
        return IntegrationControls(self.t_max, self.rtol / factor,
                                   self.atol / factor,
                                   self.decay_threshold, self.t_start)


DEFAULT_CONTROLS = IntegrationControls()


@dataclass
class RadialProfile:
    """A sampled radial function h(t) with derivative samples.

    When `tail_rate` is set, the profile extends beyond its last node as

        h(t) = h(t_c) exp(-rate (t - t_c)) (t_c / t)^((n-1)/2),  t > t_c,

    the linearized far-field decay; quadrature uses it to close the domain.
    """

    ts: np.ndarray
    hs: np.ndarray
    dhs: np.ndarray
    alpha: float
    n: int
    tail_rate: float | None = None

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.hs = np.asarray(self.hs, dtype=float)
        self.dhs = np.asarray(self.dhs, dtype=float)
        if not (self.ts.shape == self.hs.shape == self.dhs.shape):
            raise ValueError("ts, hs, dhs must have matching shapes")
        if self.ts.size < 2:
            raise ValueError("a profile needs at least two nodes")
        if self.ts[0] != 0.0:
            raise ValueError("profile grid must start at t = 0")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("profile grid must be strictly increasing")
        if self.hs[0] != self.alpha or self.dhs[0] != 0.0:
            raise ValueError("profile must carry h(0) = alpha, h'(0) = 0")
        if self.n < 1:
            raise ValueError("radial dimension must be >= 1")


@dataclass(frozen=True)
class CrossedZero:
    """The shot reached h = 0 while decreasing: initial value too large.
    `dh_cross` is the slope h' < 0 at the crossing."""

    t_cross: float
    dh_cross: float


@dataclass(frozen=True)
class TurnedUp:
    """h' reached 0 from below with 0 < h < 1: initial value too small."""

    t_turn: float
    h_at_turn: float


@dataclass(frozen=True)
class Candidate:
    """The shot tracked the decaying tail below the threshold."""

    profile: RadialProfile


ShotOutcome = CrossedZero | TurnedUp | Candidate


def rhs(t: float, h: float, dh: float, d: Dims) -> tuple[float, float]:
    """Right-hand side (h', h'') of the radial system at t > 0.

    The nonlinearity is odd-extended as |h|^(q-1) h so trajectories stay
    defined after a zero crossing.
    """
    if t <= 0.0:
        raise ValueError("rhs is singular at t = 0; use series_start")
    return _bound_rhs(d)(t, h, dh)


def _bound_rhs(d: Dims):
    """rhs for the dimensions d with their constants bound once, for the
    stepper, which calls it six times a step."""
    nm1 = float(d.n - 1)
    qm1 = d.q - 1.0

    def f(t, h, dh):
        return dh, -(nm1 / t) * dh + h - abs(h) ** qm1 * h

    return f


def series_start(alpha: float, t0: float, d: Dims) -> tuple[float, float]:
    """Second-order Taylor start at small t0, regularizing the origin.

    Matching the equation at t -> 0 under h'(0) = 0 gives
    h(t) = alpha + c t^2 + O(t^4) with c = (alpha - alpha^q) / (2n).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if not (0.0 < t0 <= 1e-3):
        raise ValueError("t0 must lie in (0, 1e-3]")
    c = (alpha - alpha ** d.q) / (2.0 * d.n)
    return alpha + c * t0 * t0, 2.0 * c * t0


def _dense_eval(step, theta):
    """Evaluate the quartic interpolant of one accepted step at theta."""
    t_old, dt, h_old, dh_old, ks_h, ks_d = step
    th2 = theta * theta
    th3 = th2 * theta
    th4 = th3 * theta
    h = h_old
    dh = dh_old
    for i in range(6):
        p = _P[i]
        w = p[0] * theta + p[1] * th2 + p[2] * th3 + p[3] * th4
        h += dt * w * ks_h[i]
        dh += dt * w * ks_d[i]
    return h, dh


def _locate(step, component, target, sign_left_negative):
    """Bisect the dense step for component == target, to 1e-10 in t."""
    dt = step[1]
    lo, hi = 0.0, 1.0
    for _ in range(80):
        if (hi - lo) * dt <= _EVENT_LOCATION_TOL:
            break
        mid = 0.5 * (lo + hi)
        val = _dense_eval(step, mid)[component] - target
        if (val < 0.0) == sign_left_negative:  # still on the entry side
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _integrate(alpha: float, d: Dims, ctrl: IntegrationControls):
    """Core shot integration for alpha > 1.

    Returns (kind, t_event, y_event, steps) with kind one of "crossed",
    "turned", "candidate", y_event the value of h at the event except for a
    crossing, where h = 0 and y_event is the slope h' there instead, and
    steps every accepted step. Raises
    IntegrationFailure on step underflow or an unclassifiable endpoint.
    """
    nm1 = float(d.n - 1)
    thresh = ctrl.decay_threshold
    rtol, atol = ctrl.rtol, ctrl.atol
    f = _bound_rhs(d)

    t = ctrl.t_start
    h, dh = series_start(alpha, t, d)
    f1h, f1d = f(t, h, dh)
    dt = 1e-3
    steps = []
    rejected = False

    while t < ctrl.t_max:
        if dt < 1e-13:
            raise IntegrationFailure(
                f"step underflow at t={t:.6g} (alpha={alpha!r})")
        if t + dt > ctrl.t_max:
            dt = ctrl.t_max - t

        k1h, k1d = f1h, f1d
        k2h, k2d = f(t + _C2 * dt, h + dt * _A21 * k1h, dh + dt * _A21 * k1d)
        k3h, k3d = f(t + _C3 * dt,
                     h + dt * (_A31 * k1h + _A32 * k2h),
                     dh + dt * (_A31 * k1d + _A32 * k2d))
        k4h, k4d = f(t + _C4 * dt,
                     h + dt * (_A41 * k1h + _A42 * k2h + _A43 * k3h),
                     dh + dt * (_A41 * k1d + _A42 * k2d + _A43 * k3d))
        k5h, k5d = f(t + _C5 * dt,
                     h + dt * (_A51 * k1h + _A52 * k2h + _A53 * k3h
                               + _A54 * k4h),
                     dh + dt * (_A51 * k1d + _A52 * k2d + _A53 * k3d
                                + _A54 * k4d))
        k6h, k6d = f(t + dt,
                     h + dt * (_A61 * k1h + _A62 * k2h + _A63 * k3h
                               + _A64 * k4h + _A65 * k5h),
                     dh + dt * (_A61 * k1d + _A62 * k2d + _A63 * k3d
                                + _A64 * k4d + _A65 * k5d))
        hn = h + dt * (_B1 * k1h + _B3 * k3h + _B4 * k4h + _B5 * k5h
                       + _B6 * k6h)
        dhn = dh + dt * (_B1 * k1d + _B3 * k3d + _B4 * k4d + _B5 * k5d
                         + _B6 * k6d)
        k7h, k7d = f(t + dt, hn, dhn)

        err_h = dt * (_E1 * k1h + _E3 * k3h + _E4 * k4h + _E5 * k5h
                      + _E6 * k6h + _E7 * k7h)
        err_d = dt * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d
                      + _E6 * k6d + _E7 * k7d)
        sc_h = atol + rtol * max(abs(h), abs(hn))
        sc_d = atol + rtol * max(abs(dh), abs(dhn))
        err = math.sqrt(0.5 * ((err_h / sc_h) ** 2 + (err_d / sc_d) ** 2))

        if err > 1.0:
            dt *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
            continue

        step = (t, dt, h, dh, (k1h, k3h, k4h, k5h, k6h, k7h),
                (k1d, k3d, k4d, k5d, k6d, k7d))
        steps.append(step)

        # events, in within-step time order
        triggers = []
        if h > thresh >= hn:
            triggers.append((_locate(step, 0, thresh, False), "decay"))
        if h > 0.0 >= hn:
            triggers.append((_locate(step, 0, 0.0, False), "cross"))
        if dh < 0.0 <= dhn:
            triggers.append((_locate(step, 1, 0.0, True), "turn"))
        triggers.sort()
        for theta, kind in triggers:
            te = t + theta * dt
            he, dhe = _dense_eval(step, theta)
            if kind == "decay":
                linearized = -thresh * (1.0 + nm1 / (2.0 * te))
                if abs(dhe - linearized) <= _CANDIDATE_SLOPE_BAND \
                        * abs(linearized):
                    return "candidate", te, he, steps
            elif kind == "cross":
                return "crossed", te, dhe, steps
            else:
                return "turned", te, he, steps

        t += dt
        h, dh = hn, dhn
        f1h, f1d = k7h, k7d  # first-same-as-last
        factor = 10.0 if err == 0.0 else min(10.0, max(0.2,
                                                       0.9 * err ** -0.2))
        if rejected:
            factor = min(1.0, factor)
            rejected = False
        dt *= factor

    if 0.0 < h < thresh and dh < 0.0:
        return "candidate", ctrl.t_max, h, steps
    raise IntegrationFailure(
        f"shot unclassified at t_max={ctrl.t_max:g}: "
        f"h={h:.6g}, h'={dh:.6g} (alpha={alpha!r})")


def _sample_profile(alpha, n, steps, t_stop, threshold):
    """Sample the dense output on a uniform grid and truncate the tail.

    The grid is cut at the first node with h below the decay threshold
    (that node is kept) or with h' >= 0 (that node is dropped), whichever
    comes first; past the cut the stored shot has diverged from the true
    ground state and carries no information.
    """
    ts = [0.0]
    hs = [alpha]
    dhs = [0.0]
    tq = PROFILE_SPACING
    for step in steps:
        t_old, dt = step[0], step[1]
        while tq <= t_old + dt and tq <= t_stop:
            he, dhe = _dense_eval(step, (tq - t_old) / dt)
            ts.append(tq)
            hs.append(he)
            dhs.append(dhe)
            tq += PROFILE_SPACING
    cut = len(ts)
    for i in range(1, len(ts)):
        if hs[i] < threshold:
            cut = i + 1
            break
        if dhs[i] >= 0.0:
            cut = i
            break
    cut = max(cut, 2)
    h_end = hs[cut - 1]
    tail = 1.0 if 0.0 < h_end <= 100.0 * threshold else None
    return RadialProfile(np.array(ts[:cut]), np.array(hs[:cut]),
                         np.array(dhs[:cut]), alpha, n, tail_rate=tail)


def _outcome(kind: str, t_event: float, y_event: float,
             profile: RadialProfile | None) -> ShotOutcome:
    """The classification of an integrated shot; `profile` is carried by
    a Candidate."""
    if kind == "crossed":
        return CrossedZero(t_cross=t_event, dh_cross=y_event)
    if kind == "turned":
        return TurnedUp(t_turn=t_event, h_at_turn=y_event)
    return Candidate(profile=profile)


def integrate_shot(alpha: float, d: Dims,
                   ctrl: IntegrationControls = DEFAULT_CONTROLS) -> ShotOutcome:
    """Integrate one shot from h(0) = alpha and classify it.

    alpha <= 1 cannot produce a decaying ground state (h''(0) >= 0 there)
    and short-circuits to TurnedUp without integration.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if alpha <= 1.0:
        return TurnedUp(t_turn=0.0, h_at_turn=alpha)
    kind, te, ye, steps = _integrate(alpha, d, ctrl)
    profile = None
    if kind == "candidate":
        profile = _sample_profile(alpha, d.n, steps, te, ctrl.decay_threshold)
    return _outcome(kind, te, ye, profile)


def shoot_profile(alpha: float, d: Dims,
                  ctrl: IntegrationControls = DEFAULT_CONTROLS,
                  ) -> tuple[ShotOutcome, RadialProfile]:
    """Classify a shot and also return its truncated profile.

    Unlike integrate_shot, the profile is produced for every outcome, so a
    near-critical shot that eventually crosses or turns still yields its
    usable pre-divergence part. Requires alpha > 1.
    """
    if alpha <= 1.0:
        raise ValueError("profiles only exist for alpha > 1")
    kind, te, ye, steps = _integrate(alpha, d, ctrl)
    profile = _sample_profile(alpha, d.n, steps, te, ctrl.decay_threshold)
    return _outcome(kind, te, ye, profile), profile
