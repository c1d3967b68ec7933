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
the dense step. A hand-rolled scalar stepper, with the right-hand side
written out in each stage, keeps a full shooting run of thousands of
shots within interactive time; the undamped circle-factor flow of
`periodic` runs on it too. The dense output takes a scalar or
equal-length arrays, so stored steps are sampled in one array pass.
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

# a shot starts from the series expansion at _T_START; h falling below
# _DECAY_THRESHOLD is its decay event and bounds its stored profile
_T_START = 1e-4
_DECAY_THRESHOLD = 1e-6


class IntegrationFailure(RuntimeError):
    """Step-size underflow or an unclassifiable trajectory."""


@dataclass(frozen=True)
class IntegrationControls:
    """Tolerances and horizons for one shot."""

    t_max: float = 50.0
    rtol: float = 1e-11
    atol: float = 1e-13

    def __post_init__(self):
        for name in ("t_max", "rtol", "atol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t_max <= _T_START:
            raise ValueError(f"t_max must exceed the start time {_T_START:g}")
        if self.rtol < 1e-13 or self.atol <= 0.0:
            raise ValueError("tolerances too tight for double precision")

    def tightened(self, factor: float) -> "IntegrationControls":
        """Same controls with both tolerances divided by `factor`."""
        return IntegrationControls(self.t_max, self.rtol / factor,
                                   self.atol / factor)


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
    defined after a zero crossing. `_dp_steps` evaluates the same
    expression inline with c1 = c2 = 1, which gives the same doubles.
    """
    if t <= 0.0:
        raise ValueError("rhs is singular at t = 0; use series_start")
    nm1 = float(d.n - 1)
    qm1 = d.q - 1.0
    return dh, -(nm1 / t) * dh + h - abs(h) ** qm1 * h


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
    """Evaluate the quartic interpolant of accepted steps at theta.

    `step` is one stored step (t_old, dt, h_old, dh_old, six h-slopes, six
    h'-slopes) with a scalar theta, or the same sixteen fields as rows of
    equal-length arrays with an array theta, one column per evaluation;
    both give the same doubles.
    """
    dt, h, dh = step[1], step[2], step[3]
    th2 = theta * theta
    th3 = th2 * theta
    th4 = th3 * theta
    for i in range(6):
        p = _P[i]
        w = p[0] * theta + p[1] * th2 + p[2] * th3 + p[3] * th4
        h = h + dt * w * step[4 + i]
        dh = dh + dt * w * step[10 + i]
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


def _step_control(err_a, sc_a, err_b, sc_b, rejected):
    """(err, factor) for a two-component step with local errors err_a,
    err_b and tolerance scales sc_a, sc_b: err is their RMS ratio, the
    step is accepted when err <= 1, and factor multiplies the step size
    next, shrinking at most 5x after a rejection and growing at most 10x
    after an acceptance, not at all right after a rejection."""
    err = math.sqrt(0.5 * ((err_a / sc_a) ** 2 + (err_b / sc_b) ** 2))
    if err > 1.0:
        return err, max(0.2, 0.9 * err ** -0.2)
    factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
    return err, min(1.0, factor) if rejected else factor


def _dp_steps(t, h, dh, dt, t_end, nm1, c1, c2, qm1, rtol, atol):
    """Yield the accepted Dormand-Prince 5(4) steps of h'' = -(nm1/t) h'
    + c1 h - c2 |h|^qm1 h from (h, h') at time t to t_end, first trying
    step dt, at tolerances rtol and atol, as (t_old, dt, h, h', six
    h-slopes, six h'-slopes, h_new); the last h-slope is h' at the end.
    Raises IntegrationFailure when the step size falls below 1e-13.

    With c1 = c2 = 1 each stage is the double rhs() gives, and with
    nm1 = 0 the damping term adds an exact zero; only an undamped flow
    may start at t = 0."""
    damping = -(nm1 / t) * dh if t else 0.0
    f1d = damping + c1 * h - c2 * abs(h) ** qm1 * h
    rejected = False
    while t < t_end:
        if dt < 1e-13:
            raise IntegrationFailure(f"step underflow at t={t:.6g}")
        if t + dt > t_end:
            dt = t_end - t

        k1h, k1d = dh, f1d
        y = h + dt * _A21 * k1h
        k2h = dh + dt * _A21 * k1d
        k2d = -(nm1 / (t + _C2 * dt)) * k2h + c1 * y - c2 * abs(y) ** qm1 * y
        y = h + dt * (_A31 * k1h + _A32 * k2h)
        k3h = dh + dt * (_A31 * k1d + _A32 * k2d)
        k3d = -(nm1 / (t + _C3 * dt)) * k3h + c1 * y - c2 * abs(y) ** qm1 * y
        y = h + dt * (_A41 * k1h + _A42 * k2h + _A43 * k3h)
        k4h = dh + dt * (_A41 * k1d + _A42 * k2d + _A43 * k3d)
        k4d = -(nm1 / (t + _C4 * dt)) * k4h + c1 * y - c2 * abs(y) ** qm1 * y
        y = h + dt * (_A51 * k1h + _A52 * k2h + _A53 * k3h + _A54 * k4h)
        k5h = dh + dt * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
        k5d = -(nm1 / (t + _C5 * dt)) * k5h + c1 * y - c2 * abs(y) ** qm1 * y
        t_new = t + dt
        y = h + dt * (_A61 * k1h + _A62 * k2h + _A63 * k3h + _A64 * k4h
                      + _A65 * k5h)
        k6h = dh + dt * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d
                         + _A65 * k5d)
        k6d = -(nm1 / t_new) * k6h + c1 * y - c2 * abs(y) ** qm1 * y
        hn = h + dt * (_B1 * k1h + _B3 * k3h + _B4 * k4h + _B5 * k5h
                       + _B6 * k6h)
        dhn = dh + dt * (_B1 * k1d + _B3 * k3d + _B4 * k4d + _B5 * k5d
                         + _B6 * k6d)
        k7d = -(nm1 / t_new) * dhn + c1 * hn - c2 * abs(hn) ** qm1 * hn

        err_h = dt * (_E1 * k1h + _E3 * k3h + _E4 * k4h + _E5 * k5h
                      + _E6 * k6h + _E7 * dhn)
        err_d = dt * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d
                      + _E6 * k6d + _E7 * k7d)
        sc_h = atol + rtol * max(abs(h), abs(hn))
        sc_d = atol + rtol * max(abs(dh), abs(dhn))
        err, factor = _step_control(err_h, sc_h, err_d, sc_d, rejected)
        if err > 1.0:
            dt *= factor
            rejected = True
            continue

        yield (t, dt, h, dh, k1h, k3h, k4h, k5h, k6h, dhn,
               k1d, k3d, k4d, k5d, k6d, k7d, hn)
        t = t_new
        h, dh = hn, dhn
        f1d = k7d  # first-same-as-last
        dt *= factor
        rejected = False


def _integrate(alpha: float, d: Dims, ctrl: IntegrationControls):
    """Core shot integration for alpha > 1.

    Returns (kind, t_event, y_event, steps) with kind one of "crossed",
    "turned", "candidate", y_event the value of h at the event except for a
    crossing, where h = 0 and y_event is the slope h' there instead, and
    steps every accepted step of `_dp_steps`. Raises IntegrationFailure
    when the series start is not positive (alpha too large for _T_START),
    on step underflow or on an unclassifiable endpoint.
    """
    nm1 = float(d.n - 1)
    thresh = _DECAY_THRESHOLD
    t = _T_START
    h, dh = series_start(alpha, t, d)
    if not h > 0.0:
        raise IntegrationFailure(
            f"series start h({t:g}) = {h:.6g} is not positive: "
            f"alpha={alpha!r} is too large to start at t={t:g}")
    steps = []
    try:
        for step in _dp_steps(t, h, dh, 1e-3, ctrl.t_max, nm1, 1.0, 1.0,
                              d.q - 1.0, ctrl.rtol, ctrl.atol):
            steps.append(step)
            hn, dhn = step[16], step[9]
            if hn > thresh and dhn < 0.0:
                continue  # no event can lie in this step
            t, dt, h, dh = step[:4]

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
    except IntegrationFailure as exc:
        raise IntegrationFailure(f"{exc} (alpha={alpha!r})") from exc

    if 0.0 < hn < thresh and dhn < 0.0:
        return "candidate", ctrl.t_max, hn, steps
    raise IntegrationFailure(
        f"shot unclassified at t_max={ctrl.t_max:g}: "
        f"h={hn:.6g}, h'={dhn:.6g} (alpha={alpha!r})")


def _sample_steps(steps, ts):
    """(h, h') at the ascending times ts, in one array pass: each time is
    evaluated in the first step whose end t_old + dt reaches it, or in the
    last step if it lies beyond all of them."""
    table = np.array(steps)
    ends = table[:, 0] + table[:, 1]
    cols = table[np.minimum(np.searchsorted(ends, ts), len(table) - 1)].T
    return _dense_eval(cols, (ts - cols[0]) / cols[1])


def _sample_profile(alpha, n, steps, t_stop):
    """Sample the dense output on a uniform grid and truncate the tail.

    The grid nodes j * PROFILE_SPACING up to t_stop and the end of the
    last step are evaluated by `_sample_steps`. The grid is cut at the
    first node with h below the decay threshold (that node is kept) or
    with h' >= 0 (that node is dropped), whichever comes first, keeping
    at least two nodes; past the cut the stored shot has diverged from
    the true ground state and carries no information. A shot that ends
    before the first node has no profile: IntegrationFailure.
    """
    last = steps[-1]
    count = int(min(t_stop, last[0] + last[1]) / PROFILE_SPACING)
    if count < 1:
        raise IntegrationFailure(
            f"shot (alpha={alpha!r}) ended at t={t_stop:.6g}, before the "
            f"first profile node t={PROFILE_SPACING:g}")
    tq = np.arange(1, count + 1) * PROFILE_SPACING
    hq, dhq = _sample_steps(steps, tq)
    ts = np.concatenate(([0.0], tq))
    hs = np.concatenate(([alpha], hq))
    dhs = np.concatenate(([0.0], dhq))
    below = hq < _DECAY_THRESHOLD
    stop = below | (dhq >= 0.0)
    cut = ts.size
    if stop.any():
        i = int(stop.argmax())
        cut = i + 2 if below[i] else i + 1
    cut = max(cut, 2)
    h_end = hs[cut - 1]
    tail = 1.0 if 0.0 < h_end <= 100.0 * _DECAY_THRESHOLD else None
    return RadialProfile(ts[:cut], hs[:cut], dhs[:cut], alpha, n,
                         tail_rate=tail)


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
        profile = _sample_profile(alpha, d.n, steps, te)
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
    profile = _sample_profile(alpha, d.n, steps, te)
    return _outcome(kind, te, ye, profile), profile
