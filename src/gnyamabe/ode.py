"""Radial ground-state ODE: adaptive integration and shot classification.

The initial value problem is

    h'' + (n-1)/t h' - h + |h|^(q-1) h = 0,   h(0) = alpha > 0, h'(0) = 0,

with q = (k+2)/(k-2) for total dimension k = m + n. Each shot is classified
by where the trajectory first leaves the ground-state corridor: crossing
zero (initial value too large) or turning upward while 0 < h < 1 (too
small). Near the critical initial value a shot follows the decaying
ground state until its growing mode takes over, so it ends on one of the
two events, as every shot does: one that never crosses creeps towards
the equilibrium h = 1, turns underdamped once the damping (n-1)/t has
decayed, overshoots and turns up, below 1, since h'' = h - h^q < 0
wherever h' = 0 and h > 1. A shot runs until its first event.

A shot starts where the 24-term Taylor series of the regular solution
is exact to double precision, which spares the stepper the (n-1)/t
singularity; the outcome carries this series head, for the profile's
first nodes.

The integrator is DOP853, the 8th-order Dormand-Prince pair with its
combined 5th- and 3rd-order error estimate and its 7th-order continuous
extension (Hairer, Norsett & Wanner, Solving ODEs I, II.10); at the
shots' tolerance of 1e-11 it takes about a fifth of the steps of a
5th-order pair. Event times are located by bisection on the continuous
extension, whose three extra stages are evaluated only for the step
that holds an event and for the steps a profile or an orbit is sampled
from. A hand-rolled scalar stepper, with the right-hand side written
out in each stage, keeps a full shooting run of thousands of shots
within interactive time; the undamped circle-factor flow of `periodic`
runs on it too. Its step loop makes no builtin call and reads the
tableau from locals, with the doubles abs() would give. One routine,
`_dense`, builds the extension of a single stored step, for an event,
or of a column table of steps, for the samples: every step a profile
or an orbit is sampled from is extended in one array pass, with the
doubles a loop over the steps gives. Its stage sums run over its
coefficient table and add left to right, so the doubles do not depend
on the Python version.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import Dims

PROFILE_SPACING = 2.0 ** -7

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10): the 8th-order
# Dormand-Prince pair with its 5th- and 3rd-order error estimates. Stage i
# runs at t + C_i dt from h + dt sum_j A_ij K_j; stages 2-5 feed only the
# stages, stage 12 runs at t + dt, and stage 13 is the slope at the new
# point, which starts the next step (first-same-as-last).
_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571)
_A21 = 0.05260015195876773
_A31, _A32 = 0.0197250569845379, 0.0591751709536137
_A41, _A43 = 0.02958758547680685, 0.08876275643042054
_A51, _A53, _A54 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A61, _A64, _A65 = (0.037037037037037035, 0.17082860872947386,
                    0.12546768756682242)
_A71, _A74, _A75, _A76 = (0.037109375, 0.17025221101954405,
                          0.06021653898045596, -0.017578125)
_A81, _A84, _A85, _A86, _A87 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023)
_A91, _A94, _A95, _A96, _A97, _A98 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196)
(_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10,
 _A12_11) = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259)
# 5th-order error weights; the 3rd-order estimate is the 8th-order
# increment less _BHH1 K1 + _BHH9 K9 + _BHH12 K12
_E1, _E6, _E7, _E8, _E9, _E10, _E11, _E12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294)
_BHH1, _BHH9, _BHH12 = (0.2440944881889764, 0.7338466882816118,
                        0.022058823529411766)
# the 7th-order continuous extension: stages 14-16 as (C_i, A_ij over the
# stored slopes K1, K6, K7, ..., K_(i-1)), then the four D rows over K1,
# K6, ..., K16
_DENSE_STAGES = (
    (0.1, (0.056167502283047954, 0.0, 0.25350021021662483,
           -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
           0.00820105229563469, 0.007567897660545699, -0.008298)),
    (0.2, (0.03183464816350214, 0.028300909672366776, 0.053541988307438566,
           -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
           0.0003825710908356584, -0.00034046500868740456,
           0.1413124436746325)),
    (0.7777777777777778, (
        -0.42889630158379194, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
        -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)),
)
_D = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)

_EVENT_LOCATION_TOL = 1e-10

# every shot steps at the tolerances _RTOL and _ATOL until its first
# event. A shot starts where the last two of the _HEAD_TERMS terms of its
# series head are below _HEAD_TOL alpha. h falling below _DECAY_THRESHOLD
# bounds its stored profile
_RTOL = 1e-11
_ATOL = 1e-13
_HEAD_TERMS = 24
_HEAD_TOL = 1e-17
_DECAY_THRESHOLD = 1e-6


class IntegrationFailure(RuntimeError):
    """A step underflow, an overflow, or a search that missed alpha0."""


@dataclass
class RadialProfile:
    """A sampled radial function h(t) with the samples dhs of h' and d2hs
    of h'' at its nodes ts, from h(0) = hs[0] with h'(0) = 0. A solver
    profile's h'' is the ODE's own at each node (`_sample_profile`); any
    other profile carries the h'' of the function it samples, as the
    quadrature interpolates all three.

    With `tail` set, the profile extends beyond its last node as

        h(t) = h(t_c) exp(-(t - t_c)) (t_c / t)^((n-1)/2),  t > t_c,

    the decay at rate 1 of the linearized far field
    h'' + (n-1)/t h' - h = 0; quadrature uses it to close the domain.
    """

    ts: np.ndarray
    hs: np.ndarray
    dhs: np.ndarray
    d2hs: np.ndarray
    n: int
    tail: bool = False

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.hs = np.asarray(self.hs, dtype=float)
        self.dhs = np.asarray(self.dhs, dtype=float)
        self.d2hs = np.asarray(self.d2hs, dtype=float)
        if not (self.ts.shape == self.hs.shape == self.dhs.shape
                == self.d2hs.shape):
            raise ValueError("ts, hs, dhs, d2hs must have matching shapes")
        if self.ts.size < 2:
            raise ValueError("a profile needs at least two nodes")
        if self.ts[0] != 0.0:
            raise ValueError("profile grid must start at t = 0")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("profile grid must be strictly increasing")
        if self.dhs[0] != 0.0:
            raise ValueError("profile must carry h'(0) = 0")
        if self.n < 1:
            raise ValueError("radial dimension must be >= 1")


@dataclass(frozen=True)
class CrossedZero:
    """The shot reached h = 0 while decreasing: initial value too large.
    `t_event` is the time of the crossing and `dh_cross` the slope
    h' < 0 there; the shot's profile is sampled from its series `head`
    and its accepted `steps`."""

    t_event: float
    dh_cross: float
    steps: list = field(default=(), repr=False, compare=False)
    head: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class TurnedUp:
    """h' reached 0 from below with 0 < h < 1: initial value too small.
    `t_event` is the time of the turn and `h_at_turn` the value of h
    there; `head` and `steps` as for CrossedZero, and alpha <= 1 has
    neither."""

    t_event: float
    h_at_turn: float
    steps: list = field(default=(), repr=False, compare=False)
    head: tuple | None = field(default=None, repr=False, compare=False)


ShotOutcome = CrossedZero | TurnedUp


def rhs(t: float, h: float, dh: float, d: Dims) -> tuple[float, float]:
    """Right-hand side (h', h'') of the radial system at t > 0.

    The nonlinearity is odd-extended as |h|^(q-1) h so trajectories stay
    defined after a zero crossing. The DOP853 stages of `_dp_steps` and
    `_dense` evaluate the same expression inline with c1 = c2 = 1, which
    gives the same doubles.
    """
    if t <= 0.0:
        raise ValueError("rhs is singular at t = 0")
    nm1 = float(d.n - 1)
    qm1 = d.q - 1.0
    return dh, -(nm1 / t) * dh + h - abs(h) ** qm1 * h


@lru_cache(maxsize=None)
def _miller_factors(q: float) -> tuple:
    """Per j = 2.._HEAD_TERMS, the factors ((q+1) i - (j-1)), i = 1..j-1,
    of Miller's recurrence for v_(j-1) in `_series_head`."""
    return tuple(tuple((q + 1.0) * i - (j - 1) for i in range(1, j))
                 for j in range(2, _HEAD_TERMS + 1))


def _series_head(alpha: float, d: Dims) -> tuple:
    """The Taylor series of the regular solution from h(0) = alpha > 1 as
    (t0, alpha, w, ch, cd) for `_head_eval`, exact to double precision up
    to t0. In s = t^2, h = sum a_j s^j has 2j (2j + n - 2) a_j = a_(j-1)
    - u_(j-1), with u = h^q by Miller's recurrence u_j = sum_(i=1..j)
    ((q+1) i - j) a_i u_(j-i) / (j a_0). It runs on b_j = a_j / (alpha
    w^j), w = alpha^(q-1), bounded for every alpha; ch holds alpha b_j and
    cd 2 alpha w j b_j (j >= 1). t0 <= 1 is the largest t where each of
    the last two terms is below _HEAD_TOL alpha. Sums add left to
    right, so the doubles do not depend on the Python version."""
    q, w = d.q, alpha ** (d.q - 1.0)
    # b_1 = (1/w - 1) / (2n) by expm1: 1/w - 1 cancels as alpha nears 1
    b = [1.0, math.expm1((1.0 - q) * math.log(alpha)) / (2 * d.n)]
    v = [1.0]  # the coefficients of (h / alpha)^q in x
    for j, factors in enumerate(_miller_factors(q), 2):
        acc = 0.0  # v_(j-1) by Miller's recurrence, from b_1..b_(j-1)
        for f, b_i, v_ji in zip(factors, b[1:], reversed(v)):
            acc += f * b_i * v_ji
        v.append(acc / (j - 1))
        b.append((b[j - 1] / w - v[j - 1]) / (2 * j * (2 * j + d.n - 2)))
    x0 = w
    for j in (_HEAD_TERMS - 1, _HEAD_TERMS):
        if b[j]:
            x0 = min(x0, (_HEAD_TOL / abs(b[j])) ** (1.0 / j))
    return (math.sqrt(x0 / w), alpha, w, tuple(alpha * c for c in b[1:]),
            tuple(2.0 * alpha * w * j * b[j] for j in range(1, len(b))))


def _head_eval(head, t):
    """(h, h') of the series head from `_series_head` at t, a float or an
    array of times (by Horner; both give the same doubles)."""
    _, alpha, w, ch, cd = head
    x = w * (t * t)
    ph, pd = ch[-1], cd[-1]
    for a, c in zip(ch[-2::-1], cd[-2::-1]):
        ph = ph * x + a
        pd = pd * x + c
    return alpha + x * ph, t * pd


def _dense(step):
    """The 7th-order continuous extension of a stored step of `_dp_steps`,
    as (t_old, dt, h_old, h'_old, seven h-coefficients F0..F6, seven
    h'-coefficients) for `_dense_eval`. Its three extra stages are
    evaluated here.

    `step` is one stored step of floats (an event), or the same fields as
    rows of equal-length arrays, one column per step, with one shared flow
    (`_sample_steps`): each column is computed on its own, so one array
    pass gives the doubles a loop over the steps does. Every stage sum
    runs over its row of `_DENSE_STAGES` or `_D` and adds left to right,
    for floats and arrays alike, so the doubles do not depend on the
    Python version (sum() of floats is compensated from Python 3.12 on),
    and |y|^qm1 is libm's pow, as in the stepper, for arrays too."""
    t, dt, h, dh, hn, dhn = step[:6]
    nm1, c1, c2, qm1 = step[23]
    power = pow if isinstance(h, float) else _libm_power
    kh = [*step[6:14], dhn]  # K1, K6..K13 of each component; K13 of h is h'
    kd = list(step[14:23])
    for c, row in _DENSE_STAGES:
        sh, sd = _row_sums(row, kh, kd)
        y = h + dt * sh
        kh.append(dh + dt * sd)
        kd.append(-(nm1 / (t + c * dt)) * kh[-1] + c1 * y
                  - c2 * power(abs(y), qm1) * y)
    fh, fd = [], []
    for old, new, k, f in ((h, hn, kh, fh), (dh, dhn, kd, fd)):
        rise = new - old  # F0..F2 from the end values and slopes K1, K13
        f += [rise, dt * k[0] - rise, 2.0 * rise - dt * (k[8] + k[0])]
    for row in _D:  # F3..F6
        sh, sd = _row_sums(row, kh, kd)
        fh.append(dt * sh)
        fd.append(dt * sd)
    return (t, dt, h, dh, *fh, *fd)


def _row_sums(row, kh, kd):
    """(row . kh, row . kd), each added left to right."""
    terms = zip(row, kh, kd)
    a, xh, xd = next(terms)
    sh, sd = a * xh, a * xd
    for a, xh, xd in terms:
        sh += a * xh
        sd += a * xd
    return sh, sd


def _libm_power(a, e):
    """a ** e elementwise by libm's pow, as Python floats take it: numpy's
    vectorized power may differ from it in the last bit."""
    return np.array([x ** e for x in a.tolist()])


def _extension(y, f, theta):
    """One component y_old + theta (F0 + (1 - theta) (F1 + theta (F2
    + ... F6))) of a continuous extension with coefficients f = F0..F6."""
    rest = 1.0 - theta
    acc = f[6] * theta
    acc = (acc + f[5]) * rest
    acc = (acc + f[4]) * theta
    acc = (acc + f[3]) * rest
    acc = (acc + f[2]) * theta
    acc = (acc + f[1]) * rest
    return y + (acc + f[0]) * theta


def _dense_eval(dense, theta):
    """(h, h') at theta in [0, 1] of a continuous extension from `_dense`.

    `dense` is one extension with a scalar theta, or the same eighteen
    fields as rows of equal-length arrays with an array theta, one column
    per evaluation; both give the same doubles."""
    return (_extension(dense[2], dense[4:11], theta),
            _extension(dense[3], dense[11:18], theta))


def _locate(dense, component):
    """Bisect the continuous extension for the zero of `component`, to
    1e-10 in t; the step enters from the side of its start value."""
    dt = dense[1]
    y = dense[2 + component]
    f = dense[4 + 7 * component:11 + 7 * component]
    negative = y < 0.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        if (hi - lo) * dt <= _EVENT_LOCATION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if (_extension(y, f, mid) < 0.0) == negative:  # the entry side
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _step_control(e5, e3, dt, rejected):
    """(err, factor) for a step of size dt whose 5th- and 3rd-order local
    error estimates, each divided by its tolerance scale, have the squared
    sums e5 and e3 over the two components. err = dt e5 / sqrt(2 (e5 +
    e3 / 100)) is the DOP853 error norm, and the step is accepted when
    err <= 1. factor multiplies the step size next: 0.9 err^(-1/8)
    clamped to [0.2, 10], and at most 1 right after a rejection; a NaN
    err gives 0.2."""
    err = dt * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3)) if e5 or e3 else 0.0
    factor = 0.9 * err ** -0.125 if err else 10.0
    if not factor > 0.2:  # NaN too
        return err, 0.2
    top = 1.0 if rejected else 10.0
    return err, top if factor > top else factor


def _dp_steps(t, h, dh, dt, t_end, nm1, c1, c2, qm1, rtol, atol):
    """Yield the accepted DOP853 steps of h'' = -(nm1/t) h' + c1 h
    - c2 |h|^qm1 h from (h, h') at time t to t_end, first trying step dt,
    at tolerances rtol and atol. A step is stored as (t_old, dt, h, h',
    h_new, h'_new, the h-slopes K1, K6..K12, the h'-slopes K1, K6..K13,
    flow) with flow = (nm1, c1, c2, qm1): all that `_dense` needs. The
    h-slope of K13 is h'_new. Raises IntegrationFailure when the step
    size falls below 1e-13.

    With c1 = c2 = 1 each stage is the double rhs() gives, and with
    nm1 = 0 the damping term adds an exact zero; only an undamped flow
    may start at t = 0.

    The loop makes no builtin call and reads the tableau from locals bound
    once per call: |y| and max are comparisons, which give the doubles of
    abs() and max() (a -0.0 that stays negative in a tolerance scale adds
    nothing to atol > 0)."""
    (C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, A21, A31, A32, A41, A43, A51,
     A53, A54, A61, A64, A65, A71, A74, A75, A76, A81, A84, A85, A86, A87, A91,
     A94, A95, A96, A97, A98, A10_1, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9,
     A11_1, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10, A12_1, A12_4,
     A12_5, A12_6, A12_7, A12_8, A12_9, A12_10, A12_11, B1, B6, B7, B8, B9,
     B10, B11, B12, BHH1, BHH9, BHH12, E1, E6, E7, E8, E9, E10, E11, E12) = (
        _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _A21, _A31, _A32,
        _A41, _A43, _A51, _A53, _A54, _A61, _A64, _A65, _A71, _A74, _A75, _A76,
        _A81, _A84, _A85, _A86, _A87, _A91, _A94, _A95, _A96, _A97, _A98,
        _A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9, _A11_1, _A11_4,
        _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10, _A12_1, _A12_4,
        _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11, _B1, _B6,
        _B7, _B8, _B9, _B10, _B11, _B12, _BHH1, _BHH9, _BHH12, _E1, _E6, _E7,
        _E8, _E9, _E10, _E11, _E12)
    flow = (nm1, c1, c2, qm1)
    damping = -(nm1 / t) * dh if t else 0.0
    f1d = damping + c1 * h - c2 * abs(h) ** qm1 * h
    rejected = False
    while t < t_end:
        if dt < 1e-13:
            raise IntegrationFailure(f"step underflow at t={t:.6g}")
        if t + dt > t_end:
            dt = t_end - t

        k1h, k1d = dh, f1d
        y = h + dt * A21 * k1h
        k2h = dh + dt * A21 * k1d
        k2d = -(nm1 / (t + C2 * dt)) * k2h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A31 * k1h + A32 * k2h)
        k3h = dh + dt * (A31 * k1d + A32 * k2d)
        k3d = -(nm1 / (t + C3 * dt)) * k3h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A41 * k1h + A43 * k3h)
        k4h = dh + dt * (A41 * k1d + A43 * k3d)
        k4d = -(nm1 / (t + C4 * dt)) * k4h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A51 * k1h + A53 * k3h + A54 * k4h)
        k5h = dh + dt * (A51 * k1d + A53 * k3d + A54 * k4d)
        k5d = -(nm1 / (t + C5 * dt)) * k5h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A61 * k1h + A64 * k4h + A65 * k5h)
        k6h = dh + dt * (A61 * k1d + A64 * k4d + A65 * k5d)
        k6d = -(nm1 / (t + C6 * dt)) * k6h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A71 * k1h + A74 * k4h + A75 * k5h + A76 * k6h)
        k7h = dh + dt * (A71 * k1d + A74 * k4d + A75 * k5d + A76 * k6d)
        k7d = -(nm1 / (t + C7 * dt)) * k7h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A81 * k1h + A84 * k4h + A85 * k5h + A86 * k6h
                      + A87 * k7h)
        k8h = dh + dt * (A81 * k1d + A84 * k4d + A85 * k5d + A86 * k6d
                         + A87 * k7d)
        k8d = -(nm1 / (t + C8 * dt)) * k8h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A91 * k1h + A94 * k4h + A95 * k5h + A96 * k6h
                      + A97 * k7h + A98 * k8h)
        k9h = dh + dt * (A91 * k1d + A94 * k4d + A95 * k5d + A96 * k6d
                         + A97 * k7d + A98 * k8d)
        k9d = -(nm1 / (t + C9 * dt)) * k9h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A10_1 * k1h + A10_4 * k4h + A10_5 * k5h
                      + A10_6 * k6h + A10_7 * k7h + A10_8 * k8h
                      + A10_9 * k9h)
        k10h = dh + dt * (A10_1 * k1d + A10_4 * k4d + A10_5 * k5d
                          + A10_6 * k6d + A10_7 * k7d + A10_8 * k8d
                          + A10_9 * k9d)
        k10d = -(nm1 / (t + C10 * dt)) * k10h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        y = h + dt * (A11_1 * k1h + A11_4 * k4h + A11_5 * k5h
                      + A11_6 * k6h + A11_7 * k7h + A11_8 * k8h
                      + A11_9 * k9h + A11_10 * k10h)
        k11h = dh + dt * (A11_1 * k1d + A11_4 * k4d + A11_5 * k5d
                          + A11_6 * k6d + A11_7 * k7d + A11_8 * k8d
                          + A11_9 * k9d + A11_10 * k10d)
        k11d = -(nm1 / (t + C11 * dt)) * k11h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y
        t_new = t + dt
        y = h + dt * (A12_1 * k1h + A12_4 * k4h + A12_5 * k5h
                      + A12_6 * k6h + A12_7 * k7h + A12_8 * k8h
                      + A12_9 * k9h + A12_10 * k10h + A12_11 * k11h)
        k12h = dh + dt * (A12_1 * k1d + A12_4 * k4d + A12_5 * k5d
                          + A12_6 * k6d + A12_7 * k7d + A12_8 * k8d
                          + A12_9 * k9d + A12_10 * k10d + A12_11 * k11d)
        k12d = -(nm1 / t_new) * k12h + c1 * y - c2 * (
            y if y > 0.0 else -y if y < 0.0 else 0.0) ** qm1 * y

        inc_h = (B1 * k1h + B6 * k6h + B7 * k7h + B8 * k8h + B9 * k9h
                 + B10 * k10h + B11 * k11h + B12 * k12h)
        inc_d = (B1 * k1d + B6 * k6d + B7 * k7d + B8 * k8d + B9 * k9d
                 + B10 * k10d + B11 * k11d + B12 * k12d)
        hn = h + dt * inc_h
        dhn = dh + dt * inc_d
        sh, shn = (-h if h < 0.0 else h), (-hn if hn < 0.0 else hn)
        sc_h = atol + rtol * (shn if shn > sh else sh)
        sd, sdn = (-dh if dh < 0.0 else dh), (-dhn if dhn < 0.0 else dhn)
        sc_d = atol + rtol * (sdn if sdn > sd else sd)
        e5h = (E1 * k1h + E6 * k6h + E7 * k7h + E8 * k8h + E9 * k9h
               + E10 * k10h + E11 * k11h + E12 * k12h) / sc_h
        e5d = (E1 * k1d + E6 * k6d + E7 * k7d + E8 * k8d + E9 * k9d
               + E10 * k10d + E11 * k11d + E12 * k12d) / sc_d
        e3h = (inc_h - BHH1 * k1h - BHH9 * k9h - BHH12 * k12h) / sc_h
        e3d = (inc_d - BHH1 * k1d - BHH9 * k9d - BHH12 * k12d) / sc_d
        err, factor = _step_control(e5h * e5h + e5d * e5d,
                                    e3h * e3h + e3d * e3d, dt, rejected)
        if err > 1.0:
            dt *= factor
            rejected = True
            continue

        k13d = -(nm1 / t_new) * dhn + c1 * hn - c2 * (
            hn if hn > 0.0 else -hn if hn < 0.0 else 0.0) ** qm1 * hn
        yield (t, dt, h, dh, hn, dhn,
               k1h, k6h, k7h, k8h, k9h, k10h, k11h, k12h,
               k1d, k6d, k7d, k8d, k9d, k10d, k11d, k12d, k13d, flow)
        t = t_new
        h, dh = hn, dhn
        f1d = k13d  # first-same-as-last
        dt *= factor
        rejected = False


def _integrate(alpha: float, d: Dims):
    """Core shot integration for alpha > 1, at _RTOL and _ATOL.

    Returns the CrossedZero or TurnedUp of the first event, carrying the
    series head and every accepted step of `_dp_steps` from its t0; the
    steps run on until that event, which every shot from alpha > 1 meets.
    Raises IntegrationFailure when alpha^(q-1) overflows, when the head
    does not descend at t0 (h > 0 > h', so no event lies in it), on step
    underflow or when t overflows before an event.
    """
    try:
        head = _series_head(alpha, d)
    except OverflowError:
        raise IntegrationFailure(
            f"alpha^(q-1) overflows (alpha={alpha!r})") from None
    t = head[0]
    h, dh = _head_eval(head, t)
    if not (h > 0.0 and dh < 0.0):
        raise IntegrationFailure(
            f"series head (h, h')({t:.6g}) = ({h:.6g}, {dh:.6g}) does not "
            f"descend (alpha={alpha!r})")
    steps = []
    try:
        for step in _dp_steps(t, h, dh, 0.5 * t, math.inf, float(d.n - 1),
                              1.0, 1.0, d.q - 1.0, _RTOL, _ATOL):
            steps.append(step)
            hn, dhn = step[4], step[5]
            if hn > 0.0 and dhn < 0.0:
                continue  # no event can lie in this step
            t, dt, h, dh = step[:4]

            # the components that reach 0 in this step: h falling (a
            # crossing) and h' rising (a turn); the earlier event wins
            events = []
            if h > 0.0 >= hn:
                events.append(0)
            if dh < 0.0 <= dhn:
                events.append(1)
            if not events:
                continue
            dense = _dense(step)
            theta, comp = min((_locate(dense, c), c) for c in events)
            he, dhe = _dense_eval(dense, theta)
            if comp == 0:
                return CrossedZero(t + theta * dt, dhe, steps, head)
            return TurnedUp(t + theta * dt, he, steps, head)
    except IntegrationFailure as exc:
        raise IntegrationFailure(f"{exc} (alpha={alpha!r})") from exc
    raise IntegrationFailure(f"t overflows before an event (alpha={alpha!r})")


def _sample_steps(steps, ts):
    """(h, h') at the ascending times ts, in one array pass: each time is
    evaluated in the first step whose end t_old + dt reaches it, or in the
    last step if it lies beyond all of them. Every step gets its
    continuous extension, in one call of `_dense` on their column table."""
    ends = np.array([step[0] + step[1] for step in steps[:-1]])
    fields = itertools.chain.from_iterable(step[:23] for step in steps)
    table = np.fromiter(fields, float, 23 * len(steps)).reshape(-1, 23).T
    dense = np.array(_dense((*table, steps[0][23])))
    dense = dense[:, np.searchsorted(ends, ts)]
    return _dense_eval(dense, (ts - dense[0]) / dense[1])


def _sample_profile(alpha, d, head, steps, t_stop):
    """Sample the dense output on a uniform grid and truncate the tail.

    The grid nodes j * PROFILE_SPACING up to t_stop and the end of the
    last step are evaluated by `_head_eval` up to the head's t0, if any,
    and by `_sample_steps` after it: first up to the end of the first
    step that ends with h below the decay threshold or h' >= 0, and past
    it, while no node up to there is cut, one step that holds a node at
    a time. The grid is cut at the first node with h below the decay
    threshold (that node is kept) or with h' >= 0 (that node is dropped),
    whichever comes first, keeping at least two nodes; past the cut the
    stored shot has diverged from the true ground state and carries no
    information. Each kept node carries
    the ODE's own h'' = -(n-1)/t h' + h - |h|^(q-1) h there, and (alpha
    - alpha^q)/n at t = 0. A shot that ends before the first node has no
    profile: IntegrationFailure.
    """
    last = steps[-1]
    count = int(min(t_stop, last[0] + last[1]) / PROFILE_SPACING)
    if count < 1:
        raise IntegrationFailure(
            f"shot (alpha={alpha!r}) ended at t={t_stop:.6g}, before the "
            f"first profile node t={PROFILE_SPACING:g}")
    tq = np.arange(1, count + 1) * PROFILE_SPACING
    split = 0 if head is None else int(np.searchsorted(tq, head[0], "right"))
    last_k = len(steps) - 1

    def reach(k):
        # the nodes up to the end of step k, all of them at the last step
        if k == last_k:
            return count
        return max(int(np.searchsorted(tq, steps[k][0] + steps[k][1],
                                       "right")), split)

    # the nodes up to the end of the first step that ends past the cut
    # usually hold the cut; if they do not, the sampler steps on to the
    # next step that holds a node, until one is cut
    k = next((j for j, step in enumerate(steps)
              if step[4] < _DECAY_THRESHOLD or step[5] >= 0.0), last_k)
    mid = reach(k)
    hq, dhq = _sample_steps(steps[:k + 1], tq[split:mid])
    if split:
        ha, dha = _head_eval(head, tq[:split])
        hq, dhq = np.concatenate((ha, hq)), np.concatenate((dha, dhq))
    while mid < count and not ((hq < _DECAY_THRESHOLD) | (dhq >= 0.0)).any():
        k += 1
        while k < last_k and steps[k][0] + steps[k][1] < tq[mid]:
            k += 1
        # node mid lies past the end of step k - 1, so every node up to
        # the end of step k is step k's, as in the whole shot
        nxt = reach(k)
        hr, dhr = _sample_steps(steps[k:k + 1], tq[mid:nxt])
        hq, dhq = np.concatenate((hq, hr)), np.concatenate((dhq, dhr))
        mid = nxt
    below = hq < _DECAY_THRESHOLD
    stop = below | (dhq >= 0.0)
    cut = count
    if stop.any():
        i = int(stop.argmax())
        cut = i + 1 if below[i] else i
    cut = max(cut, 1)
    ts = np.concatenate(([0.0], tq[:cut]))
    hs = np.concatenate(([alpha], hq[:cut]))
    dhs = np.concatenate(([0.0], dhq[:cut]))
    with np.errstate(over="ignore", invalid="ignore"):
        d2hs = hs - np.abs(hs) ** (d.q - 1.0) * hs
        d2hs[0] /= d.n
        d2hs[1:] -= (d.n - 1) / ts[1:] * dhs[1:]
    return RadialProfile(ts, hs, dhs, d2hs, d.n,
                         tail=bool(0.0 < hs[-1] <= 100.0 * _DECAY_THRESHOLD))


def integrate_shot(alpha: float, d: Dims) -> ShotOutcome:
    """Integrate one shot from h(0) = alpha and classify it.

    The outcome carries the shot's accepted steps, so its profile can be
    sampled without shooting again. alpha <= 1 cannot produce a decaying
    ground state (h''(0) >= 0 there) and short-circuits to TurnedUp
    without integration.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if alpha <= 1.0:
        return TurnedUp(0.0, alpha)
    return _integrate(alpha, d)


def shoot_profile(alpha: float,
                  d: Dims) -> tuple[ShotOutcome, RadialProfile]:
    """Classify a shot and also return its truncated profile, so that a
    near-critical shot yields its usable pre-divergence part. Requires
    alpha > 1.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError(
            f"profiles only exist for finite alpha > 1, got {alpha!r}")
    outcome = _integrate(alpha, d)
    return outcome, _sample_profile(alpha, d, outcome.head, outcome.steps,
                                    outcome.t_event)
