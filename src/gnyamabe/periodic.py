"""Periodic Yamabe solutions on a circle factor.

On the universal cover of (M^{n-1} x S^1, g + r^2 dtheta^2) the constant
scalar curvature equation for a function of the circle reduces to

    u'' - ((n-2)^2/4) u + (n(n-2)/4) u^((n+2)/(n-2)) = 0,

a Hamiltonian flow in the (u, u') phase plane whose closed orbits around
the positive equilibrium give the 2 pi r - periodic solutions; counting
solutions for a given circle radius reduces to comparing 2 pi r with the
period range.

An orbit is parametrized by its separatrix distance delta = 1 - u_max,
which keeps its precision where u_max itself rounds to 1. With V(u) =
c (u^P - u^2), c = (n-2)^2/8 and P = 2n/(n-2), the orbit's energy is
E = c (expm1(P log1p(-delta)) + 2 delta - delta^2), free of cancellation,
and its inner turning point u_min comes from Newton's method in log u.
The period integral is split at the equilibrium u_c:

- on [u_min, u_c] it substitutes u = u_min cosh w. Near the saddle u = 0
  the integrand tends to 1/lambda, lambda = (n-2)/2, so the time of order
  log(1/delta) spent there moves into the interval length
  acosh(u_c / u_min). Counted back from u_c, the interval is cut where
  (P - 2) times the distance is 4, 12 and 40; past 40 the integrand is
  1/lambda to double precision and is integrated exactly.
- on [u_c, u_max] it substitutes u = u_c + (u_max - u_c) sin(theta).

Each panel uses one 64-node Gauss-Legendre rule, stored as the doubles
numpy's `leggauss(64)` returns and built into arrays once per process,
and each gap E - V is an array of differences of like powers with exact
increments. Orbits within 2% of u_c, down to one ulp above it, use an
exactly factored series of the well instead. An evaluation works on
arrays of 64 to 256 nodes, so its cost is mostly per numpy call, not per
node: on one inner panel it makes 32 calls, chained in place on arrays
of its own, the two halves sharing one log1p, scaling and expm1 on a
stacked array and its constants held as 0-d arrays, which numpy applies
faster than Python floats. That is about 24 µs per evaluation on a
2-vCPU VM.

`orbit_for_period` inverts the map in log delta by the ground-state
search's safeguarded secant iteration, `shooting.Illinois`, on a bracket
of two neighbouring nodes of a table of 385 points from amplitude
_HARMONIC_END u_c, whose period the table holds as T_min itself, to
delta = _DELTA_FLOOR. The table is cached per dimension node by node:
a node's period is evaluated when a search first touches it, so a first
inversion evaluates about 16 periods where an eager table would take
385. Its first point comes from
the polynomial through the ten nodes around the target in y = sqrt(T -
T_min), in which log delta is smooth at the harmonic end (inverse
interpolation, as in Brent's method), evaluated by the barycentric
formula on weights cached per interval; after a miss, the second is one
Newton step on it. That takes 1.10 to 1.14 period evaluations per
inversion on the benchmark's sweep band, against 2.02 from a 97-point
table, 2.9 from six nodes of a 65-point table and 4.6 from the two
neighbours (1.07, 1.78, 2.3 and 2.8 from 1 + 1e-7 to 20 T_min). The
first point meets the target to 1e-15 in 90% of the sweep's inversions,
which then return at once: the search state is built only after a miss.
The misses are 1.1e-15 to about 1e-14 relative, the quadrature's own
rounding, so the count cannot fall further at that tolerance.

`circle_quotient` takes the integrals of u'^2, u^2 and u^P over one
period from the same nodes: each node's weight in the period sum is its
time element du / sqrt(2 (E - V)), and past the last inner break u^2 and
u'^2 integrate in closed form. It covers the whole window.

Everything here runs on numpy and the stdlib. The time integrations
behind `integrate_orbit` and `return_time`, which cross-check the
quadrature, step the flow with the radial shots' DOP853 stepper,
`ode._dp_steps`, without its damping term, and read it off its
continuous extension; they refuse orbits within _TIME_DELTA_FLOOR of the
separatrix, which they cannot follow past the saddle. The flow is
reversible, so `return_time` steps only half an orbit, to the inner
turning point, and doubles its time: it evaluates no period, and meets
the quadrature as closely as a whole orbit did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ode
from .geometry import surface_measure
from .shooting import Illinois

_ORBIT_RTOL = 1e-12
_ORBIT_ATOL = 1e-14


def _check_dim(n: int) -> None:
    if n < 3:
        raise ValueError(f"total dimension must be >= 3, got {n}")


def constant_solution(n: int) -> float:
    """The unique positive equilibrium u_c = ((n-2)/n)^((n-2)/4)."""
    _check_dim(n)
    return ((n - 2) / n) ** ((n - 2) / 4.0)


def potential(u: float, n: int) -> float:
    """Potential V(u) = ((n-2)^2/8) (u^(2n/(n-2)) - u^2), so the flow is
    u'' = -V'(u). V has a maximum 0 at u = 0, a well at u_c, and returns
    to 0 at u = 1 (the separatrix level)."""
    _check_dim(n)
    c = (n - 2) ** 2 / 8.0
    big = 2.0 * n / (n - 2)
    return c * (np.abs(u) ** big - u * u)


def hamiltonian(u, du, n: int):
    """Conserved energy u'^2/2 + V(u)."""
    return 0.5 * np.asarray(du) ** 2 + potential(np.asarray(u), n)


def minimal_period(n: int) -> float:
    """Infimum of the closed-orbit periods: the harmonic limit at the
    equilibrium, 2 pi / sqrt(V''(u_c)) with V''(u_c) = n - 2."""
    _check_dim(n)
    return 2.0 * math.pi / math.sqrt(n - 2.0)


# orbits with amplitude below this fraction of u_c use the series form of
# the well, which stays conditioned down to one ulp above u_c
_SERIES_AMPLITUDE = 0.02
_SERIES_TERMS = 16

# the period table's ends: the orbit of amplitude A = _HARMONIC_END u_c,
# whose period is T_min to 1.7 A^2 < 7e-18 relative, and the separatrix
# distance _DELTA_FLOOR, below which orbits are not searched
_HARMONIC_END = 2e-9
_DELTA_FLOOR = 1e-300

_NEWTON_STEPS = 60


@lru_cache(maxsize=None)
def _well_coefficients(n: int) -> tuple[float, ...]:
    """Taylor coefficients c_j = V^(j)(u_c)/j!, j = 2.., of the well.

    V(u) = c (u^P - u^2) with P = 2n/(n-2); only the j = 2 term sees the
    quadratic part. c_2 = (n-2)/2 recovers the harmonic frequency."""
    uc = constant_solution(n)
    c = (n - 2) ** 2 / 8.0
    big = 2.0 * n / (n - 2)
    coeffs = []
    falling = 1.0
    for i in range(2):
        falling *= big - i
    fact = 2.0
    for j in range(2, _SERIES_TERMS + 1):
        term = c * (falling / fact) * uc ** (big - j)
        if j == 2:
            term -= c
        coeffs.append(term)
        falling *= big - j
        fact *= j + 1
    return tuple(coeffs)


def _series_reduced(v, v_min: float, v_max: float, coeffs):
    """(S(v) - S(v_min)) / (v - v_min) for the chord slope S of the well,
    S(v) = (W(v_max) - W(v)) / (v_max - v) = sum_j c_j sigma_j(v) with
    sigma_j(v) = (v^j - v_max^j) / (v - v_max). At the inner turning point
    S(v_min) = 0, so E - V = (v_max - v) (v - v_min) times this reduced
    gap. Each divided difference D_j = (sigma_j(v) - sigma_j(v_min)) /
    (v - v_min) obeys D_j = v D_{j-1} + sigma_{j-1}(v_min), D_1 = 0: no
    term cancels, whatever is left of S(v_min) in rounding drops out, and
    the nodes next to the turning point stay clean. Works elementwise on
    an array of v: D_2 = 1 makes the first term c_2 itself and D_3 = v +
    sigma_2(v_min), and the rest of the recurrence runs in place."""
    vm_pow = v_max
    sigma_min = v_min + vm_pow  # sigma_2(v_min)
    dd = v + sigma_min
    total = coeffs[1] * dd
    total += coeffs[0]
    for cj in coeffs[2:]:
        vm_pow *= v_max
        sigma_min = sigma_min * v_min + vm_pow
        dd *= v
        dd += sigma_min
        total += cj * dd
    return total


def _series_slope_deriv(v: float, v_max: float, coeffs):
    """(S, dS/dv) in one pass for the chord slope S of `_series_reduced`;
    sigma_j = v sigma_{j-1} + v_max^{j-1}, and tau_j = sigma_j' obeys
    tau_{j+1} = sigma_j + v tau_j."""
    sigma = 1.0
    tau = 0.0
    vm_pow = 1.0
    s_val = 0.0
    d_val = 0.0
    for cj in coeffs:
        vm_pow *= v_max
        tau = sigma + v * tau
        sigma = sigma * v + vm_pow
        s_val += cj * sigma
        d_val += cj * tau
    return s_val, d_val


def _series_v_min(n: int, v_max: float) -> float:
    """Inner turning point in well coordinates v = u - u_c: the root of S
    below 0, by Newton's method from the harmonic turning point -v_max
    (S' > 0 at the root), until the steps stop shrinking."""
    coeffs = _well_coefficients(n)
    v = -v_max
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        s_val, d_val = _series_slope_deriv(v, v_max, coeffs)
        step = s_val / d_val
        if not abs(step) < last:
            return v
        v -= step
        last = abs(step)
    raise RuntimeError(f"series turning point did not converge for "
                       f"v_max={v_max!r}")


def _energy_ratio(n: int, delta: float) -> float:
    """E / c = u_max^P - u_max^2 < 0 at u_max = 1 - delta, formed without
    cancellation."""
    big = 2.0 * n / (n - 2)
    return math.expm1(big * math.log1p(-delta)) + 2.0 * delta - delta * delta


def _log_u_min(n: int, e: float) -> float:
    """log u_min of the orbit with E / c = e: the root s < log u_c of
    2 s + log(1 - u^(P-2)) = log(-e), u = exp(s), by Newton's method.
    The left side is increasing and concave there, so from the start
    u = sqrt(-e) < u_min the iterates climb monotonically until a step
    leaves s unchanged or stops shrinking; u^(P-2) may underflow
    harmlessly. A step that leaves s unchanged would only be followed by
    the same step again, which does not shrink."""
    pm2 = 4.0 / (n - 2)
    target = math.log(-e)
    s = 0.5 * target
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        x = math.exp(pm2 * s)
        step = ((2.0 * s + math.log1p(-x) - target)
                / (2.0 - pm2 * x / (1.0 - x)))
        if not abs(step) < last:
            return s
        s, prev = s - step, s
        if s == prev:
            return s
        last = abs(step)
    raise RuntimeError(f"inner turning point did not converge for e={e!r}")


def _check_window(uc: float, u_max: float) -> None:
    """Reject amplitudes outside the closed-orbit window u_c < u_max < 1."""
    if not (uc < u_max < 1.0):
        raise ValueError(
            f"u_max must lie in the closed-orbit window ({uc:.6g}, 1), "
            f"got {u_max}")


# the positive half of the 64-node Gauss-Legendre rule on [-1, 1], the
# exact doubles of numpy.polynomial.legendre.leggauss(64): that rule is
# exactly symmetric, so its other 32 nodes are these negated, in reverse
_GAUSS_HALF_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054,
    0.16964442042399283, 0.21742364374000708, 0.2646871622087674,
    0.31132287199021097, 0.3572201583376681, 0.4022701579639916,
    0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
    0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
    0.973326827789911, 0.983336253884626, 0.9910133714767443,
    0.9963401167719552, 0.9993050417357722)
_GAUSS_HALF_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
    0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
    0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
    0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009,
    0.0354722132568823, 0.033805161837141794, 0.032057928354851495,
    0.030234657072402554, 0.028339672614259535, 0.02637746971505491,
    0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786,
    0.011168139460131028, 0.008846759826363397, 0.006504457968978502,
    0.004147033260564499, 0.00178328072169414)
# inner-half panel ends, as (P - 2) times the distance back from u_c in w
_INNER_BREAKS = (4.0, 12.0, 40.0)


@lru_cache(maxsize=None)
def _dimension_constants(n: int) -> tuple[float, ...]:
    """(u_c, P, P - 2, lambda = sqrt(2c), inner panel ends in w) of the
    well in dimension n, for `_quadrature`."""
    pm2 = 4.0 / (n - 2)
    return (constant_solution(n), 2.0 * n / (n - 2), pm2, 0.5 * (n - 2),
            tuple(brk / pm2 for brk in _INNER_BREAKS))


@lru_cache(maxsize=None)
def _gauss_rule() -> tuple[np.ndarray, ...]:
    """(rule, outer, w_outer): the 64 Gauss-Legendre nodes x and weights w
    on [0, 1] as the rows of rule, and the outer-half factors at theta =
    pi x / 2: 1 - sin(theta) = cos^2 / (1 + sin) and sin(theta) as the
    rows of outer, and (pi/2) w sqrt(1 + sin(theta)). Each pair is one
    array, so that one product scales both rows. Built on first use and
    shared read-only."""
    half = np.array(_GAUSS_HALF_NODES)
    x = 0.5 * (np.concatenate((-half[::-1], half)) + 1.0)
    w = 0.5 * np.array(_GAUSS_HALF_WEIGHTS[::-1] + _GAUSS_HALF_WEIGHTS)
    theta = 0.5 * math.pi * x
    sin, cos = np.sin(theta), np.cos(theta)
    rule = (np.array((x, w)), np.array((cos * cos / (1.0 + sin), sin)),
            0.5 * math.pi * w * np.sqrt(1.0 + sin))
    for arr in rule:
        arr.flags.writeable = False
    return rule


@lru_cache(maxsize=None)
def _stack_factors(n: int, inner: int) -> tuple[np.ndarray, ...]:
    """Read-only arrays for `_quadrature` in dimension n with `inner`
    inner-half nodes: -P on those nodes and then +P on the outer-half
    nodes, the factors between its stacked log1p and expm1; and u_c, P,
    P - 2, 1/2 and 1 as 0-d arrays, which numpy takes as operands faster
    than Python floats, to the same doubles. Built on first use of each
    inner length."""
    uc, big, pm2 = _dimension_constants(n)[:3]
    scales = np.full(inner + 2 * len(_GAUSS_HALF_NODES), big)
    scales[:inner] = -big
    factors = (scales, *(np.array(v) for v in (uc, big, pm2, 0.5, 1.0)))
    for arr in factors:
        arr.flags.writeable = False
    return factors


def _node_sums(dt, u, kinetic, big: float) -> tuple[float, float, float]:
    """(sum dt u'^2, sum dt u^2, sum dt u^P) over quadrature nodes with
    time elements dt, orbit values u and kinetic = u'^2 = 2 (E - V)."""
    return (float(np.dot(dt, kinetic)), float(np.dot(dt, u * u)),
            float(np.dot(dt, u ** big)))


def _series_quadrature(n: int, v_max: float, moments: bool):
    """`_quadrature` for a small orbit, in well coordinates v = u - u_c,
    with u - u_min = 2 amp sin^2(phi/2) on the phase phi in [0, pi]:
    rounding u_min back to the u scale would poison the turning-point
    nodes. A node carries the time pi w / sqrt(2 reduced) of half the
    orbit."""
    (_, weights), (_, sin), _ = _gauss_rule()
    coeffs = _well_coefficients(n)
    v_min = _series_v_min(n, v_max)
    # phi = pi x, so sin(phi/2) is the outer-half sin(theta)
    dist_lo = (v_max - v_min) * sin * sin
    # reduced gap (E - V)/((u - u_min)(u_max - u))
    v = v_min + dist_lo
    reduced = _series_reduced(v, v_min, v_max, coeffs)
    rate = 1.0 / np.sqrt(2.0 * reduced)
    period = 2.0 * math.pi * float(np.dot(weights, rate))
    if not moments:
        return period, None
    kinetic = 2.0 * (v_max - v) * dist_lo * reduced
    half = _node_sums(math.pi * weights * rate, constant_solution(n) + v,
                      kinetic, 2.0 * n / (n - 2))
    return period, tuple(2.0 * part for part in half)


def _quadrature(n: int, delta: float, moments: bool = False):
    """(period, integrals) of the closed orbit through (1 - delta, 0).

    integrals is None, or with `moments` (int u'^2 dt, int u^2 dt,
    int u^P dt) over one period, summed on the period's own nodes: a
    node's weight in the period sum is its time element dt = du /
    sqrt(2 (E - V)), and u and u'^2 = 2 (E - V) are known there. The
    array passes run in place on arrays of the call's own, and the two
    halves share one log1p, scaling and expm1 on a stacked array."""
    uc, big, pm2, lam, breaks = _dimension_constants(n)
    u_max = 1.0 - delta
    if u_max - uc <= _SERIES_AMPLITUDE * uc:
        return _series_quadrature(n, u_max - uc, moments)
    rule, outer_rule, w_outer = _gauss_rule()

    # [u_min, u_c], u = u_min cosh(w): (E - V) / (c (u^2 - u_min^2)) =
    # 1 - u^(P-2) (1 - sech^P w) / tanh^2 w, the integrand
    # 1 / (lam sqrt(.)); the panels run back from w = width at u_c, the
    # first from u_c itself
    s_min = _log_u_min(n, _energy_ratio(n, delta))
    width = math.acosh(uc * math.exp(-s_min))
    end = min(breaks[0], width)
    panel = end * rule
    back, inner_weights = panel[0], panel[1]
    for brk in breaks[1:]:
        if end == width:
            break
        lo, end = end, min(brk, width)
        panel = (end - lo) * rule
        panel[0] += lo
        back = np.concatenate((back, panel[0]))
        inner_weights = np.concatenate((inner_weights, panel[1]))
    w = width - back
    inner = w.size
    scales, uc_0, big_0, pm2_0, half_0, one_0 = _stack_factors(n, inner)

    # [u_c, u_max], u = u_c + amp sin(theta): (E - V) / (c (u_max - u)),
    # with u_max - u = amp (1 - sin(theta)) exact near the turning point
    amp = u_max - uc
    outer = amp * outer_rule
    dh, u = outer[0], outer[1]
    u += uc_0

    # one log1p, scaling by -P inside and +P outside, and expm1 for both
    # halves, on log cosh w = log1p(2 sinh^2(w/2)) and log1p(dh / u)
    stack = np.empty(scales.size)
    cosh_m1 = stack[:inner]
    np.multiply(w, half_0, out=cosh_m1)
    np.sinh(cosh_m1, out=cosh_m1)
    cosh_m1 *= cosh_m1
    cosh_m1 += cosh_m1
    np.divide(dh, u, out=stack[inner:])
    np.log1p(stack, out=stack)
    powers = stack * scales
    np.expm1(powers, out=powers)

    # 1 - ratio in place of log cosh w, as 1 + u^(P-2) expm1(-P log cosh
    # w) / tanh^2 w: negating both ratio and expm1 changes no double
    gap = cosh_m1
    gap += s_min
    gap *= pm2_0
    np.exp(gap, out=gap)
    gap *= powers[:inner]
    tanh = np.tanh(w)
    gap /= tanh * tanh
    gap += one_0
    inner_rate = one_0 / np.sqrt(gap)
    # on [0, lead] in w the integrand is 1 / lam to double precision
    lead = width - end
    inner_sum = lead + float(inner_weights.dot(inner_rate))

    slope = u ** big_0
    slope *= powers[inner:]
    slope /= dh
    slope -= u_max + u
    outer_rate = np.sqrt(amp / slope)
    outer_sum = float(w_outer.dot(outer_rate))
    period = 2.0 * (inner_sum + outer_sum) / lam
    if not moments:
        return period, None

    # inside, u = u_c cosh(w) / cosh(width) from the distance back from
    # u_c, exact at u_c however many digits log u_min carries, and
    # 2 (E - V) = (lam u tanh w)^2 (1 - ratio); outside, 2 (E - V) =
    # lam^2 (u_max - u) slope. On the lead u = u_min cosh w has
    # closed-form integrals of u^2 and u'^2 = (lam u_min sinh w)^2, and
    # u^P < u^2 e^-40 there is below rounding
    shift = math.log1p(math.exp(-2.0 * width))
    u_in = uc * np.exp(np.log1p(np.exp(-2.0 * w)) - shift - back)
    inside = _node_sums(inner_weights * inner_rate / lam, u_in,
                        (lam * u_in * tanh) ** 2 * gap, big)
    outside = _node_sums(w_outer * outer_rate / lam, u,
                         lam * lam * dh * slope, big)
    u_min = math.exp(s_min)
    u_lead = uc * math.exp(math.log1p(math.exp(-2.0 * lead)) - shift
                           - end)
    edge = u_lead * u_lead * math.tanh(lead)
    on_lead = (0.5 * lam * (edge - u_min * u_min * lead),
               0.5 * (edge + u_min * u_min * lead) / lam, 0.0)
    return period, tuple(2.0 * (a + b + c)
                         for a, b, c in zip(inside, outside, on_lead))


def _period(n: int, delta: float) -> float:
    """Period of the closed orbit through (1 - delta, 0)."""
    return _quadrature(n, delta)[0]


@dataclass(frozen=True)
class CircleOrbit:
    """One closed phase-plane orbit: amplitude and period.

    `delta` = 1 - u_max is the separatrix distance that parametrizes the
    orbit; `u_max` is 1 - delta rounded, which is 1.0 for delta below
    1.1e-16. The orbit's energy E follows from delta, as in the module
    docstring."""

    n: int
    u_max: float
    period: float
    delta: float


def orbit_period(n: int, u_max: float) -> float:
    """Period of the closed orbit through (u_max, 0) by turning-point
    quadrature on the separatrix distance 1 - u_max, which is exact for
    every u_max in the window u_c < u_max < 1 (Sterbenz). One ulp above
    u_c it meets the mpmath referee to 2 ulps (n = 3..12)."""
    _check_window(constant_solution(n), u_max)
    return _period(n, 1.0 - u_max)


# intervals of the period table; its nodes crowd towards the harmonic end
# as the cube of their index, so that the periods up to 1.6 T_min, which
# span a few units of log delta there, fill 61 to 79 of them for n = 3..12
_TABLE_STEPS = 384


@lru_cache(maxsize=None)
def _table_nodes(n: int) -> tuple[tuple[float, ...], list]:
    """(xs, ts): the _TABLE_STEPS + 1 nodes in x = log delta across the
    window searched by orbit_for_period, in ascending order of period,
    and the period at each as far as `_table_period` has evaluated it,
    None elsewhere. xs[0] is the harmonic end x_harm, xs[-1] the
    separatrix end x_sep = log _DELTA_FLOOR, and in between x_j = x_harm
    - (x_harm - x_sep) (j / _TABLE_STEPS)^3; ts[0] = T_min needs no
    evaluation. Each node costs one period evaluation, on first use. The
    list is shared by every search in the process, which is safe because
    a node's period does not depend on which search evaluates it."""
    x_sep = math.log(_DELTA_FLOOR)
    x_harm = math.log(1.0 - constant_solution(n) * (1.0 + _HARMONIC_END))
    xs = [x_harm - (x_harm - x_sep) * (j / _TABLE_STEPS) ** 3
          for j in range(_TABLE_STEPS)] + [x_sep]
    return tuple(xs), [minimal_period(n)] + [None] * _TABLE_STEPS


def _table_period(n: int, j: int) -> float:
    """The period at node j of `_table_nodes`, evaluated on first use
    and cached there."""
    xs, ts = _table_nodes(n)
    t = ts[j]
    if t is None:
        t = ts[j] = _period(n, math.exp(xs[j]))
    return t


def _table_interval(n: int, period: float) -> int:
    """The i with ts[i-1] < period <= ts[i] in `_table_nodes`, for
    T_min < period <= ts[-1] with ts[-1] evaluated: bisection on the node
    index, which evaluates only the nodes it probes, about
    log2(_TABLE_STEPS). Both ends of the interval it returns are
    evaluated, as each is a probe or an end of the table."""
    ts = _table_nodes(n)[1]
    lo, hi = 0, _TABLE_STEPS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = ts[mid]
        if t is None:
            t = _table_period(n, mid)
        if t < period:
            lo = mid
        else:
            hi = mid
    return hi


# orbit_for_period stops once the period misses its target by this much
# relative, or when the log-delta bracket cannot be split further, and
# fails if its closest orbit then still misses by more than _INVERSE_FAIL
_INVERSE_RTOL = 1e-15
_INVERSE_FAIL = 1e-12
_INVERSE_STEPS = 100
# table nodes through which orbit_for_period interpolates its start
_START_NODES = 10


@lru_cache(maxsize=None)
def _start_window(n: int, i: int) -> tuple[tuple[float, ...], ...]:
    """(ys, xs, ds, weights) of the _START_NODES table nodes around the
    interval [ts[i-1], ts[i]] of `_table_nodes`, the window clamped to
    the table: y_j = sqrt(ts[j] - T_min), y_0 = 0, x_j = xs[j], d_j = x_j
    less the window's middle x and the barycentric weights 1 / prod_{k !=
    j} (y_j - y_k). Built on first use of each interval, which evaluates
    the window's nodes, and cached with it."""
    lo = min(max(i - _START_NODES // 2, 0), _TABLE_STEPS + 1 - _START_NODES)
    xs = _table_nodes(n)[0][lo:lo + _START_NODES]
    t_min = minimal_period(n)
    ys = [math.sqrt(_table_period(n, j) - t_min)
          for j in range(lo, lo + _START_NODES)]
    mid = xs[_START_NODES // 2]
    weights = [1.0 / math.prod(yj - yk for k, yk in enumerate(ys) if k != j)
               for j, yj in enumerate(ys)]
    return tuple(ys), xs, tuple(x - mid for x in xs), tuple(weights)


def _table_start(n: int, i: int, y: float) -> float:
    """x at y of the polynomial through the _START_NODES table nodes (y_j,
    x_j) of `_start_window(n, i)`.

    T - T_min grows as the amplitude squared at the harmonic end, so in
    y = sqrt(T - T_min) log delta is smooth there, where in T it has a
    square-root singularity. The barycentric formula (Berrut & Trefethen,
    SIAM Review 46, 2004) on the window's cached weights: with c_j =
    w_j / (y - y_j), x = x_mid + sum c_j d_j / sum c_j. At a node y_j it
    is x_j."""
    ys, xs, ds, weights = _start_window(n, i)
    den = num = 0.0
    for yj, xj, dj, wj in zip(ys, xs, ds, weights):
        gap = y - yj
        if gap == 0.0:
            return xj
        c = wj / gap
        den += c
        num += c * dj
    return xs[_START_NODES // 2] + num / den


def _table_slope(n: int, i: int, y: float) -> float:
    """dx/dy at y of the polynomial of `_table_start`: with d = sum c_j
    d_j / sum c_j, dx/dy = sum c_j (d - d_j) / (y - y_j) / sum c_j, and
    at a node y_j it is sum_{k != j} (w_k / w_j) (d_k - d_j) / (y_j -
    y_k). The differences d - d_j carry it, so they are taken on x less
    the window's middle node: on x itself, up to 690 units from 0 at the
    separatrix end, they lose up to 3.9e-10 of the slope to rounding."""
    ys, _, ds, weights = _start_window(n, i)
    cs = []
    den = num = 0.0
    for j, (yj, dj, wj) in enumerate(zip(ys, ds, weights)):
        gap = y - yj
        if gap == 0.0:
            slope = 0.0
            for k, (yk, dk, wk) in enumerate(zip(ys, ds, weights)):
                if k != j:
                    slope += wk / wj * (dk - dj) / (yj - yk)
            return slope
        c = wj / gap
        cs.append(c)
        den += c
        num += c * dj
    d = num / den
    slope = 0.0
    for c, yj, dj in zip(cs, ys, ds):
        slope += c * (d - dj) / (y - yj)
    return slope / den


def orbit_for_period(n: int, period: float) -> CircleOrbit:
    """Invert the (strictly decreasing in delta) period map on the orbit
    window by the safeguarded secant iteration in x = log delta.

    The bracket starts on the two neighbouring nodes of the period table
    `_table_nodes` whose periods enclose the target, found by
    `_table_interval`, and keeps the separatrix side (period too long)
    and the harmonic side (too short). The first evaluation is at the
    point of `_table_start`, the barycentric interpolant through the
    _START_NODES table nodes around the target; after a miss, the second
    is one Newton step on the interpolant from the first's period, on the
    slope of `_table_slope`. Each later one, and each of those two that
    is not finite or not strictly inside the bracket, is at the
    `shooting.Illinois` point of the misses, target minus period, and
    every one moves an end. A node or an evaluated orbit within
    _INVERSE_RTOL relative of the target is returned at once, so the
    bracket's search state is built only once the first evaluation has
    missed; failing that, the orbit returned is the evaluated one
    closest to the target, a node included.

    Raises ValueError when the requested period is at or below the
    minimal period, beyond the separatrix end of the table (delta =
    _DELTA_FLOOR) or NaN, and RuntimeError when the closest orbit found
    misses the period by more than _INVERSE_FAIL relative."""
    t_min = minimal_period(n)
    if math.isnan(period):
        raise ValueError(f"period must be a number, got {period}")
    if period <= t_min:
        raise ValueError(
            f"no closed orbit has period {period:.6g} <= minimal period "
            f"{t_min:.6g}")
    if _table_period(n, _TABLE_STEPS) < period:
        raise ValueError(
            f"period {period:.6g} requires an orbit too close to the "
            "separatrix to resolve")
    i = _table_interval(n, period)
    xs, ts = _table_nodes(n)
    a, b, t_a, t_b = xs[i], xs[i - 1], ts[i], ts[i - 1]
    f_a, f_b = period - t_a, period - t_b
    tol = _INVERSE_RTOL * period
    best = (abs(f_a), a, t_a) if abs(f_a) < abs(f_b) else (abs(f_b), b, t_b)
    # steps 0 and 1 try the interpolant's point and its Newton step, each
    # only if strictly inside the bracket (a NaN fails the comparison
    # too), else the Illinois point. The search is built once step 0 has
    # missed, on the node ends and step 0's point, the state it would
    # have reached had it been built first: point() changes no state
    for step in range(_INVERSE_STEPS):
        if step == 0:
            if best[0] <= tol:
                break
            y = math.sqrt(period - t_min)
            x = _table_start(n, i, y)
            if not a < x < b:
                x = Illinois(a, f_a, b, f_b).point()
        else:
            if step == 1:
                search = Illinois(a, f_a, b, f_b)
                search.update(x, f_x)
                x += _table_slope(n, i, y) * (
                    y - math.sqrt(max(t_x - t_min, 0.0)))
            if step > 1 or not search.lo < x < search.hi:
                x = search.point()
        if x is None:
            break
        delta = math.exp(x)
        t_x = _period(n, delta)
        f_x = period - t_x
        if abs(f_x) <= tol:
            return CircleOrbit(n=n, u_max=1.0 - delta, period=t_x,
                               delta=delta)
        if abs(f_x) < best[0]:
            best = (abs(f_x), x, t_x)
        if step:
            search.update(x, f_x)
    miss, x, t_x = best
    if miss > _INVERSE_FAIL * period:
        raise RuntimeError(
            f"period inversion did not converge for n={n}, "
            f"period={period!r}: the closest orbit misses by "
            f"{miss / period:.3g} relative")
    delta = math.exp(x)
    return CircleOrbit(n=n, u_max=1.0 - delta, period=t_x, delta=delta)


def count_periodic_solutions(n: int, r: float) -> int:
    """Number of distinct nonconstant positive solutions with period
    2 pi r / k for some integer k >= 1, up to time translation.

    The period map fills (T_min, infinity), so the count is the number of
    harmonics k with 2.0 * math.pi * r / k > minimal_period(n) in doubles,
    the test that `orbit_for_period` and the periodic listing apply. The
    constant solution is excluded."""
    _check_dim(n)
    if not 0.0 < r < math.inf:
        raise ValueError(f"circle radius must be positive and finite, got {r}")
    t_min = minimal_period(n)
    x = 2.0 * math.pi * r / t_min
    if not x < 2.0 ** 53:  # from 2^53 on, doubles skip integers
        raise ValueError(f"circle radius {r:g} has 2 pi r / T_min = {x:g}, "
                         "not below 2**53: the count would not be exact")
    # x rounds to within one harmonic of the count that the test settles
    k = math.ceil(x) - 1
    if 2.0 * math.pi * r / (k + 1) > t_min:
        return k + 1
    return k if k == 0 or 2.0 * math.pi * r / k > t_min else k - 1


# time integration from (u_max, 0) follows the orbit past the saddle only
# for 1 - u_max above this: at 1e-8 the return time meets the quadrature
# period to 1.5e-7 relative and the Yamabe quotient stays below Y_n for
# n = 3..8; at 1e-9 the return time misses by up to 1.4e-6, and once
# u_max rounds to 1 the start sits on the separatrix
_TIME_DELTA_FLOOR = 1e-8


def _check_time_window(u_max: float) -> None:
    """Reject a start too close to the separatrix for time integration."""
    if not 1.0 - u_max >= _TIME_DELTA_FLOOR:
        raise ValueError(
            f"u_max={u_max!r} is closer than {_TIME_DELTA_FLOOR:g} to the "
            "separatrix u = 1, where time integration cannot follow the "
            "orbit past the saddle")


def _orbit_steps(n: int, u_max: float, t_end: float):
    """The accepted DOP853 steps of `ode._dp_steps` on the undamped flow
    u'' = ((n-2)^2/4) u - (n(n-2)/4) |u|^(4/(n-2)) u from (u_max, 0) to
    t_end at _ORBIT_RTOL and _ORBIT_ATOL, each read off its continuous
    extension `ode._dense`; tests/cli_bytes.json pins their doubles
    through periodic --dump."""
    return ode._dp_steps(0.0, u_max, 0.0, 1e-2, t_end, 0.0,
                         (n - 2) ** 2 / 4.0, n * (n - 2) / 4.0,
                         4.0 / (n - 2), _ORBIT_RTOL, _ORBIT_ATOL)


def integrate_orbit(n: int, u_max: float, t_end: float):
    """Time-integrate the orbit from (u_max, 0); returns (t, u, u') arrays
    at 2049 equally spaced times on [0, t_end], read off the dense output
    of the step each falls in. Raises ValueError when 1 - u_max
    is below _TIME_DELTA_FLOOR or t_end is not positive and finite."""
    _check_dim(n)
    _check_time_window(u_max)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    ts = np.linspace(0.0, t_end, 2049)
    us, dus = ode._sample_steps(list(_orbit_steps(n, u_max, t_end)), ts)
    return ts, us, dus


def return_time(n: int, u_max: float) -> float:
    """First return time to the outer turning point by time integration:
    twice the time to the first upward zero of u', as the reversible flow
    is symmetric about the inner turning point. It evaluates no period,
    so it cross-checks the quadrature; 1 - u_max >= _TIME_DELTA_FLOOR."""
    _check_time_window(u_max)
    _check_window(constant_solution(n), u_max)
    for step in _orbit_steps(n, u_max, math.inf):
        if step[4] <= 0.0:
            raise RuntimeError("orbit reached u <= 0 before it turned")
        if step[3] < 0.0 <= step[5]:
            return 2.0 * (step[0] + ode._locate(ode._dense(step), 1) * step[1])


def circle_quotient(n: int, u_max: float) -> float:
    """Yamabe quotient of the periodic solution over one period.

    The first factor has volume Vol(S^{n-1}) and scalar curvature
    (n-1)(n-2). The integrals of u'^2, u^2 and u^P over one period are
    summed on the nodes of the period quadrature, so every u_max that
    `orbit_period` accepts is accepted here; one ulp above u_c it is its
    value at 1e-9 u_c to an ulp. As the orbit approaches the separatrix
    (u_max -> 1) the quotient climbs to the sphere invariant Y_n from
    below, with a relative gap of about 1 - u_max (1.2 times it for
    n = 3, 0.18 times for n = 8); once that is near 1e-16 the gap is
    rounding-sized, at most about 1e-15 relative."""
    _check_window(constant_solution(n), u_max)
    vol_m = surface_measure(n)
    a = 4.0 * (n - 1) / (n - 2)
    p = 2.0 * n / (n - 2)
    s = (n - 1.0) * (n - 2.0)
    grad, sq, crit = (vol_m * v
                      for v in _quadrature(n, 1.0 - u_max, True)[1])
    return (a * grad + s * sq) / crit ** (2.0 / p)
