"""Quadrature evaluation of the Gagliardo-Nirenberg functional.

For a radial function f(x) = h(|x|) on R^n the three norms reduce to
weighted 1-d integrals with the unit-sphere surface measure; the
functional is

    L(f) = ||grad f||_2^(2n/k) ||f||_2^(2m/k) / ||f||_p^2,  k = m + n,

invariant under rescaling f -> c f and dilation f -> f(lambda x). Two
profile carriers are supported, and integrated by one rule: solver output
on a uniform grid with samples of h, h' and h'', as numpy arrays, and
compactly supported piecewise-linear test functions, whose breakpoints are
tuples of floats. The test functions are integrated on Python floats, so that
the `bound` subcommand loads neither numpy nor `gnyamabe.ode`; the
Gauss-Legendre and Gauss-Laguerre rules are stored as the doubles
`numpy.polynomial` returns, so no path computes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import Dims, surface_measure

# the positive halves of the 8- and 16-node Gauss-Legendre rules on
# [-1, 1], nodes and weights, the exact doubles of
# numpy.polynomial.legendre.leggauss(8) and leggauss(16): both rules are
# exactly symmetric, so their other nodes are these negated, in reverse
_LEGENDRE_8_HALF = (
    (0.18343464249564978, 0.525532409916329, 0.7966664774136267,
     0.9602898564975362),
    (0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
     0.10122853629037706))
_LEGENDRE_16_HALF = (
    (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
     0.6178762444026438, 0.755404408355003, 0.8656312023878318,
     0.9445750230732326, 0.9894009349916499),
    (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
     0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
     0.062253523938647456, 0.027152459411754176))
# the exact doubles of numpy.polynomial.laguerre.laggauss(16)
_LAGUERRE_16 = (
    (0.08764941047892776, 0.4626963289150804, 1.1410577748312265,
     2.1292836450983805, 3.4370866338932067, 5.078018614549768,
     7.070338535048234, 9.438314336391938, 12.21422336886616,
     15.441527368781617, 19.180156856753136, 23.515905693991908,
     28.57872974288214, 34.58339870228662, 41.94045264768833,
     51.70116033954332),
    (0.2061517149578049, 0.3310578549508783, 0.2657957776442144,
     0.13629693429637874, 0.04732892869412563, 0.011299900080339598,
     0.0018490709435263271, 0.0002042719153082809, 1.4844586873981502e-05,
     6.828319330871331e-07, 1.8810248410797222e-08, 2.862350242973897e-10,
     2.1270790332241214e-12, 6.29796700251788e-15, 5.050473700035608e-18,
     4.161462370372851e-22))


def _legendre(half):
    """The nodes and weights, as lists, of the Gauss-Legendre rule on
    [-1, 1] whose positive half is `half`."""
    nodes, weights = half
    return ([-x for x in reversed(nodes)] + list(nodes),
            list(reversed(weights)) + list(weights))


def _line_rule():
    """The 16-node Gauss-Legendre rule on [0, 1] as (s, 1 - s, weight)
    triples: s = (x + 1) / 2 and the weight w / 2 for the nodes x and
    weights w on [-1, 1]. The rule is exactly symmetric, so 1 - s is the
    mirrored node, without a rounding of its own."""
    x, w = _legendre(_LEGENDRE_16_HALF)
    s = [0.5 * (xi + 1.0) for xi in x]
    return tuple(zip(s, reversed(s), [0.5 * wi for wi in w]))


_LINE_RULE = _line_rule()

_TESTFN_RESOURCE = "testfn_2_2.dat"


class ProfileFormatError(ValueError):
    """A breakpoint file violated the documented "t h" format."""


@dataclass
class PiecewiseLinearProfile:
    """Compactly supported piecewise-linear radial test function: the
    breakpoints ts, from t = 0 and strictly increasing, and the values hs
    there, non-negative, not all 0 and ending at 0. Takes any sequences
    of numbers, and stores both as tuples of floats."""

    ts: tuple[float, ...]
    hs: tuple[float, ...]

    def __post_init__(self):
        self.ts = ts = tuple(map(float, self.ts))
        self.hs = hs = tuple(map(float, self.hs))
        if len(ts) != len(hs) or len(ts) < 2:
            raise ValueError("need matching t, h arrays with >= 2 breakpoints")
        if not all(map(math.isfinite, ts + hs)):
            raise ValueError("breakpoints must be finite")
        if ts[0] != 0.0:
            raise ValueError("breakpoints must start at t = 0")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(h < 0.0 for h in hs):
            raise ValueError("values must be non-negative")
        if not any(h > 0.0 for h in hs):
            raise ValueError("the values must not all be 0")
        if hs[-1] != 0.0:
            raise ValueError("the final value must be 0 (compact support)")


@dataclass(frozen=True)
class GNResult:
    """The functional value together with its three constituent norms."""

    grad_sq: float
    l2_sq: float
    lp_norm: float
    sigma_inv: float


@lru_cache(maxsize=None)
def _solver_rule():
    """numpy, `ode.RadialProfile` and the solver profiles' rule: the 8
    Gauss-Legendre nodes s and weights on [0, 1], the quintic Hermite
    basis at s for (h_1 - h_0, dt h'_0, dt^2 h''_0, dt h'_1, dt^2 h''_1),
    added to h_0, and its s-derivative, and the 16 Gauss-Laguerre nodes
    and weights; built on first use, read-only.

    The basis takes the rise h_1 - h_0 as one number: summed from h_0
    and h_1 apart, the two nearly cancel in the derivative, and on the
    cubic rule before it the solver profiles' I_grad erred by up to
    1.9e-15 against `tests/oracles.hermite_integrals`. numpy and gnyamabe.ode are imported
    here, once, so that a piecewise-linear profile loads neither."""
    import numpy as np

    from .ode import RadialProfile

    x, gw = map(np.array, _legendre(_LEGENDRE_8_HALF))
    s = 0.5 * (x + 1.0)
    r = 1.0 - s
    basis = np.array([s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s),
                      s * r ** 3 * (1.0 + 3.0 * s), 0.5 * s * s * r ** 3,
                      -s ** 3 * r * (4.0 - 3.0 * s), 0.5 * s ** 3 * r * r])
    dbasis = np.array([30.0 * s * s * r * r,
                       r * r * (1.0 + 5.0 * s) * (1.0 - 3.0 * s),
                       0.5 * s * r * r * (2.0 - 5.0 * s),
                       s * s * (6.0 - 5.0 * s) * (3.0 * s - 2.0),
                       0.5 * s * s * r * (3.0 - 5.0 * s)])
    nodes = (s, 0.5 * gw, basis, dbasis, *map(np.array, _LAGUERRE_16))
    for a in nodes:
        a.flags.writeable = False
    return np, RadialProfile, nodes


def _zero_end_p(t0: float, span: float, h0: float, h1: float, n: int,
                p: float) -> float:
    """int |h|^p t^(n-1) dt over [t0, t0 + span], where h runs linearly
    from h0 to h1 and one of them is 0. With t = t0 + span s,

        t^(n-1) = sum_j C(n-1, j) t0^(n-1-j) span^j s^j,

    and s^j h^p integrates over [0, 1] to h0^p B(j+1, p+1) when h falls,
    h = h0 (1 - s), or to h1^p / (j+p+1) when it rises, h = h1 s: a sum of
    positive terms, so nothing cancels. Gauss-Legendre converges slowly
    here, as for non-integer p, |h|^p is not smooth where h = 0. Raises
    ValueError when a power leaves the double range."""
    falls = h1 == 0.0
    weight = 1.0 / (p + 1.0)  # B(1, p+1) and 1/(p+1) alike
    total = 0.0
    try:
        for j in range(n):
            if j:  # B(j+1, p+1) = j! / ((p+1) (p+2) ... (p+j+1))
                weight *= (j if falls else p + j) / (p + j + 1.0)
            total += (math.comb(n - 1, j) * t0 ** (n - 1 - j) * span ** j
                      * weight)
        return span * (h0 if falls else h1) ** p * total
    except OverflowError:
        raise ValueError(
            f"I_p on the segment t in [{t0:g}, {t0 + span:g}], h from {h0:g} "
            f"to {h1:g}, leaves the double range") from None


def _fsum(terms) -> float:
    """math.fsum of non-negative terms, inf where their sum overflows."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _line_integrals(ts, hs, n: int, p: float):
    """(I_grad, I_sq, I_p) / omega of the piecewise-linear function through
    (ts, hs), on floats: on each segment, the line h = h0 (1 - s) + h1 s
    and its chord slope at the _LINE_RULE nodes, whose weight
    t^(n-1) dt w sits between the two slopes, so that a long shallow
    segment keeps an I_grad term that is a double. The I_p part of a
    segment that ends at h = 0, its final one always, is `_zero_end_p`
    in closed form, and its errors come first. A power that leaves the
    double range makes all three inf; 0 * inf makes a term nan."""
    segments = list(zip(ts, ts[1:], hs, hs[1:]))
    lp = [_zero_end_p(t0, t1 - t0, h0, h1, n, p)
          for t0, t1, h0, h1 in segments if h0 == 0.0 or h1 == 0.0]
    grad, sq = [], []
    try:
        for t0, t1, h0, h1 in segments:
            dt = t1 - t0
            slope = (h1 - h0) / dt
            smooth = h0 != 0.0 and h1 != 0.0
            for s, r, w in _LINE_RULE:
                base = (t0 + dt * s) ** (n - 1) * dt * w
                h = h0 * r + h1 * s
                grad.append(slope * base * slope)
                sq.append(h * base * h)
                if smooth:
                    lp.append(h ** p * base)
    except OverflowError:
        return math.inf, math.inf, math.inf
    return _fsum(grad), _fsum(sq), _fsum(lp)


def radial_integrals(profile, d: Dims):
    """The three weighted integrals (I_grad, I_sq, I_p) over R^n:

    I_grad = omega int h'(t)^2 t^(n-1) dt, I_sq = omega int h^2 t^(n-1) dt,
    I_p = omega int |h|^p t^(n-1) dt, with omega the unit-sphere surface
    measure of R^n. Both carriers share one rule: Gauss-Legendre on each
    stored interval of a Hermite interpolant.

    - A piecewise-linear function is its own interpolant, the line
      through its breakpoints, and takes 16 nodes, summed with math.fsum
      on floats (`_line_integrals`).
    - A solver profile is the quintic Hermite interpolant of its samples
      (h, h', h''), which errs as dt^6, and takes 8 nodes: they integrate
      h'^2 t^(n-1) of a quintic exactly up to n = 8 and h^2 t^(n-1) up to
      n = 6. Its exponential tail adds I_sq in closed form and I_grad,
      I_p by 16-node Gauss-Laguerre.

    An integral that leaves the double range comes out inf or nan, without
    a numpy warning; `gn_value` refuses it.
    """
    n, p = d.n, d.p
    w = surface_measure(n)
    if isinstance(profile, PiecewiseLinearProfile):
        i_grad, i_sq, i_p = _line_integrals(profile.ts, profile.hs, n, p)
        return w * i_grad, w * i_sq, w * i_p
    np, radial_profile, (s, gw, basis, dbasis, xl, wl) = _solver_rule()
    if not isinstance(profile, radial_profile):
        raise TypeError(f"unsupported profile type {type(profile)!r}")
    if profile.n != n:
        raise ValueError(
            f"profile has radial dimension {profile.n}, expected {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        ts, hs, dhs, d2hs = profile.ts, profile.hs, profile.dhs, profile.d2hs
        t0, dt = ts[:-1], np.diff(ts)
        dt2 = dt * dt
        coef = np.stack([np.diff(hs), dt * dhs[:-1], dt2 * d2hs[:-1],
                         dt * dhs[1:], dt2 * d2hs[1:]], axis=1)
        tq = t0[:, None] + dt[:, None] * s
        hq = hs[:-1, None] + coef @ basis
        dq = coef @ dbasis / dt[:, None]
        base = tq ** (n - 1) * dt[:, None] * gw
        i_grad = w * float(np.sum(dq * dq * base))
        i_sq = w * float(np.sum(hq * hq * base))
        i_p = w * float(np.sum(np.abs(hq) ** p * base))

        if profile.tail:
            # beyond t_c, h = h_c e^(-(t - t_c)) (t_c / t)^((n-1)/2): then
            # h^2 t^(n-1) = h_c^2 t_c^(n-1) e^(-2 (t - t_c)),
            # h' = -h (1 + half/t)
            tc, hc = float(ts[-1]), float(hs[-1])
            half = 0.5 * (n - 1)
            sq_tail = w * hc * hc * tc ** (n - 1) / 2.0
            i_sq += sq_tail
            i_grad += sq_tail * float(
                wl @ (1.0 + half / (tc + xl / 2.0)) ** 2)
            t = tc + xl / p
            i_p += w * hc ** p / p * float(
                wl @ ((tc / t) ** (p * half) * t ** (n - 1)))
    return i_grad, i_sq, i_p


# binary exponents of max h and of the last t within which a
# piecewise-linear profile is integrated as it stands
_H_EXPONENT_RANGE = 64
_T_EXPONENT_RANGE = 16


def _rescaled(profile: PiecewiseLinearProfile) -> PiecewiseLinearProfile:
    """The profile, or, when the binary exponent of max h lies outside
    [-_H_EXPONENT_RANGE, _H_EXPONENT_RANGE] or that of the last t outside
    [-_T_EXPONENT_RANGE, _T_EXPONENT_RANGE], the profile with those h or t
    multiplied by the power of two that brings the largest into [1/2, 1).
    L does not change when h is scaled or t dilated, and math.ldexp scales
    exactly but for values it takes below the normal doubles. A breakpoint
    that a dilation merges there onto its predecessor of equal h ends a
    flat segment narrower than any double, and is dropped; a rescaling
    that would merge two breakpoints of different h is not made."""
    e_h = math.frexp(max(profile.hs))[1]
    e_t = math.frexp(profile.ts[-1])[1]
    if abs(e_h) > _H_EXPONENT_RANGE:
        profile = PiecewiseLinearProfile(
            profile.ts, [math.ldexp(h, -e_h) for h in profile.hs])
    if abs(e_t) > _T_EXPONENT_RANGE:
        ts, hs = [], []
        for t, h in zip(profile.ts, profile.hs):
            t = math.ldexp(t, -e_t)
            if ts and t == ts[-1]:
                if h != hs[-1]:
                    return profile
                continue
            ts.append(t)
            hs.append(h)
        profile = PiecewiseLinearProfile(ts, hs)
    return profile


def gn_value(profile, d: Dims) -> GNResult:
    """Assemble the functional value L = I_grad^(n/k) I_sq^(m/k) / I_p^(2/p)
    from the integrals of `radial_integrals`. A piecewise-linear profile
    whose height or support leaves a safe binary range is first rescaled
    by powers of two (`_rescaled`), which keeps L; its three norms are
    then the rescaled profile's. Raises ValueError naming the first of
    I_p, I_grad and I_sq that is 0 or not finite, as for a profile whose
    mass lies too far below its support's end for doubles. A profile's
    values are finite, so a nan integral can only come of inf - inf in
    its sums: it is named as leaving the double range."""
    if isinstance(profile, PiecewiseLinearProfile):
        profile = _rescaled(profile)
    i_grad, i_sq, i_p = radial_integrals(profile, d)
    for name, value in (("I_p", i_p), ("I_grad", i_grad), ("I_sq", i_sq)):
        if math.isnan(value):
            raise ValueError(
                f"{name} = nan: the integral leaves the double range")
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} = {value!r} is not positive and finite")
    k = d.k
    sigma_inv = i_grad ** (d.n / k) * i_sq ** (d.m / k) / i_p ** (2.0 / d.p)
    return GNResult(grad_sq=i_grad, l2_sq=i_sq,
                    lp_norm=i_p ** (1.0 / d.p), sigma_inv=sigma_inv)


def _parse_breakpoints(lines, source) -> PiecewiseLinearProfile:
    """Parse "t h" lines: two finite entries each, strictly increasing t,
    non-negative h; blank lines and lines starting with '#' are skipped.
    A bad line is named by its number; the whole-file conditions (at least
    two breakpoints, t from 0, final h = 0) are PiecewiseLinearProfile's.
    Every error names `source`."""
    ts = []
    hs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ProfileFormatError(
                f"{source}: line {lineno}: expected 't h', got {line!r}")
        try:
            t, h = float(parts[0]), float(parts[1])
        except ValueError:
            raise ProfileFormatError(
                f"{source}: line {lineno}: non-numeric entry in {line!r}"
            ) from None
        if not (math.isfinite(t) and math.isfinite(h)):
            raise ProfileFormatError(
                f"{source}: line {lineno}: non-finite entry in {line!r}")
        if ts and t <= ts[-1]:
            raise ProfileFormatError(
                f"{source}: line {lineno}: t values must be strictly "
                f"increasing (got {t} after {ts[-1]})")
        if h < 0.0:
            raise ProfileFormatError(
                f"{source}: line {lineno}: negative value {h}")
        ts.append(t)
        hs.append(h)
    try:
        return PiecewiseLinearProfile(ts, hs)
    except ValueError as exc:
        raise ProfileFormatError(f"{source}: {exc}") from None


def read_profile_file(path) -> PiecewiseLinearProfile:
    """Parse a breakpoint file: one "t h" pair per line, increasing t,
    final h = 0. Blank lines and lines starting with '#' are skipped."""
    with open(path) as fh:
        return _parse_breakpoints(fh, path)


_TESTFN_SHA256 = "b8089857acb00a19e1864901f66447af247c614b10573d7dfc0410f0c91f2999"


def bundled_test_function() -> PiecewiseLinearProfile:
    """The bundled 22-breakpoint test function for (m, n) = (2, 2).

    Verifies the data file checksum before parsing, so the regression
    bound it certifies cannot silently drift with the asset. hashlib and
    importlib.resources are imported here, their only use, so that no
    subcommand loads OpenSSL or the resource machinery.
    """
    import hashlib
    from importlib import resources

    ref = resources.files("gnyamabe.data").joinpath(_TESTFN_RESOURCE)
    payload = ref.read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != _TESTFN_SHA256:
        raise RuntimeError(
            f"bundled profile {_TESTFN_RESOURCE} has checksum {digest}, "
            f"expected {_TESTFN_SHA256}")
    return _parse_breakpoints(payload.decode().splitlines(), _TESTFN_RESOURCE)
