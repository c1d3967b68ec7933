"""Quadrature evaluation of the Gagliardo-Nirenberg functional.

For a radial function f(x) = h(|x|) on R^n the three norms reduce to
weighted 1-d integrals with the unit-sphere surface measure; the
functional is

    L(f) = ||grad f||_2^(2n/k) ||f||_2^(2m/k) / ||f||_p^2,  k = m + n,

invariant under rescaling f -> c f and dilation f -> f(lambda x). Two
profile carriers are supported, and integrated by one rule: solver output
on a graded grid with derivative samples, and compactly supported
piecewise-linear test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .geometry import Dims, surface_measure
from .ode import RadialProfile

_GAUSS_NODES = 16
_SOLVER_NODES = 8

_TESTFN_RESOURCE = "testfn_2_2.dat"


class ProfileFormatError(ValueError):
    """A breakpoint file violated the documented "t h" format."""


@dataclass
class PiecewiseLinearProfile:
    """Compactly supported piecewise-linear radial test function."""

    ts: np.ndarray
    hs: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.hs = np.asarray(self.hs, dtype=float)
        if self.ts.shape != self.hs.shape or self.ts.size < 2:
            raise ValueError("need matching t, h arrays with >= 2 breakpoints")
        if not (np.isfinite(self.ts).all() and np.isfinite(self.hs).all()):
            raise ValueError("breakpoints must be finite")
        if self.ts[0] != 0.0:
            raise ValueError("breakpoints must start at t = 0")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(self.hs < 0.0):
            raise ValueError("values must be non-negative")
        if not np.any(self.hs > 0.0):
            raise ValueError("the values must not all be 0")
        if self.hs[-1] != 0.0:
            raise ValueError("the final value must be 0 (compact support)")


@dataclass(frozen=True)
class GNResult:
    """The functional value together with its three constituent norms."""

    grad_sq: float
    l2_sq: float
    lp_norm: float
    sigma_inv: float


@lru_cache(maxsize=None)
def _quadrature_nodes(count: int):
    """`count` Gauss-Legendre nodes s and weights on [0, 1], the cubic
    Hermite basis for (h_0, dt h'_0, h_1, dt h'_1) at s and its
    s-derivative for (h_1 - h_0, dt h'_0, dt h'_1), and _GAUSS_NODES
    Gauss-Laguerre nodes and weights; built on first use, read-only.

    The derivative takes the rise h_1 - h_0 as one number: summed from h_0
    and h_1 apart, the two nearly cancel, and the solver profiles' I_grad
    erred by up to 1.9e-15 against `tests/oracles.hermite_integrals`."""
    x, gw = leggauss(count)
    s = 0.5 * (x + 1.0)
    basis = np.array([(1.0 + 2.0 * s) * (1.0 - s) ** 2, s * (1.0 - s) ** 2,
                      s * s * (3.0 - 2.0 * s), s * s * (s - 1.0)])
    dbasis = np.array([6.0 * s * (1.0 - s), (1.0 - s) * (1.0 - 3.0 * s),
                       s * (3.0 * s - 2.0)])
    xl, wl = laggauss(_GAUSS_NODES)
    nodes = (s, 0.5 * gw, basis, dbasis, xl, wl)
    for a in nodes:
        a.flags.writeable = False
    return nodes


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


@np.errstate(over="ignore", invalid="ignore")
def radial_integrals(profile, d: Dims):
    """The three weighted integrals (I_grad, I_sq, I_p) over R^n:

    I_grad = omega int h'(t)^2 t^(n-1) dt, I_sq = omega int h^2 t^(n-1) dt,
    I_p = omega int |h|^p t^(n-1) dt, with omega the unit-sphere surface
    measure of R^n. Both carriers share one rule: Gauss-Legendre on each
    stored interval of the cubic Hermite interpolant of (t, h, h').

    - A solver profile's end slopes are its derivative samples, and it
      takes _SOLVER_NODES nodes: they integrate h'^2 t^(n-1) and
      h^2 t^(n-1) of a cubic exactly up to n = 10. Its exponential tail
      adds I_sq in closed form and I_grad, I_p by _GAUSS_NODES-node
      Gauss-Laguerre.
    - A piecewise-linear function takes the chord slope at both ends of
      a segment (the interpolant is then the line) and _GAUSS_NODES
      nodes. The I_p part of a segment that ends at h = 0, its final one
      always, is `_zero_end_p` in closed form.

    An integral that leaves the double range comes out inf or nan, without
    a numpy warning; `gn_value` refuses it.
    """
    if isinstance(profile, RadialProfile):
        if profile.n != d.n:
            raise ValueError(
                f"profile has radial dimension {profile.n}, expected {d.n}")
        slope0, slope1 = profile.dhs[:-1], profile.dhs[1:]
        count = _SOLVER_NODES
    elif isinstance(profile, PiecewiseLinearProfile):
        slope0 = slope1 = np.diff(profile.hs) / np.diff(profile.ts)
        count = _GAUSS_NODES
    else:
        raise TypeError(f"unsupported profile type {type(profile)!r}")
    n, p = d.n, d.p
    w = surface_measure(n)
    s, gw, basis, dbasis, xl, wl = _quadrature_nodes(count)
    ts, hs = profile.ts, profile.hs
    t0, dt = ts[:-1], np.diff(ts)
    coef = np.stack([hs[:-1], dt * slope0, hs[1:], dt * slope1], axis=1)
    tq = t0[:, None] + dt[:, None] * s
    hq = coef @ basis
    dq = (np.stack([np.diff(hs), coef[:, 1], coef[:, 3]], axis=1) @ dbasis
          / dt[:, None])
    base = tq ** (n - 1) * dt[:, None] * gw
    i_grad = w * float(np.sum(dq * dq * base))
    i_sq = w * float(np.sum(hq * hq * base))
    if isinstance(profile, PiecewiseLinearProfile):
        zero_end = (hs[:-1] == 0.0) | (hs[1:] == 0.0)
        smooth = ~zero_end
        segments = np.stack([t0, dt, hs[:-1], hs[1:]], axis=1)[zero_end]
        i_p = w * (float(np.sum(np.abs(hq[smooth]) ** p * base[smooth]))
                   + math.fsum(_zero_end_p(*segment, n, p)
                               for segment in segments.tolist()))
        return i_grad, i_sq, i_p
    i_p = w * float(np.sum(np.abs(hq) ** p * base))

    if profile.tail:
        # beyond t_c, h = h_c e^(-(t - t_c)) (t_c / t)^((n-1)/2): then
        # h^2 t^(n-1) = h_c^2 t_c^(n-1) e^(-2 (t - t_c)), h' = -h (1 + half/t)
        tc, hc = float(ts[-1]), float(hs[-1])
        half = 0.5 * (n - 1)
        sq_tail = w * hc * hc * tc ** (n - 1) / 2.0
        i_sq += sq_tail
        i_grad += sq_tail * float(wl @ (1.0 + half / (tc + xl / 2.0)) ** 2)
        t = tc + xl / p
        i_p += w * hc ** p / p * float(
            wl @ ((tc / t) ** (p * half) * t ** (n - 1)))
    return i_grad, i_sq, i_p


def gn_value(profile, d: Dims) -> GNResult:
    """Assemble the functional value L = I_grad^(n/k) I_sq^(m/k) / I_p^(2/p)
    from the integrals of `radial_integrals`. Raises ValueError naming the
    first of I_p, I_grad and I_sq that is 0 or not finite, as for a
    profile too small or too large for doubles. A profile's values are
    finite, so a nan integral can only come of inf - inf in its sums: it
    is named as leaving the double range."""
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
        return PiecewiseLinearProfile(np.array(ts), np.array(hs))
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
    bound it certifies cannot silently drift with the asset. hashlib is
    imported here, its only use, so that no subcommand loads OpenSSL.
    """
    import hashlib

    ref = resources.files("gnyamabe.data").joinpath(_TESTFN_RESOURCE)
    payload = ref.read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != _TESTFN_SHA256:
        raise RuntimeError(
            f"bundled profile {_TESTFN_RESOURCE} has checksum {digest}, "
            f"expected {_TESTFN_SHA256}")
    return _parse_breakpoints(payload.decode().splitlines(), _TESTFN_RESOURCE)
