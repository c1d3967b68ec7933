"""Quadrature evaluation of the Gagliardo-Nirenberg functional.

For a radial function f(x) = h(|x|) on R^n the three norms reduce to
weighted 1-d integrals with the unit-sphere surface measure; the
functional is

    L(f) = ||grad f||_2^(2n/k) ||f||_2^(2m/k) / ||f||_p^2,  k = m + n,

invariant under rescaling f -> c f and dilation f -> f(lambda x). Two
profile carriers are supported: solver output on a graded grid with
derivative samples, and compactly supported piecewise-linear test
functions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicHermiteSpline

from .geometry import Dims, surface_measure
from .ode import RadialProfile

__all__ = [
    "PiecewiseLinearProfile",
    "GNResult",
    "ProfileFormatError",
    "radial_integrals",
    "gn_value",
    "yamabe_quotient",
    "dilate",
    "scale",
    "read_profile_file",
    "bundled_test_function",
]

_PL_GAUSS_NODES = 16

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
        if self.ts[0] != 0.0:
            raise ValueError("breakpoints must start at t = 0")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(self.hs < 0.0):
            raise ValueError("values must be non-negative")
        if self.hs[-1] != 0.0:
            raise ValueError("the final value must be 0 (compact support)")


@dataclass(frozen=True)
class GNResult:
    """The functional value together with its three constituent norms."""

    d: Dims
    grad_sq: float
    l2_sq: float
    lp_norm: float
    sigma_inv: float


def _radial_integrals_solver(profile: RadialProfile, d: Dims, refine: int):
    """Composite Simpson on the cubic re-densification of the stored grid,
    plus the analytic exponential tail when the profile carries one."""
    n = profile.n
    w = surface_measure(n)
    ts, hs, dhs = profile.ts, profile.hs, profile.dhs
    spline = CubicHermiteSpline(ts, hs, dhs)
    dspline = spline.derivative()

    nseg = ts.size - 1
    fracs = np.arange(refine) / refine
    tf = (ts[:-1, None] * (1.0 - fracs) + ts[1:, None] * fracs).ravel()
    tf = np.append(tf, ts[-1])
    hf = spline(tf)
    df = dspline(tf)
    wgt = tf ** (n - 1)
    i_grad = w * simpson(df * df * wgt, x=tf)
    i_sq = w * simpson(hf * hf * wgt, x=tf)
    p = d.p
    i_p = w * simpson(np.abs(hf) ** p * wgt, x=tf)

    if profile.tail_rate is not None:
        tc = float(ts[-1])
        hc = float(hs[-1])
        r = profile.tail_rate
        # |f|^2 weight collapses: h^2 t^{n-1} = hc^2 tc^{n-1} e^{-2r(t-tc)}
        i_sq += w * hc * hc * tc ** (n - 1) / (2.0 * r)
        half = 0.5 * (n - 1)
        i_grad += w * quad(
            lambda t: hc * hc * tc ** (n - 1) * math.exp(-2.0 * r * (t - tc))
            * (r + half / t) ** 2, tc, np.inf)[0]
        i_p += w * quad(
            lambda t: hc ** p * math.exp(-p * r * (t - tc))
            * (tc / t) ** (p * half) * t ** (n - 1), tc, np.inf)[0]
    return i_grad, i_sq, i_p


def _radial_integrals_pl(profile: PiecewiseLinearProfile, d: Dims):
    """Fixed-order Gauss-Legendre per segment; exact for the polynomial
    integrands, and far below rounding for the fractional power."""
    n = d.n
    w = surface_measure(n)
    x, gw = leggauss(_PL_GAUSS_NODES)
    t0, t1 = profile.ts[:-1], profile.ts[1:]
    h0, h1 = profile.hs[:-1], profile.hs[1:]
    half = 0.5 * (t1 - t0)
    slope = (h1 - h0) / (t1 - t0)
    tq = 0.5 * (t0 + t1)[:, None] + half[:, None] * x
    hq = h0[:, None] + slope[:, None] * (tq - t0[:, None])
    base = tq ** (n - 1) * gw * half[:, None]
    i_grad = w * float(np.sum(slope[:, None] ** 2 * base))
    i_sq = w * float(np.sum(hq * hq * base))
    i_p = w * float(np.sum(np.abs(hq) ** d.p * base))
    return i_grad, i_sq, i_p


def radial_integrals(profile, d: Dims, refine: int = 4):
    """The three weighted integrals (I_grad, I_sq, I_p) over R^n:

    I_grad = omega int h'(t)^2 t^(n-1) dt, I_sq = omega int h^2 t^(n-1) dt,
    I_p = omega int |h|^p t^(n-1) dt, with omega the unit-sphere surface
    measure of R^n. `refine` subdivides each stored interval of a solver
    profile before the Simpson pass.
    """
    if isinstance(profile, RadialProfile):
        if profile.n != d.n:
            raise ValueError(
                f"profile has radial dimension {profile.n}, expected {d.n}")
        return _radial_integrals_solver(profile, d, refine)
    if isinstance(profile, PiecewiseLinearProfile):
        return _radial_integrals_pl(profile, d)
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def gn_value(profile, d: Dims, refine: int = 4) -> GNResult:
    """Assemble the functional value L = I_grad^(n/k) I_sq^(m/k) / I_p^(2/p)."""
    i_grad, i_sq, i_p = radial_integrals(profile, d, refine)
    k = d.k
    sigma_inv = i_grad ** (d.n / k) * i_sq ** (d.m / k) / i_p ** (2.0 / d.p)
    return GNResult(d=d, grad_sq=i_grad, l2_sq=i_sq,
                    lp_norm=i_p ** (1.0 / d.p), sigma_inv=sigma_inv)


def yamabe_quotient(profile, d: Dims, s_g: float, refine: int = 4) -> float:
    """Yamabe quotient (a_k I_grad + s_g I_sq) / I_p^(2/p) of a radial
    function of the flat factor, for a unit-volume first factor of constant
    scalar curvature s_g."""
    if s_g <= 0.0:
        raise ValueError("scalar curvature must be positive")
    i_grad, i_sq, i_p = radial_integrals(profile, d, refine)
    return (d.a * i_grad + s_g * i_sq) / i_p ** (2.0 / d.p)


def dilate(profile, lam: float):
    """The dilated profile h_lambda(t) = h(lambda t) on the rescaled grid."""
    if lam <= 0.0:
        raise ValueError("dilation factor must be positive")
    if isinstance(profile, RadialProfile):
        tail = None if profile.tail_rate is None else lam * profile.tail_rate
        return RadialProfile(profile.ts / lam, profile.hs.copy(),
                             lam * profile.dhs, profile.alpha, profile.n,
                             tail_rate=tail)
    if isinstance(profile, PiecewiseLinearProfile):
        return PiecewiseLinearProfile(profile.ts / lam, profile.hs.copy())
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def scale(profile, c: float):
    """The rescaled profile c h(t) for c > 0."""
    if c <= 0.0:
        raise ValueError("scaling factor must be positive")
    if isinstance(profile, RadialProfile):
        return RadialProfile(profile.ts.copy(), c * profile.hs,
                             c * profile.dhs, c * profile.alpha, profile.n,
                             tail_rate=profile.tail_rate)
    if isinstance(profile, PiecewiseLinearProfile):
        return PiecewiseLinearProfile(profile.ts.copy(), c * profile.hs)
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def _parse_breakpoints(lines, source) -> PiecewiseLinearProfile:
    """Parse "t h" lines: strictly increasing t from 0, non-negative h,
    final h = 0. Blank lines and lines starting with '#' are skipped;
    errors name `source` and the line number."""
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
        if ts and t <= ts[-1]:
            raise ProfileFormatError(
                f"{source}: line {lineno}: t values must be strictly "
                f"increasing (got {t} after {ts[-1]})")
        if h < 0.0:
            raise ProfileFormatError(
                f"{source}: line {lineno}: negative value {h}")
        ts.append(t)
        hs.append(h)
    if len(ts) < 2:
        raise ProfileFormatError(f"{source}: fewer than two breakpoints")
    if ts[0] != 0.0:
        raise ProfileFormatError(f"{source}: first breakpoint must be t = 0")
    if hs[-1] != 0.0:
        raise ProfileFormatError(f"{source}: final value must be 0")
    return PiecewiseLinearProfile(np.array(ts), np.array(hs))


def read_profile_file(path) -> PiecewiseLinearProfile:
    """Parse a breakpoint file: one "t h" pair per line, increasing t,
    final h = 0. Blank lines and lines starting with '#' are skipped."""
    with open(path) as fh:
        return _parse_breakpoints(fh, path)


_TESTFN_SHA256 = "b8089857acb00a19e1864901f66447af247c614b10573d7dfc0410f0c91f2999"


def bundled_test_function() -> PiecewiseLinearProfile:
    """The bundled 22-breakpoint test function for (m, n) = (2, 2).

    Verifies the data file checksum before parsing, so the regression
    bound it certifies cannot silently drift with the asset.
    """
    ref = resources.files("gnyamabe.data").joinpath(_TESTFN_RESOURCE)
    payload = ref.read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != _TESTFN_SHA256:
        raise RuntimeError(
            f"bundled profile {_TESTFN_RESOURCE} has checksum {digest}, "
            f"expected {_TESTFN_SHA256}")
    return _parse_breakpoints(payload.decode().splitlines(), _TESTFN_RESOURCE)
