"""Illinois search on the initial value to locate the ground state.

Above the critical initial value every shot crosses zero once; below it
every shot stays positive and turns back up. Uniqueness of the positive
decaying solution makes the classification boundary a single point
alpha0(m, n), which a bracket of one shot of each kind encloses.

The bracket is shrunk by the Illinois variant of regula falsi (Dowell &
Jarratt 1971) on a continuous signed miss: -h^2 t^(n-1) at the turn of a
TurnedUp shot, +h'^2 t^(n-1) at the crossing of a CrossedZero shot. Near
alpha0 a shot is h ~ t^(-(n-1)/2) (A e^(-t) + eps B e^t) with eps
proportional to alpha - alpha0, and both quantities equal
4 A B |eps| t^(-(n-1)) to leading order, so the weighted miss is linear in
alpha - alpha0 with the same slope on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Dims
from .ode import (DEFAULT_CONTROLS, Candidate, CrossedZero, IntegrationControls,
                  RadialProfile, integrate_shot, shoot_profile)

_BRACKET_CEILING = 2.0 ** 20
# regula-falsi points keep this fraction of the bracket from either end
_CLAMP = 1e-3


class ShootingError(RuntimeError):
    """Bracketing or the Illinois search could not complete."""


@dataclass(frozen=True)
class GroundState:
    """Located ground state: critical initial value and its profile.

    The bracket keeps TurnedUp on the low side and CrossedZero on the high
    side. Its width is at most the search tolerance unless the Illinois
    search ended early on a Candidate shot; in that case alpha0 is that
    shot's initial value, certified by the candidate trajectory itself (it
    tracked the decaying tail below the threshold), which pins it more
    tightly than the bracket does.
    """

    d: Dims
    alpha0: float
    bracket: tuple[float, float]
    profile: RadialProfile


def bracket_alpha(d: Dims,
                  ctrl: IntegrationControls = DEFAULT_CONTROLS,
                  ) -> tuple[float, float]:
    """Initial bracket (alpha_lo, alpha_hi) around the critical value.

    alpha_lo = 1 always classifies TurnedUp; alpha_hi is found by doubling
    from 2 until a shot crosses zero. Mathematically a crossing must occur
    for large alpha, so running past 2^20 signals broken controls.
    """
    hi = 2.0
    while True:
        outcome = integrate_shot(hi, d, ctrl)
        if isinstance(outcome, CrossedZero):
            return 1.0, hi
        if isinstance(outcome, Candidate):
            raise ShootingError(
                f"bracketing shot at alpha={hi} landed on a ground-state "
                "candidate; widen the doubling sequence")
        hi *= 2.0
        if hi > _BRACKET_CEILING:
            raise ShootingError(
                f"no zero crossing up to alpha={_BRACKET_CEILING:g} for "
                f"(m, n) = ({d.m}, {d.n}); integration controls look wrong")


def _miss(outcome, n: int) -> float:
    """Signed miss of an integrated TurnedUp (< 0) or CrossedZero (> 0)
    shot, linear in alpha - alpha0 near alpha0."""
    if isinstance(outcome, CrossedZero):
        return outcome.dh_cross ** 2 * outcome.t_cross ** (n - 1)
    return -outcome.h_at_turn ** 2 * outcome.t_turn ** (n - 1)


def find_ground_state(d: Dims, tol_alpha: float = 1e-12,
                      ctrl: IntegrationControls = DEFAULT_CONTROLS,
                      ) -> GroundState:
    """Illinois search for the ground-state initial value, then its profile.

    The bracket keeps a TurnedUp shot on the low side and a CrossedZero
    shot on the high side at every step. Each step shoots the regula-falsi
    point of the signed misses at the two ends (see the module docstring),
    clamped to [lo + 1e-3 w, hi - 1e-3 w] for bracket width w; when the
    same end is kept twice in a row its miss is halved (the Illinois step
    of Dowell & Jarratt 1971), so neither end stalls. The alpha = 1 end
    has no turn time and counts as miss -1; while the miss at the doubling
    end is unknown the step is a bisection. A shot that classifies as a
    Candidate ends the search early and its profile is accepted directly;
    otherwise the profile comes from one final shot at the bracket
    midpoint, truncated where the near-critical trajectory stops being
    trustworthy (h below the decay threshold or h' >= 0).

    `tol_alpha` bounds the bracket only for a search that ends without a
    Candidate shot. A Candidate stop fixes alpha0 only to the window of
    initial values whose shots classify as Candidate, which is far wider:
    alpha0 then errs by up to about 1.5e-8 for (m, n) = (2, 7).
    """
    if tol_alpha < 1e-14:
        raise ValueError("tol_alpha below double-precision resolution")
    lo, hi = bracket_alpha(d, ctrl)
    f_lo, f_hi = -1.0, None  # alpha = 1 has no turn time; hi not yet known
    kept = None
    while hi - lo > tol_alpha:
        w = hi - lo
        if f_hi is None:
            x = 0.5 * (lo + hi)
        else:
            x = lo - f_lo * w / (f_hi - f_lo)
            x = min(max(x, lo + _CLAMP * w), hi - _CLAMP * w)
        if not (lo < x < hi):  # interval no longer splittable
            break
        outcome = integrate_shot(x, d, ctrl)
        if isinstance(outcome, Candidate):
            return GroundState(d=d, alpha0=x, bracket=(lo, hi),
                               profile=outcome.profile)
        f = _miss(outcome, d.n)
        if isinstance(outcome, CrossedZero):
            hi, f_hi = x, f
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo = x, f
            if kept == "hi" and f_hi is not None:
                f_hi *= 0.5
            kept = "hi"
    alpha0 = 0.5 * (lo + hi)
    _, profile = shoot_profile(alpha0, d, ctrl)
    return GroundState(d=d, alpha0=alpha0, bracket=(lo, hi), profile=profile)
