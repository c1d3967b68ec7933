"""Illinois search on the initial value to locate the ground state.

Above the critical initial value every shot crosses zero once; below it
every shot stays positive and turns back up. Uniqueness of the positive
decaying solution makes the classification boundary a single point
alpha0(m, n), which a bracket of one shot of each kind encloses.

The bracket keeps the last doubling shot (alpha = 2, 4, 8, ...) that
turned up and the first that crossed. `Illinois`, the Illinois variant of
regula falsi (Dowell & Jarratt 1971) that also inverts the circle-factor
period map, shrinks it on a continuous signed miss: -h^2 t^(n-1) at the
turn of a TurnedUp shot, +h'^2 t^(n-1) at the crossing of a CrossedZero
shot. Near alpha0 a shot is h ~ t^(-(n-1)/2) (A e^(-t) + eps B e^t) with
eps proportional to alpha - alpha0, and both quantities equal
4 A B |eps| t^(-(n-1)) to leading order, so the weighted miss is linear in
alpha - alpha0 with the same slope on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Dims
from .ode import (DEFAULT_CONTROLS, Candidate, CrossedZero, IntegrationControls,
                  RadialProfile, integrate_shot, shoot_profile)

_BRACKET_CEILING = 2.0 ** 20


class ShootingError(RuntimeError):
    """Bracketing or the Illinois search could not complete."""


class Illinois:
    """Regula falsi on a bracket [lo, hi] with misses f_lo < 0 < f_hi; an
    end kept twice in a row has its miss halved, so neither end stalls."""

    def __init__(self, lo: float, f_lo: float, hi: float, f_hi: float):
        self.lo, self.f_lo, self.hi, self.f_hi = lo, f_lo, hi, f_hi
        self._moved = None

    def point(self) -> float | None:
        """The regula-falsi point, or the midpoint when that point is not
        strictly inside, or None when the bracket cannot be split."""
        lo, hi = self.lo, self.hi
        x = lo - self.f_lo * (hi - lo) / (self.f_hi - self.f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        return x if lo < x < hi else None

    def update(self, x: float, f: float) -> None:
        """Move the end on the side of the miss f to x."""
        if f < 0.0:
            if self._moved == "lo":
                self.f_hi *= 0.5
            self.lo, self.f_lo, self._moved = x, f, "lo"
        else:
            if self._moved == "hi":
                self.f_lo *= 0.5
            self.hi, self.f_hi, self._moved = x, f, "hi"


@dataclass(frozen=True)
class GroundState:
    """Located ground state: critical initial value and its profile.

    The bracket keeps TurnedUp on the low side and CrossedZero on the high
    side. Its width is at most the search tolerance unless the Illinois
    search ended early on a Candidate shot; alpha0 is then that shot's
    initial value, known only to the window of initial values whose shots
    classify as Candidate. Against a tight-control reference the published
    table's alpha0 errs by up to 2.3e-8, for (m, n) = (2, 6), and its
    sigma_inv by up to 3.8e-12 relative.
    """

    d: Dims
    alpha0: float
    bracket: tuple[float, float]
    profile: RadialProfile


def _miss(outcome, n: int) -> float:
    """Signed miss of an integrated TurnedUp (< 0) or CrossedZero (> 0)
    shot, linear in alpha - alpha0 near alpha0."""
    if isinstance(outcome, CrossedZero):
        return outcome.dh_cross ** 2 * outcome.t_cross ** (n - 1)
    return -outcome.h_at_turn ** 2 * outcome.t_turn ** (n - 1)


def bracket_alpha(d: Dims,
                  ctrl: IntegrationControls = DEFAULT_CONTROLS,
                  ) -> tuple[float, float, float, float]:
    """Initial bracket (lo, miss at lo, hi, miss at hi) around the
    critical value, with the misses of `_miss`.

    hi doubles from 2 until a shot crosses zero; lo is the doubling shot
    before it, which turned up, or alpha = 1 with miss -1 (it turns up at
    t = 0) when the shot at 2 already crosses. alpha0 beyond
    _BRACKET_CEILING is refused.
    """
    lo, f_lo, hi = 1.0, -1.0, 2.0
    while hi <= _BRACKET_CEILING:
        outcome = integrate_shot(hi, d, ctrl)
        if isinstance(outcome, Candidate):
            raise ShootingError(
                f"bracketing shot at alpha={hi} landed on a ground-state "
                "candidate; widen the doubling sequence")
        f = _miss(outcome, d.n)
        if isinstance(outcome, CrossedZero):
            return lo, f_lo, hi, f
        lo, f_lo, hi = hi, f, 2.0 * hi
    raise ShootingError(
        f"no zero crossing up to alpha={_BRACKET_CEILING:g} for (m, n) = "
        f"({d.m}, {d.n}): its ground state lies beyond the bracket ceiling")


def find_ground_state(d: Dims, tol_alpha: float = 1e-12,
                      ctrl: IntegrationControls = DEFAULT_CONTROLS,
                      ) -> GroundState:
    """Illinois search for the ground-state initial value, then its profile.

    From the bracket of `bracket_alpha`, each step shoots the `Illinois`
    point of the signed misses at the two ends. A shot that classifies as
    a Candidate ends the search early and its profile is accepted
    directly; otherwise the profile comes from one final shot at the
    bracket midpoint, truncated where the near-critical trajectory stops
    being trustworthy (h below the decay threshold or h' >= 0).

    `tol_alpha` bounds the bracket only for a search that ends without a
    Candidate shot. A Candidate stop fixes alpha0 only to the window of
    initial values whose shots classify as Candidate, which is far wider:
    against a tight-control reference alpha0 errs by 1.0e-8 for
    (m, n) = (2, 7) and by up to 2.3e-8 on the published table.
    """
    if not math.isfinite(tol_alpha):
        raise ValueError(f"tol_alpha must be finite, got {tol_alpha}")
    if tol_alpha < 1e-14:
        raise ValueError("tol_alpha below double-precision resolution")
    search = Illinois(*bracket_alpha(d, ctrl))
    while search.hi - search.lo > tol_alpha:
        x = search.point()
        if x is None:
            break
        outcome = integrate_shot(x, d, ctrl)
        if isinstance(outcome, Candidate):
            return GroundState(d=d, alpha0=x, bracket=(search.lo, search.hi),
                               profile=outcome.profile)
        search.update(x, _miss(outcome, d.n))
    alpha0 = 0.5 * (search.lo + search.hi)
    _, profile = shoot_profile(alpha0, d, ctrl)
    return GroundState(d=d, alpha0=alpha0, bracket=(search.lo, search.hi),
                       profile=profile)
