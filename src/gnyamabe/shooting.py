"""Bracketed search on the initial value to locate the ground state.

Above the critical initial value every shot crosses zero once; below it
every shot stays positive and turns back up. Uniqueness of the positive
decaying solution makes the classification boundary a single point
alpha0(m, n), which a bracket of one shot of each kind encloses.

The bracket comes from shots that double from 2, or that step away from
a guess by growing factors, until the classification flips. `Illinois`
shrinks it on a continuous signed miss: -h^2 t^(n-1) w_(n/2)(t) at the
turn of a TurnedUp shot, +h'^2 t^(n-1) w_((n-2)/2)(t) at the crossing of
a CrossedZero shot, with the weight w_mu(t) = 2 t I_mu(t) K_mu(t). Near
alpha0 a shot follows the linearized far field
h = t^(-nu) (A K_nu(t) + eps B I_nu(t)), nu = (n-2)/2, with eps
proportional to alpha - alpha0, and the Wronskian
I_nu K_(nu+1) + I_(nu+1) K_nu = 1/t makes both weighted quantities
2 A B |eps| whatever the event time: the miss is linear in
alpha - alpha0, with one slope on both sides. Unweighted, its slope
drifted with the event time as 1 - (4 mu^2 - 1) / (8 t^2). What is left
of the drift comes from the nonlinearity, of relative size about
e^(-(q-1) t) at the event, so a secant step still gains only a factor of
about 1e-3 at k = 9, and more at small k. Far from alpha0 the misses of
the two ends differ by many orders of magnitude; regula falsi with the
Illinois modification (Dowell & Jarratt 1971) guards the secant there.
The same class inverts the circle-factor period map.

The search runs until the bracket is at most tol_alpha * alpha wide, and
every shot runs to its turn or its crossing: no shot is accepted as the
ground state on its own. Secant steps approach alpha0 from one side, so
once the Illinois point lies within _CLOSE tol_alpha of the latest shot,
that shot has converged and the next one closes the bracket from it,
0.5 tol_alpha to the other side of alpha0, instead of creeping up to
alpha0. alpha0 is the converged shot, and its profile magnifies its
error about e^t times, hence the small _CLOSE: a (3, 1) shot 2.3e-14
short of its Illinois point misses the closed form by 1.8e-10 at t = 10,
the shot at that point by 3.6e-11.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .geometry import Dims
from .ode import (DEFAULT_T_MAX, CrossedZero, RadialProfile,
                  _sample_profile, integrate_shot)

# the search stops on a bracket at most tol_alpha alpha wide, at
# DEFAULT_TOL_ALPHA unless a caller gives one
DEFAULT_TOL_ALPHA = 1e-12
_BRACKET_CEILING = 2.0 ** 20
_SECANT_REACH = 1e3
_CLOSE = 0.015


class ShootingError(RuntimeError):
    """Bracketing or the Illinois search could not complete."""


class Illinois:
    """Secant steps on a bracket [lo, hi] with misses f_lo < 0 < f_hi,
    safeguarded by regula falsi; an end kept twice in a row has its miss
    halved, so neither end stalls."""

    def __init__(self, lo: float, f_lo: float, hi: float, f_hi: float):
        self.lo, self.f_lo, self.hi, self.f_hi = lo, f_lo, hi, f_hi
        self._moved = None
        self._last = ((lo, f_lo), (hi, f_hi))

    def point(self) -> float | None:
        """The secant point of the two latest evaluations when it is
        strictly inside the bracket, else the regula-falsi point of the
        ends, else the midpoint; None when the bracket cannot be split.

        A secant step reaches at most _SECANT_REACH times the distance
        between the two evaluations: from two nearly equal misses on a
        flat stretch it would otherwise leap across the bracket to a
        point that barely moves its far end, again and again."""
        lo, hi = self.lo, self.hi
        (x0, f0), (x1, f1) = self._last
        if f1 != f0:
            step = f1 * (x0 - x1) / (f1 - f0)
            reach = _SECANT_REACH * abs(x1 - x0)
            x = x1 + math.copysign(min(abs(step), reach), step)
            if lo < x < hi:
                return x
        x = lo - self.f_lo * (hi - lo) / (self.f_hi - self.f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        return x if lo < x < hi else None

    def update(self, x: float, f: float) -> None:
        """Record the evaluation f at x and move the end on its side to
        x."""
        self._last = (self._last[1], (x, f))
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
    """Located ground state: critical initial value, the bracket the
    search ended on and the profile. The dimensions are the caller's,
    who searched them; the record does not repeat them.

    The bracket keeps TurnedUp on the low side and CrossedZero on the high
    side, and is at most tol_alpha * alpha0 wide (at most 6.6e-13 alpha0
    over build_table(9) at the defaults). It bounds the search, not the
    error of alpha0, which the shots' own integration error dominates:
    against a tight-control reference alpha0 errs by up to 4.4e-12
    relative, at (2, 7). alpha0 is the end whose shot followed the ground
    state furthest, and the profile is that shot's, truncated where it
    stops being trustworthy (h below the decay threshold or h' >= 0).
    """

    alpha0: float
    bracket: tuple[float, float]
    profile: RadialProfile


def _bessel_weight(t: float, mu: float) -> float:
    """2 t I_mu(t) K_mu(t) to second order in 1/t^2 (DLMF 10.40.6), with
    c = 4 mu^2. Below t = 2 it holds its value at 2, which is positive
    for every mu: shots that end so early lie far from alpha0, where only
    the sign of the miss counts."""
    x, c = 1.0 / max(t, 2.0) ** 2, 4.0 * mu * mu
    return (1.0 - (c - 1.0) * x / 8.0
            + 3.0 * (c - 1.0) * (c - 9.0) * x * x / 128.0)


def _miss(outcome, n: int) -> float:
    """Signed miss of an integrated TurnedUp (< 0) or CrossedZero (> 0)
    shot, linear in alpha - alpha0 near alpha0: -h^2 t^(n-1) at the turn
    and h'^2 t^(n-1) at the crossing, each weighted by 2 t I_mu K_mu."""
    t = outcome.t_event
    if isinstance(outcome, CrossedZero):
        return (outcome.dh_cross ** 2 * t ** (n - 1)
                * _bessel_weight(t, 0.5 * n - 1.0))
    return -outcome.h_at_turn ** 2 * t ** (n - 1) * _bessel_weight(t, 0.5 * n)


def bracket_alpha(d: Dims, t_max: float = DEFAULT_T_MAX,
                  guess: float | None = None,
                  ) -> tuple[float, float, float, float]:
    """Initial bracket (lo, miss at lo, hi, miss at hi) around the
    critical value, with the misses of `_miss`.

    Without a guess the shots double from 2 until one crosses zero; lo is
    the doubling shot before it, which turned up, or alpha = 1 with miss
    -1 (it turns up at t = 0) when the shot at 2 already crosses. With a
    guess the first shot is at the guess, and the next ones step away
    from it, towards alpha0, by the factors 1.1, 1.1^2, 1.1^4, ... until
    the classification flips; a step down to alpha <= 1 ends at 1 as
    above. A step up stops at _BRACKET_CEILING, and so does a guess above
    it; when the shot there turns up too, alpha0 lies beyond the ceiling
    and is refused.
    """
    if guess is None:
        x, factors = 2.0, itertools.repeat(2.0)
    elif math.isfinite(guess) and guess > 0.0:
        x = min(guess, _BRACKET_CEILING)
        factors = (1.1 ** 2 ** k for k in itertools.count())
    else:
        raise ValueError(f"guess must be finite and positive, got {guess}")
    prev = None
    for factor in factors:
        if x <= 1.0:
            x, f = 1.0, -1.0
        else:
            f = _miss(integrate_shot(x, d, t_max), d.n)
        if prev is not None and (prev[1] < 0.0) != (f < 0.0):
            return (x, f, *prev) if f < 0.0 else (*prev, x, f)
        if f < 0.0 and x >= _BRACKET_CEILING:
            raise ShootingError(
                f"no zero crossing up to alpha={_BRACKET_CEILING:g} for "
                f"(m, n) = ({d.m}, {d.n}): its ground state lies beyond the "
                "bracket ceiling")
        prev = (x, f)
        x = min(x * factor, _BRACKET_CEILING) if f < 0.0 else x / factor


def find_ground_state(d: Dims, tol_alpha: float = DEFAULT_TOL_ALPHA,
                      t_max: float = DEFAULT_T_MAX,
                      guess: float | None = None) -> GroundState:
    """Illinois search for the ground-state initial value and its profile.

    From the bracket of `bracket_alpha` (around `guess`, when one is
    given), each step shoots the `Illinois` point of the signed misses,
    until the bracket is at most tol_alpha * alpha wide: the tolerance is
    relative. Once that point lies within _CLOSE tol_alpha of the latest
    shot, the step shoots 0.5 tol_alpha from that shot, across alpha0,
    instead; the bracket closes unless alpha0 lies farther off. Every
    shot runs to its turn or its crossing, and the latest shot on each
    side of the bracket keeps its steps. Of those two, the one whose
    event comes later followed the ground state furthest: its initial
    value is alpha0 and its profile is sampled from its steps.
    """
    if not math.isfinite(tol_alpha):
        raise ValueError(f"tol_alpha must be finite, got {tol_alpha}")
    if tol_alpha < 1e-14:
        raise ValueError("tol_alpha below double-precision resolution")
    search = Illinois(*bracket_alpha(d, t_max, guess))
    shots = {}  # the latest (alpha, outcome) on each side, by f < 0
    last = None  # (alpha, miss) of the latest shot
    while search.hi - search.lo > tol_alpha * search.hi:
        x = search.point()
        if x is None:
            break
        if last is not None and abs(x - last[0]) <= _CLOSE * tol_alpha * x:
            across = last[0] + math.copysign(0.5 * tol_alpha * x, -last[1])
            if search.lo < across < search.hi:
                x = across
        outcome = integrate_shot(x, d, t_max)
        f = _miss(outcome, d.n)
        shots[f < 0.0] = (x, outcome)
        search.update(x, f)
        last = (x, f)
    if not shots:  # the initial bracket was already narrow enough
        shots[False] = (search.hi, integrate_shot(search.hi, d, t_max))
    alpha0, shot = max(shots.values(), key=lambda s: s[1].t_event)
    profile = _sample_profile(alpha0, d.n, shot.head, shot.steps,
                              shot.t_event)
    return GroundState(alpha0=alpha0, bracket=(search.lo, search.hi),
                       profile=profile)
