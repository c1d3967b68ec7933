"""Independent oracles for the solver and the package quadrature.

For radial dimension n = 1 the equation h'' - h + h^q = 0 has the explicit
solution

    h(t) = A sech(x)^(2/(q-1)),   x = (q-1) t / 2,
    A = ((q+1)/2)^(1/(q-1)),

whose norms are evaluated here by direct 1-d quadrature of the formulas.
`hermite_integrals` integrates a stored solver profile by other means than
the package does, with h'' from the equation by `ode_second_derivative`.
`period_reference` and `orbit_integrals_reference` integrate a
circle-factor period and the Yamabe-quotient integrals of its orbit by
mpmath tanh-sinh, with none of the substitutions the package
uses. Nothing above `circle_quotient_by_time` touches the solver or the
package quadrature, so these values can referee both.
`shot_reference` steps a radial shot with scipy's DOP853 from the
two-term series start `series_start`, to referee the package stepper's
events.
`series_head_reference` carries the series of the regular solution to
120 terms in mpmath, to referee the series head a shot starts from.
`piecewise_linear_integrals` integrates a piecewise-linear test function
by mpmath tanh-sinh, segment by segment.
`circle_quotient_by_time` and `sample_profile_loop` are the package's
former time-integrated circle quotient and node-by-node profile sampler,
kept to referee their replacements; `sample_steps_loop` samples stored
steps one time at a time, by the scalar continuous extension.
`tighten` divides the shot tolerances for the rest of a test;
`profile_quotient`, `dilate`, `scale`, `circle_orbit` and
`orbit_samples` build the quotients, transformed profiles, orbits and
orbit samples the tests compare; the
package itself needs none of them. `optimal_dilation`
minimizes a quotient over dilations in closed form, the route to the
limiting constant that `geometry.y_infinity` does not take.
`step_control_reference` is the DOP853 step-size controller written with
max and min, kept to referee `ode._step_control`.
`pohozaev_residuals` measures how far a profile's integrals miss the two
ratios every ground state satisfies, which the shooting never uses.
`gaussian_value` is the functional L at the Gaussian, in closed form: an
upper bound on every sigma_inv, with no shooting.
`neville_start` is the period inversion's former start, Neville's scheme
through the period-table nodes, kept to referee its barycentric
replacement `periodic._table_start` and `periodic._table_slope`.
`period_table` lists the whole period table, which the package only
evaluates node by node as its searches touch them.
`quadrature_reference` is the period quadrature's former out-of-place
form, one new array per numpy call, kept to referee the in-place
`periodic._quadrature` to the bit: both call the same ufuncs on the same
doubles in the same order. It finds the inner turning point by
`log_u_min_reference`, the former `periodic._log_u_min`, which stopped
only once a Newton step failed to shrink.
`return_time_full_orbit` is the former `periodic.return_time`, which
stepped a whole orbit and took its window from the quadrature period,
kept to referee the half-orbit return time that needs no quadrature.
`orbit_for_period_reference` is the former `periodic.orbit_for_period`,
which built its search state before its first evaluation, kept to
referee the inversion that builds it only after a miss, orbit for orbit.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
from scipy.integrate import quad, simpson, solve_ivp
from scipy.interpolate import BPoly

from gnyamabe import functional, ode, periodic
from gnyamabe.geometry import surface_measure
from gnyamabe.shooting import Illinois


def exponents_m1(m: int) -> tuple[float, float]:
    """(q, p) for the pair (m, 1), computed from scratch."""
    k = m + 1
    return (k + 2.0) / (k - 2.0), 2.0 * k / (k - 2.0)


def sech_amplitude(q: float) -> float:
    return ((q + 1.0) / 2.0) ** (1.0 / (q - 1.0))


def sech_h(t, q: float):
    x = 0.5 * (q - 1.0) * np.asarray(t)
    return sech_amplitude(q) * np.cosh(x) ** (-2.0 / (q - 1.0))


def sech_dh(t, q: float):
    x = 0.5 * (q - 1.0) * np.asarray(t)
    return -sech_h(t, q) * np.tanh(x)


def sech_d2h(t, q: float):
    x = 0.5 * (q - 1.0) * np.asarray(t)
    return sech_h(t, q) * (np.tanh(x) ** 2 - 0.5 * (q - 1.0) / np.cosh(x) ** 2)


def ode_residual(t, q: float, step: float = 1e-4):
    """|h'' - h + h^q| with h'' by central differences of the formula.

    The step balances truncation against the eps/step^2 rounding floor,
    leaving residuals near 1e-8 when the formula is exact."""
    h = sech_h(t, q)
    hpp = (sech_h(t + step, q) - 2.0 * h + sech_h(t - step, q)) / step ** 2
    return np.abs(hpp - h + h ** q)


def sech_integrals(m: int, t_hi: float = 60.0) -> tuple[float, float, float]:
    """(I_grad, I_sq, I_p) of the closed form on R^1, surface factor 2."""
    q, p = exponents_m1(m)

    def h(t):
        return float(sech_h(t, q))

    def dh(t):
        return float(sech_dh(t, q))

    i_grad = 2.0 * quad(lambda t: dh(t) ** 2, 0.0, t_hi, limit=200)[0]
    i_sq = 2.0 * quad(lambda t: h(t) ** 2, 0.0, t_hi, limit=200)[0]
    i_p = 2.0 * quad(lambda t: h(t) ** p, 0.0, t_hi, limit=200)[0]
    return i_grad, i_sq, i_p


def sech_sigma_inv(m: int) -> float:
    """L_{m,1} of the closed-form ground state, assembled from scratch."""
    q, p = exponents_m1(m)
    k = m + 1
    i_grad, i_sq, i_p = sech_integrals(m)
    return (i_grad ** (1.0 / k) * i_sq ** (m / k)) / i_p ** (2.0 / p)


def triangle_integrals_n2() -> tuple[float, float, float]:
    """Closed-form integrals of h(t) = max(0, 1-t) on R^2 with p = 4."""
    i_grad = math.pi          # 2 pi int_0^1 t dt
    i_sq = math.pi / 6.0      # 2 pi int_0^1 (1-t)^2 t dt
    i_p = math.pi / 15.0      # 2 pi int_0^1 (1-t)^4 t dt
    return i_grad, i_sq, i_p


def ode_second_derivative(ts, hs, dhs, d):
    """h'' of the radial ground-state ODE h'' + (n-1)/t h' - h + h^q = 0
    at the samples (t, h, h'), written from the equation with math's pow:
    h - h^q - (n-1) h'/t at t > 0 and, by l'Hopital at t = 0 where
    h' = 0, (h - h^q)/n."""
    n, q = d.n, (d.k + 2.0) / (d.k - 2.0)
    out = []
    for t, h, dh in zip(ts.tolist(), hs.tolist(), dhs.tolist()):
        force = h - math.copysign(abs(h) ** q, h)
        out.append(force / n if t == 0.0 else force - (n - 1) * dh / t)
    return np.array(out)


def hermite_integrals(profile, d, refine: int = 64):
    """(I_grad, I_sq, I_p) of a solver profile, with its exponential tail.

    The stored samples (t, h, h') and h'' from the ODE itself
    (`ode_second_derivative`, not the profile's own d2hs) define scipy's
    quintic Hermite interpolant; the finite part is composite Simpson on
    each stored interval cut into `refine` (even) equal pieces, so no
    Simpson panel straddles a node, and the tail
    h_c e^(-(t - t_c)) (t_c / t)^((n-1)/2) is integrated by mpmath to 30
    digits.
    """
    n, p = d.n, d.p
    omega = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    ts = profile.ts
    d2hs = ode_second_derivative(ts, profile.hs, profile.dhs, d)
    spline = BPoly.from_derivatives(
        ts, np.stack([profile.hs, profile.dhs, d2hs], axis=1))
    fracs = np.arange(refine) / refine
    tf = np.append((ts[:-1, None] + np.diff(ts)[:, None] * fracs).ravel(),
                   ts[-1])
    hf = spline(tf)
    df = spline.derivative()(tf)
    wgt = tf ** (n - 1)
    ints = [simpson(df * df * wgt, x=tf), simpson(hf * hf * wgt, x=tf),
            simpson(np.abs(hf) ** p * wgt, x=tf)]
    if profile.tail:
        with mpmath.workdps(30):
            tc = mpmath.mpf(float(ts[-1]))
            hc = mpmath.mpf(float(profile.hs[-1]))
            half = mpmath.mpf(n - 1) / 2

            def h(t):
                return hc * mpmath.exp(-(t - tc)) * (tc / t) ** half

            def dh(t):
                return -h(t) * (1 + half / t)

            tails = [lambda t: dh(t) ** 2 * t ** (n - 1),
                     lambda t: h(t) ** 2 * t ** (n - 1),
                     lambda t: h(t) ** p * t ** (n - 1)]
            for i, f in enumerate(tails):
                ints[i] += float(mpmath.quad(f, [tc, mpmath.inf]))
    return tuple(omega * float(v) for v in ints)


def piecewise_linear_integrals(ts, hs, d, digits: int = 30):
    """(I_grad, I_sq, I_p) of the piecewise-linear function through the
    breakpoints (ts, hs) on R^n, by mpmath tanh-sinh on each segment at
    `digits` digits, with the exact exponent p = 2k/(k-2). Tanh-sinh
    keeps its accuracy where |h|^p is not smooth, as at a zero of h."""
    n = d.n
    with mpmath.workdps(digits):
        p = mpmath.mpf(2 * d.k) / (d.k - 2)
        half = mpmath.mpf(n) / 2
        omega = 2 * mpmath.pi ** half / mpmath.gamma(half)
        totals = [mpmath.mpf(0)] * 3
        for t0, t1, h0, h1 in zip(ts[:-1], ts[1:], hs[:-1], hs[1:]):
            t0, t1, h0, h1 = (mpmath.mpf(float(v)) for v in (t0, t1, h0, h1))
            slope = (h1 - h0) / (t1 - t0)

            def h(t):
                return h0 + slope * (t - t0)

            for i, f in enumerate((lambda t: slope ** 2 * t ** (n - 1),
                                   lambda t: h(t) ** 2 * t ** (n - 1),
                                   lambda t: abs(h(t)) ** p * t ** (n - 1))):
                totals[i] += mpmath.quad(f, [t0, t1])
        return tuple(float(omega * v) for v in totals)


def _orbit_reference(n: int, delta: float, digits: int, integrands):
    """The integrals over one period of the circle-factor orbit through
    (1 - delta, 0) for u'' = ((n-2)^2/4) u - (n(n-2)/4) u^((n+2)/(n-2)):
    for each f in `integrands`, twice the integral of f(u, 2 (E - V(u)))
    du between the turning points, with V(u) = ((n-2)^2/8)
    (u^(2n/(n-2)) - u^2) and E = V(1 - delta).

    mpmath tanh-sinh quadrature, on panels cut at u_c and at every
    factor of ten above u_min, so the endpoint singularities and the slow
    passage near the saddle u = 0 are each at a panel end. The working
    precision is `digits` plus the digits lost to the cancellations in
    E - V: those of 1/delta next to the separatrix and of
    1/amplitude^2 next to the equilibrium. Beyond `digits` digits of
    1/delta only E itself is formed with all of them: u_max then rounds
    by less than 10^-(2 digits + 10), which moves each integral by about
    the square root of that, as much as rounding the gap next to u_max
    does at any precision."""
    uc = ((n - 2) / n) ** ((n - 2) / 4)
    amplitude = abs(1.0 - delta - uc) / uc
    sep_digits = max(0, int(-math.log10(delta)))
    well_digits = max(0, int(-2 * math.log10(amplitude)))
    with mpmath.workdps(digits + 10 + sep_digits + well_digits):
        c = mpmath.mpf(n - 2) ** 2 / 8
        big = mpmath.mpf(2 * n) / (n - 2)
        u_c = (mpmath.mpf(n - 2) / n) ** (mpmath.mpf(n - 2) / 4)

        def pot(u):
            return c * (u ** big - u * u)

        energy = pot(1 - mpmath.mpf(delta))
    extra = 10 + min(sep_digits, digits) + well_digits
    with mpmath.workdps(digits + extra):
        u_max = 1 - mpmath.mpf(delta)
        # u_min by bisection in log u: pot - energy > 0 at sqrt(-energy/c)
        # (the u^P term alone) and < 0 at u_c
        lo, hi = mpmath.sqrt(-energy / c), u_c
        while hi - lo > lo * mpmath.eps * 4:
            mid = mpmath.sqrt(lo * hi)
            if pot(mid) > energy:
                lo = mid
            else:
                hi = mid
        u_min = lo

        points = [u_min]
        while points[-1] * 10 < u_c:
            points.append(points[-1] * 10)
        points += [u_c, u_max]

        def integral(f):
            def integrand(u):
                # next to a turning point the gap is rounding-sized; its
                # sign there carries no information
                gap = abs(energy - pot(u))
                return f(u, 2 * gap) if gap else mpmath.mpf(0)

            return float(2 * mpmath.quad(integrand, points))

        return [integral(f) for f in integrands(big)]


def period_reference(n: int, delta: float, digits: int = 40) -> float:
    """Period of the circle-factor orbit through (1 - delta, 0), the
    integral of du / sqrt(2 (E - V)); see `_orbit_reference`."""
    return _orbit_reference(
        n, delta, digits, lambda big: [lambda u, k: 1 / mpmath.sqrt(k)])[0]


def orbit_integrals_reference(n: int, delta: float,
                              digits: int = 40) -> tuple[float, ...]:
    """(int u'^2 dt, int u^2 dt, int u^P dt) over one period of the
    circle-factor orbit through (1 - delta, 0), P = 2n/(n-2): with
    dt = du / u' and u'^2 = 2 (E - V), the integrals of u' du,
    u^2 du / u' and u^P du / u'; see `_orbit_reference`."""
    return tuple(_orbit_reference(n, delta, digits, lambda big: [
        lambda u, k: mpmath.sqrt(k),
        lambda u, k: u * u / mpmath.sqrt(k),
        lambda u, k: u ** big / mpmath.sqrt(k)]))


def yamabe_quotient(n: int, integrals) -> float:
    """The Yamabe quotient on S^{n-1} x S^1 of a function of the circle
    with one period's (int u'^2, int u^2, int u^P) dt, P = 2n/(n-2): the
    first factor has volume Vol(S^{n-1}) and scalar curvature
    (n-1)(n-2)."""
    grad, sq, crit = (surface_measure(n) * v for v in integrals)
    p = 2.0 * n / (n - 2)
    return ((4.0 * (n - 1) / (n - 2) * grad + (n - 1.0) * (n - 2.0) * sq)
            / crit ** (2.0 / p))


def circle_quotient_by_time(n: int, u_max: float) -> float:
    """Yamabe quotient of the circle-factor orbit through (u_max, 0) by
    time integration: the package's Dormand-Prince orbit sampled at 4097
    points over one quadrature period, and the composite Simpson rule.
    The package's former `circle_quotient`, kept to referee the
    quadrature one; like the integration, it needs 1 - u_max >= 1e-8."""
    period = periodic.orbit_period(n, u_max)
    ts, us, dus = orbit_samples(n, u_max, period, 4097)
    weights = np.full(ts.size, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    weights *= (ts[1] - ts[0]) / 3.0
    p = 2.0 * n / (n - 2)
    return yamabe_quotient(n, [float(np.dot(weights, f)) for f in
                               (dus * dus, us * us, np.abs(us) ** p)])


def series_start(alpha: float, t0: float, d) -> tuple[float, float]:
    """(h, h') at a small t0 > 0 of the two-term Taylor series of the
    regular solution from h(0) = alpha: matching the equation at t -> 0
    under h'(0) = 0 gives h(t) = alpha + c t^2 + O(t^4) with
    c = (alpha - alpha^q) / (2n). The scipy referees start from it."""
    c = (alpha - alpha ** d.q) / (2.0 * d.n)
    return alpha + c * t0 * t0, 2.0 * c * t0


def shot_reference(alpha: float, d, t_max: float = 50.0):
    """The CrossedZero or TurnedUp, without steps, of the radial shot from
    h(0) = alpha by scipy's DOP853 at rtol 1e-13, atol 1e-16, from
    `series_start` at t = 1e-4: the first of a zero crossing or a turn,
    as ode._integrate classifies them."""
    nm1, qm1 = d.n - 1.0, d.q - 1.0

    def flow(t, y):
        return y[1], -(nm1 / t) * y[1] + y[0] - abs(y[0]) ** qm1 * y[0]

    def cross(t, y):
        return y[0]
    cross.terminal, cross.direction = True, -1.0

    def turn(t, y):
        return y[1]
    turn.terminal, turn.direction = True, 1.0

    t0 = 1e-4
    sol = solve_ivp(flow, (t0, t_max), series_start(alpha, t0, d),
                    method="DOP853", rtol=1e-13, atol=1e-16,
                    events=(cross, turn))
    found = []
    for i, component in ((0, 1), (1, 0)):
        if len(sol.t_events[i]):
            found.append((sol.t_events[i][0], i,
                          sol.y_events[i][0][component]))
    te, i, ye = min(found)
    return (ode.CrossedZero, ode.TurnedUp)[i](te, ye)


def series_head_reference(alpha: float, d, t: float | None = None,
                          digits: int = 50, terms: int = 120):
    """(t0, h(t), h'(t)) of the Taylor series of the regular solution from
    h(0) = alpha, at t0 when t is None: h = sum a_j s^j in s = t^2 with
    2j (2j + n - 2) a_j = a_(j-1) - u_(j-1) and u = h^q by Miller's
    recurrence, in mpmath at `digits` digits to `terms` terms. t0 follows
    the package's rule: the largest t, at most 1, where each of the last
    two of ode._HEAD_TERMS terms is below ode._HEAD_TOL alpha."""
    with mpmath.workdps(digits):
        q = mpmath.mpf(d.k + 2) / (d.k - 2)
        a, u = [mpmath.mpf(alpha)], [mpmath.mpf(alpha) ** q]
        for j in range(1, terms + 1):
            a.append((a[j - 1] - u[j - 1]) / (2 * j * (2 * j + d.n - 2)))
            u.append(mpmath.fsum(((q + 1) * i - j) * a[i] * u[j - i]
                                 for i in range(1, j + 1)) / (j * a[0]))
        s0 = mpmath.mpf(1)
        for j in (ode._HEAD_TERMS - 1, ode._HEAD_TERMS):
            if a[j]:
                s0 = min(s0, (ode._HEAD_TOL * a[0] / abs(a[j]))
                         ** (mpmath.mpf(1) / j))
        t0 = mpmath.sqrt(s0)
        x = t0 if t is None else mpmath.mpf(t)
        s = x * x
        h = mpmath.polyval(a[::-1], s)
        dh = 2 * x * mpmath.polyval([j * a[j] for j in range(terms, 0, -1)],
                                    s)
        return float(t0), float(h), float(dh)


def sample_profile_loop(alpha, d, head, steps, t_stop):
    """Node-by-node profile sampler: the grid accumulates
    ode.PROFILE_SPACING, each node up to the series head's t0 is
    evaluated by the scalar series (none when head is None), each later
    one by the scalar continuous extension of the step it falls in, and
    the tail is cut as in ode._sample_profile. Each kept node's h'' is
    `ode_second_derivative`'s.
    """
    ts = [0.0]
    hs = [alpha]
    dhs = [0.0]
    tq = ode.PROFILE_SPACING
    while head is not None and tq <= head[0] and tq <= t_stop:
        he, dhe = ode._head_eval(head, tq)
        ts.append(tq)
        hs.append(he)
        dhs.append(dhe)
        tq += ode.PROFILE_SPACING
    for step in steps:
        t_old, dt = step[0], step[1]
        dense = ode._dense(step)
        while tq <= t_old + dt and tq <= t_stop:
            he, dhe = ode._dense_eval(dense, (tq - t_old) / dt)
            ts.append(tq)
            hs.append(he)
            dhs.append(dhe)
            tq += ode.PROFILE_SPACING
    cut = len(ts)
    for i in range(1, len(ts)):
        if hs[i] < ode._DECAY_THRESHOLD:
            cut = i + 1
            break
        if dhs[i] >= 0.0:
            cut = i
            break
    cut = max(cut, 2)
    ts, hs, dhs = (np.array(a[:cut]) for a in (ts, hs, dhs))
    return ode.RadialProfile(
        ts, hs, dhs, ode_second_derivative(ts, hs, dhs, d), d.n,
        tail=0.0 < hs[-1] <= 100.0 * ode._DECAY_THRESHOLD)


def sample_steps_loop(steps, ts):
    """(h, h') at the ascending times ts, one time at a time: each by the
    scalar continuous extension of the first step whose end reaches it,
    or of the last step past them all, as ode._sample_steps assigns them.
    """
    hs, dhs = [], []
    i = 0
    for t in ts.tolist():
        while i < len(steps) - 1 and steps[i][0] + steps[i][1] < t:
            i += 1
        step = steps[i]
        h, dh = ode._dense_eval(ode._dense(step), (t - step[0]) / step[1])
        hs.append(h)
        dhs.append(dh)
    return np.array(hs), np.array(dhs)


def tighten(monkeypatch, factor: float) -> None:
    """Divide both shot tolerances, ode._RTOL and ode._ATOL, by `factor`
    until `monkeypatch` is undone."""
    monkeypatch.setattr(ode, "_RTOL", ode._RTOL / factor)
    monkeypatch.setattr(ode, "_ATOL", ode._ATOL / factor)


def pohozaev_residuals(profile, d) -> tuple[float, float]:
    """(I_grad/I_p - n/k, I_sq/I_p - m/k) of a profile's integrals.

    A ground state of h'' + (n-1)/t h' - h + h^q = 0 on R^n satisfies the
    energy identity I_grad + I_sq = I_p and the Pohozaev identity
    (n-2)/2 I_grad + n/2 I_sq = n/p I_p (Pohozaev 1965; Berestycki &
    Lions 1983); with p = 2k/(k-2) both residuals vanish."""
    i_grad, i_sq, i_p = functional.radial_integrals(profile, d)
    return i_grad / i_p - d.n / d.k, i_sq / i_p - d.m / d.k


def gaussian_value(d) -> float:
    """L = I_grad^(n/k) I_sq^(m/k) / I_p^(2/p) at f = exp(-|x|^2 / 2) on
    R^n, where I_grad = (n/2) pi^(n/2), I_sq = pi^(n/2) and I_p =
    (2 pi / p)^(n/2). sigma_inv is the infimum of L, so it lies below."""
    m, n, k, p = d.m, d.n, d.k, d.p
    i_grad = 0.5 * n * math.pi ** (n / 2)
    i_sq = math.pi ** (n / 2)
    i_p = (2.0 * math.pi / p) ** (n / 2)
    return i_grad ** (n / k) * i_sq ** (m / k) / i_p ** (2.0 / p)


def profile_quotient(profile, d, s_g: float) -> float:
    """Yamabe quotient (a_k I_grad + s_g I_sq) / I_p^(2/p) of a radial
    function of the flat factor, for a unit-volume first factor of
    constant scalar curvature s_g."""
    i_grad, i_sq, i_p = functional.radial_integrals(profile, d)
    return (d.a * i_grad + s_g * i_sq) / i_p ** (2.0 / d.p)


def optimal_dilation(A: float, B: float, d) -> tuple[float, float]:
    """Minimize F(lambda) = lambda^(2m/k) A + lambda^(-2n/k) B over lambda.

    Returns (lambda0, F(lambda0)) with lambda0 = sqrt(nB/(mA)) and
    F(lambda0) = A^(n/k) B^(m/k) m^(-m/k) n^(-n/k) (m + n). With A and B
    a profile's two quotient terms this is the package's bound reached
    by another route, the dilation minimum of the quotient."""
    m, n, k = d.m, d.n, d.k
    lam0 = math.sqrt(n * B / (m * A))
    f_min = math.exp((n / k) * math.log(A) + (m / k) * math.log(B)
                     - (m / k) * math.log(m) - (n / k) * math.log(n)) * k
    return lam0, f_min


def dilate(profile, lam: float):
    """The dilated profile h(lam t) on the rescaled grid.

    A solver profile's tail decays at rate 1 and its dilation's at rate
    lam, which the profile cannot carry: unless lam is 1, the tail is
    written out on the profile's node spacing up to 40 past its last
    node, where h^2 has fallen by a further e^-80, and the dilation has
    no tail. h' scales by lam and h'' by lam^2."""
    if isinstance(profile, functional.PiecewiseLinearProfile):
        return replace(profile, ts=[t / lam for t in profile.ts])
    if profile.tail and lam != 1.0:
        tc, hc, half = profile.ts[-1], profile.hs[-1], 0.5 * (profile.n - 1)
        spacing = tc - profile.ts[-2]
        t = tc + spacing * np.arange(1, round(40.0 / spacing) + 1)
        h = hc * np.exp(-(t - tc)) * (tc / t) ** half
        rate = 1.0 + half / t  # h' = -rate h, h'' = (rate^2 + half/t^2) h
        profile = replace(
            profile, ts=np.append(profile.ts, t), hs=np.append(profile.hs, h),
            dhs=np.append(profile.dhs, -rate * h),
            d2hs=np.append(profile.d2hs, (rate * rate + half / t / t) * h),
            tail=False)
    return replace(profile, ts=profile.ts / lam, dhs=lam * profile.dhs,
                   d2hs=lam * lam * profile.d2hs)


def scale(profile, c: float):
    """The rescaled profile c h(t)."""
    if isinstance(profile, functional.PiecewiseLinearProfile):
        return replace(profile, hs=[c * h for h in profile.hs])
    return replace(profile, hs=c * profile.hs, dhs=c * profile.dhs,
                   d2hs=c * profile.d2hs)


def circle_orbit(n: int, u_max: float):
    """The circle-factor orbit through (u_max, 0) with its period."""
    delta = 1.0 - u_max
    return periodic.CircleOrbit(n=n, u_max=1.0 - delta, delta=delta,
                                period=periodic.orbit_period(n, u_max))


def orbit_samples(n: int, u_max: float, t_end: float, samples: int):
    """(t, u, u') of the package's time-integrated orbit from (u_max, 0)
    at `samples` equally spaced times on [0, t_end], where
    `periodic.integrate_orbit` takes 2049."""
    ts = np.linspace(0.0, t_end, samples)
    us, dus = ode._sample_steps(
        list(periodic._orbit_steps(n, u_max, t_end)), ts)
    return ts, us, dus


def step_control_reference(e5, e3, dt, rejected):
    """(err, factor) of the DOP853 controller as `ode._step_control` once
    wrote it, with max and min: err = dt e5 / sqrt(2 (e5 + e3 / 100)),
    factor 0.9 err^(-1/8) clamped to [0.2, 10], at most 1 right after a
    rejection, and a rejected step's factor left below 1 by the clamp."""
    err = dt * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3)) if e5 or e3 else 0.0
    if err > 1.0:
        return err, max(0.2, 0.9 * err ** -0.125)
    factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.125))
    return err, min(1.0, factor) if rejected else factor


def neville_start(ys, xs, y: float,
                  digits: int | None = None) -> tuple[float, float]:
    """(x, dx/dy) at y of the polynomial through the nodes (ys[j], xs[j])
    by Neville's scheme, carrying each entry's derivative along: O(N^2)
    operations, none of them a division by y - ys[j]. The scheme runs on
    x less the middle node's, as the differences of x that carry the
    derivative cancel on x itself: on the 385-node period table that
    loses up to 1.4e-10 of dx/dy against the scheme in mpmath, shifted
    at most 1.4e-13 (n = 3, 5, 8). With `digits` it runs in mpmath at
    that precision on the same float nodes."""
    num = float if digits is None else mpmath.mpf
    with mpmath.workdps(digits or 15):
        mid = num(xs[len(xs) // 2])
        p, d = [num(x) - mid for x in xs], [num(0)] * len(xs)
        y, ys = num(y), [num(v) for v in ys]
        for k in range(1, len(xs)):
            for j in range(len(xs) - k):
                a, b = y - ys[j + k], y - ys[j]
                gap = ys[j] - ys[j + k]
                d[j] = (p[j] - p[j + 1] + a * d[j] - b * d[j + 1]) / gap
                p[j] = (a * p[j] - b * p[j + 1]) / gap
        return float(mid + p[0]), float(d[0])


def period_table(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(xs, ts): every node x_j = log delta of the period table of
    `orbit_for_period` in dimension n and its period, each evaluated by
    `periodic._table_period` on first use and cached there."""
    xs, _ = periodic._table_nodes(n)
    return xs, tuple(periodic._table_period(n, j) for j in range(len(xs)))


def _series_reduced_reference(v, v_min: float, v_max: float, coeffs):
    """The former `periodic._series_reduced`, out of place."""
    dd = 0.0
    sigma_min = 1.0  # sigma_1(v_min)
    vm_pow = 1.0
    total = 0.0
    for cj in coeffs:
        dd = v * dd + sigma_min
        vm_pow *= v_max
        sigma_min = sigma_min * v_min + vm_pow
        total += cj * dd
    return total


def _series_quadrature_reference(n: int, v_max: float, moments: bool):
    """The former `periodic._series_quadrature`, out of place."""
    (_, weights), (_, sin), _ = periodic._gauss_rule()
    coeffs = periodic._well_coefficients(n)
    v_min = periodic._series_v_min(n, v_max)
    # phi = pi x, so sin(phi/2) is the outer-half sin(theta)
    dist_lo = (v_max - v_min) * sin * sin
    # reduced gap (E - V)/((u - u_min)(u_max - u))
    v = v_min + dist_lo
    reduced = _series_reduced_reference(v, v_min, v_max, coeffs)
    rate = 1.0 / np.sqrt(2.0 * reduced)
    period = 2.0 * math.pi * float(np.dot(weights, rate))
    if not moments:
        return period, None
    kinetic = 2.0 * (v_max - v) * dist_lo * reduced
    half = periodic._node_sums(math.pi * weights * rate,
                               periodic.constant_solution(n) + v,
                               kinetic, 2.0 * n / (n - 2))
    return period, tuple(2.0 * part for part in half)


def quadrature_reference(n: int, delta: float, moments: bool = False):
    """The former `periodic._quadrature`: (period, integrals) of the
    closed orbit through (1 - delta, 0), every array pass out of place,
    each half with its own log1p and expm1, the inner panels joined by
    np.concatenate and 1 - ratio formed from -expm1."""
    uc, big, pm2, lam, breaks = periodic._dimension_constants(n)
    u_max = 1.0 - delta
    if u_max - uc <= periodic._SERIES_AMPLITUDE * uc:
        return _series_quadrature_reference(n, u_max - uc, moments)
    (x, weights), (one_minus_sin, sin), w_outer = periodic._gauss_rule()

    s_min = log_u_min_reference(n, periodic._energy_ratio(n, delta))
    width = math.acosh(uc * math.exp(-s_min))
    backs, spans = [], []
    end = 0.0
    for brk in breaks:
        lo, end = end, min(brk, width)
        backs.append(lo + (end - lo) * x)
        spans.append((end - lo) * weights)
        if end == width:
            break
    back, inner_weights = np.concatenate(backs), np.concatenate(spans)
    w = width - back
    log_cosh = np.log1p(2.0 * np.sinh(0.5 * w) ** 2)
    ratio = (np.exp(pm2 * (s_min + log_cosh)) * -np.expm1(-big * log_cosh)
             / np.tanh(w) ** 2)
    inner_rate = 1.0 / np.sqrt(1.0 - ratio)
    lead = width - end
    inner = lead + float(np.dot(inner_weights, inner_rate))

    amp = u_max - uc
    dh = amp * one_minus_sin
    u = uc + amp * sin
    slope = u ** big * np.expm1(big * np.log1p(dh / u)) / dh - (u_max + u)
    outer_rate = np.sqrt(amp / slope)
    outer = float(np.dot(w_outer, outer_rate))
    period = 2.0 * (inner + outer) / lam
    if not moments:
        return period, None

    shift = math.log1p(math.exp(-2.0 * width))
    u_in = uc * np.exp(np.log1p(np.exp(-2.0 * w)) - shift - back)
    inside = periodic._node_sums(
        inner_weights * inner_rate / lam, u_in,
        (lam * u_in * np.tanh(w)) ** 2 * (1.0 - ratio), big)
    outside = periodic._node_sums(w_outer * outer_rate / lam, u,
                                  lam * lam * dh * slope, big)
    u_min = math.exp(s_min)
    u_lead = uc * math.exp(math.log1p(math.exp(-2.0 * lead)) - shift
                           - end)
    edge = u_lead * u_lead * math.tanh(lead)
    on_lead = (0.5 * lam * (edge - u_min * u_min * lead),
               0.5 * (edge + u_min * u_min * lead) / lam, 0.0)
    return period, tuple(2.0 * (a + b + c)
                         for a, b, c in zip(inside, outside, on_lead))


def log_u_min_reference(n: int, e: float) -> float:
    """The former `periodic._log_u_min`: Newton's method in s = log u
    that stops only once a step fails to shrink, so after the step that
    last moves s it computes one that leaves s unchanged and one more."""
    pm2 = 4.0 / (n - 2)
    target = math.log(-e)
    s = 0.5 * target
    last = math.inf
    for _ in range(periodic._NEWTON_STEPS):
        x = math.exp(pm2 * s)
        step = ((2.0 * s + math.log1p(-x) - target)
                / (2.0 - pm2 * x / (1.0 - x)))
        if not abs(step) < last:
            return s
        s -= step
        last = abs(step)
    raise RuntimeError(f"inner turning point did not converge for e={e!r}")


def return_time_full_orbit(n: int, u_max: float) -> float:
    """The former `periodic.return_time`: the package's DOP853 orbit from
    (u_max, 0) stepped to 1.5 quadrature periods, and the first downward
    zero of u' past half a period, a whole orbit later."""
    periodic._check_time_window(u_max)
    t_guess = periodic.orbit_period(n, u_max)
    for step in periodic._orbit_steps(n, u_max, 1.5 * t_guess):
        if step[0] > 0.5 * t_guess and step[3] > 0.0 >= step[5]:
            dense = ode._dense(step)
            return step[0] + ode._locate(dense, 1) * step[1]
    raise RuntimeError("orbit did not return within 1.5 periods")


def orbit_for_period_reference(n: int, period: float):
    """The former `periodic.orbit_for_period`, which builds its
    `shooting.Illinois` bracket and closest-orbit record before its first
    evaluation, whether that evaluation lands on the target or not."""
    periodic._check_dim(n)
    if math.isnan(period):
        raise ValueError(f"period must be a number, got {period}")
    t_min = periodic.minimal_period(n)
    if period <= t_min:
        raise ValueError(
            f"no closed orbit has period {period:.6g} <= minimal period "
            f"{t_min:.6g}")
    if periodic._table_period(n, periodic._TABLE_STEPS) < period:
        raise ValueError(
            f"period {period:.6g} requires an orbit too close to the "
            "separatrix to resolve")
    i = periodic._table_interval(n, period)
    xs, ts = periodic._table_nodes(n)
    a, b, t_a, t_b = xs[i], xs[i - 1], ts[i], ts[i - 1]
    f_a, f_b = period - t_a, period - t_b
    search = Illinois(a, f_a, b, f_b)
    best = (abs(f_a), a, t_a) if abs(f_a) < abs(f_b) else (abs(f_b), b, t_b)
    y = math.sqrt(period - t_min)
    x = periodic._table_start(n, i, y)
    for step in range(periodic._INVERSE_STEPS):
        if best[0] <= periodic._INVERSE_RTOL * period:
            break
        if step == 1:
            x += periodic._table_slope(n, i, y) * (
                y - math.sqrt(max(t_x - t_min, 0.0)))
        if step > 1 or not search.lo < x < search.hi:
            x = search.point()
            if x is None:
                break
        t_x = periodic._period(n, math.exp(x))
        f_x = period - t_x
        if abs(f_x) < best[0]:
            best = (abs(f_x), x, t_x)
        search.update(x, f_x)
    miss, x, t_x = best
    if miss > periodic._INVERSE_FAIL * period:
        raise RuntimeError(
            f"period inversion did not converge for n={n}, "
            f"period={period!r}: the closest orbit misses by "
            f"{miss / period:.3g} relative")
    delta = math.exp(x)
    return periodic.CircleOrbit(n=n, u_max=1.0 - delta, period=t_x,
                                delta=delta)
