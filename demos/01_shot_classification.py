# The shooting dichotomy for the radial ground-state equation
#
#     h'' + (n-1)/t h' - h + h^q = 0,   h(0) = alpha,  h'(0) = 0.
#
# Start slightly above the critical initial value and the solution dives
# through zero, then oscillates about -1; start slightly below and it
# bottoms out early, turns around and oscillates about +1. Exactly one
# initial value threads the needle and decays to zero: the ground state.

import numpy as np
from scipy.integrate import solve_ivp

from gnyamabe import Dims, integrate_shot, rhs

d = Dims(2, 2)

for alpha in (2.208, 2.205):
    outcome = integrate_shot(alpha, d)
    print(f"alpha = {alpha}: {type(outcome).__name__}")

# To see the oscillations past the first classification event, integrate
# the same right-hand side without stopping. The package classifies shots
# by their first event; everything after it belongs to plots like these.
# scipy starts at t0 = 1e-4 from the two-term series of the regular
# solution, h = alpha + c t^2 with c = (alpha - alpha^q) / (2n).
t0 = 1e-4
fig_data = {}
for alpha in (2.208, 2.205):
    c = (alpha - alpha ** d.q) / (2.0 * d.n)
    y0 = (alpha + c * t0 * t0, 2.0 * c * t0)
    sol = solve_ivp(lambda t, y: rhs(t, y[0], y[1], d), (t0, 15.0), y0,
                    rtol=1e-10, atol=1e-12, dense_output=True)
    ts = np.linspace(t0, 15.0, 2000)
    fig_data[alpha] = (ts, sol.sol(ts)[0])
    final = sol.sol(15.0)[0]
    print(f"alpha = {alpha}: h(15) = {final:+.4f}  "
          f"(oscillating about {'-1' if final < 0 else '+1'})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 3.5), sharey=True)
    for ax, alpha in zip(axes, (2.208, 2.205)):
        ts, hs = fig_data[alpha]
        ax.plot(ts, hs)
        ax.axhline(0.0, color="k", lw=0.5)
        ax.set_title(f"alpha = {alpha}")
        ax.set_xlabel("t")
    axes[0].set_ylabel("h(t)")
    fig.tight_layout()
    fig.savefig("shot_classification.png", dpi=120)
    print("wrote shot_classification.png")
except ImportError:
    pass
