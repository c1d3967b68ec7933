# Upper bounds without solving any ODE: plug an explicit piecewise-linear
# test function into the functional. The bundled 22-breakpoint profile was
# tuned for (2, 2) and certifies a bound within 0.4% of the true optimum.

import math

from gnyamabe import (Dims, bound_from_profile, bundled_test_function,
                      gn_value, unit_volume_sphere_scalar, yamabe_sphere)

d = Dims(2, 2)
profile = bundled_test_function()
print(f"breakpoints: {len(profile.ts)}, support [0, {profile.ts[-1]:g}]")

res = gn_value(profile, d)
print(f"L(f)      = {res.sigma_inv:.7f}")
print(f"certifies   sigma_inv <= {res.sigma_inv:.7f} < 2.427458")

s_g = unit_volume_sphere_scalar(2)
bound = bound_from_profile(profile, d, s_g)
print(f"\nupper bound for the limiting Yamabe constant: {bound:.5f}")
print(f"which is 8 sqrt(3 pi) L(f) = {8 * math.sqrt(3 * math.pi) * res.sigma_inv:.5f}")
print(f"sphere invariant Y_4       = {yamabe_sphere(4):.5f}")
print(f"bound < Y_4: {bound < yamabe_sphere(4)}")

# a crude test function still gives a bound, just a worse one
from gnyamabe import PiecewiseLinearProfile

triangle = PiecewiseLinearProfile([0.0, 1.0], [1.0, 0.0])
print(f"\ntriangle profile: bound = "
      f"{bound_from_profile(triangle, d, s_g):.5f} (not below Y_4)")
