"""Best Gagliardo-Nirenberg constants by ODE shooting, and the limiting
Yamabe constants of Riemannian products they determine. The top level
exports what the README quick start and the demos use; every other name
is imported from its submodule."""

from .geometry import Dims, unit_volume_sphere_scalar, yamabe_sphere
from .ode import integrate_shot, rhs, series_start
from .shooting import find_ground_state
from .functional import PiecewiseLinearProfile, bundled_test_function, gn_value
from .products import bound_from_profile, build_table, y_infinity
from .periodic import (circle_quotient, constant_solution,
                       count_periodic_solutions, hamiltonian, integrate_orbit,
                       minimal_period, orbit_for_period, orbit_period,
                       potential)

__version__ = "0.1.0"

__all__ = [
    "Dims", "unit_volume_sphere_scalar", "yamabe_sphere",
    "integrate_shot", "rhs", "series_start",
    "find_ground_state",
    "PiecewiseLinearProfile", "bundled_test_function", "gn_value",
    "bound_from_profile", "build_table", "y_infinity",
    "circle_quotient", "constant_solution", "count_periodic_solutions",
    "hamiltonian", "integrate_orbit", "minimal_period", "orbit_for_period",
    "orbit_period", "potential",
]
