"""Best Gagliardo-Nirenberg constants by ODE shooting, and the limiting
Yamabe constants of Riemannian products they determine."""

from .geometry import (Dims, coupling_constant, sobolev_constant, sphere_volume,
                       surface_measure, unit_volume_sphere_scalar, yamabe_sphere)
from .ode import (DEFAULT_CONTROLS, Candidate, CrossedZero, IntegrationControls,
                  IntegrationFailure, RadialProfile, ShotOutcome, TurnedUp,
                  integrate_shot, rhs, series_start, shoot_profile,
                  write_profile)
from .shooting import GroundState, ShootingError, bracket_alpha, find_ground_state
from .functional import (GNResult, PiecewiseLinearProfile, ProfileFormatError,
                         bundled_test_function, dilate, gn_value,
                         radial_integrals, read_profile_file, scale,
                         yamabe_quotient)
from .products import (ConstantsRow, bound_from_profile, build_table,
                       optimal_dilation, reference_constants, table_pairs,
                       y_infinity)
from .periodic import (CircleOrbit, circle_orbit, circle_quotient,
                       constant_solution, count_periodic_solutions,
                       hamiltonian, integrate_orbit, minimal_period,
                       orbit_for_period, orbit_period, potential, return_time,
                       write_orbit)

__version__ = "0.1.0"

__all__ = [
    "Dims", "sphere_volume", "surface_measure", "yamabe_sphere",
    "sobolev_constant", "coupling_constant", "unit_volume_sphere_scalar",
    "IntegrationControls", "DEFAULT_CONTROLS", "RadialProfile", "CrossedZero",
    "TurnedUp", "Candidate", "ShotOutcome", "IntegrationFailure", "rhs",
    "series_start", "integrate_shot", "shoot_profile", "write_profile",
    "GroundState", "ShootingError", "bracket_alpha", "find_ground_state",
    "GNResult", "PiecewiseLinearProfile", "ProfileFormatError",
    "radial_integrals", "gn_value", "yamabe_quotient", "dilate", "scale",
    "read_profile_file", "bundled_test_function",
    "ConstantsRow", "y_infinity", "optimal_dilation", "bound_from_profile",
    "build_table", "reference_constants", "table_pairs",
    "CircleOrbit", "constant_solution", "potential", "hamiltonian",
    "minimal_period", "orbit_period", "circle_orbit", "orbit_for_period",
    "count_periodic_solutions", "integrate_orbit", "return_time",
    "circle_quotient", "write_orbit",
]
