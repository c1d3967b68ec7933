"""Best Gagliardo-Nirenberg constants by ODE shooting, and the limiting
Yamabe constants of Riemannian products they determine. The top level
exports what the README quick start and the demos use, each loaded from
its submodule on first access (PEP 562), so that `import gnyamabe` loads
no submodule and no numpy; every other name is imported from its
submodule."""

import importlib

__version__ = "0.1.0"

# the submodules, each with the names it exports
_EXPORTS = {
    "geometry": ("Dims", "unit_volume_sphere_scalar", "y_infinity",
                 "yamabe_sphere"),
    "ode": ("integrate_shot", "rhs"),
    "shooting": ("find_ground_state",),
    "functional": ("PiecewiseLinearProfile", "bundled_test_function",
                   "gn_value"),
    "products": ("bound_from_profile", "build_table"),
    "periodic": ("circle_quotient", "constant_solution",
                 "count_periodic_solutions", "hamiltonian", "integrate_orbit",
                 "minimal_period", "orbit_for_period", "orbit_period",
                 "potential"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(__getattr__(_SOURCE[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
