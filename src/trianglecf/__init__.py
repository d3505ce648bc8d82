"""Continued fraction algorithms for the (3, n, oo) Fuchsian triangle groups.

Exact arithmetic over the trace field Q(2cos(pi/n)), the slow and
accelerated interval maps with their planar natural extensions and
invariant measure, approximant/Diophantine machinery, and experiment
runners for the measure-theoretic and transcendence properties.

The package has two lanes.  The exact lane (`errors`, `field`, `group`,
`quadratic`, `dynamics`, `planar`, `dioph`, `verify`) never loads numpy,
and its public names are imported here.  The float lane (`numeric`,
`ergodic`) is numpy's only user.  Its public names are in `__all__` too,
but the module `__getattr__` below imports the lane the first time one of
them is asked for, once per process.
"""

__version__ = "0.1.0"

import importlib

from .errors import ConsistencyError, DomainError, PrecisionExhausted, TriangleCFError
from .field import (
    Enclosure,
    FieldElement,
    NumberField,
    build_field,
    galois_conjugate_values,
    get_precision_cap,
    set_precision_cap,
)
from .group import INFINITY, Generators, Mobius, b_sequence, digit_matrix, generators, power_B, y_matrix
from .quadratic import QuadExt, solve_fixed_points
from .dynamics import (
    OrbitTables,
    build_orbit_tables,
    cylinder_of_f,
    cylinder_of_g,
    eps0,
    f_step,
    g_step,
    j_of,
    product_relations_check,
)
from .planar import (
    Heights,
    PlanarRegion,
    Rect,
    S_step,
    T_inverse,
    T_step,
    build_gamma,
    build_heights,
    build_omega,
    mu_gamma,
    mu_rect,
    mu_region,
    nu_cdf,
    nu_density,
    verify_bijectivity,
)
from .dioph import (
    ConvergentState,
    ExpansionResult,
    PeriodicPoint,
    danger_region_contains,
    expand,
    periodic_point,
    theta_fn,
    transcendence_indicator,
)

# public name -> the float-lane module that defines it
_FLOAT_LANE = {
    "borel_scan": "numeric",
    "convergence_scan": "numeric",
    "birkhoff_experiment": "numeric",
    "uniform_distribution_experiment": "numeric",
    "adler_scan": "ergodic",
    "observed_words": "ergodic",
    "induced_step_Y": "ergodic",
    "is_admissible": "ergodic",
    "is_realizable": "ergodic",
    "cylinder_interval": "ergodic",
    "AdmissibilityResult": "ergodic",
}
_FLOAT_MODULES = ("numeric", "ergodic")

__all__ = [
    "__version__",
    "TriangleCFError", "DomainError", "PrecisionExhausted", "ConsistencyError",
    "NumberField", "FieldElement", "Enclosure", "build_field",
    "galois_conjugate_values", "get_precision_cap", "set_precision_cap",
    "Mobius", "Generators", "INFINITY", "generators", "digit_matrix",
    "y_matrix", "power_B", "b_sequence",
    "QuadExt", "solve_fixed_points",
    "OrbitTables", "build_orbit_tables", "cylinder_of_g", "cylinder_of_f",
    "g_step", "f_step", "j_of", "eps0", "product_relations_check",
    "Heights", "PlanarRegion", "Rect", "build_heights", "build_omega",
    "build_gamma", "S_step", "T_step", "T_inverse", "verify_bijectivity",
    "mu_rect", "mu_region", "mu_gamma", "nu_cdf", "nu_density",
    "ConvergentState", "ExpansionResult", "PeriodicPoint", "expand",
    "theta_fn", "danger_region_contains", "periodic_point",
    "transcendence_indicator",
    "AdmissibilityResult", "is_admissible", "is_realizable",
    "cylinder_interval", "observed_words", "induced_step_Y", "adler_scan",
    "uniform_distribution_experiment", "birkhoff_experiment",
    "borel_scan", "convergence_scan",
]


def __getattr__(name):
    """Load the float lane on the first use of one of its names.

    Binds every float-lane name (and the `numeric` and `ergodic` submodules,
    which the import binds) into the package, so Python never calls this
    again for them."""
    if name not in _FLOAT_LANE and name not in _FLOAT_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for attr, module in _FLOAT_LANE.items():
        globals()[attr] = getattr(importlib.import_module(f".{module}", __name__), attr)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
