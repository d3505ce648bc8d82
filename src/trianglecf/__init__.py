"""Continued fraction algorithms for the (3, n, oo) Fuchsian triangle groups.

Exact arithmetic over the trace field Q(2cos(pi/n)), the slow and
accelerated interval maps with their planar natural extensions and
invariant measure, approximant/Diophantine machinery, and experiment
runners for the measure-theoretic and transcendence properties.

The package has two lanes.  The exact lane (`errors`, `field`, `group`,
`quadratic`, `dynamics`, `planar`, `dioph`, `verify`) never loads numpy and
returns exact values; `measure` turns them into floats (mu, nu, log q_m, the
growth screen, the periodic family's gaps), also without numpy.  The float
lane (`numeric`, `ergodic`) is numpy's only user.

Every layer loads on first use.  `import trianglecf` imports no submodule;
the module `__getattr__` below imports a layer the first time one of its
public names, or the layer itself, is asked for, once per process.  So a
process pays only for the layers it runs.
"""

__version__ = "0.1.0"

import importlib

# each layer (submodule) with the public names it defines, in the order of
# __all__; `verify` and `cli` define none the package exports
_LAYERS = {
    "errors": ("TriangleCFError", "DomainError", "PrecisionExhausted",
               "ConsistencyError"),
    "field": ("NumberField", "FieldElement", "Enclosure", "build_field",
              "galois_conjugate_values", "get_precision_cap", "set_precision_cap"),
    "group": ("Mobius", "Generators", "INFINITY", "generators", "digit_matrix",
              "y_matrix", "power_B", "b_sequence"),
    "quadratic": ("QuadExt", "solve_fixed_points"),
    "dynamics": ("OrbitTables", "build_orbit_tables", "cylinder_of_g",
                 "cylinder_of_f", "g_step", "f_step", "j_of", "eps0",
                 "product_relations_check", "AdmissibilityResult", "is_admissible",
                 "is_realizable", "cylinder_interval"),
    "planar": ("Heights", "PlanarRegion", "Rect", "build_heights", "build_omega",
               "build_gamma", "S_step", "T_step", "T_inverse", "verify_bijectivity"),
    "measure": ("mu_rect", "mu_region", "mu_gamma", "nu_cdf", "nu_density",
                "transcendence_indicator"),
    "dioph": ("ConvergentState", "ExpansionResult", "PeriodicPoint", "expand",
              "theta_fn", "danger_region_contains", "periodic_point"),
    "ergodic": ("observed_words", "induced_step_Y", "adler_scan"),
    "numeric": ("uniform_distribution_experiment", "birkhoff_experiment",
                "borel_scan", "convergence_scan"),
    "verify": (),
    "cli": (),
}
# public name -> the layer that defines it
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import a layer on the first use of its name or of one of its names.

    Binds every public name of the layer into the package (the import
    itself binds the layer), so Python never calls this again for them.
    `_csv` is the standard-library csv module, which only the CLI's csv
    output needs."""
    if name == "_csv":
        globals()[name] = importlib.import_module("csv")
        return globals()[name]
    layer = name if name in _LAYERS else _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{layer}", __name__)
    for attr in _LAYERS[layer]:
        globals()[attr] = getattr(module, attr)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
