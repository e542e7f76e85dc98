"""Differential geometry of surfaces of revolution in the semi-isotropic
3-space: vector algebra, series special functions, fundamental forms, two
Laplace operators, and numerical verification of the eigenvalue
classifications.

`import sigeom` loads the base layer only: `errors`, and `bessel` with
numpy.  Every other public name, and every other submodule,
is imported on first access.
"""

import importlib

from . import bessel, errors

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "bessel": "DEFAULT_SERIES EULER_GAMMA BesselKind SeriesConfig"
        " bessel_i0 bessel_j bessel_j0 bessel_k0 bessel_y0 gamma harmonic jp_pair_solution"
        " modified_pair_solution ode_residual pochhammer",
        "classify": "CertifiedProfile CurvatureReport EigenReport Grid OperatorKind Verdict"
        " check_eigen_i check_eigen_ii eigen_system_residual make_grid"
        " solve_radial_eigen_ode verify_constant_curvature",
        "core": "CausalClass Motion Vec3SI apply_motion boost causal_class inverse_motion"
        " is_null_eps scalar_product semi_norm si_angle vector_product",
        "errors": "AdmissibilityError DomainError NonConvergenceError ParabolicPointError"
        " ProfileSpecError StencilError",
        "expressions": "expression_profile",
        "profiles": "DEFAULT_DOMAIN ProfileCurve ProfileFamily bessel_profile"
        " constant_h_profile constant_k_profile derivative_consistency_error eval_profile"
        " linear_profile log_profile power_profile",
        "surfaces": "FundamentalForms Mesh RevolutionKind RevolutionSurface ScalarField"
        " b_function b_of_profile coord_laplacians_i coord_laplacians_ii coordinate_fields"
        " curvatures fundamental_forms fundamental_forms_fd laplacian_i laplacian_ii mesh"
        " point_at",
    }.items()
    for name in names.split()
}
_SUBMODULES = ("_ddouble", "autodiff", "classify", "cli", "core", "expressions", "profiles",
               "surfaces")

__all__ = list(_HOME)


def __getattr__(name: str):
    # looked up on every access, never bound here: a name replaced in its
    # submodule (as the benchmark's tracer does) is what callers get
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
