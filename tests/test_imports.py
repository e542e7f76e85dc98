"""The package's public API under lazy loading, and the layers that each
CLI command loads.

`import sigeom` loads only `errors` and `bessel` (with numpy); every other
layer is imported on first attribute access, and each CLI subcommand
imports only what it reaches.  These tests run each command in a fresh
interpreter and read `sys.modules` when it exits.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import sigeom

ROOT = Path(__file__).resolve().parents[1]

# the package's exported names, by defining module
EXPORTS = {
    "bessel": ["DEFAULT_SERIES", "EULER_GAMMA", "BesselKind", "SeriesConfig", "bessel_i0",
               "bessel_j", "bessel_j0", "bessel_k0", "bessel_y0", "gamma", "harmonic",
               "jp_pair_solution", "modified_pair_solution", "ode_residual", "pochhammer"],
    "classify": ["CertifiedProfile", "CurvatureReport", "EigenReport", "Grid", "OperatorKind",
                 "Verdict", "check_eigen_i", "check_eigen_ii", "eigen_system_residual",
                 "make_grid", "solve_radial_eigen_ode", "verify_constant_curvature"],
    "core": ["CausalClass", "Motion", "Vec3SI", "apply_motion", "boost", "causal_class",
             "inverse_motion", "is_null_eps", "scalar_product", "semi_norm", "si_angle",
             "vector_product"],
    "errors": ["AdmissibilityError", "DomainError", "NonConvergenceError",
               "ParabolicPointError", "ProfileSpecError", "StencilError"],
    "expressions": ["expression_profile"],
    "profiles": ["DEFAULT_DOMAIN", "ProfileCurve", "ProfileFamily", "bessel_profile",
                 "constant_h_profile", "constant_k_profile", "derivative_consistency_error",
                 "eval_profile", "linear_profile", "log_profile", "power_profile"],
    "surfaces": ["FundamentalForms", "Mesh", "RevolutionKind", "RevolutionSurface",
                 "ScalarField", "b_function", "b_of_profile", "coord_laplacians_i",
                 "coord_laplacians_ii", "coordinate_fields", "curvatures", "fundamental_forms",
                 "fundamental_forms_fd", "laplacian_i", "laplacian_ii", "mesh", "point_at"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
SUBMODULES = ["_ddouble", "autodiff", "bessel", "classify", "cli", "core", "errors",
              "expressions", "profiles", "surfaces"]
BEYOND_BASE = {"profiles", "surfaces", "classify", "core", "expressions", "autodiff"}


def test_all_lists_the_74_exported_names():
    assert len(NAMES) == 74
    assert sigeom.__all__ == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_defining_modules_object(module):
    home = importlib.import_module(f"sigeom.{module}")
    for name in EXPORTS[module]:
        assert getattr(sigeom, name) is getattr(home, name), name


def test_star_import_binds_every_exported_name():
    ns: dict = {}
    exec("from sigeom import *", ns)
    assert set(ns) - {"__builtins__"} == set(NAMES)


def test_dir_lists_the_names_and_submodules():
    assert set(dir(sigeom)) >= {*NAMES, *SUBMODULES, "__version__"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sigeom.no_such_name  # noqa: B018


def test_names_are_looked_up_on_each_access(monkeypatch):
    # the benchmark's tracer replaces functions inside their modules
    sentinel = object()
    monkeypatch.setattr(sigeom.classify, "make_grid", sentinel)
    assert sigeom.make_grid is sentinel


def test_tracer_finds_every_layer_it_instruments():
    modules = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["MODULES"]
    for name in modules:
        assert hasattr(sigeom, name), name
        assert getattr(sigeom, name) is importlib.import_module(f"sigeom.{name}")


_PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith("sigeom."))))
print(json.dumps("numpy" in sys.modules))
"""


def _loaded(body: str) -> tuple[set[str], bool]:
    """The sigeom submodules, and whether numpy, are loaded after `body` runs
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body=body)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    modules, numpy = proc.stdout.splitlines()[-2:]
    return set(json.loads(modules)), json.loads(numpy)


def test_import_sigeom_loads_the_base_layer_and_numpy():
    modules, numpy = _loaded("import sigeom")
    assert modules == {"bessel", "errors"}
    assert numpy


def _cli(argv, code):
    return f"from sigeom.cli import main\nassert main({argv!r}) == {code}"


@pytest.mark.parametrize("argv, code", [
    (["bessel", "--kind", "j0", "--range", "0:1", "--n", "3"], 0),
    (["figure", "1a", "--out-dir", "{tmp}"], 0),
    (["surface", "--profile", "nope:a=1", "--action", "curvature"], 2),
    (["surface", "--profile", "log:lambda=x,c=0", "--action", "classify1"], 2),
    (["bessel", "--kind", "jp", "--p", "0.3", "--range", "0:1", "--n", "3"], 0),
])
def test_tables_and_refused_specs_load_no_geometry_layer(tmp_path, argv, code):
    argv = [a.format(tmp=tmp_path) for a in argv]
    modules, _ = _loaded(_cli(argv, code))
    assert modules & BEYOND_BASE == set()


@pytest.mark.parametrize("action", ["curvature", "mesh"])
def test_surface_without_grid_fit_loads_no_expression_classify_or_core_layer(tmp_path, action):
    argv = ["surface", "--profile", "log:lambda=1,c=0", "--action", action, "--grid", "3x3",
            "--out", str(tmp_path / "out")]
    modules, _ = _loaded(_cli(argv, 0))
    assert {"profiles", "surfaces"} <= modules
    assert modules & {"expressions", "autodiff", "classify", "core"} == set()
