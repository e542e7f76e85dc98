import errno
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mp_bessel import JET_BOUND, modified_jet_errors, plain_jet_errors
from sigeom.cli import main, parse_profile_spec
from sigeom.bessel import bessel_j0, bessel_y0
from sigeom.errors import ProfileSpecError
from sigeom.profiles import ProfileFamily


def _read(path):
    return path.read_text()


def _csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header, rows = lines[0], lines[1:]
    return header, [tuple(float(x) for x in row.split(",")) for row in rows]


# ----------------------------------------------------------------------
# profile-spec parsing


def test_parse_profile_spec_families():
    assert parse_profile_spec("log:lambda=-2,c=0").family is ProfileFamily.LOG_TYPE
    assert parse_profile_spec("bessel:lambda=1,c1=1,c2=0").family is ProfileFamily.BESSEL_TYPE
    assert parse_profile_spec("constk:k0=1,c1=0.5").family is ProfileFamily.CONSTANT_K
    assert parse_profile_spec("consth:h0=1,c1=0,c2=2").family is ProfileFamily.CONSTANT_H
    assert parse_profile_spec("power:lambda=1,mu=2,c=1").family is ProfileFamily.POWER_TYPE
    lin = parse_profile_spec("lin:a=1,b=0")
    assert lin.params["form"] == "linear"
    expr = parse_profile_spec("expr:f=u^2+ln(u)")
    assert expr.evaluate(2.0) == pytest.approx(4.0 + math.log(2.0), rel=1e-14)


def test_parse_profile_spec_errors():
    for bad in (
        "nope:a=1",
        "log:lambda=-2",  # missing key
        "log:lambda=-2,c=0,zz=3",  # unknown key
        "log:lambda=abc,c=0",
        "justtext",
        "log:lambda",
    ):
        with pytest.raises(ProfileSpecError):
            parse_profile_spec(bad)


# ----------------------------------------------------------------------
# bessel subcommand


def test_bessel_csv(tmp_path):
    out = tmp_path / "j0.csv"
    assert main(["bessel", "--kind", "j0", "--range", "0:10", "--n", "200", "--out", str(out)]) == 0
    header, rows = _csv_rows(_read(out))
    assert header == "x,value"
    assert len(rows) == 200
    assert rows[0] == (0.0, 1.0)
    x, val = rows[100]
    assert val == pytest.approx(bessel_j0(x), rel=1e-15)


def test_bessel_single_point(tmp_path, capsys):
    assert main(["bessel", "--kind", "j0", "--range", "0:0", "--n", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x,value\n0,1\n"


def test_bessel_domain_error(capsys):
    assert main(["bessel", "--kind", "k0", "--range", "-3:3"]) == 3
    assert "k0 requires x > 0" in capsys.readouterr().err


def test_bessel_jp_needs_p(capsys):
    assert main(["bessel", "--kind", "jp", "--range", "0.5:5"]) == 2


def test_bessel_jp_refuses_an_infinite_2p(capsys):
    assert main(["bessel", "--kind", "jp", "--p", "1e308", "--range", "1:2", "--n", "3"]) == 3
    assert capsys.readouterr().err == "error: bessel_j requires a finite 2p, got p=1e+308\n"


def test_bessel_non_convergence(capsys):
    assert main(["bessel", "--kind", "j0", "--range", "0:200", "--n", "5"]) == 5


def test_bessel_k0_table_past_the_series_reach(capsys):
    # K0 past x = 2 is the trapezoidal rule on its integral: the
    # double-double series printed five negative values here and exited 0
    assert main(["bessel", "--kind", "k0", "--range", "70:100", "--n", "5"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == "x,value" and [x for x, _ in rows] == [70.0, 77.5, 85.0, 92.5, 100.0]
    for x, value in rows:
        assert value > 0.0
        assert modified_jet_errors("k0", x, (value,))[0] <= JET_BOUND, x


def test_bessel_jp_table_past_30_is_quiet_and_refused_past_millers_reach(capsys):
    # J_p from x_c up is Miller's recurrence: the double-double series warned
    # past x = 30 and was up to 4e-9 off there; past Miller's start it is
    # refused as J0 is
    from scipy.special import jv

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["bessel", "--kind", "jp", "--p", "0.3", "--range", "0:40", "--n", "900"]
    proc = subprocess.run([sys.executable, "-m", "sigeom", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    header, rows = _csv_rows(proc.stdout)
    assert header == "x,value" and len(rows) == 900
    xs, values = np.array(rows).T
    assert np.abs(values - jv(0.3, xs)).max() <= 2e-14  # scipy's own error is near 1e-14
    for x, value in rows[1::30]:
        assert plain_jet_errors("j", 0.3, x, (value,))[0] <= JET_BOUND, x
    refused = []
    for kind in ("j0", "jp"):
        assert main(["bessel", "--kind", kind, "--p", "0.3", "--range", "0:200", "--n", "5"]) == 5
        refused.append(capsys.readouterr().err)
    assert refused == ["error: series did not meet rel_tol=1e-15 within 200 terms at x=150.0\n"] * 2


# Gamma(1+p) overflows for p > 170.6 and is 0 below about -199; the parent's
# Lanczos gamma raised OverflowError there
@pytest.mark.parametrize("p", [171.3, -200.3])
def test_bessel_jp_refuses_a_gamma_out_of_range(capsys, p):
    assert main(["bessel", "--kind", "jp", "--p", str(p), "--range", "0.5:5", "--n", "3"]) == 3
    want = f"error: bessel_j requires Gamma(1+p) to be finite and nonzero, got p={p!r}\n"
    assert capsys.readouterr().err == want


# the parent printed -inf at x = 0.5 and exited 0
def test_bessel_jp_refuses_an_overflowing_value(capsys):
    for hi in ("5", "200"):  # also before Miller's refusal at x = 200
        argv = ["bessel", "--kind", "jp", "--p", "-171.3", "--range", f"0.5:{hi}", "--n", "3"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: bessel_j of order p=-171.3 overflows at x=0.5\n")


def _assert_parse_error(capsys, argv, fragment):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("tol", ["0", "nan", "2", "1", "-1e-15", "inf"])
def test_bessel_series_tol_outside_0_1_is_a_parse_error(capsys, tol):
    argv = ["bessel", "--kind", "j0", "--range", "0:1", "--n", "3", f"--series-tol={tol}"]
    _assert_parse_error(capsys, argv, "--series-tol must lie in (0, 1)")


@pytest.mark.parametrize("pair", ["0:nan", "nan:1", "0:inf", "-inf:1"])
def test_bessel_non_finite_range_is_a_parse_error(capsys, pair):
    argv = ["bessel", "--kind", "j0", "--range", pair, "--n", "3"]
    _assert_parse_error(capsys, argv, "--range must have finite endpoints")


# ----------------------------------------------------------------------
# surface subcommand


def test_surface_classify1_bessel(capsys):
    code = main([
        "surface", "--profile", "bessel:lambda=1,c1=1,c2=0",
        "--u", "1:4", "--v", "-1:1", "--action", "classify1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: NullTwoType" in out
    assert "lambda3: 1" in out


def test_surface_classify2_log(capsys):
    code = main([
        "surface", "--profile", "log:lambda=-2,c=0",
        "--u", "0.5:5", "--v", "-0.5:1", "--action", "classify2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: SIMinimal" in out
    assert "lambda1: -2" in out and "lambda2: -2" in out


def test_surface_classify2_negative_result_still_exits_zero(capsys):
    code = main([
        "surface", "--profile", "consth:h0=2,c1=0,c2=0",
        "--u", "0.5:5", "--v", "-1:1", "--action", "classify2",
    ])
    assert code == 0
    assert "verdict: NoEigenRelation" in capsys.readouterr().out


def test_surface_linear_profile_is_parabolic(capsys):
    assert main(["surface", "--profile", "lin:a=1,b=0", "--action", "classify2"]) == 4


def test_surface_parse_error(capsys):
    assert main(["surface", "--profile", "zzz:a=1", "--action", "classify1"]) == 2


@pytest.mark.parametrize(
    "flag,value,fragment",
    [
        ("--tol", "nan", "--tol must be finite and > 0"),
        ("--tol", "inf", "--tol must be finite and > 0"),
        ("--tol", "-1e-6", "--tol must be finite and > 0"),
        ("--tol", "0", "--tol must be finite and > 0"),
        ("--series-tol", "0", "--series-tol must lie in (0, 1)"),
        ("--series-tol", "nan", "--series-tol must lie in (0, 1)"),
        ("--u", "0.5:nan", "--u must have finite endpoints"),
        ("--v", "-inf:1", "--v must have finite endpoints"),
    ],
)
def test_surface_bad_numeric_option_is_a_parse_error(capsys, flag, value, fragment):
    argv = ["surface", "--profile", "log:lambda=-2,c=0", "--action", "classify2", f"{flag}={value}"]
    _assert_parse_error(capsys, argv, fragment)


@pytest.mark.parametrize("action", ["classify1", "classify2", "laplacian1", "laplacian2"])
@pytest.mark.parametrize("grid", ["3x3", "4x5", "5x2"])
def test_surface_grid_below_5x5_is_a_parse_error(capsys, action, grid):
    code = main(["surface", "--profile", "log:lambda=1,c=0", "--action", action, "--grid", grid])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 5x5" in err


@pytest.mark.parametrize("argv", [
    # math.sinh(800) in the laplacian2 table
    ["--profile", "log:lambda=1,c=0", "--v=0:800", "--action", "laplacian2"],
    # math.pow(10, 309) in the power profile's f
    ["--profile", "power:lambda=1,mu=309,c=1", "--u=1:10", "--action", "classify1"],
])
def test_surface_float_overflow_is_a_domain_error(capsys, argv):
    assert main(["surface", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: math range error\n"


@pytest.mark.parametrize("formula", ["(" * 250 + "u" + ")" * 250, "+".join(["u"] * 990)],
                         ids=["parentheses", "sum"])
def test_surface_deeply_nested_formula_is_a_parse_error(capsys, formula):
    assert main(["surface", "--profile", f"expr:f={formula}", "--action", "classify1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_surface_non_finite_j0_argument_is_a_domain_error(capsys):
    assert main(["surface", "--profile", "expr:f=j0(1e308*u*10)", "--action", "curvature"]) == 3
    assert capsys.readouterr() == ("", "error: j0 requires finite x, got inf\n")


def test_surface_curvature_at_tiny_j0_arguments(capsys):
    # j0 of 1e-200 u: x*x underflows to 0, and the J0 jet takes its leading terms
    argv = ["--profile", "expr:f=j0(1e-200*u)", "--u", "0.5:1", "--action", "curvature"]
    assert main(["surface", *argv, "--grid", "3x2"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == "u,K,H" and len(rows) == 3
    assert all(math.isfinite(v) for row in rows for v in row)


@pytest.mark.parametrize("lam, jet", [("-1e-320", "k0"), ("1e-320", "y0")])
def test_surface_tiny_bessel_argument_is_a_domain_error(capsys, lam, jet):
    # sqrt(|lambda|) u is about 5e-161: the Y0/K0 jets refuse it
    argv = ["--profile", f"bessel:lambda={lam},c1=1,c2=1", "--u", "0.5:1", "--action", "curvature"]
    assert main(["surface", *argv, "--grid", "3x2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {jet} jet requires finite x >= 2**-330, got ")
    assert err.count("\n") == 1


def test_surface_constk_overflowing_psi_is_a_domain_error(capsys):
    # c1 + k0 u^2 overflows past u = 1.41: the curvature rows would be nan
    argv = ["--profile", "constk:k0=1e308,c1=1e308", "--grid", "4x2", "--action", "curvature"]
    assert main(["surface", *argv]) == 3
    message = "constant_k_profile: sqrt(c1 + k0 u^2) overflows at u = 2.0"
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_surface_constk_overflowing_log_argument_meshes_and_names_the_fit_overflow(capsys):
    # past u = 0.45, 2 sqrt(k0) (sqrt(k0) u + psi) overflows while f ~ 1e153 is
    # finite: the mesh is written, and classify1 refuses the sum(f^2) that overflows
    argv = ["--profile", "constk:k0=1e308,c1=1", "--u", "0.2:0.6", "--grid", "5x5"]
    assert main(["surface", *argv, "--action", "mesh"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("v ")
    assert main(["surface", *argv, "--action", "classify1"]) == 3
    assert capsys.readouterr() == ("", "error: eigen-fit sums overflow (max |r| = 1.8e+153)\n")


@pytest.mark.parametrize("formula, message", [
    ("1/(u-1)", "jet division by zero value"),
    ("j0(u-1)/(u-1)", "jet division by zero value"),
    ("(u-1)^-1", "(0.0)^(-1.0) is undefined: 0 to a negative power is a pole"),
], ids=["reciprocal", "j0-quotient", "power"])
def test_surface_expr_pole_is_a_domain_error(capsys, formula, message):
    # the grid radius u = 1 is a pole of each formula
    argv = ["--profile", f"expr:f={formula}", "--u=0.5:2", "--grid", "4x2", "--action", "curvature"]
    assert main(["surface", *argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, axis", [
    (["--v=-1e-5:1e-5", "--action", "classify2"], "v"),
    (["--u", "1:1.000000000000001", "--grid", "401x5", "--action", "classify1"], "u"),
], ids=["v", "u"])
def test_surface_range_inside_the_grid_margins_is_a_domain_error(capsys, argv, axis):
    # make_grid pulls each end in by a margin wider than the range itself
    assert main(["surface", "--profile", "log:lambda=1,c=0", *argv]) == 3
    assert capsys.readouterr() == ("", f"error: grid {axis} samples must be strictly increasing\n")


@pytest.mark.parametrize("action", ["classify1", "classify2"])
@pytest.mark.parametrize("argv, message", [
    # f = 2/mu + u^-306 is finite at the first grid radius, f' and f'' are not
    pytest.param(["--profile", "power:lambda=1,mu=-306,c=1", "--u=0.1:1"],
                 "profile jets or coordinate Laplacians not finite at u = 0.1009", id="power-jets"),
    # cosh v past 710.5
    pytest.param(["--profile", "log:lambda=1,c=0", "--v=0:800"],
                 "cosh v overflows at v = 719.36", id="cosh-v"),
    # every value finite, but past 1e154: sum(r * r) overflows
    pytest.param(["--profile", "power:lambda=1,mu=-200,c=1", "--u=0.1:1"],
                 "eigen-fit sums overflow (max |r| = 1.67e+199)", id="power-sums"),
])
@pytest.mark.filterwarnings("error")  # and numpy does not warn on the way
def test_surface_classify_refuses_a_non_finite_fit(capsys, action, argv, message):
    assert main(["surface", *argv, "--action", action]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_surface_classify2_names_an_overflowing_residual(capsys):
    # the sums over the radii are finite; the residual max|a - lambda u| max|h(v)| is not
    argv = ["--profile", "power:lambda=1,mu=-2,c=1", "--u=1:9", "--v=705:709", "--grid", "5x5"]
    assert main(["surface", *argv, "--action", "classify2"]) == 3
    message = "eigen-fit residual overflows: max |a - lambda u| = 134, max |h| = 4.04e+307"
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("action", ["classify1", "classify2"])
@pytest.mark.filterwarnings("error")
def test_surface_classify_fits_past_the_grid_sum_range(capsys, action):
    # sum((u cosh v)^2) over the grid would overflow; the rotational fits sum
    # over the radii alone, and their residuals max|a - lambda u| cosh v are
    # finite.  On the second form the log family is SIMinimal (lambda1 =
    # lambda2 = 1e5): a residual of about 1e297 against max|r| of about 4e307
    # is within tol max|r_i|
    argv = ["--profile", "log:lambda=100000,c=0", "--v=0:709", "--action", action]
    assert main(["surface", *argv]) == 0
    out, err = capsys.readouterr()
    verdict = {"classify1": "NoEigenRelation", "classify2": "SIMinimal"}[action]
    assert err == "" and f"verdict: {verdict}\n" in out


@pytest.mark.parametrize("action", ["mesh", "curvature"])
def test_surface_mesh_and_curvature_take_2x2(tmp_path, action):
    out = tmp_path / "out.txt"
    code = main(["surface", "--profile", "log:lambda=1,c=0", "--action", action,
                 "--grid", "2x2", "--out", str(out)])
    assert code == 0 and out.stat().st_size > 0


@pytest.mark.filterwarnings("error")
def test_surface_mesh_refuses_overflowing_vertices_without_warnings(capsys):
    # sinh v and cosh v overflow past v = 710.5
    argv = ["--profile", "log:lambda=1,c=0", "--v=0:800", "--action", "mesh", "--grid", "2x2"]
    assert main(["surface", *argv]) == 3
    assert capsys.readouterr() == ("", "error: mesh produced non-finite vertices\n")


def test_surface_curvature_csv(tmp_path):
    out = tmp_path / "curv.csv"
    code = main([
        "surface", "--profile", "consth:h0=2,c1=0,c2=0",
        "--u", "0.5:5", "--v", "-1:1", "--action", "curvature", "--out", str(out),
    ])
    assert code == 0
    header, rows = _csv_rows(_read(out))
    assert header == "u,K,H"
    assert len(rows) == 21
    for u, k, h in rows:
        assert k == pytest.approx(4.0, rel=1e-12)
        assert h == pytest.approx(2.0, rel=1e-12)


def test_surface_laplacian_csv(tmp_path):
    out = tmp_path / "lap.csv"
    code = main([
        "surface", "--profile", "log:lambda=-2,c=0",
        "--u", "0.5:5", "--v", "-0.5:1", "--action", "laplacian2",
        "--grid", "6x7", "--out", str(out),
    ])
    assert code == 0
    header, rows = _csv_rows(_read(out))
    assert header == "u,v,d1,d2,d3"
    assert len(rows) == 42
    for u, v, d1, d2, d3 in rows:
        assert d1 == pytest.approx(-2.0 * u * math.sinh(v), rel=1e-10)
        assert abs(d3) < 1e-12


def test_surface_mesh_obj(tmp_path):
    out = tmp_path / "m.obj"
    code = main([
        "surface", "--profile", "log:lambda=-2,c=0",
        "--u", "0.5:5", "--v", "-0.5:1", "--action", "mesh",
        "--grid", "4x4", "--out", str(out),
    ])
    assert code == 0
    lines = _read(out).splitlines()
    vs = [ln for ln in lines if ln.startswith("v ")]
    fs = [ln for ln in lines if ln.startswith("f ")]
    assert len(vs) == 16
    assert len(fs) == 18
    # all face indices 1-based and in range
    for ln in fs:
        idx = [int(t) for t in ln.split()[1:]]
        assert all(1 <= i <= 16 for i in idx)


# ----------------------------------------------------------------------
# figure subcommand


@pytest.mark.parametrize("fid", ["1a", "1b", "2a", "2b", "3a", "3b"])
def test_all_figures_exit_zero(tmp_path, fid):
    assert main(["figure", fid, "--out-dir", str(tmp_path)]) == 0


def test_figure_1a_contents(tmp_path):
    main(["figure", "1a", "--out-dir", str(tmp_path)])
    text = _read(tmp_path / "figure1a.csv")
    assert text.startswith("#")  # the x=0.05 cutoff is documented in a comment
    header, rows = _csv_rows(text)
    assert header == "x,J0,Y0"
    assert rows[0][0] == pytest.approx(0.05)
    assert rows[0][1] == pytest.approx(1.0, abs=1e-3)
    assert rows[0][2] == pytest.approx(bessel_y0(0.05), rel=1e-12)
    assert rows[-1][0] == pytest.approx(10.0)


def test_figure_1b_contents(tmp_path):
    main(["figure", "1b", "--out-dir", str(tmp_path)])
    _, rows_i0 = _csv_rows(_read(tmp_path / "figure1b_i0.csv"))
    assert rows_i0[0][0] == pytest.approx(-3.0)
    assert rows_i0[-1][0] == pytest.approx(3.0)
    text_k0 = _read(tmp_path / "figure1b_k0.csv")
    assert "undefined for x <= 0" in text_k0
    _, rows_k0 = _csv_rows(text_k0)
    assert rows_k0[0][0] > 0.0


def test_figure_2b_extents_and_determinism(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert main(["figure", "2b", "--out-dir", str(d1)]) == 0
    assert main(["figure", "2b", "--out-dir", str(d2)]) == 0
    b1 = (d1 / "figure2b.obj").read_bytes()
    b2 = (d2 / "figure2b.obj").read_bytes()
    assert b1 == b2
    verts = np.array(
        [[float(t) for t in ln.split()[1:]] for ln in b1.decode().splitlines() if ln.startswith("v ")]
    )
    u_back = np.sqrt(np.abs(verts[:, 1] ** 2 - verts[:, 0] ** 2))
    v_back = np.arctanh(verts[:, 0] / verts[:, 1])
    assert u_back.min() == pytest.approx(1.0, rel=1e-9)
    assert u_back.max() == pytest.approx(4.0, rel=1e-9)
    assert v_back.min() == pytest.approx(-1.0, rel=1e-9)
    assert v_back.max() == pytest.approx(1.0, rel=1e-9)


def test_figure_3b_extents(tmp_path):
    assert main(["figure", "3b", "--out-dir", str(tmp_path)]) == 0
    text = _read(tmp_path / "figure3b.obj")
    verts = np.array(
        [[float(t) for t in ln.split()[1:]] for ln in text.splitlines() if ln.startswith("v ")]
    )
    u_back = np.sqrt(np.abs(verts[:, 1] ** 2 - verts[:, 0] ** 2))
    v_back = np.arctanh(verts[:, 0] / verts[:, 1])
    assert u_back.min() == pytest.approx(0.5, rel=1e-9)
    assert u_back.max() == pytest.approx(5.0, rel=1e-9)
    assert v_back.min() == pytest.approx(-0.5, rel=1e-9)
    assert v_back.max() == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("fid, profile, u, v", [
    ("2b", "bessel:lambda=1,c1=1,c2=0", "1:4", "-1:1"),
    ("3b", "log:lambda=-2,c=0", "0.5:5", "-0.5:1"),
])
def test_figure_mesh_is_the_surface_mesh_action(tmp_path, fid, profile, u, v):
    assert main(["figure", fid, "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "surface.obj"
    assert main(["surface", "--profile", profile, "--u", u, "--v", v, "--action", "mesh",
                 "--grid", "41x41", "--out", str(out)]) == 0
    assert (tmp_path / f"figure{fid}.obj").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("name, kind, xs", [
    ("figure1b_i0.csv", "i0", "-3:3"),
    ("figure1b_k0.csv", "k0", "0.05:3"),
])
def test_figure_1b_rows_are_the_bessel_table(tmp_path, name, kind, xs):
    assert main(["figure", "1b", "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "table.csv"
    assert main(["bessel", "--kind", kind, "--range", xs, "--n", "200", "--out", str(out)]) == 0

    def rows(path):  # the lines after the comments and the header
        lines = [ln for ln in _read(path).splitlines() if not ln.startswith("#")]
        return lines[1:]

    assert len(rows(out)) == 200
    assert rows(tmp_path / name) == rows(out)


def test_figure_tables_look_their_value_functions_up_when_they_run(tmp_path, monkeypatch):
    # the benchmark's tracer replaces the functions of module-level tables:
    # it sees every value call of the figure tables only if they are read
    # from `_VALUES` when the figure runs
    from sigeom import cli

    calls = []
    for name, fn in cli._VALUES.items():
        monkeypatch.setitem(cli._VALUES, name,
                            lambda x, fn=fn, name=name: calls.append(name) or fn(x))
    for fid in ("1a", "1b", "2a", "3a"):
        assert main(["figure", fid, "--out-dir", str(tmp_path)]) == 0
    assert calls == ["j0", "y0", "i0", "k0", "j0", "ln"]


def test_bessel_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bessel", "--kind", "y0", "--range", "0.5:9", "--n", "64"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# output paths that cannot be opened


@pytest.mark.parametrize("argv, target, code", [
    pytest.param(["bessel", "--kind", "j0", "--range", "0:1", "--n", "3", "--out", "{missing}/x.csv"],
                 "{missing}/x.csv", errno.ENOENT, id="bessel-missing-dir"),
    pytest.param(["surface", "--profile", "log:lambda=1,c=0", "--action", "curvature",
                  "--grid", "2x2", "--out", "{dir}"], "{dir}", errno.EISDIR, id="surface-directory"),
    pytest.param(["surface", "--profile", "log:lambda=1,c=0", "--action", "mesh",
                  "--grid", "2x2", "--out", "{dir}"], "{dir}", errno.EISDIR, id="mesh-directory"),
    pytest.param(["figure", "1a", "--out-dir", "{file}"], "{file}", errno.EEXIST, id="figure-file"),
    pytest.param(["figure", "2b", "--out-dir", "{file}/sub"], "{file}/sub", errno.ENOTDIR,
                 id="figure-under-file"),
])
def test_unwritable_output_path_is_a_parse_error(tmp_path, capsys, argv, target, code):
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "file": tmp_path / "file"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {target.format(**paths)}: "
                                       f"{os.strerror(code)}\n")
    assert not paths["missing"].exists()


# ----------------------------------------------------------------------
# one parser per process


CALLS_IN_TURN = [
    ["bessel", "--kind", "k0", "--range", "0.5:3", "--n", "5"],
    ["surface", "--profile", "bessel:lambda=1,c1=1,c2=0.5", "--action", "classify1",
     "--grid", "5x5"],
    ["figure", "1a", "--out-dir", "{out}"],
    ["surface", "--profile", "log:lambda=1,c=0", "--action", "nope"],
    ["bessel", "--kind", "j0", "--range", "-1:1", "--n", "3"],
    ["figure", "2b", "--out-dir", "{out}"],
]


def _outcome(argv, out, capsys):
    for old in out.iterdir():
        old.unlink()
    try:
        code = main([arg.format(out=out) for arg in argv])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, capsys.readouterr(), files


def test_main_called_in_turn_answers_as_fresh_calls(tmp_path, capsys):
    from sigeom import cli

    out = tmp_path / "out"
    out.mkdir()
    in_turn = [_outcome(argv, out, capsys) for argv in CALLS_IN_TURN]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in CALLS_IN_TURN:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, out, capsys))
    assert in_turn == fresh
    assert [code for code, _, _ in in_turn] == [0, 0, 0, 2, 0, 0]
    assert "invalid choice: 'nope'" in in_turn[3][1].err
