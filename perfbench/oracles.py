"""Independent answers for every benchmark job, and the checks against them.

The answers come from the mathematics of each profile family, not from the
package: closed-form derivatives for the elementary families and
`scipy.special` for the Bessel functions.  Each check returns None when the
output is right and a one-line reason when it is not.

Expected eigenvalues.  A Bessel-type profile (f'' + f'/u + lam f = 0) has
first-form eigenvalues (0, 0, lam); a log profile f = (-2/lam) ln u + c has
second-form eigenvalues (lam, lam, 0); the power family has none.  On the
spacelike meridian both fundamental forms change sign (E, G, L, N all flip
while w = LN - M^2 does not), so both Laplacians change sign and so do the
expected eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

REL_LAMBDA = 1e-8  # eigenvalues and curvature constants, relative
REL_FLUX = 1e-6  # flux-differenced against closed-form Laplacians
REL_VALUE = 1e-9  # tabulated and emitted values against scipy / closed forms


def _special():
    import scipy.special

    return scipy.special


def _bad(diff: np.ndarray, ref: np.ndarray, rel: float) -> int:
    """Number of entries with |diff| > rel * max(1, |ref|); NaN counts as bad."""
    ok = np.abs(diff) <= rel * np.maximum(1.0, np.abs(ref))
    return int(np.size(ok) - np.count_nonzero(ok))


# ----------------------------------------------------------------------
# profile derivatives


def derivs(family: str, p: dict, u) -> tuple[np.ndarray, ...]:
    """(f, f', f'', f''') of a profile at the radii u."""
    u = np.asarray(u, dtype=np.float64)
    if family == "log":
        a = -2.0 / p["lambda"]
        return a * np.log(u) + p["c"], a / u, -a / u**2, 2.0 * a / u**3
    if family == "power":
        a = p["mu"] / p["lambda"]
        c = p["c"]
        return (2.0 / p["mu"] + c * u**a, c * a * u ** (a - 1.0),
                c * a * (a - 1.0) * u ** (a - 2.0), c * a * (a - 1.0) * (a - 2.0) * u ** (a - 3.0))
    if family == "constk":
        k0, c1 = p["k0"], p["c1"]
        psi = np.sqrt(c1 + k0 * u * u)
        rt = math.sqrt(k0)
        f = 0.5 * u * psi + p["c2"]
        if c1 != 0.0:
            f = f + c1 / (2.0 * rt) * np.log(np.abs(2.0 * rt * (rt * u + psi)))
        return f, psi, k0 * u / psi, k0 * c1 / psi**3
    if family == "consth":
        h0, c1 = p["h0"], p["c1"]
        return (0.5 * h0 * u * u + c1 * np.log(u) + p["c2"], h0 * u + c1 / u,
                h0 - c1 / u**2, 2.0 * c1 / u**3)
    if family == "bessel":
        sp = _special()
        lam = p["lambda"]
        s = math.sqrt(abs(lam))
        x = s * u
        first, second = (sp.jvp, sp.yvp) if lam > 0.0 else (sp.ivp, sp.kvp)
        out = []
        for n in range(4):
            g = p["c1"] * first(0, x, n)
            if p["c2"] != 0.0:
                g = g + p["c2"] * second(0, x, n)
            out.append(s**n * g)
        return tuple(out)
    if family == "expr":
        if p["fn"] == "ln":
            a = p["a"]
            return a * np.log(u) + p["c"], a / u, -a / u**2, 2.0 * a / u**3
        sp = _special()
        fn = sp.jvp if p["fn"] == "j0" else sp.ivp
        s = p["s"]
        return tuple(p["c"] * s**n * fn(0, s * u, n) for n in range(4))
    raise ValueError(f"no oracle for family {family!r}")


def eigen_lambda(job: dict) -> float:
    """The eigenvalue a job's profile should produce, on its meridian."""
    p = job["params"]
    if job["family"] == "expr":
        fn = p["fn"]
        lam = p["s"] ** 2 if fn == "j0" else (-p["s"] ** 2 if fn == "i0" else -2.0 / p["a"])
    else:
        lam = p["lambda"]
    return lam if job["meridian"] == "timelike" else -lam


def closed_laplacians(job: dict, u: np.ndarray, v: np.ndarray, form: int) -> np.ndarray:
    """Coordinate Laplacians (d1, d2, d3) at the points (u, v), shape (3, n)."""
    _, f1, f2, f3 = derivs(job["family"], job["params"], u)
    timelike = job["meridian"] == "timelike"
    if form == 1:
        d3 = -f2 - f1 / u
        zero = np.zeros_like(u)
        return np.array([zero, zero, d3 if timelike else -d3])
    b = (0.5 / f2) * ((f1 + u * f2) / (f1 * u) - f3 / f2)
    ew = np.where(f1 * f2 > 0.0, -1.0, 1.0)  # sign of w = -u f' f''
    a = ew * (b - 1.0 / f1)
    c = ew * (b * f1 + 1.0)
    if timelike:
        return np.array([a * np.sinh(v), a * np.cosh(v), c])
    return np.array([-a * np.cosh(v), -a * np.sinh(v), -c])


def curvature_kh(job: dict, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _, f1, f2, _ = derivs(job["family"], job["params"], u)
    return f1 * f2 / u, 0.5 * (f1 / u + f2)


# ----------------------------------------------------------------------
# classify-sweep results


def _lam_off(got: float, want: float, scale: float) -> bool:
    return not (abs(got - want) <= REL_LAMBDA * scale)


def check_eigen(job: dict, verdict: str, lam: list[float]) -> str | None:
    fam = job["family"]
    first_form = job["kind"] == "eig1" or job.get("action") == "classify1"
    if fam == "power":
        if verdict != "NoEigenRelation":
            return f"power profile classified {verdict}, expected NoEigenRelation"
        return None
    want = eigen_lambda(job)
    scale = max(1.0, abs(want))
    if first_form:
        if verdict != "NullTwoType":
            return f"verdict {verdict}, expected NullTwoType with lambda3 = {want!r}"
        if _lam_off(lam[0], 0.0, scale) or _lam_off(lam[1], 0.0, scale):
            return f"lambda1, lambda2 = {lam[0]!r}, {lam[1]!r}, expected 0"
        if _lam_off(lam[2], want, abs(want)):
            return f"lambda3 = {lam[2]!r}, expected {want!r}"
        return None
    if verdict != "SIMinimal":
        return f"verdict {verdict}, expected SIMinimal with lambda1 = lambda2 = {want!r}"
    if _lam_off(lam[0], want, abs(want)) or _lam_off(lam[1], want, abs(want)):
        return f"lambda1, lambda2 = {lam[0]!r}, {lam[1]!r}, expected {want!r}"
    if _lam_off(lam[2], 0.0, scale):
        return f"lambda3 = {lam[2]!r}, expected 0"
    return None


def check_classify(job: dict, result: dict) -> str | None:
    kind = job["kind"]
    if kind in ("eig1", "eig2"):
        return check_eigen(job, result["verdict"], result["lam"])
    if kind == "curv":
        p = job["params"]
        if job["family"] == "constk":
            want, flag, got = p["k0"], result["is_constant_k"], result["k0"]
        else:
            want, flag, got = p["h0"], result["is_constant_h"], result["h0"]
        what = "K" if job["family"] == "constk" else "H"
        if not flag:
            return f"{what} not reported constant"
        if _lam_off(got, want, max(1.0, abs(want))):
            return f"{what} = {got!r}, expected {want!r}"
        return None
    pairs = np.array(result["pairs"], dtype=np.float64)
    if pairs.size == 0:
        return "no flux/closed-form pairs returned"
    bad = _bad(pairs[:, 0] - pairs[:, 1], pairs[:, 1], REL_FLUX)
    if bad:
        worst = float(np.nanmax(np.abs(pairs[:, 0] - pairs[:, 1])))
        return f"{bad} of {len(pairs)} flux Laplacians off the closed forms (max dev {worst:.3g})"
    return None


# ----------------------------------------------------------------------
# text outputs


def parse_csv(text: str, header: str) -> np.ndarray | str:
    """Rows of a CSV as a float array, or a reason why it is malformed."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else None!r}, expected {header!r}"
    ncol = header.count(",") + 1
    try:
        vals = np.array(",".join(lines[1:]).split(","), dtype=np.float64) if len(lines) > 1 \
            else np.empty(0)
    except ValueError as exc:
        return f"unparsable CSV value: {exc}"
    if vals.size != ncol * (len(lines) - 1):
        return "ragged CSV rows"
    return vals.reshape(-1, ncol)


def _linspace_off(got: np.ndarray, lo: float, hi: float, n: int, what: str) -> str | None:
    if got.size != n:
        return f"{got.size} {what} samples, expected {n}"
    want = np.linspace(lo, hi, n)
    if _bad(got - want, want, 1e-14):
        return f"{what} samples are not linspace({lo!r}, {hi!r}, {n})"
    return None


def check_values(got: np.ndarray, want: np.ndarray, what: str) -> str | None:
    bad = _bad(got - want, want, REL_VALUE)
    if bad:
        i = int(np.argmax(~(np.abs(got - want) <= REL_VALUE * np.maximum(1.0, np.abs(want)))))
        return f"{bad} {what} values wrong (first at row {i}: {got.flat[i]!r} vs {want.flat[i]!r})"
    return None


def check_obj(text: str, job: dict, nu: int, nv: int, z_of_u) -> str | None:
    """Vertex and face counts, every vertex against the surface, every face
    against the row-major two-triangles-per-quad layout."""
    vlines = []
    flines = []
    for ln in text.split("\n"):
        if ln.startswith("v "):
            vlines.append(ln[2:])
        elif ln.startswith("f "):
            flines.append(ln[2:])
        elif ln:
            return f"unexpected OBJ line {ln[:40]!r}"
    nfaces = 2 * (nu - 1) * (nv - 1)
    if len(vlines) != nu * nv or len(flines) != nfaces:
        return f"OBJ has {len(vlines)} vertices and {len(flines)} faces, " \
               f"expected {nu * nv} and {nfaces}"
    try:
        verts = np.array(" ".join(vlines).split(), dtype=np.float64).reshape(-1, 3)
        faces = np.array(" ".join(flines).split(), dtype=np.int64).reshape(-1, 3)
    except ValueError as exc:
        return f"malformed OBJ record: {exc}"
    us = np.linspace(job["u"][0], job["u"][1], nu)
    vs = np.linspace(job["v"][0], job["v"][1], nv)
    uu = np.repeat(us, nv)
    vv = np.tile(vs, nu)
    a, b = uu * np.sinh(vv), uu * np.cosh(vv)
    x, y = (a, b) if job["meridian"] == "timelike" else (b, a)
    want = np.column_stack([x, y, np.repeat(z_of_u(us), nv)])
    msg = check_values(verts, want, "vertex")
    if msg:
        return msg
    i, j = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    qa = (i * nv + j).ravel()
    qb = qa + nv
    want_f = np.empty((nfaces, 3), dtype=np.int64)
    want_f[0::2] = np.column_stack([qa, qb, qb + 1])
    want_f[1::2] = np.column_stack([qa, qb + 1, qa + 1])
    if not np.array_equal(faces, want_f + 1):
        return "OBJ faces do not triangulate the vertex grid"
    return None


def check_curvature_csv(text: str, job: dict, nu: int) -> str | None:
    rows = parse_csv(text, "u,K,H")
    if isinstance(rows, str):
        return rows
    msg = _linspace_off(rows[:, 0], job["u"][0], job["u"][1], nu, "u")
    if msg:
        return msg
    k, h = curvature_kh(job, rows[:, 0])
    return check_values(rows[:, 1], k, "K") or check_values(rows[:, 2], h, "H")


def check_laplacian_csv(text: str, job: dict, nu: int, nv: int, form: int) -> str | None:
    rows = parse_csv(text, "u,v,d1,d2,d3")
    if isinstance(rows, str):
        return rows
    if len(rows) != nu * nv:
        return f"{len(rows)} rows, expected {nu * nv}"
    u, v = rows[:, 0], rows[:, 1]
    if np.unique(u).size != nu or np.unique(v).size != nv:
        return "rows do not cover an nu x nv grid"
    lo, hi = job["u"]
    vlo, vhi = job["v"]
    if u.min() < lo or u.max() > hi or v.min() < vlo or v.max() > vhi:
        return "grid samples leave the surface ranges"
    want = closed_laplacians(job, u, v, form)
    return check_values(rows[:, 2:].T, want, f"Lap{'I' * form}")


def check_eigen_text(text: str, job: dict) -> str | None:
    fields = {}
    for ln in text.split("\n"):
        key, sep, val = ln.partition(": ")
        if sep:
            fields[key] = val
    try:
        lam = [float(fields[f"lambda{i}"]) for i in (1, 2, 3)]
        verdict = fields["verdict"]
    except (KeyError, ValueError):
        return "classification report lacks lambda1..3 or verdict"
    return check_eigen(job, verdict, lam)


def check_table(text: str, job: dict) -> str | None:
    rows = parse_csv(text, "x,value")
    if isinstance(rows, str):
        return rows
    a, b = job["range"]
    msg = _linspace_off(rows[:, 0], a, b, job["n"], "x")
    if msg:
        return msg
    sp = _special()
    x = rows[:, 0]
    kind = job["bessel"]
    want = sp.jv(job["p"], x) if kind == "jp" else getattr(sp, kind)(x)
    return check_values(rows[:, 1], want, kind)


def _figure_csv(path, header: str, lo: float, hi: float, columns) -> str | None:
    """A 200-sample figure table; `columns` names each column: "x" for the
    sample itself, "zero", or a function of the sample."""
    with open(path) as fh:
        rows = parse_csv(fh.read(), header)
    if isinstance(rows, str):
        return f"{path.name}: {rows}"
    x = rows[:, columns.index("x")]
    msg = _linspace_off(x, lo, hi, 200, "x")
    if msg:
        return f"{path.name}: {msg}"
    for k, col in enumerate(columns):
        want = x if col == "x" else (np.zeros_like(x) if col == "zero" else col(x))
        msg = check_values(rows[:, k], want, f"{path.name} column {k}")
        if msg:
            return msg
    return None


def check_figure(fid: str, out_dir) -> str | None:
    sp = _special()
    expected = {
        "1a": ["figure1a.csv"], "1b": ["figure1b_i0.csv", "figure1b_k0.csv"],
        "2a": ["figure2a.csv"], "2b": ["figure2b.obj"], "3a": ["figure3a.csv"],
        "3b": ["figure3b.obj"],
    }[fid]
    names = sorted(p.name for p in out_dir.iterdir())
    if names != sorted(expected):
        return f"figure {fid} wrote {names}, expected {sorted(expected)}"
    path = out_dir / expected[0]
    if fid == "1a":
        return _figure_csv(path, "x,J0,Y0", 0.05, 10.0, ["x", sp.j0, sp.y0])
    if fid == "1b":
        return (_figure_csv(path, "x,I0", -3.0, 3.0, ["x", sp.i0])
                or _figure_csv(out_dir / expected[1], "x,K0", 0.05, 3.0, ["x", sp.k0]))
    if fid == "2a":
        return _figure_csv(path, "x,y,z", 1.0, 4.0, ["zero", "x", sp.j0])
    if fid == "3a":
        return _figure_csv(path, "x,y,z", 0.5, 5.0, ["zero", "x", np.log])
    job = ({"u": [1.0, 4.0], "v": [-1.0, 1.0], "meridian": "timelike"} if fid == "2b"
           else {"u": [0.5, 5.0], "v": [-0.5, 1.0], "meridian": "timelike"})
    with open(path) as fh:
        msg = check_obj(fh.read(), job, 41, 41, sp.j0 if fid == "2b" else np.log)
    return f"{path.name}: {msg}" if msg else None


def check_surface_output(text: str, job: dict) -> str | None:
    """Output of a `surface` job, whichever action it ran."""
    nu, nv = job["grid"]
    action = job["action"]
    if action in ("classify1", "classify2"):
        return check_eigen_text(text, job)
    if action == "curvature":
        return check_curvature_csv(text, job, nu)
    if action == "mesh":
        return check_obj(text, job, nu, nv,
                         lambda us: derivs(job["family"], job["params"], us)[0])
    return check_laplacian_csv(text, job, nu, nv, 1 if action == "laplacian1" else 2)
