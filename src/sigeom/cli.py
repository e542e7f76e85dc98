"""Command-line front end: special-function tables, surface computations,
classification reports, and the data files behind the reference figures.

Exit codes: 0 success, else the refusal's code in `_EXIT_CODES`: 2 parse
error (also an output path that cannot be opened), 3 domain error (also a
float overflow), 4 parabolic-point error, 5 series non-convergence.

A subcommand imports the layers beyond `bessel` only when it reaches them,
so a Bessel table or a refused spec never loads the profile, surface or
classification layers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

from .bessel import (
    SeriesConfig,
    _per_element,
    bessel_i0,
    bessel_j,
    bessel_j0,
    bessel_k0,
    bessel_y0,
)
from .errors import (
    DomainError,
    NonConvergenceError,
    ParabolicPointError,
    ProfileSpecError,
)

import numpy as np

if TYPE_CHECKING:
    from .profiles import ProfileCurve
    from .surfaces import Mesh, RevolutionSurface

__all__ = ["main", "parse_profile_spec", "write_obj"]

EXIT_OK = 0
# each refusal's exit code, in the order `main` tests them; an OverflowError
# is a math-module call (sinh, pow) out of float range
_EXIT_CODES = {ProfileSpecError: 2, ParabolicPointError: 4, NonConvergenceError: 5,
               DomainError: 3, OverflowError: 3}


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ProfileSpecError(f"{what} must look like a:b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ProfileSpecError(f"bad {what} {text!r}: {exc}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ProfileSpecError(f"{what} must have finite endpoints, got {text!r}")
    return a, b


def _series_config(rel_tol: float) -> SeriesConfig:
    if not 0.0 < rel_tol < 1.0:
        raise ProfileSpecError(f"--series-tol must lie in (0, 1), got {rel_tol!r}")
    return SeriesConfig(rel_tol=rel_tol)


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ProfileSpecError(f"grid must look like NUxNV, got {text!r}")
    try:
        nu, nv = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ProfileSpecError(f"bad grid {text!r}: {exc}") from exc
    if nu < 2 or nv < 2:
        raise ProfileSpecError(f"grid must be at least 2x2, got {text!r}")
    return nu, nv


# family: (constructor, keys in argument order, defaults of optional keys,
# whether it takes the series config); expr's value is text, the rest numbers
_FAMILIES = {
    "constk": ("profiles.constant_k_profile", ("k0", "c1", "c2"), {"c2": 0.0}, False),
    "consth": ("profiles.constant_h_profile", ("h0", "c1", "c2"), {}, False),
    "bessel": ("profiles.bessel_profile", ("lambda", "c1", "c2"), {}, True),
    "log": ("profiles.log_profile", ("lambda", "c"), {}, False),
    "power": ("profiles.power_profile", ("lambda", "mu", "c"), {}, False),
    "lin": ("profiles.linear_profile", ("a", "b"), {}, False),
    "expr": ("expressions.expression_profile", ("f",), {}, True),
}


def parse_profile_spec(spec: str, cfg: SeriesConfig | None = None) -> ProfileCurve:
    """Build a profile from `family:key=val,...`.

    Families: constk (k0, c1, [c2]), consth (h0, c1, c2), bessel (lambda,
    c1, c2), log (lambda, c), power (lambda, mu, c), lin (a, b), and
    expr (f=<expression in u>).
    """
    if cfg is None:
        cfg = SeriesConfig()
    family, sep, rest = spec.partition(":")
    family = family.strip()
    if not sep or family not in _FAMILIES:
        raise ProfileSpecError(
            f"unknown profile spec {spec!r}; families: {', '.join(sorted(_FAMILIES))}"
        )
    kv: dict[str, str] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        if not eq:
            raise ProfileSpecError(f"expected key=value in profile spec, got {item!r}")
        kv[key.strip()] = val.strip()
    constructor, keys, defaults, takes_cfg = _FAMILIES[family]
    for key in kv:
        if key not in keys:
            raise ProfileSpecError(f"unknown key {key!r} for family {family!r}")
    for key in keys:
        if key not in kv and key not in defaults:
            raise ProfileSpecError(f"family {family!r} requires key {key!r}")
    values: dict = kv
    if family != "expr":
        try:
            values = {k: float(v) for k, v in kv.items()}
        except ValueError as exc:
            raise ProfileSpecError(f"bad numeric value in {spec!r}: {exc}") from exc
    module, _, name = constructor.partition(".")
    build = getattr(importlib.import_module(f".{module}", __package__), name)
    series = {"cfg": cfg} if takes_cfg else {}
    return build(*(values.get(k, defaults.get(k)) for k in keys), **series)


_BLOCK_ROWS = 4096


def _strings(column) -> np.ndarray:
    """The text of each value of a column, in the row-major order of its values."""
    from ._numtext import number_text

    return number_text(np.ravel(column))


def _lines(cells: list[np.ndarray], prefix: str, sep: str) -> np.ndarray:
    """One line per table row, all of one width: `prefix`, the row's text
    cells joined by `sep`, and a newline, with the cells' NULs kept.  Each
    cell is laid in as one item of a `V{width}` view of its column, each
    byte of the rest as a uint8 column."""
    parts = [*prefix.encode(), cells[0]]
    for cell in cells[1:]:
        parts += [*sep.encode(), cell]
    parts.append(ord("\n"))
    width = sum(1 if isinstance(part, int) else part.shape[1] for part in parts)
    lines = np.empty((len(cells[0]), width), np.uint8)
    at = 0
    for part in parts:
        if isinstance(part, int):
            lines[:, at] = part
            at += 1
        else:
            whole = f"V{part.shape[1]}"
            lines[:, at : at + part.shape[1]].view(whole)[:, 0] = part.view(whole)[:, 0]
            at += part.shape[1]
    return lines


def _byte_writer(fh: TextIO) -> Callable[[bytes], object]:
    """A write of bytes to `fh`: to its binary buffer, after flushing the
    text already written, or as text where `fh` has none (`io.StringIO`)."""
    buffer = getattr(fh, "buffer", None)
    if buffer is None:
        return lambda data: fh.write(data.decode())
    fh.flush()
    return buffer.write


def _write_rows(
    fh: TextIO, table: np.ndarray | tuple, sep: str = ",", prefix: str = "", offset: int = 0
) -> None:
    """Each row of a table as `prefix` and its values joined by `sep`: one
    write per block of at most 4096 rows, and no copy of the whole table.

    `table` is a tuple of columns that broadcast to one grid whose points,
    in row-major order, are the rows, or a 2-D array, taken as the tuple of
    its columns.  A column with as many values as the grid has points is
    printed plus `offset`; one with fewer is formatted once per value and
    its text gathered into the rows.  Where the integer columns of a block
    span fewer values than they hold (the vertex ids of a mesh's faces),
    each value of that span is formatted once and its text gathered.

    Integers are printed as `%d` and other numbers as `%.17g` of the Python
    float, byte for byte, by `_numtext`: whole arrays at a time, and `%`
    only for a float outside 1e-4 <= |x| < 1e17 (or inf or nan).  A block
    is ASCII with "\n" line ends, written as bytes to the handle's binary
    buffer where it has one.
    """
    from ._numtext import number_text

    if not isinstance(table, tuple):
        table = tuple(np.transpose(table))
    shape = np.broadcast_shapes(*map(np.shape, table))
    n = math.prod(shape)
    columns = [
        (None, np.reshape(c, -1)) if np.size(c) == n  # a view: one strided run per column
        else (_strings(c), np.broadcast_to(np.arange(np.size(c)).reshape(np.shape(c)), shape))
        for c in table
    ]

    def text(values: np.ndarray) -> np.ndarray:
        if offset:  # int32 indices widen to int64 instead of wrapping
            values = np.add(values, offset, dtype=np.result_type(values, np.int64))
        return number_text(values)

    def integer_texts(blocks: list[np.ndarray]) -> list[np.ndarray]:
        if not blocks:
            return []
        lo, hi = min(int(b.min()) for b in blocks), max(int(b.max()) for b in blocks)
        if hi - lo + 1 >= sum(map(len, blocks)):
            return [text(b) for b in blocks]
        dtype = np.result_type(*blocks)
        texts = text(np.arange(lo, hi + 1, dtype=dtype))
        return [np.take(texts, np.subtract(b, lo, dtype=dtype), axis=0) for b in blocks]

    gathered = any(texts is not None for texts, _ in columns)
    integer = [texts is None and c.dtype.kind in "iu" for texts, c in columns]

    def cells(start: int, stop: int) -> list[np.ndarray]:
        at = np.unravel_index(np.arange(start, stop), shape) if gathered else None
        ints = integer_texts([c[start:stop] for (_, c), i in zip(columns, integer) if i])
        return [ints.pop(0) if i else text(c[start:stop]) if texts is None
                else np.take(texts, c[at], axis=0) for (texts, c), i in zip(columns, integer)]

    write = _byte_writer(fh)
    for start in range(0, n, _BLOCK_ROWS):
        # one expression: each block's cells and bytes are freed once the
        # block is written, before the next is made
        write(_lines(cells(start, min(start + _BLOCK_ROWS, n)), prefix, sep)
              .tobytes().translate(None, b"\0"))


def write_obj(m: Mesh, fh: TextIO) -> None:
    """v/f lines, 1-based indices, no normals (the unit normal is the
    constant isotropic direction and carries no information), written to
    the binary buffer of `fh` where it has one (`_write_rows`).

    Where each u row of the grid holds one z, bit for bit (-0.0 is not
    0.0), z is formatted once per row."""
    x, y, z = m.vertices.T
    grid, bits = (m.nu, m.nv), z.view(np.int64)
    if m.nv > 1 and len(z) == m.nu * m.nv and (bits.reshape(grid) == bits[:: m.nv, None]).all():
        x, y, z = x.reshape(grid), y.reshape(grid), z[:: m.nv, None]
    _write_rows(fh, (x, y, z), " ", "v ")
    _write_rows(fh, m.faces, " ", "f ", offset=1)


def _unwritable(path: object, exc: OSError) -> ProfileSpecError:
    return ProfileSpecError(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        try:
            fh = open(path, "w", newline="\n")
        except OSError as exc:
            raise _unwritable(path, exc) from exc
        with fh:
            yield fh


def _write_csv(
    path: str | None, header: str, table: np.ndarray | tuple, comments: Sequence[str] = ()
):
    with _open_out(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        _write_rows(fh, table)


def _tabulate(a: float, b: float, n: int, *fns: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The columns x, fn(x), ... at n evenly spaced x in [a, b], each fn called
    once per block of at most 4096 x: a few MB of series work space at any n."""
    xs = np.linspace(a, b, n)
    blocks = [xs[start : start + _BLOCK_ROWS] for start in range(0, n, _BLOCK_ROWS)]
    return np.column_stack((xs, *(np.concatenate([fn(x) for x in blocks]) for fn in fns)))


# value functions by name: the `bessel` kinds but jp, and ln for figure 3a,
# per x since numpy's array log may differ in the last bit
_VALUES = {"j0": bessel_j0, "y0": bessel_y0, "i0": bessel_i0, "k0": bessel_k0,
           "ln": functools.partial(_per_element, np.log)}


def _cmd_bessel(args: argparse.Namespace) -> int:
    cfg = _series_config(args.series_tol)
    a, b = _parse_pair(args.range, "--range")
    if args.n < 1:
        raise ProfileSpecError(f"--n must be >= 1, got {args.n}")
    if args.kind in ("y0", "k0") and (a <= 0.0 or b <= 0.0):
        raise DomainError(f"{args.kind} requires x > 0")
    if args.kind == "jp" and args.p is None:
        raise ProfileSpecError("--p is required for --kind jp")
    fn = functools.partial(bessel_j, args.p) if args.kind == "jp" else _VALUES[args.kind]
    table = _tabulate(a, b, args.n, functools.partial(fn, cfg=cfg))
    _write_csv(args.out, "x,value", table)
    return EXIT_OK


_ACTIONS = ("curvature", "laplacian1", "laplacian2", "classify1", "classify2", "mesh")
# actions that sample a classify.Grid (make_grid); curvature and mesh take 2x2
_GRID_ACTIONS = ("laplacian1", "laplacian2", "classify1", "classify2")


def _surface_table(action: str, s: RevolutionSurface, nu: int, nv: int):
    """Header and table of the curvature or coordinate-Laplacian action: a
    (nu, 3) float64 array, or the five columns of the u-major nu x nv grid,
    each only as large as its values vary (u and d3 by u, v by v)."""
    from .surfaces import _coordinate_laplacians, _curvatures, _rotate

    if action == "curvature":
        us = np.linspace(s.u_range[0], s.u_range[1], nu)
        f1, f2 = s.profile._jets(us, (1, 2))
        return "u,K,H", np.column_stack((us, *_curvatures(us, f1, f2)))
    from .classify import make_grid

    grid = make_grid(s, nu, nv)
    if action == "laplacian1":
        _, _, c, _ = _coordinate_laplacians(s, grid.u, 1)
        d1 = d2 = 0.0  # the rotational coordinates are harmonic
    else:
        _, a, c, _ = _coordinate_laplacians(s, grid.u, 2)
        vs = grid.v.tolist()
        sv = np.array([math.sinh(v) for v in vs])
        cv = np.array([math.cosh(v) for v in vs])
        d1, d2 = _rotate(s.kind, a[:, None], sv, cv)
    return "u,v,d1,d2,d3", (grid.u[:, None], grid.v, d1, d2, c[:, None])


def _cmd_surface(args: argparse.Namespace) -> int:
    cfg = _series_config(args.series_tol)
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ProfileSpecError(f"--tol must be finite and > 0, got {args.tol!r}")
    profile = parse_profile_spec(args.profile, cfg)
    u_range = _parse_pair(args.u, "--u")
    v_range = _parse_pair(args.v, "--v")
    from .surfaces import RevolutionKind, RevolutionSurface, mesh

    surface = RevolutionSurface(profile, RevolutionKind(args.kind), u_range, v_range)
    nu, nv = _parse_grid(args.grid)
    if args.action in _GRID_ACTIONS:
        from .classify import MIN_GRID_SAMPLES, check_eigen_i, check_eigen_ii, make_grid

        if min(nu, nv) < MIN_GRID_SAMPLES:
            raise ProfileSpecError(
                f"--action {args.action} needs a grid of at least "
                f"{MIN_GRID_SAMPLES}x{MIN_GRID_SAMPLES}, got {args.grid!r}"
            )

    if args.action in ("curvature", "laplacian1", "laplacian2"):
        # numpy warns of inf and nan where the per-point float arithmetic
        # these tables reproduce is silent
        with np.errstate(all="ignore"):
            header, rows = _surface_table(args.action, surface, nu, nv)
        _write_csv(args.out, header, rows)
        return EXIT_OK

    if args.action in ("classify1", "classify2"):
        grid = make_grid(surface, nu, nv)
        check = check_eigen_i if args.action == "classify1" else check_eigen_ii
        report = check(surface, grid, tol=args.tol)
        with _open_out(args.out) as fh:
            fh.write(report.to_text())
        return EXIT_OK

    m = mesh(surface, nu, nv)
    with _open_out(args.out) as fh:
        write_obj(m, fh)
    return EXIT_OK


# figure id: its files, each (kind, name, ...).  A "table" holds x and the
# named `_VALUES` at 200 x in [a, b], under a header and an optional comment;
# a "curve" is a profile curve (0, u, f(u)), the table after a zero column.
# A "mesh" is what `surface --profile SPEC --u U --v V --action mesh --grid
# 41x41` writes.  Names, not functions: the benchmark's tracer replaces the
# functions of module-level tables, not of nested ones.
_FIGURES = {
    "1a": [("table", "figure1a.csv", "x,J0,Y0",
            "samples start at x=0.05: Y0(x) -> -inf as x -> 0+", (0.05, 10.0), ("j0", "y0"))],
    "1b": [("table", "figure1b_i0.csv", "x,I0", None, (-3.0, 3.0), ("i0",)),
           ("table", "figure1b_k0.csv", "x,K0",
            "nominal range [-3,3] is cut to (0,3]: K0 is undefined for x <= 0",
            (0.05, 3.0), ("k0",))],
    "2a": [("curve", "figure2a.csv", "x,y,z", "profile curve (0, u, J0(u))", (1.0, 4.0), ("j0",))],
    "2b": [("mesh", "figure2b.obj", "bessel:lambda=1,c1=1,c2=0", "1:4", "-1:1")],
    "3a": [("curve", "figure3a.csv", "x,y,z", "profile curve (0, u, ln u)", (0.5, 5.0), ("ln",))],
    "3b": [("mesh", "figure3b.obj", "log:lambda=-2,c=0", "0.5:5", "-0.5:1")],
}


def _cmd_figure(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc) from exc
    for kind, name, *data in _FIGURES[args.id]:
        path = str(out_dir / name)
        if kind == "mesh":
            spec, u, v = data
            _cmd_surface(_build_parser().parse_args([
                "surface", f"--profile={spec}", f"--u={u}", f"--v={v}", "--action=mesh",
                "--grid=41x41", f"--out={path}"]))
        else:
            header, comment, (a, b), values = data
            table = _tabulate(a, b, 200, *(_VALUES[value] for value in values))
            if kind == "curve":
                table = np.insert(table, 0, 0.0, axis=1)
            _write_csv(path, header, table, [comment] if comment else [])
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, since parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="sigeom",
        description=(
            "Surfaces of revolution in the semi-isotropic 3-space: special "
            "functions, curvatures, Laplace operators, classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bessel", help="tabulate a Bessel-family function as CSV")
    b.add_argument("--kind", required=True, choices=("j0", "y0", "i0", "k0", "jp"))
    b.add_argument("--p", type=float, default=None, help="order for --kind jp")
    b.add_argument("--range", required=True, help="sampling interval a:b")
    b.add_argument("--n", type=int, default=200, help="number of samples")
    b.add_argument("--out", default=None, help="output path (default stdout)")
    b.add_argument("--series-tol", type=float, default=1e-15)
    b.set_defaults(func=_cmd_bessel)

    s = sub.add_parser("surface", help="compute on a surface of revolution")
    s.add_argument("--profile", required=True, help="profile spec family:key=val,...")
    s.add_argument("--kind", choices=("timelike", "spacelike"), default="timelike")
    s.add_argument("--u", default="0.5:5", help="u range a:b")
    s.add_argument("--v", default="-1:1", help="v range a:b")
    s.add_argument("--action", required=True, choices=_ACTIONS)
    s.add_argument("--out", default=None, help="output path (default stdout)")
    s.add_argument("--grid", default="21x21", help="sample grid NUxNV")
    s.add_argument("--tol", type=float, default=1e-6,
                   help="eigen-fit tolerance: a coordinate's fit holds when its sup residual"
                        " is at most tol*max(1, max|r_i|); the eigenvalue tests stay absolute")
    s.add_argument("--series-tol", type=float, default=1e-15)
    s.set_defaults(func=_cmd_surface)

    f = sub.add_parser("figure", help="emit the data files behind a reference figure")
    f.add_argument("id", choices=_FIGURES)
    f.add_argument("--out-dir", default=".", help="directory for the output files")
    f.set_defaults(func=_cmd_figure)
    return parser


_PAIR_FLAGS = ("--range", "--u", "--v")


def _glue_pair_values(argv: Sequence[str]) -> list[str]:
    # argparse rejects values like "-0.5:1" after a separate flag token; fold
    # them into --flag=value form so negative range endpoints parse.
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _PAIR_FLAGS and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_pair_values(argv))
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
