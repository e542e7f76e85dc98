"""The CLI's vectorized `%.17g`/`%d` writer against Python's own `%`.

`cli._write_rows` turns each block of at most 4096 rows into one byte
matrix and writes it once: float digits come from an exact scaling
(`sigeom._numtext`), integer digits from integer division, and a grid
column that repeats (u, v and d3 of the Laplacian tables, z of a mesh) is
formatted once per distinct value.  Only a float outside 1e-4 <= |x| < 1e17
(or inf or nan) goes through `%`.  These tests rebuild the text one value
at a time with `"%.17g" % x`, `f"{x:.17g}"` and `"%d" % i`, and require the
same bytes: on both sides of the 4096-row block boundary, for the special
floats, for random bit patterns, log-uniform magnitudes, exact half-way
ties and the neighbours of every power of ten, for 1-based OBJ face
indices up to 2**31 - 1, for repeated columns and for CSV written to a
file and to stdout.  The writer must also stay silent on 0, inf and nan,
whose log10 it never takes.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigeom import RevolutionKind, RevolutionSurface, log_profile
from sigeom import cli
from sigeom.bessel import bessel_k0
from sigeom.classify import make_grid
from sigeom.cli import _surface_table, _write_csv, _write_rows, main, write_obj
from sigeom.surfaces import Mesh, coord_laplacians_i, coord_laplacians_ii, mesh

ROW_COUNTS = (1, 4095, 4096, 4097, 8193)

SPECIAL = [
    -0.0,
    0.0,
    math.inf,
    -math.inf,
    math.nan,
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1.0,
    -3.0,
    2.0**53,
    1e16,
    123456789.0,
    0.1,
    -1.0 / 3.0,
]


def _table(rows: int, cols: int) -> np.ndarray:
    """Special floats first, then random values of widely spread size."""
    rng = np.random.default_rng(rows * 10 + cols)
    values = rng.standard_normal(rows * cols) * 10.0 ** rng.integers(-300, 300, rows * cols)
    head = min(len(SPECIAL), values.size)
    values[:head] = SPECIAL[:head]
    return values.reshape(rows, cols)


def _faces(rows: int) -> np.ndarray:
    rng = np.random.default_rng(rows)
    faces = rng.integers(0, 2**31 - 2, size=(rows, 3)).astype(np.int32)
    faces[0] = (0, 1, 2)
    return faces


def _reference_obj(m: Mesh) -> str:
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in m.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in m.faces]
    return "".join(lines)


def _reference_csv(header: str, table: np.ndarray, comments=()) -> str:
    lines = [f"# {c}\n" for c in comments] + [header + "\n"]
    lines += [",".join(f"{x:.17g}" for x in row) + "\n" for row in table]
    return "".join(lines)


def _assert_same_text(got: str, want: str) -> None:
    # names the first differing line; pytest's own diff of two texts of
    # several MB would take minutes
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        first = next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w), None)
        pytest.fail(f"{len(got)} vs {len(want)} chars; first differing line (no, got, want): {first}")


def test_special_values_print_as_before():
    m = Mesh(np.array(SPECIAL).reshape(-1, 2)[:, [0, 1, 1]], np.zeros((0, 3), np.int32), 8, 1)
    buf = io.StringIO()
    write_obj(m, buf)
    assert buf.getvalue() == _reference_obj(m)
    assert buf.getvalue().splitlines()[:4] == [
        "v -0 0 0",
        "v inf -inf -inf",
        "v nan 4.9406564584124654e-324 4.9406564584124654e-324",
        "v -4.9406564584124654e-324 1.7976931348623157e+308 1.7976931348623157e+308",
    ]


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_write_obj_matches_per_row_reference(tmp_path, rows):
    m = Mesh(vertices=_table(rows, 3), faces=_faces(rows), nu=rows, nv=1)
    want = _reference_obj(m)
    buf = io.StringIO()
    write_obj(m, buf)
    _assert_same_text(buf.getvalue(), want)
    path = tmp_path / "m.obj"
    with open(path, "w", newline="\n") as fh:
        write_obj(m, fh)
    _assert_same_text(path.read_bytes().decode(), want)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_write_csv_matches_per_row_reference(tmp_path, capsys, rows):
    table = _table(rows, 5)
    want = _reference_csv("u,v,d1,d2,d3", table, ["a comment"])
    path = tmp_path / "t.csv"
    _write_csv(str(path), "u,v,d1,d2,d3", table, ["a comment"])
    _assert_same_text(path.read_bytes().decode(), want)
    _write_csv(None, "u,v,d1,d2,d3", table, ["a comment"])
    _assert_same_text(capsys.readouterr().out, want)


@pytest.mark.parametrize("cols", (2, 3))
def test_write_csv_column_counts(capsys, cols):
    table = _table(4097, cols)
    _write_csv("-", "h", table)
    _assert_same_text(capsys.readouterr().out, _reference_csv("h", table))


def _spy_strings(monkeypatch) -> list:
    """The columns the writer formats once per value, recorded per call."""
    calls = []

    def spy(column):
        calls.append(np.shape(column))
        return strings(column)

    strings = cli._strings
    monkeypatch.setattr(cli, "_strings", spy)
    return calls


def _grid_mesh(z_rows: np.ndarray, nv: int) -> Mesh:
    nu = len(z_rows)
    rng = np.random.default_rng(nu * nv)
    vertices = np.column_stack((rng.standard_normal((nu * nv, 2)), np.repeat(z_rows, nv)))
    return Mesh(vertices, _faces(nu), nu, nv)


def test_write_obj_prints_each_row_z_once_bit_for_bit(monkeypatch):
    # 3001 x 3 = 9003 vertices: both block boundaries fall inside a u row
    z_rows = np.resize([-0.0, 0.0, math.nan, math.inf, 5e-324, 1.0 / 3.0], 3001)
    m = _grid_mesh(z_rows, 3)
    calls = _spy_strings(monkeypatch)
    buf = io.StringIO()
    write_obj(m, buf)
    _assert_same_text(buf.getvalue(), _reference_obj(m))
    assert calls == [(3001, 1)]
    assert buf.getvalue().splitlines()[:4] == [
        "v %.17g %.17g -0" % tuple(m.vertices[0, :2]),
        "v %.17g %.17g -0" % tuple(m.vertices[1, :2]),
        "v %.17g %.17g -0" % tuple(m.vertices[2, :2]),
        "v %.17g %.17g 0" % tuple(m.vertices[3, :2]),
    ]


@pytest.mark.parametrize("row", [[0.0, -0.0, 0.0], [1.0, 2.0, 3.0], [math.nan, 1.0, math.nan]])
def test_write_obj_of_z_varying_along_v_takes_the_plain_path(monkeypatch, row):
    # one u row whose z differs along v, bit for bit, among 3000 constant ones
    m = _grid_mesh(np.linspace(-1.0, 1.0, 3001), 3)
    m.vertices[3 * 1500 : 3 * 1501, 2] = row
    calls = _spy_strings(monkeypatch)
    buf = io.StringIO()
    write_obj(m, buf)
    _assert_same_text(buf.getvalue(), _reference_obj(m))
    assert calls == []


LOG_SURFACE = ("log:lambda=-2,c=0", RevolutionKind.SPACELIKE_MERIDIAN, (0.5, 5.0), (-0.5, 1.0))


@pytest.mark.parametrize("action", ["laplacian1", "laplacian2"])
@pytest.mark.parametrize("nu, nv", [(7, 1000), (5, 4099)])
def test_laplacian_tables_match_per_point_reference(tmp_path, action, nu, nv):
    # nv = 1000 does not divide the 4096-row block, nv = 4099 exceeds it
    spec, kind, (ulo, uhi), (vlo, vhi) = LOG_SURFACE
    out = tmp_path / "t.csv"
    argv = ["surface", "--profile", spec, "--kind", kind.value, f"--u={ulo}:{uhi}",
            f"--v={vlo}:{vhi}", "--grid", f"{nu}x{nv}", "--action", action, "--out", str(out)]
    assert main(argv) == 0
    s = RevolutionSurface(cli.parse_profile_spec(spec), kind, (ulo, uhi), (vlo, vhi))
    g = make_grid(s, nu, nv)
    op = coord_laplacians_i if action == "laplacian1" else coord_laplacians_ii
    table = [(u, v, *op(s, u, v)) for u in g.u.tolist() for v in g.v.tolist()]
    _assert_same_text(out.read_bytes().decode(), _reference_csv("u,v,d1,d2,d3", table))


class Sink:
    def write(self, text):
        pass


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_obj_of_a_401_mesh_allocates_no_whole_array_copy():
    s = RevolutionSurface(log_profile(-2.0, 0.0), RevolutionKind.TIMELIKE_MERIDIAN,
                          (0.5, 5.0), (-0.5, 1.0))
    m = mesh(s, 401, 401)
    # one block of 4096 rows formats in well under 1 MB; a copy of all
    # 320,000 faces (+1) or a tolist of the whole table takes several MB
    assert _traced_peak(lambda: write_obj(m, Sink())) < 2 * 1024 * 1024


def test_write_of_a_201_laplacian2_table_allocates_no_whole_array_copy():
    spec, kind, u_range, v_range = LOG_SURFACE
    s = RevolutionSurface(cli.parse_profile_spec(spec), kind, u_range, v_range)
    _, columns = _surface_table("laplacian2", s, 201, 201)
    # an object table of all 40,401 rows, or a tolist of them, takes
    # several MB
    assert _traced_peak(lambda: _write_rows(Sink(), columns)) < 2 * 1024 * 1024


def test_tabulate_sums_the_series_one_block_at_a_time():
    # the stacked K0 kernel takes about 850 B per x: 3.5 MB per block of
    # 4096 x, and about 10 MB for all 12,289 x (3 blocks and 1 x) at once
    table = []
    peak = _traced_peak(lambda: table.append(cli._tabulate(0.05, 25.0, 12_289, bessel_k0)))
    assert peak < 6 * 1024 * 1024
    assert table[0].shape == (12_289, 2)


# ----------------------------------------------------------------------
# the vectorized formatter against `%`, value by value


def _column_text(values) -> str:
    buf = io.StringIO()
    _write_rows(buf, np.asarray(values)[:, None])
    return buf.getvalue()


def _assert_like_percent(values) -> None:
    values = np.asarray(values)
    template = ("%d\n" if values.dtype.kind in "iu" else "%.17g\n") * len(values)
    _assert_same_text(_column_text(values), template % tuple(values.tolist()))


@settings(max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_floats_print_as_percent(values):
    # nan, +-inf, subnormals and +-0 included
    _assert_like_percent(np.array(values, dtype=np.float64))


def test_random_bit_patterns_print_as_percent():
    rng = np.random.default_rng(7)
    bits = rng.integers(-(2**63), 2**63, 10**6, dtype=np.int64)
    # past the first 50,000, the exponent field is drawn from the binades of
    # 2**-16 ... 2**59, around the exact window 1e-4 <= |x| < 1e17: a
    # uniform one would leave 96% of them to `%` on both sides, at 2 us each
    exponents = rng.integers(1023 - 16, 1023 + 60, bits.size) << 52
    bits[50_000:] = bits[50_000:] & ~(0x7FF << 52) | exponents[50_000:]
    _assert_like_percent(bits.view(np.float64))


def test_log_uniform_magnitudes_print_as_percent():
    rng = np.random.default_rng(8)
    magnitudes = 10.0 ** rng.uniform(-6.0, 19.0, 10**6)
    _assert_like_percent(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size))


def _ties(exponent: int, count: int, rng) -> list[float]:
    """x = m / 2**q with m odd and 10**exponent <= x < 10**(exponent + 1),
    whose exact decimal expansion has 18 significant digits: half-way
    between two 17-digit neighbours."""
    q = 17 - exponent  # fraction digits of m / 2**q
    lo, hi = -(-(10**17) // 5**q), min(10**18 // 5**q, 2**53)
    ms = {int(m) | 1 for m in rng.integers(lo, hi, count)}
    return [m / 2**q for m in sorted(ms) if lo <= m < hi]


def test_half_way_ties_round_to_even():
    assert _column_text([1 + 2**-17]) == "1.0000076293945312\n"
    rng = np.random.default_rng(9)
    # every decimal exponent of the window up to 15; past 1e16 no double
    # is a tie, since m would need more than 53 bits
    per_exponent = [_ties(e, 500, rng) for e in range(-4, 16)]
    assert min(map(len, per_exponent)) > 300
    ties = [x for xs in per_exponent for x in xs]
    # the 17th digit is even (ties round down) about as often as odd (up)
    odd = np.mean([int(("%.17e" % x)[17]) % 2 for x in ties])
    assert 0.4 < odd < 0.6
    _assert_like_percent(ties + [-x for x in ties])


def test_neighbours_of_powers_of_ten_print_as_percent():
    values = []
    for p in range(-6, 20):
        for direction in (-np.inf, np.inf):
            x = 10.0**p
            for _ in range(40):
                values.append(x)
                x = np.nextafter(x, direction)
    _assert_like_percent(values + [-x for x in values])


def test_integers_print_as_percent():
    rng = np.random.default_rng(10)
    values = rng.integers(-(2**63), 2**63, 10**5, dtype=np.int64)
    values[:6] = [0, -1, 1, 9999, 2**63 - 1, -(2**63)]
    _assert_like_percent(values)
    _assert_like_percent(np.arange(-20_000, 20_000))


def test_face_indices_up_to_2_31_minus_1():
    faces = np.array([[0, 1, 2], [2**31 - 1, 2**31 - 2, 9999], [99_999_999, 100_000_000, 7]],
                     dtype=np.int32)
    buf = io.StringIO()
    write_obj(Mesh(np.zeros((0, 3)), faces, 0, 1), buf)
    assert buf.getvalue() == "f 1 2 3\nf 2147483648 2147483647 10000\nf 100000000 100000001 8\n"


@pytest.mark.filterwarnings("error")
def test_writer_is_silent_on_zero_inf_nan_and_subnormals(capsys):
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.0]
    table = np.array(special * 3).reshape(-1, 3)
    m = Mesh(table, np.zeros((1, 3), np.int32), len(table), 1)
    buf = io.StringIO()
    write_obj(m, buf)
    assert buf.getvalue() == _reference_obj(m)
    _write_csv(None, "a,b,c", table)
    _write_csv(None, "u,v", (np.array(special)[:, None], np.array(special)))
    grid = [(u, v) for u in special for v in special]
    assert capsys.readouterr() == (_reference_csv("a,b,c", table) + _reference_csv("u,v", grid), "")


@pytest.mark.filterwarnings("error")
def test_cli_tables_with_zero_columns_write_no_warning(capsys):
    # the first-form Laplacian table holds d1 = d2 = 0 on every row
    argv = ["surface", "--profile", "log:lambda=1,c=0", "--action", "laplacian1", "--grid", "9x9"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1].split(",")[2:4] == ["0", "0"]
