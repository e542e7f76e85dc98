"""The CLI's bulk `%.17g` writer against a per-row reference.

`cli._write_rows` formats a whole block of rows with one %-operation and
one write.  These tests rebuild the text one value at a time with
`f"{x:.17g}"` and one line per row, and require the same bytes on both
sides of the 4096-row block boundary, for the special floats, for the
1-based OBJ face indices and for CSV written to a file and to stdout.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from sigeom import RevolutionKind, RevolutionSurface, log_profile
from sigeom.cli import _write_csv, write_obj
from sigeom.surfaces import Mesh, mesh

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


def test_write_obj_of_a_401_mesh_allocates_no_whole_array_copy():
    s = RevolutionSurface(log_profile(-2.0, 0.0), RevolutionKind.TIMELIKE_MERIDIAN,
                          (0.5, 5.0), (-0.5, 1.0))
    m = mesh(s, 401, 401)

    class Sink:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        write_obj(m, Sink())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of 4096 rows formats in well under 1 MB; a copy of all
    # 320,000 faces (+1) or a tolist of the whole table takes several MB
    assert peak < 2 * 1024 * 1024
