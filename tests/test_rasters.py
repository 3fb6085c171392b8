import numpy as np
import pytest

from sitelasso.errors import DataError
from sitelasso.pointdata import format_float
from sitelasso.rasters import (
    DEFAULT_NODATA,
    RasterGrid,
    read_ascii_grid,
    write_ascii_grid,
)


def grid_of(values, xll=0.0, yll=0.0, cellsize=10.0, nodata=DEFAULT_NODATA):
    values = np.asarray(values, dtype=np.float64)
    return RasterGrid(
        ncols=values.shape[1],
        nrows=values.shape[0],
        xll=xll,
        yll=yll,
        cellsize=cellsize,
        nodata=nodata,
        values=values,
    )


def test_ascii_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    grid = grid_of(rng.normal(size=(7, 9)) * 1e3, xll=-12.5, yll=3.25, cellsize=2.5)
    grid.values[2, 3] = grid.nodata
    path = tmp_path / "layer.asc"
    write_ascii_grid(path, grid)
    back = read_ascii_grid(path)
    assert back.same_grid(grid)
    assert back.nodata == grid.nodata
    assert np.array_equal(back.values, grid.values)
    # writing again produces identical bytes
    path2 = tmp_path / "layer2.asc"
    write_ascii_grid(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_ascii_header_is_standard(tmp_path):
    grid = grid_of([[1.0, 2.0]], cellsize=5.0)
    path = tmp_path / "g.asc"
    write_ascii_grid(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["ncols", "2"]
    assert lines[1].split() == ["nrows", "1"]
    assert lines[2].split()[0] == "xllcorner"
    assert lines[3].split()[0] == "yllcorner"
    assert lines[4].split() == ["cellsize", "5"]
    assert lines[5].split()[0] == "NODATA_value"


def test_read_rejects_missing_header_and_bad_counts(tmp_path):
    bad = tmp_path / "bad.asc"
    bad.write_text("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\n1 2\n")
    with pytest.raises(DataError, match="cellsize"):
        read_ascii_grid(bad)
    short = tmp_path / "short.asc"
    short.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2 3\n"
    )
    with pytest.raises(DataError, match="3 values"):
        read_ascii_grid(short)


def test_ascii_rows_match_the_per_cell_formatter(tmp_path):
    values = np.array(
        [
            [1.5, DEFAULT_NODATA, -0.0, 5e-324],
            [1e300, -1e300, 0.1, 2.0 / 3.0],
            [np.pi, -2.2250738585072014e-308, 123456789.125, 7.0],
        ]
    )
    grid = grid_of(values, xll=-12.5, yll=3.25, cellsize=2.5)
    path = tmp_path / "g.asc"
    write_ascii_grid(path, grid)
    header = (
        "ncols 4\nnrows 3\nxllcorner -12.5\nyllcorner 3.25\n"
        "cellsize 2.5\nNODATA_value -9999\n"
    )
    rows = "".join(" ".join(format_float(v) for v in row) + "\n" for row in values)
    assert path.read_bytes() == (header + rows).encode("utf-8")
    back = read_ascii_grid(path)
    assert np.array_equal(back.values, values)
    assert np.signbit(back.values[0, 2])


def test_geometry_validation():
    with pytest.raises(DataError, match="cellsize"):
        grid_of([[1.0]], cellsize=0.0)
    with pytest.raises(DataError, match="shape"):
        RasterGrid(2, 2, 0.0, 0.0, 1.0, -9999.0, np.zeros((1, 2)))
