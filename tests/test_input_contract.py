"""The input readers' contract: accepted tokens, bits, errors and memory.

The error table runs the CLI, so each case checks the exit code and the one
stderr line a user sees. The differential tests hold the streaming readers to
the token-at-a-time references in ``_reference_readers``, on every case at the
default chunk size and with chunks of a few tokens, so each case also crosses
chunk boundaries. The memory tests bound the tracemalloc peak of a read, and
of a whole ``transfer``, by a multiple of the float64 arrays read (numpy
reports its buffers to tracemalloc).
"""

import csv
import shutil
import tracemalloc

import _reference_readers as reference
import numpy as np
import pytest

from sitelasso import pointdata, rasters
from sitelasso.cli import main
from sitelasso.errors import DataError
from sitelasso.pointdata import PointDataset, read_points_csv, write_points_csv
from sitelasso.rasters import RasterGrid, read_ascii_grid, write_ascii_grid

HEADER = "site,x,y,response,cov0,cov1\n"


def points_text(n_rows, newline="\n"):
    """A header and ``n_rows`` six-field rows of two sites."""
    rows = [
        f"B{1 + i % 2},{i}.5,{2 * i}.25,{i % 7}.125,{i % 11}.0625,-{i % 13}.5"
        for i in range(n_rows)
    ]
    return HEADER.replace("\n", newline) + "".join(r + newline for r in rows)


def replace_line(text, line_no, old, new):
    """``text`` with the first ``old`` on 1-based line ``line_no`` replaced."""
    lines = text.splitlines(keepends=True)
    assert old in lines[line_no - 1]
    lines[line_no - 1] = lines[line_no - 1].replace(old, new, 1)
    return "".join(lines)


def set_fields(text, *edits):
    """``text`` with each ``(line_no, index, value)`` field set, in order.

    ``line_no`` is 1-based and counts the lines of the text as edited so far.
    """
    for line_no, index, value in edits:
        lines = text.splitlines(keepends=True)
        body = lines[line_no - 1].rstrip("\r\n")
        fields = body.split(",")
        fields[index] = value
        lines[line_no - 1] = ",".join(fields) + lines[line_no - 1][len(body) :]
        text = "".join(lines)
    return text


def random_grid(nrows=300, ncols=400, seed=3):
    values = np.random.default_rng(seed).normal(size=(nrows, ncols))
    return RasterGrid(ncols, nrows, 0.0, 0.0, 3.0, -9999.0, values)


def grid_file_text(grid):
    """The text write_ascii_grid writes for ``grid``."""
    header = (
        f"ncols {grid.ncols}\nnrows {grid.nrows}\nxllcorner 0\nyllcorner 0\n"
        "cellsize 3\nNODATA_value -9999\n"
    )
    return header + "".join(" ".join("%.17g" % v for v in row) + "\n" for row in grid.values)


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    return path


# --- the error contract, through the CLI -------------------------------------

POINT_ERRORS = {
    "bad token past the first chunk": (
        replace_line(points_text(10_000), 9_000, ",-", ",x7-"),
        9_000,
        "could not convert string to float: 'x7-",
    ),
    "short row": (replace_line(points_text(20), 5, ",-", ";-"), 5, "expected 6 fields, got 5"),
    "long row": (replace_line(points_text(20), 5, ",-", ",0,-"), 5, "expected 6 fields, got 7"),
    "empty file": ("", None, "empty file"),
    "header without rows": (HEADER, None, "no data rows"),
    "bad header": (
        points_text(5).replace("site,x,y,", "site,y,x,", 1),
        None,
        "header must start with site,x,y,response",
    ),
}


@pytest.mark.parametrize("case", sorted(POINT_ERRORS))
def test_a_bad_points_file_ends_with_code_3_and_one_line(case, tmp_path, capsys):
    text, line_no, message = POINT_ERRORS[case]
    path = write_text(tmp_path / "target.csv", text)
    assert main(["transfer", str(tmp_path / "no_run"), str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    where = f"{path}:{line_no}:" if line_no else f"{path}:"
    assert where in lines[0] and message in lines[0]


def test_crlf_rows_and_blank_lines_still_read(tmp_path):
    plain = read_points_csv(write_text(tmp_path / "lf.csv", points_text(30)))
    text = points_text(30, newline="\r\n")
    text = replace_line(text, 4, "B", "\r\nB")  # a blank CRLF line
    text = text + "\n\r\n"
    crlf = read_points_csv(write_text(tmp_path / "crlf.csv", text))
    assert crlf.site_ids.tolist() == plain.site_ids.tolist()
    for name in ("x", "y", "response", "covariate_values"):
        assert np.array_equal(getattr(crlf, name), getattr(plain, name)), name


def test_a_quoted_site_id_still_reads(tmp_path):
    text = set_fields(points_text(6), (3, 0, '"say""when"'))
    data = read_points_csv(write_text(tmp_path / "quoted.csv", text))
    assert data.site_ids.tolist()[1] == 'say"when'
    assert data.sites() == ["B1", "B2", 'say"when']
    assert data.x[1] == 1.5


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A small synthetic study whose rasters the grid cases replace."""
    base = tmp_path_factory.mktemp("contract")
    spec = base / "synth.cfg"
    spec.write_text(
        "seed = 1\nn_site1 = 26\nn_site2 = 24\nn_covariates = 3\nncols = 8\n"
        f"nrows = 6\noutput_dir = {base / 'synth'}\n"
    )
    assert main(["synth", str(spec)]) == 0
    return base / "synth"


def grid_errors():
    text = grid_file_text(random_grid())
    lines = text.splitlines(keepends=True)
    return {
        "malformed token in the last row": (
            "".join(lines[:-1]) + lines[-1].replace(" ", " x7 ", 1),
            "has a malformed value: could not convert string to float: 'x7'",
        ),
        "missing header key": (
            text.replace("cellsize 3\n", ""),
            "is missing header key cellsize",
        ),
        "wrong cell count": (
            "".join(lines[:-1]),
            f"carries {299 * 400} values, expected {300 * 400}",
        ),
        # header faults that the grid itself would report without the file
        "zero ncols and no data": (
            "".join(lines[:6]).replace("ncols 400\n", "ncols 0\n"),
            "has ncols 0: it must be positive",
        ),
        "negative nrows": (
            text.replace("nrows 300\n", "nrows -300\n"),
            "has nrows -300: it must be positive",
        ),
        "negative cellsize": (
            text.replace("cellsize 3\n", "cellsize -1\n"),
            "has cellsize -1: it must be positive and finite",
        ),
        "zero cellsize": (
            text.replace("cellsize 3\n", "cellsize 0\n"),
            "has cellsize 0: it must be positive and finite",
        ),
        # and non-finite geometry, which it would accept
        "infinite cellsize": (
            text.replace("cellsize 3\n", "cellsize inf\n"),
            "has cellsize inf: it must be positive and finite",
        ),
        "infinite xllcorner": (
            text.replace("xllcorner 0\n", "xllcorner inf\n"),
            "has xllcorner inf: it must be finite",
        ),
        "nan yllcorner": (
            text.replace("yllcorner 0\n", "yllcorner nan\n"),
            "has yllcorner nan: it must be finite",
        ),
    }


GRID_ERRORS = grid_errors()


@pytest.mark.parametrize("case", sorted(GRID_ERRORS))
def test_a_bad_grid_ends_with_code_3_and_one_line(case, study, tmp_path, capsys):
    text, message = GRID_ERRORS[case]
    grids = tmp_path / "rasters"
    shutil.copytree(study / "rasters", grids)
    path = write_text(grids / "cov0.asc", text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"points = {study / 'points.csv'}\noutput_dir = {tmp_path / 'out'}\n"
        f"n_splits = 4\nrasters_dir = {grids}\n"
    )
    assert main(["run", str(cfg)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert f"raster {path} {message}" in lines[0]


def test_a_ragged_grid_is_still_accepted(tmp_path):
    grid = random_grid(nrows=5, ncols=6)
    path = tmp_path / "square.asc"
    write_ascii_grid(path, grid)
    lines = path.read_text().splitlines()
    tokens = " ".join(lines[6:]).split()
    widths = [1, 11, 4, 9, 5]  # rows of unequal length, 30 values in all
    ragged, start = [], 0
    for width in widths:
        ragged.append(" ".join(tokens[start : start + width]))
        start += width
    ragged_path = write_text(tmp_path / "ragged.asc", "\n".join(lines[:6] + ragged) + "\n")
    back = read_ascii_grid(ragged_path)
    assert np.array_equal(back.values.view(np.uint64), grid.values.view(np.uint64))


# --- the streaming readers against the token-at-a-time references ------------

ROWS = points_text(40)

POINT_CASES = {
    "plain": ROWS,
    "crlf": points_text(40, "\r\n"),
    "lone cr": points_text(40, "\r"),
    "no final newline": ROWS[:-1],
    "blank lines": ROWS.replace("\nB2", "\n\n\r\nB2", 3) + "\n\r\n\n",
    "whitespace-only line": ROWS.replace("\nB2", "\n  \nB2", 1),
    "float() spellings": set_fields(
        ROWS,
        (3, 1, "1_000"),
        (4, 2, " ١٢ "),
        (5, 3, "\t2"),
        (6, 4, "-nan"),
        (7, 5, "+Infinity"),
        (8, 4, "1e-320"),
    ),
    "underscores float() rejects": set_fields(ROWS, (20, 1, "1__9")),
    "empty token": set_fields(ROWS, (9, 2, "")),
    "hex token": set_fields(ROWS, (39, 1, "0x10")),
    "nul in a token": set_fields(ROWS, (12, 1, "10.5\x00")),
    "padded site ids": set_fields(ROWS, (2, 0, " B1 ")),
    "quoted site id": set_fields(ROWS, (3, 0, '"say""when"')),
    "quoted number": set_fields(ROWS, (6, 1, '"4.5"')),
    "quoted comma": set_fields(ROWS, (6, 1, '"4,5"')),
    "quote inside a field": set_fields(ROWS, (6, 1, '4"5')),
    "record over two lines, then a bad token": set_fields(
        ROWS, (30, 1, "x"), (5, 1, '"3.5\n"')
    ),
    "quote open at the end of the file": ROWS + 'B1,"1.5',
    "bad token before a short row": replace_line(
        set_fields(ROWS, (10, 1, "8.5q")), 12, ",-", ";-"
    ),
    "short row before a bad token": replace_line(
        set_fields(ROWS, (12, 1, "10.5q")), 10, ",-", ";-"
    ),
    "short row with a bad token": replace_line(
        set_fields(ROWS, (10, 1, "8.5q")), 10, ",-", ";-"
    ),
    "site only": ROWS + "B1\n",
    "non-finite coordinate": set_fields(ROWS, (7, 1, "inf")),
    "site id with a space": set_fields(ROWS, (7, 0, "B 1")),
    "empty site id": set_fields(ROWS, (7, 0, '""')),
    "empty file": "",
    "blank first line": "\n" + ROWS,
    "header only": HEADER,
    "header and blank lines": HEADER + "\n\r\n\n",
    "quoted header": '"site","x",y,response,cov0,cov1\n' + ROWS[len(HEADER) :],
    "padded header": " site , x ,y,response, cov0,cov1\n" + ROWS[len(HEADER) :],
    "bad header": ROWS.replace("response", "z", 1),
}


def outcome(reader, path):
    """The dataset's names and bits, or the error's type and message."""
    try:
        data = reader(path)
    except (DataError, ValueError) as exc:
        return type(exc), str(exc)
    arrays = [data.x, data.y, data.response, data.covariate_values]
    return data.site_ids.tolist(), data.covariate_names, [a.tobytes() for a in arrays]


@pytest.mark.parametrize("chunk", [None, 13])
@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_points_reader_matches_the_reference(case, chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(pointdata, "_CHUNK_TOKENS", chunk, raising=False)
        monkeypatch.setattr(pointdata, "_COUNT_BYTES", 5, raising=False)
    path = write_text(tmp_path / "points.csv", POINT_CASES[case])
    assert outcome(read_points_csv, path) == outcome(reference.read_points_csv, path)


@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_the_record_bound_counts_each_line_end_once(case, tmp_path, monkeypatch):
    # csv.reader ends a record at "\n", "\r\n" or a lone "\r"; the bound
    # counts each such end once, also where a block boundary splits a "\r\n"
    text = POINT_CASES[case]
    path = write_text(tmp_path / "points.csv", text)
    ends = text.count("\n") + text.count("\r") - text.count("\r\n")
    with open(path, newline="", encoding="utf-8") as handle:
        records = sum(1 for _ in csv.reader(handle))
    for block in (1, 2, 3, 7, 1 << 20):
        monkeypatch.setattr(pointdata, "_COUNT_BYTES", block)
        assert pointdata._max_records(path) == ends + 1 >= records


GRID = grid_file_text(random_grid(nrows=4, ncols=5))
GRID_HEADER, GRID_ROWS = GRID[: GRID.index("NODATA")], GRID[GRID.index("NODATA") :]

GRID_CASES = {
    "plain": GRID,
    "crlf": GRID.replace("\n", "\r\n"),
    "lone cr": GRID.replace("\n", "\r"),
    "upper-case keys": GRID.replace("ncols", "NCOLS").replace("cellsize", "CellSize"),
    "header after data": GRID_ROWS + GRID_HEADER,
    "repeated header key": GRID + "ncols 5\n",
    "header key with three words": GRID.replace("cellsize 3", "cellsize 3 3"),
    "ragged rows": GRID_HEADER
    + "NODATA_value -9999\n"
    + "\n".join(" ".join(GRID_ROWS.split()[2:][a:b]) for a, b in ((0, 1), (1, 8), (8, 11), (11, 20)))
    + "\n",
    "blank lines": GRID.replace("\n", "\n\n  \n", 9),
    "tabs and other whitespace": GRID.replace(" ", "\t", 12).replace(" ", "\x1c", 3),
    "float() spellings": GRID_HEADER
    + "NODATA_value -9999\n1_000 inf -nan ١٢ +Infinity\n"
    + GRID_ROWS.split("\n", 2)[2],
    "bad token": GRID[:-1] + " x7\n",
    "wrong count": GRID + "1\n",
    "missing key": GRID.replace("yllcorner 0\n", ""),
    "missing nodata": GRID.replace("NODATA_value -9999\n", ""),
    "malformed header value": GRID.replace("ncols 5", "ncols 5.5"),
    "malformed header value and token": GRID.replace("ncols 5", "ncols 5.5")[:-1] + " x7\n",
    "missing key and bad token": GRID.replace("yllcorner 0\n", "")[:-1] + " x7\n",
    "no data": GRID_HEADER + "NODATA_value -9999\n",
    "zero ncols and no data": GRID_HEADER.replace("ncols 5", "ncols 0") + "NODATA_value -9999\n",
    "negative cellsize": GRID.replace("cellsize 3", "cellsize -3"),
    "infinite cellsize": GRID.replace("cellsize 3", "cellsize Infinity"),
    "nan xllcorner": GRID.replace("xllcorner 0", "xllcorner nan"),
    "infinite yllcorner and bad token": GRID.replace("yllcorner 0", "yllcorner -inf")[:-1] + " x7\n",
}


def grid_outcome(reader, path):
    try:
        grid = reader(path)
    except (DataError, ValueError) as exc:
        return type(exc), str(exc)
    geometry = (grid.ncols, grid.nrows, grid.xll, grid.yll, grid.cellsize, grid.nodata)
    return geometry, grid.values.shape, grid.values.tobytes()


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_reader_matches_the_reference(case, chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(rasters, "_CHUNK_CHARS", chunk, raising=False)
    path = write_text(tmp_path / "grid.asc", GRID_CASES[case])
    assert grid_outcome(read_ascii_grid, path) == grid_outcome(
        reference.read_ascii_grid, path
    )


# --- memory --------------------------------------------------------------------


def traced_peak(call, arg):
    """``call(arg)`` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = call(arg)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_points(n_rows, n_cov, seed=11):
    """A two-site dataset of ``n_rows`` rows over ``n_cov`` covariates."""
    rng = np.random.default_rng(seed)
    return PointDataset(
        site_ids=np.where(np.arange(n_rows) % 2 == 0, "B1", "B2"),
        x=rng.uniform(0, 1200, n_rows),
        y=rng.uniform(0, 900, n_rows),
        response=rng.normal(size=n_rows),
        covariate_names=[f"cov{j}" for j in range(n_cov)],
        covariate_values=rng.normal(size=(n_rows, n_cov)),
    )


def test_reading_points_peaks_within_one_and_a_half_times_the_arrays(tmp_path):
    n_rows, n_cov = 40_000, 10
    path = tmp_path / "target.csv"
    write_points_csv(path, random_points(n_rows, n_cov))
    back, peak = traced_peak(read_points_csv, path)
    arrays = sum(a.nbytes for a in (back.x, back.y, back.response, back.covariate_values))
    assert arrays == n_rows * (3 + n_cov) * 8
    assert peak <= 1.5 * arrays, f"peak {peak / arrays:.2f}x the arrays"


def test_transfer_peaks_within_1_6_times_the_target_arrays(tmp_path):
    # a study over the target's ten covariates, so its ensembles read them
    n_rows, n_cov = 40_000, 10
    spec = tmp_path / "synth.cfg"
    spec.write_text(
        f"seed = 2\nn_site1 = 30\nn_site2 = 30\nn_covariates = {n_cov}\nncols = 8\n"
        f"nrows = 6\noutput_dir = {tmp_path / 'study'}\n"
    )
    assert main(["synth", str(spec)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"points = {tmp_path / 'study' / 'points.csv'}\noutput_dir = {tmp_path / 'run'}\n"
        "methods = m1-b1, m1-b2\nn_splits = 4\nmax_order = 2\n"
    )
    assert main(["run", str(cfg)]) == 0
    target = tmp_path / "target.csv"
    write_points_csv(target, random_points(n_rows, n_cov))
    argv = ["transfer", str(tmp_path / "run"), str(target), "--output-dir", str(tmp_path / "out")]
    code, peak = traced_peak(main, argv)
    assert code == 0
    arrays = n_rows * (3 + n_cov) * 8
    assert peak <= 1.6 * arrays, f"peak {peak / arrays:.2f}x the target's arrays"


def test_reading_a_grid_peaks_within_four_times_its_array(tmp_path):
    path = tmp_path / "grid.asc"
    write_ascii_grid(path, random_grid())
    back, peak = traced_peak(read_ascii_grid, path)
    assert back.values.shape == (300, 400)
    assert peak <= 4 * back.values.nbytes, f"peak {peak / back.values.nbytes:.2f}x the grid"
