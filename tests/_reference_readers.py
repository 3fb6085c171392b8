"""Token-at-a-time references for the streaming input readers.

``read_points_csv`` parses every record with ``csv`` and converts every
token with ``float()``; ``read_ascii_grid`` reads the whole file before
converting its data tokens in one call. They define the contract of
``sitelasso.pointdata.read_points_csv`` and ``sitelasso.rasters
.read_ascii_grid``: the same accepted tokens, the same bits, and the same
error messages, line numbers included.
"""

import csv

import numpy as np

from sitelasso.errors import DataError
from sitelasso.pointdata import RESERVED_COLUMNS, PointDataset
from sitelasso.rasters import _HEADER_KEYS, DEFAULT_NODATA, RasterGrid


def read_points_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if tuple(header[:4]) != RESERVED_COLUMNS:
            raise DataError(
                f"{path}: header must start with site,x,y,response, got {header[:4]}"
            )
        cov_names = header[4:]
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                numbers = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from None
            rows.append((row[0].strip(), numbers))
    if not rows:
        raise DataError(f"{path}: no data rows")
    sites = np.array([r[0] for r in rows], dtype=object)
    numeric = np.array([r[1] for r in rows], dtype=np.float64)
    return PointDataset(
        sites, numeric[:, 0], numeric[:, 1], numeric[:, 2], cov_names, numeric[:, 3:]
    )


def read_ascii_grid(path):
    header = {}
    data_lines = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            first = line.split(None, 1)
            if not first:
                continue
            key = first[0].lower()
            if key in _HEADER_KEYS and key not in header:
                parts = line.split()
                if len(parts) == 2:
                    header[key] = parts[1]
                    continue
            data_lines.append(line)
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise DataError(f"raster {path} is missing header key {key}")
    try:
        ncols = int(header["ncols"])
        nrows = int(header["nrows"])
        xll = float(header["xllcorner"])
        yll = float(header["yllcorner"])
        cellsize = float(header["cellsize"])
        nodata = float(header.get("nodata_value", DEFAULT_NODATA))
        values = np.array([float(tok) for tok in " ".join(data_lines).split()])
    except ValueError as exc:
        raise DataError(f"raster {path} has a malformed value: {exc}")
    rules = {
        "ncols": ncols > 0,
        "nrows": nrows > 0,
        "xllcorner": np.isfinite(xll),
        "yllcorner": np.isfinite(yll),
        "cellsize": np.isfinite(cellsize) and cellsize > 0,
    }
    for key, ok in rules.items():
        if not ok:
            rule = "finite" if "corner" in key else "positive"
            if key == "cellsize":
                rule += " and finite"
            raise DataError(f"raster {path} has {key} {header[key]}: it must be {rule}")
    if values.size != ncols * nrows:
        raise DataError(
            f"raster {path} carries {values.size} values, expected {ncols * nrows}"
        )
    return RasterGrid(
        ncols=ncols,
        nrows=nrows,
        xll=xll,
        yll=yll,
        cellsize=cellsize,
        nodata=nodata,
        values=values.reshape(nrows, ncols),
    )
