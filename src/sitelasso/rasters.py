"""Regular-grid rasters and their ESRI ASCII form.

Grids are row-major with row 0 the northernmost row, matching the on-disk
layout of the ASCII format. All floating-point output is printed with 17
significant digits so files round-trip bit-exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .pointdata import format_float

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass
class RasterGrid:
    """A single-band regular raster.

    ``values`` has shape (nrows, ncols); row 0 is the top (largest y) row.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.ncols <= 0 or self.nrows <= 0:
            raise DataError("raster dimensions must be positive")
        if not self.cellsize > 0:
            raise DataError("raster cellsize must be positive")
        if self.values.shape != (self.nrows, self.ncols):
            raise DataError(
                f"raster values shape {self.values.shape} does not match "
                f"(nrows, ncols) = ({self.nrows}, {self.ncols})"
            )

    @property
    def x_max(self):
        return self.xll + self.ncols * self.cellsize

    @property
    def y_max(self):
        return self.yll + self.nrows * self.cellsize

    def same_grid(self, other):
        """True when the two rasters are co-registered (identical geometry)."""
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.xll == other.xll
            and self.yll == other.yll
            and self.cellsize == other.cellsize
        )

    def nodata_mask(self):
        """Boolean (nrows, ncols) array flagging missing cells."""
        return (self.values == self.nodata) | np.isnan(self.values)

    def x_centers(self):
        return self.xll + (np.arange(self.ncols) + 0.5) * self.cellsize

    def y_centers(self):
        """Cell-center y coordinates ordered like the rows (north to south)."""
        return self.yll + (self.nrows - np.arange(self.nrows) - 0.5) * self.cellsize

    def with_values(self, values):
        return RasterGrid(
            ncols=self.ncols,
            nrows=self.nrows,
            xll=self.xll,
            yll=self.yll,
            cellsize=self.cellsize,
            nodata=self.nodata,
            values=values,
        )


def write_ascii_grid(path, grid):
    """Write a grid in the plain-text header + row-major layout."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"ncols {grid.ncols}\n")
        handle.write(f"nrows {grid.nrows}\n")
        handle.write(f"xllcorner {format_float(grid.xll)}\n")
        handle.write(f"yllcorner {format_float(grid.yll)}\n")
        handle.write(f"cellsize {format_float(grid.cellsize)}\n")
        handle.write(f"NODATA_value {format_float(grid.nodata)}\n")
        # one %-operation per row prints each cell exactly as format_float does
        template = " ".join(["%.17g"] * grid.ncols) + "\n"
        for row in grid.values:
            handle.write(template % tuple(row.tolist()))


def read_ascii_grid(path):
    """Parse a plain-text grid; header keys are case-insensitive."""
    header = {}
    data_tokens = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if len(parts) == 2 and key in _HEADER_KEYS and key not in header:
                header[key] = parts[1]
            else:
                data_tokens.extend(parts)
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
        values = np.array([float(tok) for tok in data_tokens], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"raster {path} has a malformed value: {exc}")
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
