"""Regular-grid rasters and their ESRI ASCII form.

Grids are row-major with row 0 the northernmost row, matching the on-disk
layout of the ASCII format. All floating-point output is printed with 17
significant digits so files round-trip bit-exactly. Writing prints a block
of whole rows at a time with ``pointdata.format_rows``, which gives the bytes
of one ``'%.17g'`` per cell from exact integer arithmetic, so a write's
transient memory is a few MB whatever the size of the grid. Reading converts
the data lines to float64 in bounded chunks, so a read costs about the size
of the grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .pointdata import format_float, format_rows, row_blocks

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
# The header fields that place a grid, with the RasterGrid attribute of each.
_GEOMETRY = (
    ("ncols", "ncols"),
    ("nrows", "nrows"),
    ("xllcorner", "xll"),
    ("yllcorner", "yll"),
    ("cellsize", "cellsize"),
)


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

    def first_difference(self, other):
        """The first header field whose value differs from ``other``'s.

        Returns ``(key, own value, other's value)``, or None when the two
        rasters are co-registered (identical geometry).
        """
        for key, attr in _GEOMETRY:
            value, expected = getattr(self, attr), getattr(other, attr)
            if value != expected:
                return key, value, expected
        return None

    def nodata_mask(self, rows=slice(None)):
        """Boolean array flagging the missing cells of ``values[rows]``."""
        values = self.values[rows]
        return (values == self.nodata) | np.isnan(values)

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


def write_ascii_rows(path, grid, blocks):
    """Write ``grid``'s header, then ``blocks`` of whole rows as they come.

    Only the header fields of ``grid`` are read. ``blocks`` yields 2-d arrays
    of ``grid.ncols`` columns that together hold its ``nrows`` rows in order;
    each is printed by ``format_rows`` and written before the next is asked
    for, so a writer's producer may build the cells a block at a time.
    """
    header = (
        f"ncols {grid.ncols}\n"
        f"nrows {grid.nrows}\n"
        f"xllcorner {format_float(grid.xll)}\n"
        f"yllcorner {format_float(grid.yll)}\n"
        f"cellsize {format_float(grid.cellsize)}\n"
        f"NODATA_value {format_float(grid.nodata)}\n"
    )
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        for block in blocks:
            handle.write(format_rows(block, " "))


def write_ascii_grid(path, grid):
    """Write a grid in the plain-text header + row-major layout.

    The cells are printed by ``format_rows`` a block of rows at a time.
    """
    rows = row_blocks(grid.nrows, grid.ncols)
    write_ascii_rows(path, grid, (grid.values[r] for r in rows))


# Characters of data lines converted per np.array call. A 400x300 grid (2.4 MB
# of text) read in the same time, 0.05-0.07 s, with chunks from 4 KiB to
# 2 MiB; up to 128 KiB the tracemalloc peak stays at 2.0x the grid's float64
# array (the chunks plus their concatenation), at 512 KiB it is 3.9x.
_CHUNK_CHARS = 1 << 17


def read_ascii_grid(path):
    """Parse a plain-text grid; header keys are case-insensitive.

    A line is a header line when its first word is a header key not yet seen
    and it has two words, wherever it stands; every other line is data.
    Data lines are converted to float64 in bounded chunks as they are read,
    so reading costs about the size of the grid. Rows may be ragged: only
    the total count of values must match the header.
    """
    header = {}
    chunks, pending = [], []
    malformed = None  # the first bad chunk's error, raised after the header's

    def convert():
        nonlocal malformed
        if malformed is None:
            try:
                # numpy parses each token as float() does, so bits round-trip
                chunks.append(np.array(" ".join(pending).split(), dtype=np.float64))
            except ValueError as exc:
                malformed = exc
        pending.clear()

    with open(path, "r", encoding="utf-8") as handle:
        chars = 0
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
            pending.append(line)
            chars += len(line)
            if chars >= _CHUNK_CHARS:
                convert()
                chars = 0
    convert()
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
        if malformed is not None:
            raise malformed
    except ValueError as exc:
        raise DataError(f"raster {path} has a malformed value: {exc}")
    for key, ok, rule in (
        ("ncols", ncols > 0, "positive"),
        ("nrows", nrows > 0, "positive"),
        ("xllcorner", np.isfinite(xll), "finite"),
        ("yllcorner", np.isfinite(yll), "finite"),
        ("cellsize", 0 < cellsize < np.inf, "positive and finite"),
    ):
        if not ok:
            raise DataError(f"raster {path} has {key} {header[key]}: it must be {rule}")
    values = np.concatenate(chunks)
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
