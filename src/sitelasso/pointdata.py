"""Point observations: site, position, response, covariates.

The on-disk form is a plain CSV with header ``site,x,y,response`` followed by
one column per covariate. Floats are written with 17 significant digits so a
round trip is bit-exact.

Reading streams the file: the numbers are converted to float64 one bounded
chunk of records at a time, each token as ``float()`` converts it, so a read
costs about the size of the arrays it returns. Errors still name the file
and the line.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .terms import validate_identifier

RESERVED_COLUMNS = ("site", "x", "y", "response")


def format_float(value):
    """Shortest-exact decimal form used in every CSV this package writes."""
    return "%.17g" % value


@dataclass
class PointDataset:
    """Column-wise storage of point-referenced observations."""

    site_ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    response: np.ndarray
    covariate_names: list
    covariate_values: np.ndarray  # shape (n_rows, n_covariates)

    def __post_init__(self):
        self.site_ids = np.asarray(self.site_ids, dtype=object)
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.response = np.asarray(self.response, dtype=np.float64)
        self.covariate_values = np.asarray(self.covariate_values, dtype=np.float64)
        n = len(self.site_ids)
        if not (len(self.x) == len(self.y) == len(self.response) == n):
            raise DataError("point columns have mixed lengths")
        if self.covariate_values.shape != (n, len(self.covariate_names)):
            raise DataError("covariate block shape does not match names/rows")
        for name in self.covariate_names:
            validate_identifier(name, "covariate name")
            if name in RESERVED_COLUMNS:
                raise DataError(f"covariate name {name!r} is reserved")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise DataError("duplicate covariate names")
        for sid in self.sites():
            validate_identifier(sid, "site id")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise DataError("non-finite coordinates")
        if not np.isfinite(self.response).all():
            raise DataError("non-finite response values")

    @property
    def n_rows(self):
        return len(self.site_ids)

    def sites(self):
        """Distinct site ids in ascending order."""
        return sorted(set(self.site_ids.tolist()))

    def site_mask(self, site_id):
        return np.asarray(self.site_ids == site_id)

    def site_rows(self, site_id):
        return np.flatnonzero(self.site_mask(site_id))

    def covariate(self, name):
        try:
            j = self.covariate_names.index(name)
        except ValueError:
            raise DataError(f"no covariate named {name!r}") from None
        return self.covariate_values[:, j]

    def covariate_map(self, row_indices=None):
        """Covariate name -> 1-d array mapping, optionally row-subset."""
        if row_indices is None:
            block = self.covariate_values
        else:
            block = self.covariate_values[np.asarray(row_indices, dtype=np.intp)]
        return {name: block[:, j] for j, name in enumerate(self.covariate_names)}

    def subset(self, row_indices):
        idx = np.asarray(row_indices, dtype=np.intp)
        return PointDataset(
            self.site_ids[idx],
            self.x[idx],
            self.y[idx],
            self.response[idx],
            list(self.covariate_names),
            self.covariate_values[idx],
        )


# Tokens converted per np.array call. A 40,000-row, 10-covariate file read in
# the same time, 0.40-0.45 s, with chunks from 512 to 1,048,576 tokens; up to
# 8,192 the tracemalloc peak stays at 2.3x the float64 arrays returned (the
# chunks plus their concatenation), at 32,768 tokens it is 2.8x, at 131,072 4.7x.
_CHUNK_TOKENS = 8192


def _chunk_numbers(path, tokens, line_nos):
    """A chunk's numeric fields, one row per line number, as float64.

    numpy converts each token as ``float()`` does. When a token fails, the
    chunk is rescanned with ``float()`` so the error names the first bad line
    and carries ``float()``'s own message.
    """
    try:
        return np.array(tokens, dtype=np.float64).reshape(len(line_nos), -1)
    except ValueError:
        width = len(tokens) // len(line_nos)
        for k, line_no in enumerate(line_nos):
            try:
                for token in tokens[k * width : (k + 1) * width]:
                    float(token)
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from None
        raise  # not reached: numpy and float() reject the same tokens


def read_points_csv(path):
    """Load a PointDataset from ``path``.

    The file is streamed: the numbers of each bounded chunk of records become
    float64 in one conversion, so reading costs about the size of the arrays
    returned. Every site id is stored once however many rows carry it.

    Raises DataError on a malformed header, short rows, or unparseable
    numbers, naming the offending row.
    """
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
        shared = {}  # one str per distinct site id
        sites, chunks = [], []
        tokens, line_nos = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                if line_nos:
                    _chunk_numbers(path, tokens, line_nos)
                raise DataError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            site = row[0].strip()
            sites.append(shared.setdefault(site, site))
            tokens += row[1:]
            line_nos.append(line_no)
            if len(tokens) >= _CHUNK_TOKENS:
                chunks.append(_chunk_numbers(path, tokens, line_nos))
                tokens, line_nos = [], []
        if line_nos:
            chunks.append(_chunk_numbers(path, tokens, line_nos))
    if not sites:
        raise DataError(f"{path}: no data rows")
    numeric = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return PointDataset(
        np.array(sites, dtype=object),
        numeric[:, 0],
        numeric[:, 1],
        numeric[:, 2],
        cov_names,
        numeric[:, 3:],
    )


def _csv_field(text):
    """``text`` as csv.writer writes it in a row of this package's CSVs."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def write_points_csv(path, data):
    """Write ``data`` to ``path`` with 17-significant-digit floats."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(RESERVED_COLUMNS) + list(data.covariate_names))
        # one %-operation per row prints each number exactly as format_float does
        template = "%s" + ",%.17g" * (3 + len(data.covariate_names)) + "\n"
        fields = {site: _csv_field(site) for site in data.sites()}
        numbers = np.column_stack(
            [data.x, data.y, data.response, data.covariate_values]
        ).tolist()
        for site, row in zip(data.site_ids.tolist(), numbers):
            handle.write(template % (fields[site], *row))
