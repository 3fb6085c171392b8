"""Point observations: site, position, response, covariates.

The on-disk form is a plain CSV with header ``site,x,y,response`` followed by
one column per covariate. Floats are written with 17 significant digits so a
round trip is bit-exact.

Writing prints whole blocks of cells at once: ``format_rows`` computes the 17
correctly rounded digits of each cell with exact 64-bit integer arithmetic
and lays them out as ``'%.17g'`` does, so the bytes are those of one
``'%.17g'`` per cell at about a third of the cost. Cells that ``'%.17g'``
prints with an exponent, zeros, subnormals, nan and inf are printed by
``'%.17g'`` itself.

Reading streams the file: the numbers are converted to float64 one bounded
chunk of records at a time, each token as ``float()`` converts it, into one
array sized from a count of the file's line ends, so a read costs about the
size of the arrays it returns. Errors still name the file and the line.
"""

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .terms import validate_identifier

RESERVED_COLUMNS = ("site", "x", "y", "response")


def format_float(value):
    """17 significant digits, exact round trip: ``'%.17g' % value``."""
    return "%.17g" % value


# Bulk printing. For a finite x with 1e-4 <= |x| < 1e15, '%.17g' prints the
# 17-digit integer D = round(|x| * 10**k), k = 16 - X, X = floor(log10|x|),
# in fixed notation. With |x| = m * 2**(e - 53) (m < 2**53 from np.frexp),
# that is m * 5**k / 2**s with s = 53 - e - k: on this range a product under
# 2**100 and a shift of 1 to 46 bits, so 64-bit integers with 32-bit limbs
# give D exactly, rounding half to even on the exact remainder (Adams, "Ryu
# revisited: printf floating point conversion", OOPSLA 2019).
# X is estimated from e as floor((e - 1) * log10(2)), which is X or X - 1, and
# corrected by one where |x| >= 10**(X + 1): the doubles nearest to 1e-4..1e-1
# lie above those powers, so the float comparison is exact. 17 digits never
# round a double up to the next power of ten (the doubles just below one are
# more than half a 17-digit unit apart), so D always has 17 digits.
# Every other cell (zeros, subnormals, nan, inf, |x| < 1e-4 and |x| >= 1e15)
# goes through '%.17g' itself.
_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_POW10 = np.array([float(f"1e{j}") for j in range(-4, 16)])
_POW5 = [5**k for k in range(21)]
_POW5_HI = np.array([p >> 32 for p in _POW5], dtype=np.uint64)
_POW5_LO = np.array([p & 0xFFFFFFFF for p in _POW5], dtype=np.uint64)

# The tables below are built on the first print, so that commands which print
# no grid or points file do not carry them: built at import, they raised the
# peak RSS of `transfer` by 0.7 MB.


@functools.cache
def _digits4():
    """The ASCII digits of 0000..9999, one uint8 row each."""
    numbers = np.arange(10000, dtype=np.int16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    return (numbers // places % 10 + 48).astype(np.uint8)


# A printed cell is picked out of a 42-byte row:
#   0: '-'   1-2: '0.'   3-5: '000'   6-22: the digits   23: '.'
#   24-40: the digits again   41: the separator
# X >= 0 keeps digits 0..X of the first copy, the point and the rest of the
# fraction from the second copy; X < 0 keeps '0.', -X-1 zeros and the first
# copy. _keep_rows() holds the bytes kept for each sign, X and count of trailing
# zeros of D, which are stripped with the point when no fraction is left.
_WIDTH = 42
_FALLBACK_WIDTH = _WIDTH - 1


@functools.cache
def _keep_rows():
    """Which bytes of a cell's 42-byte row are printed, one row per code."""
    keep = np.zeros((2, 19, 17, _WIDTH), dtype=bool)
    col = np.arange(17)
    for neg in (0, 1):
        for exp10 in range(-4, 15):
            for tz in range(17):
                row = keep[neg, exp10 + 4, tz]
                last = 16 - tz  # last digit printed
                row[0] = neg
                if exp10 < 0:
                    row[1:3] = True
                    row[3 : 3 + (-exp10 - 1)] = True
                    row[6:23] = col <= last
                else:
                    row[6:23] = col <= exp10
                    row[23] = last > exp10
                    row[24:41] = (col > exp10) & (col <= last)
                row[41] = True
    return keep.reshape(-1, _WIDTH)


def _cell_bytes(values, out, keep):
    """Fill ``out`` and ``keep`` ((n, 42) uint8 and bool) for ``values``.

    The bytes of ``out[i]`` where ``keep[i]`` holds are ``'%.17g' % values[i]``
    followed by ``out[i, 41]``, which the caller sets to the separator.
    """
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e15)
    mag = np.where(fast, mag, 1.0)
    frac, e = np.frexp(mag)
    exp10 = ((e - 1) * 78913) >> 18  # floor((e - 1) * log10(2)) for |e| < 1650
    exp10 += mag >= _POW10[exp10 + 5]
    k = 16 - exp10
    m = (frac * 2.0**53).astype(np.uint64)
    s = (37 + exp10 - e).astype(np.uint64)  # 53 - e - k
    m_hi, m_lo = m >> _U(32), m & _LOW32
    p_hi, p_lo = _POW5_HI[k], _POW5_LO[k]
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    lo = low + (mid << _U(32))
    hi = m_hi * p_hi + (mid >> _U(32)) + (lo < low)
    d = (hi << (_U(64) - s)) | (lo >> s)
    rem = lo & ((_U(1) << s) - _U(1))
    half = _U(1) << (s - _U(1))
    d += (rem > half) | ((rem == half) & (d & _U(1)).astype(bool))

    top = d // _U(10**8)
    bottom = (d - top * _U(10**8)).astype(np.uint32)
    first, top = np.divmod(top.astype(np.uint32), np.uint32(10**8))
    groups = np.empty((len(d), 4), dtype=np.uint32)  # the last 16 digits
    np.divmod(top, np.uint32(10**4), out=(groups[:, 0], groups[:, 1]))
    np.divmod(bottom, np.uint32(10**4), out=(groups[:, 2], groups[:, 3]))
    digits = out[:, 6:23]
    digits[:, 0] = first + 48
    digits[:, 1:] = np.take(_digits4(), groups, axis=0).reshape(-1, 16)
    out[:, 24:41] = digits
    out[:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    out[:, 23] = ord(".")
    trailing = np.argmax(digits[:, ::-1] != 48, axis=1)
    code = (np.signbit(values) * 19 + exp10 + 4) * 17 + trailing
    np.take(_keep_rows(), code, axis=0, out=keep)

    (slow,) = np.nonzero(~fast)
    if slow.size:
        texts = ["%.17g" % v for v in values[slow].tolist()]
        padded = "".join(t.ljust(_FALLBACK_WIDTH) for t in texts).encode("ascii")
        out[slow, :_FALLBACK_WIDTH] = np.frombuffer(padded, dtype=np.uint8).reshape(
            -1, _FALLBACK_WIDTH
        )
        lengths = np.array([len(t) for t in texts])
        keep[slow, :_FALLBACK_WIDTH] = np.arange(_FALLBACK_WIDTH) < lengths[:, None]
        keep[slow, _FALLBACK_WIDTH] = True


# Cells printed per block. A write's tracemalloc peak is about 300 bytes a
# cell of one block, whatever the size of the grid: 1.2 MB at this size. With
# 8,192-cell blocks (2.4 MB) the `run` of pipebench's `fit` workload peaked
# 0.7 MB higher in RSS, 10 of 10 pairs, and with 4,096 it matched the
# one-'%.17g'-per-cell writer. Writing a 400x300 grid took 0.022-0.030 s with
# 2,048 to 8,192 cells a block, 0.029-0.038 s with 16,384-32,768 and 0.054 s
# with one '%.17g' per cell; a 40,000-row points file took 0.094 s here and
# 0.085 s with 8,192.
_PRINT_CELLS = 1 << 12


def row_blocks(n_rows, n_cols):
    """Slices of whole rows, about ``_PRINT_CELLS`` cells each.

    Grids are printed in these blocks, and prediction rasters are also
    computed in them, so each block is written as soon as it is predicted.
    """
    step = max(1, _PRINT_CELLS // n_cols)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def format_rows(values, sep, lead=None):
    """The rows of a 2-d float array as text, each cell as ``'%.17g' % x``.

    Cells are joined by the one-byte ``sep`` and every row ends with a
    newline; ``lead``, when given, holds one bytes prefix per row. Returns
    bytes identical to formatting each cell with ``format_float``.
    """
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    out = np.empty((n_rows, n_cols, _WIDTH), dtype=np.uint8)
    keep = np.empty((n_rows, n_cols, _WIDTH), dtype=bool)
    _cell_bytes(values.ravel(), out.reshape(-1, _WIDTH), keep.reshape(-1, _WIDTH))
    out[:, :, _WIDTH - 1] = ord(sep)
    out[:, -1, _WIDTH - 1] = ord("\n")
    out = out.reshape(n_rows, -1)
    keep = keep.reshape(n_rows, -1)
    if lead is not None:
        width = max(len(b) for b in lead)
        head = np.frombuffer(b"".join(b.ljust(width) for b in lead), dtype=np.uint8)
        out = np.concatenate([head.reshape(n_rows, width), out], axis=1)
        keep = np.concatenate(
            [np.arange(width) < np.array([len(b) for b in lead])[:, None], keep], axis=1
        )
    return out[keep].tobytes()


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

    def covariate_map(self):
        """Covariate name -> 1-d array mapping."""
        return {name: self.covariate_values[:, j] for j, name in enumerate(self.covariate_names)}

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
# the same time, 0.40-0.45 s, with chunks from 512 to 1,048,576 tokens; the
# converted chunk is a transient of this size on top of the arrays returned.
_CHUNK_TOKENS = 8192

# Bytes read per block when counting line ends.
_COUNT_BYTES = 1 << 20


def _max_records(path):
    """An upper bound on the records ``csv.reader`` can find in ``path``.

    A record ends at a newline or at a carriage return that no newline
    follows, so there are at most that many line ends plus one records. One
    binary pass counts them: 3.6 ms for a 10 MB file without carriage
    returns on a 2-core Xeon, 1 % of reading it (``bytes.count`` took 11 ms).
    """
    ends = 1
    after_cr = False  # the previous block ended with a carriage return
    with open(path, "rb") as handle:
        while block := handle.read(_COUNT_BYTES):
            codes = np.frombuffer(block, dtype=np.uint8)
            cr = int(np.count_nonzero(codes == 13))
            ends += int(np.count_nonzero(codes == 10)) + cr - (cr and block.count(b"\r\n"))
            ends -= after_cr and block.startswith(b"\n")
            after_cr = block.endswith(b"\r")
    return ends


def _chunk_numbers(path, tokens, line_nos, out):
    """Convert a chunk's numeric fields into ``out``, one row per line number.

    numpy converts each token as ``float()`` does. When a token fails, the
    chunk is rescanned with ``float()`` so the error names the first bad line
    and carries ``float()``'s own message.
    """
    try:
        out[...] = np.array(tokens, dtype=np.float64).reshape(len(line_nos), -1)
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

    The file is streamed into arrays sized from a count of its line ends:
    the numbers of each bounded chunk of records become float64 in one
    conversion, written straight into one array of all the numbers, so
    reading costs about the size of the arrays returned. Every site id is
    stored once however many rows carry it.

    Raises DataError on a malformed header, short rows, or unparseable
    numbers, naming the offending row.
    """
    bound = _max_records(path)
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
        numeric = np.empty((bound, len(header) - 1))
        site_ids = np.empty(bound, dtype=object)
        shared = {}  # one str per distinct site id
        n_rows = 0  # rows stored in the arrays
        sites, tokens, line_nos = [], [], []

        def store():
            nonlocal n_rows
            rows = slice(n_rows, n_rows + len(line_nos))
            _chunk_numbers(path, tokens, line_nos, numeric[rows])
            site_ids[rows] = sites
            n_rows = rows.stop
            sites.clear()
            tokens.clear()
            line_nos.clear()

        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                if line_nos:
                    store()
                raise DataError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            site = row[0].strip()
            sites.append(shared.setdefault(site, site))
            tokens += row[1:]
            line_nos.append(line_no)
            if len(tokens) >= _CHUNK_TOKENS:
                store()
        if line_nos:
            store()
    if not n_rows:
        raise DataError(f"{path}: no data rows")
    numeric = numeric[:n_rows]
    return PointDataset(
        site_ids[:n_rows],
        numeric[:, 0],
        numeric[:, 1],
        numeric[:, 2],
        cov_names,
        numeric[:, 3:],
    )


def write_csv(path, header, rows):
    """Write a header and rows as every CSV of this package is written:
    UTF-8, ``\n`` line ends, fields quoted by ``csv.writer`` where needed."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(text):
    """``text`` as csv.writer writes it in a row of this package's CSVs."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def write_points_csv(path, data):
    """Write ``data`` to ``path`` with 17-significant-digit floats.

    The numbers are printed by ``format_rows`` a block of rows at a time.
    """
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(
        list(RESERVED_COLUMNS) + list(data.covariate_names)
    )
    fields = {site: (_csv_field(site) + ",").encode("utf-8") for site in data.sites()}
    with open(path, "wb") as handle:
        handle.write(header.getvalue().encode("utf-8"))
        columns = (data.x, data.y, data.response, data.covariate_values)
        for rows in row_blocks(data.n_rows, 3 + len(data.covariate_names)):
            numbers = np.column_stack([column[rows] for column in columns])
            lead = [fields[site] for site in data.site_ids[rows].tolist()]
            handle.write(format_rows(numbers, ",", lead))
