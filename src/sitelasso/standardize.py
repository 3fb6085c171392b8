"""Column standardization fitted on training rows and replayed elsewhere.

Each retained column is centred on its training mean and scaled so the
centred training values have unit L2 norm (a sum of squares, not a variance).
Site-scoped columns are special: their statistics come from matching-site
training rows only, the scaling touches only matching-site rows, and rows of
the other site remain exactly 0.0. Because the matching rows sum to zero and
the structural zeros contribute nothing, the full column still has mean 0 and
norm 1.

Columns whose centred norm is ~0 (relative tolerance 1e-12 against the
column's peak magnitude) are dropped and recorded; apply_transform drops the
same columns silently, with a log entry.

Standardized rows are plain arrays over the transform's ``retained_terms``.
The transform is the one record of a standardization; its ``transform_id``
is hashed only where an ensemble artifact is written or read.
"""

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .pointdata import format_float

# transform_id hashes a few short lines per transform, so it takes CPython's
# built-in SHA-1: importing hashlib loads OpenSSL, 3.4-3.7 MB of RSS in every
# `transfer` process (the stdlib's random.py avoids hashlib for _sha512 in the
# same way). The digest is the same.
try:
    from _sha1 import sha1
except ImportError:  # a Python build without the built-in module
    from hashlib import sha1

log = logging.getLogger(__name__)

ZERO_NORM_RTOL = 1e-12
MEAN_TOL = 1e-10
NORM_TOL = 1e-10


@dataclass
class StandardizationTransform:
    """Training means/norms for every fit-time column, plus drop flags."""

    terms: list
    means: np.ndarray
    norms: np.ndarray
    dropped: np.ndarray  # bool per fit-time column
    n_training_rows: int

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.norms = np.asarray(self.norms, dtype=np.float64)
        self.dropped = np.asarray(self.dropped, dtype=bool)
        p = len(self.terms)
        if not (len(self.means) == len(self.norms) == len(self.dropped) == p):
            raise DataError("transform arrays do not match the term list")

    @property
    def transform_id(self):
        """Deterministic content hash; equal content gives an equal id.

        The SHA-1 of one line per column, from the built-in module imported
        above, so that computing it loads no OpenSSL.
        """
        digest = sha1()
        for term, m, s, d in zip(self.terms, self.means, self.norms, self.dropped):
            digest.update(f"{term.term_id}|{m!r}|{s!r}|{int(d)}\n".encode("utf-8"))
        return "xf-" + digest.hexdigest()[:16]

    @property
    def retained_indices(self):
        return np.flatnonzero(~self.dropped)

    @property
    def retained_terms(self):
        return [self.terms[i] for i in self.retained_indices]

    @property
    def dropped_ids(self):
        return [self.terms[i].term_id for i in np.flatnonzero(self.dropped)]


def _scope_groups(terms, row_sites):
    """Yield (column indices, matching-row mask) per scope."""
    scopes = {}
    for j, term in enumerate(terms):
        scopes.setdefault(term.scope, []).append(j)
    n = len(row_sites)
    for scope, cols in scopes.items():
        mask = np.ones(n, dtype=bool) if scope is None else np.asarray(row_sites == scope)
        yield np.asarray(cols, dtype=np.intp), mask


def fit_transform(design):
    """Fit a transform on ``design`` and standardize its rows with it.

    Parameters
    ----------
    design : RawDesign of training rows.

    Returns
    -------
    (array of the retained columns, StandardizationTransform)
    """
    if design.n_rows < 2:
        raise DataError("standardization needs at least two training rows")
    X = design.values
    if not np.isfinite(X).all():
        raise DataError("non-finite value in the training design")
    p = design.n_cols
    means = np.zeros(p)
    norms = np.zeros(p)
    dropped = np.zeros(p, dtype=bool)
    for cols, mask in _scope_groups(design.terms, design.row_sites):
        n_match = int(mask.sum())
        if n_match == 0:
            dropped[cols] = True
            continue
        sub = X[np.ix_(mask, cols)]
        m = sub.mean(axis=0)
        centred = sub - m
        nrm = np.sqrt((centred**2).sum(axis=0))
        peak = np.abs(sub).max(axis=0)
        drop = nrm <= ZERO_NORM_RTOL * peak
        means[cols] = m
        norms[cols] = nrm
        dropped[cols] = drop
    transform = StandardizationTransform(
        list(design.terms), means, norms, dropped, design.n_rows
    )
    for cid in transform.dropped_ids:
        log.info("standardization dropped constant column %s", cid)
    if transform.retained_indices.size == 0:
        raise DataError("standardization dropped every column")
    return _standardize(design, transform), transform


def _standardize(design, transform):
    """The transform's retained columns of ``design``, centred and scaled.

    One scope group at a time; a site-scoped column is transformed on its
    matching-site rows only and stays 0.0 elsewhere. The result is a new
    C-ordered array of the retained width: knot scoring multiplies the
    validation matrix with ``np.matmul``, whose rounding follows the layout.
    """
    retained = transform.retained_indices
    out = np.zeros((design.n_rows, retained.size))
    for cols, mask in _scope_groups(transform.retained_terms, design.row_sites):
        source = retained[cols]
        rows = design.values[np.ix_(mask, source)]  # a copy, changed in place
        rows -= transform.means[source]
        rows /= transform.norms[source]
        out[np.ix_(mask, cols)] = rows
    return out


def apply_transform(design, transform):
    """Replay training means/norms onto new rows; never refits.

    ``design`` must carry exactly the transform's fit-time columns, in order.
    Columns dropped at fit time are dropped here too (logged). Site-scoped
    columns are transformed on matching-site rows only; other rows stay 0.0.
    """
    fit_ids = [t.term_id for t in transform.terms]
    new_ids = design.column_ids
    if new_ids != fit_ids:
        missing = sorted(set(fit_ids) - set(new_ids))
        extra = sorted(set(new_ids) - set(fit_ids))
        raise DataError(
            "column mismatch against the fitted transform: "
            f"missing={missing[:8]} extra={extra[:8]}"
            + ("" if new_ids == sorted(new_ids) else " (or column order differs)")
        )
    if not np.isfinite(design.values).all():
        raise DataError("non-finite value in the design passed to apply_transform")
    dropped_ids = transform.dropped_ids
    if dropped_ids:
        log.debug(
            "apply_transform dropping %d fit-time constant columns: %s",
            len(dropped_ids),
            dropped_ids[:8],
        )
    return _standardize(design, transform)


def check_standardized(values, column_ids):
    """Validate standardized columns, naming the first offender by its id.

    Every column must be finite, not all zero, with mean 0 (absolute
    tolerance 1e-10) and L2 norm 1 (tolerance 1e-10). Site-scoped columns
    pass the same check because their zeros contribute nothing.
    """
    if values.ndim != 2 or values.shape[1] != len(column_ids):
        raise DataError("standardized values must be 2-d, with one id per column")
    for j, cid in enumerate(column_ids):
        col = values[:, j]
        if not np.isfinite(col).all():
            raise DataError(f"column {cid} has non-finite entries")
        if not np.any(col != 0.0):
            raise DataError(f"column {cid} is entirely zero")
        if abs(float(col.mean())) > MEAN_TOL:
            raise DataError(f"column {cid} is not centred (mean {col.mean():.3e})")
        nrm = float(np.sqrt((col**2).sum()))
        if abs(nrm - 1.0) > NORM_TOL:
            raise DataError(f"column {cid} is not unit-norm (norm {nrm:.12f})")


TRANSFORM_CSV_HEADER = ["column_id", "mean", "norm", "dropped"]


def write_transform_csv(path, transform):
    """Serialize a transform; schema v1, one row per fit-time column."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRANSFORM_CSV_HEADER)
        for term, m, s, d in zip(
            transform.terms, transform.means, transform.norms, transform.dropped
        ):
            writer.writerow([term.term_id, format_float(m), format_float(s), int(d)])
