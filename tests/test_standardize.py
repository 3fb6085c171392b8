import csv
import logging

import numpy as np
import pytest

from sitelasso.errors import DataError
from sitelasso.standardize import (
    apply_transform,
    check_standardized,
    fit_transform,
    write_transform_csv,
)
from sitelasso.terms import RawDesign, TermSpec


def global_design(seed, n, p, constant_col=None):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0, size=p)
    if constant_col is not None:
        vals[:, constant_col] = 7.7
    terms = [TermSpec("poly", f"c{j}", 1) for j in range(p)]
    return RawDesign(vals, terms, np.array(["S"] * n, dtype=object))


def blocked_design(seed, n_a=7, n_b=6):
    rng = np.random.default_rng(seed)
    n = n_a + n_b
    sites = np.array(["A"] * n_a + ["B"] * n_b, dtype=object)
    vals = np.zeros((n, 3))
    vals[:, 0] = rng.normal(size=n)
    vals[sites == "A", 1] = rng.normal(size=n_a) + 5.0
    vals[sites == "B", 2] = rng.normal(size=n_b) - 3.0
    terms = [
        TermSpec("poly", "g", 1),
        TermSpec("poly", "g", 1, scope="A"),
        TermSpec("poly", "g", 1, scope="B"),
    ]
    return RawDesign(vals, terms, sites)


def retained_ids(transform):
    """Ids of the columns of a standardized array, in order."""
    return [t.term_id for t in transform.retained_terms]


def test_fit_output_satisfies_invariants():
    matrix, transform = fit_transform(global_design(0, 30, 6))
    check_standardized(matrix, retained_ids(transform))
    # the array's columns are the transform's retained terms
    assert matrix.shape == (30, len(transform.retained_terms)) == (30, 6)
    means = matrix.mean(axis=0)
    norms = np.sqrt((matrix**2).sum(axis=0))
    assert np.abs(means).max() <= 1e-10
    assert np.abs(norms - 1.0).max() <= 1e-10


def test_site_columns_use_matching_rows_only():
    design = blocked_design(1)
    matrix, transform = fit_transform(design)
    check_standardized(matrix, retained_ids(transform))
    a_mask = design.row_sites == "A"
    col_a = matrix[:, 1]
    # other-site rows bitwise zero
    assert np.all(col_a[~a_mask] == 0.0)
    # matching rows alone are centred and unit-norm
    assert abs(col_a[a_mask].mean()) <= 1e-12
    assert abs((col_a[a_mask] ** 2).sum() - 1.0) <= 1e-12
    # stats computed over matching rows only, by hand
    raw = design.values[a_mask, 1]
    assert transform.means[1] == pytest.approx(raw.mean(), abs=1e-15)
    assert transform.norms[1] == pytest.approx(
        np.sqrt(((raw - raw.mean()) ** 2).sum()), abs=1e-12
    )


def test_apply_replays_training_constants():
    design = global_design(2, 25, 4)
    train = design.subset_rows(np.arange(15))
    valid = design.subset_rows(np.arange(15, 25))
    _, transform = fit_transform(train)
    replayed = apply_transform(valid, transform)
    manual = (valid.values - transform.means) / transform.norms
    assert np.allclose(replayed, manual, atol=1e-12)
    # altering validation rows never changes the transform
    wobbled = RawDesign(valid.values * 3.5, valid.terms, valid.row_sites)
    ref_before = transform.transform_id
    apply_transform(wobbled, transform)
    assert transform.transform_id == ref_before


def test_apply_keeps_structural_zeros():
    design = blocked_design(3)
    train = design.subset_rows(np.arange(0, 13, 2))
    rest = design.subset_rows(np.arange(1, 13, 2))
    _, transform = fit_transform(train)
    out = apply_transform(rest, transform)
    b_rows = rest.row_sites == "B"
    col_a = out[:, retained_ids(transform).index("A@g")]
    assert np.all(col_a[b_rows] == 0.0)


def test_constant_columns_drop_and_propagate(caplog):
    design = global_design(4, 20, 5, constant_col=2)
    with caplog.at_level(logging.INFO, logger="sitelasso.standardize"):
        matrix, transform = fit_transform(design)
    assert transform.dropped_ids == ["c2"]
    assert "c2" in caplog.text
    assert matrix.shape[1] == 4 and "c2" not in retained_ids(transform)
    with caplog.at_level(logging.DEBUG, logger="sitelasso.standardize"):
        replay = apply_transform(design, transform)
    assert replay.shape[1] == 4


def test_column_mismatch_is_reported():
    design = global_design(5, 18, 3)
    _, transform = fit_transform(design)
    wrong = design.subset_terms([0, 1])
    with pytest.raises(DataError, match="mismatch"):
        apply_transform(wrong, transform)


def test_transform_csv_round_trip(tmp_path):
    # transforms_*_v1.csv is an output only: each written value must parse
    # back to the transform's exact float
    design = blocked_design(6)
    _, transform = fit_transform(design)
    path = tmp_path / "transform_v1.csv"
    write_transform_csv(path, transform)
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["column_id", "mean", "norm", "dropped"]
    assert [row[0] for row in rows] == [t.term_id for t in transform.terms]
    assert np.array_equal([float(row[1]) for row in rows], transform.means)
    assert np.array_equal([float(row[2]) for row in rows], transform.norms)
    assert np.array_equal([bool(int(row[3])) for row in rows], transform.dropped)


def test_check_standardized_names_offender():
    design = global_design(7, 12, 3)
    matrix, transform = fit_transform(design)
    matrix[:, 1] *= 2.0
    with pytest.raises(DataError, match="c1"):
        check_standardized(matrix, retained_ids(transform))
