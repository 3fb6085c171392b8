import csv

import numpy as np

from sitelasso.pointdata import (
    RESERVED_COLUMNS,
    PointDataset,
    format_float,
    read_points_csv,
    write_points_csv,
)


def per_cell_csv(path, data):
    """The reference writer: csv.writer over one format_float call per cell."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(RESERVED_COLUMNS) + list(data.covariate_names))
        for i in range(data.n_rows):
            row = [
                data.site_ids[i],
                format_float(data.x[i]),
                format_float(data.y[i]),
                format_float(data.response[i]),
            ]
            row.extend(format_float(v) for v in data.covariate_values[i])
            writer.writerow(row)


def test_rows_match_the_per_cell_writer_and_read_back_bit_exact(tmp_path):
    covariates = np.array(
        [
            [-0.0, 5e-324],
            [1e308, np.nan],
            [2.0 / 3.0, -1.7976931348623157e308],
            [np.pi, -2.2250738585072014e-308],
        ]
    )
    data = PointDataset(
        site_ids=['say"when', "B2", 'say"when', "B2"],
        x=[0.1, -0.0, 1e308, 5e-324],
        y=[123456789.125, 2.5, -7.0, 1.0 / 3.0],
        response=[1.5, -0.0, 5e-324, -1e308],
        covariate_names=["cov0", "cov1"],
        covariate_values=covariates,
    )
    path = tmp_path / "points.csv"
    reference = tmp_path / "reference.csv"
    write_points_csv(path, data)
    per_cell_csv(reference, data)
    assert path.read_bytes() == reference.read_bytes()
    assert b'"say""when"' in path.read_bytes()

    back = read_points_csv(path)
    assert back.site_ids.tolist() == data.site_ids.tolist()
    assert back.covariate_names == data.covariate_names
    for name in ("x", "y", "response", "covariate_values"):
        got = getattr(back, name)
        want = getattr(data, name)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
