import csv

import numpy as np

from sitelasso.pointdata import (
    RESERVED_COLUMNS,
    PointDataset,
    format_float,
    format_rows,
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


def synth_sized_points():
    rng = np.random.default_rng(3)
    n = 20_150
    covariates = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-6, 16, size=(n, 5))
    covariates.flat[::997] = -0.0
    covariates[1, :4] = [5e-324, np.nan, 1e15, -1e-4]
    return PointDataset(
        site_ids=np.where(np.arange(n) < 20_080, "B1", 'say"when'),
        x=rng.uniform(0, 1200, size=n),
        y=rng.uniform(0, 900, size=n),
        response=rng.normal(size=n),
        covariate_names=[f"cov{j}" for j in range(5)],
        covariate_values=covariates,
    )


def test_rows_match_the_per_cell_writer_and_read_back_bit_exact(tmp_path):
    covariates = np.array(
        [
            [-0.0, 5e-324],
            [1e308, np.nan],
            [2.0 / 3.0, -1.7976931348623157e308],
            [np.pi, -2.2250738585072014e-308],
        ]
    )
    specials = PointDataset(
        site_ids=['say"when', "B2", 'say"when', "B2"],
        x=[0.1, -0.0, 1e308, 5e-324],
        y=[123456789.125, 2.5, -7.0, 1.0 / 3.0],
        response=[1.5, -0.0, 5e-324, -1e308],
        covariate_names=["cov0", "cov1"],
        covariate_values=covariates,
    )
    for data in (specials, synth_sized_points()):
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


def printf_corpus():
    """Seeded doubles that probe every branch of the bulk formatter."""
    rng = np.random.default_rng(20191020)
    patterns = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    normals = rng.normal(size=100_000) * 10.0 ** rng.uniform(-6, 17, size=100_000)
    powers = np.array([float(f"1e{j}") for j in range(-4, 17)])
    around = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    )
    # exact ties: N / 2**j with N odd reads N * 5**j / 10**j, 18 digits ending
    # in 5, so the 17-digit rounding sits exactly halfway
    ties = []
    for j in range(2, 23):
        lo, hi = -(-(10**17) // 5**j), min(2**53, 10**18 // 5**j)
        for n in rng.integers(lo // 2, (hi - 1) // 2, size=2_000).tolist():
            ties.append((2 * n + 1) / 2**j)
    ties.append(100000000000000.125)
    specials = [0.0, 5e-324, 2.2250738585072014e-308, np.inf, np.nan, 1e-5, 1e17, 1e300]
    values = np.concatenate([patterns, normals, around, ties, specials])
    return np.concatenate([values, -values])


def test_bulk_formatter_prints_every_cell_as_printf_does():
    values = printf_corpus()
    got = format_rows(values[:, None], " ").decode("ascii").split("\n")
    assert got.pop() == ""
    want = ["%.17g" % v for v in values.tolist()]
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:5]


def test_bulk_formatter_rounds_ties_to_even():
    got = format_rows(np.array([[100000000000000.125, 100000000000000.375]]), ",")
    assert got == b"100000000000000.12,100000000000000.38\n"


def test_bulk_formatter_joins_cells_and_leads_rows():
    values = np.array([[1.5, -0.0, 1e-300], [np.nan, 0.1, -9999.0]])
    got = format_rows(values, ",", [b"a,", b'"say""when",'])
    assert got == b'a,1.5,-0,1e-300\n"say""when",nan,0.10000000000000001,-9999\n'
