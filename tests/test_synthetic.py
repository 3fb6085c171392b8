import numpy as np
import pytest

from sitelasso.errors import ConfigError
from sitelasso.synthetic import (
    FieldSpec,
    SyntheticSpec,
    _draw_waves,
    _eval_field,
    _site_regions,
    default_fields,
    generate_synthetic,
)
from sitelasso.terms import evaluate_term, parse_term_id


def test_same_seed_same_bits():
    spec = SyntheticSpec(seed=9)
    a_pts, a_ras, a_site, a_truth = generate_synthetic(spec)
    b_pts, b_ras, b_site, b_truth = generate_synthetic(spec)
    assert np.array_equal(a_pts.response, b_pts.response)
    assert np.array_equal(a_pts.covariate_values, b_pts.covariate_values)
    assert np.array_equal(a_pts.x, b_pts.x)
    for name in a_ras:
        assert np.array_equal(a_ras[name].values, b_ras[name].values)
    assert np.array_equal(a_site.values, b_site.values)
    assert a_truth == b_truth


def test_different_seed_different_data_same_schema():
    a_pts, _, _, _ = generate_synthetic(SyntheticSpec(seed=1))
    b_pts, _, _, _ = generate_synthetic(SyntheticSpec(seed=2))
    assert a_pts.covariate_names == b_pts.covariate_names
    assert len(a_pts.site_ids) == len(b_pts.site_ids)
    assert not np.array_equal(a_pts.response, b_pts.response)


def test_zero_noise_reproduces_true_linear_combination():
    spec = SyntheticSpec(seed=4, noise_sd=0.0)
    pts, _, _, truth = generate_synthetic(spec)
    cov = {name: pts.covariate(name) for name in pts.covariate_names}
    expected = np.full(len(pts.site_ids), truth["intercept"])
    for tid, coef in truth["coef_global"].items():
        expected += coef * evaluate_term(parse_term_id(tid), cov)
    for site, coefs in truth["coef_site"].items():
        mask = pts.site_ids == site
        for tid, coef in coefs.items():
            expected[mask] += coef * evaluate_term(parse_term_id(tid), cov)[mask]
    assert np.array_equal(pts.response, expected)


def test_noise_level_rescales_the_same_realization():
    lo = generate_synthetic(SyntheticSpec(seed=4, noise_sd=0.1))[0]
    hi = generate_synthetic(SyntheticSpec(seed=4, noise_sd=0.2))[0]
    base = generate_synthetic(SyntheticSpec(seed=4, noise_sd=0.0))[0]
    np.testing.assert_allclose(
        hi.response - base.response, 2.0 * (lo.response - base.response), rtol=1e-12
    )


def test_default_counts_match_expected_rows():
    pts, _, _, _ = generate_synthetic(SyntheticSpec(seed=0))
    assert int((pts.site_ids == "B1").sum()) == 60
    assert int((pts.site_ids == "B2").sum()) == 56


def test_support_shift_offsets_site_quantiles():
    delta = 3.0
    fields = list(default_fields(3))
    fields[0] = FieldSpec(name="cov0", site1_shift=delta)
    spec = SyntheticSpec(
        seed=7,
        fields=tuple(fields),
        coef_global={"cov0": 1.0},
        coef_site={},
        n_site1=200,
        n_site2=200,
    )
    pts, rasters, site_grid, truth = generate_synthetic(spec)
    v = pts.covariate("cov0")
    q1 = np.median(v[pts.site_ids == "B1"])
    q2 = np.median(v[pts.site_ids == "B2"])
    # both sites draw from the same field distribution, site 1 shifted by delta
    assert q1 - q2 == pytest.approx(delta, abs=0.75)


def test_site_raster_codes_and_gap():
    spec = SyntheticSpec(seed=0, ncols=10, gap_cols=2)
    _, _, site_grid, truth = generate_synthetic(spec)
    row = site_grid.values[0]
    assert list(row[:4]) == [1.0] * 4
    assert list(row[4:6]) == [spec.nodata] * 2
    assert list(row[6:]) == [2.0] * 4
    assert truth["site_codes"] == {"1": "B1", "2": "B2"}


def test_points_agree_with_field_rasters_at_pixel_scale():
    # covariate point values come from the same continuous field as rasters:
    # nearest-pixel lookup should be close for long length scales
    spec = SyntheticSpec(
        seed=3,
        fields=default_fields(2, length_scale=500.0),
        coef_global={"cov0": 2.0, "cov1": 1.5},
        coef_site={"B2": {"cov1": 1.0}},
    )
    pts, rasters, _, _ = generate_synthetic(spec)
    grid = rasters["cov0"]
    cols = ((pts.x - grid.xll) / grid.cellsize).astype(int)
    rows = grid.nrows - 1 - ((pts.y - grid.yll) / grid.cellsize).astype(int)
    looked_up = grid.values[rows, cols]
    spread = np.std(pts.covariate("cov0"))
    assert np.max(np.abs(looked_up - pts.covariate("cov0"))) < 0.2 * max(spread, 1e-9)


def test_grid_fields_match_the_field_over_the_flattened_mesh():
    spec = SyntheticSpec(
        seed=11,
        fields=(
            FieldSpec("cov0", length_scale=90.0, site1_shift=0.75, site1_scale=1.6),
            FieldSpec("cov1", amplitude=2.5, site1_scale=0.4, n_waves=7),
            FieldSpec("cov2", length_scale=300.0),
        ),
        coef_global={"cov0": 1.0},
        coef_site={},
        ncols=37,
        nrows=23,
        cellsize=17.5,
        xll=-120.0,
        yll=40.0,
        gap_cols=3,
    )
    _, rasters, _, _ = generate_synthetic(spec)
    rng = np.random.default_rng(spec.seed)
    waves = [_draw_waves(rng, f) for f in spec.fields]
    left_cols = _site_regions(spec)[2]
    gx = spec.xll + (np.arange(spec.ncols) + 0.5) * spec.cellsize
    gy = spec.yll + (spec.nrows - np.arange(spec.nrows) - 0.5) * spec.cellsize
    mesh_x, mesh_y = np.meshgrid(gx, gy)
    in_site1 = np.broadcast_to(np.arange(spec.ncols) < left_cols, mesh_x.shape)
    for f, w in zip(spec.fields, waves):
        flat = _eval_field(f, w, mesh_x.ravel(), mesh_y.ravel(), in_site1.ravel())
        got = rasters[f.name].values
        assert got.shape == (spec.nrows, spec.ncols)
        # the grid sums the waves by angle addition, so equal to rounding
        np.testing.assert_allclose(got.ravel(), flat, rtol=0, atol=1e-13, err_msg=f.name)


def test_grid_fields_take_sines_and_cosines_per_row_and_column_not_per_cell(monkeypatch):
    spec = SyntheticSpec(
        seed=5, fields=default_fields(5), n_site1=3, n_site2=3, ncols=400, nrows=300, cellsize=3.0
    )
    counted = []

    def counting(ufunc):
        def call(x, *args, **kwargs):
            counted.append(np.size(x))
            return ufunc(x, *args, **kwargs)
        return call

    monkeypatch.setattr(np, "cos", counting(np.cos))
    monkeypatch.setattr(np, "sin", counting(np.sin))
    generate_synthetic(spec)
    n_points = spec.n_site1 + spec.n_site2
    # the points take one cosine per point per wave
    budget = sum(f.n_waves * (n_points + 2 * (spec.nrows + spec.ncols)) for f in spec.fields)
    assert sum(counted) <= budget


def test_the_default_site_truth_follows_the_site_names():
    # a default keyed by B2 would be a site block for an unknown site
    spec = SyntheticSpec(site_names=("North", "South"))
    truth = generate_synthetic(spec)[3]
    assert truth["coef_site"] == {"South": {"cov2": 1.0}}
    assert SyntheticSpec().coef_site == {"B2": {"cov2": 1.0}}
    # a planted global truth alone keeps the default site truth
    assert SyntheticSpec(coef_global={"cov0": 1.0}).coef_site == {"B2": {"cov2": 1.0}}


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(n_site1=0), "at least one observation"),
        (dict(fields=()), "at least one covariate"),
        (dict(noise_sd=-1.0), "noise_sd"),
        (dict(site_names=("A", "A")), "distinct site names"),
        (dict(ncols=3, gap_cols=2), "too narrow"),
        (dict(coef_global={"nope": 1.0}), "unknown covariate"),
        (dict(coef_site={"ZZ": {"cov0": 1.0}}), "unknown site"),
        (dict(cellsize=0.0), "cellsize must be positive"),
        (dict(nodata=float("nan")), "nodata must be finite"),
        (dict(fields=(FieldSpec("cov0", amplitude=float("inf")),)), "cov0: amplitude must be finite"),
        (dict(coef_site={"B2": {"cov2": float("nan")}}), "site_coef.B2.cov2 must be finite"),
    ],
)
def test_degenerate_specs_error(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        generate_synthetic(SyntheticSpec(seed=0, **kwargs))
