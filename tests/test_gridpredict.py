import numpy as np
import pytest

from sitelasso.ensemble import Ensemble
from sitelasso.errors import DataError
from sitelasso.gridpredict import predict_raster, predict_raster_two_stage
from sitelasso.models import SelectedModel
from sitelasso.pipeline import run_method1, run_method2, run_method3, run_method4
from sitelasso.rasters import RasterGrid
from sitelasso.splits import make_splits
from sitelasso.standardize import StandardizationTransform
from sitelasso.synthetic import SyntheticSpec, default_fields, generate_synthetic
from sitelasso.terms import build_term_matrix, RawDesign, TermSpec


def small_plan(data, n_splits=8, seed=5):
    quotas = {s: max(3, int(2 * len(data.site_rows(s)) / 3)) for s in data.sites()}
    return make_splits(data, quotas, n_splits=n_splits, seed=seed)


def synth_setup(seed=2, n_covariates=3, ncols=12, nrows=9):
    spec = SyntheticSpec(
        seed=seed,
        fields=default_fields(n_covariates),
        coef_global={"cov0": 1.5, "cov1": 0.8},
        coef_site={"B2": {"cov2": 0.7}},
        n_site1=30,
        n_site2=28,
        ncols=ncols,
        nrows=nrows,
        noise_sd=0.15,
    )
    return generate_synthetic(spec)


def scalar_oracle(ens, rasters, pix):
    """One pixel of a global-term ensemble, replayed member by member."""
    cov = {name: np.array([rasters[name].values.ravel()[pix]]) for name in rasters}
    row = build_term_matrix(cov, np.array([""], dtype=object), ens.terms)
    member_vals = []
    for model, transform in zip(ens.models, ens.transforms):
        pos = {t.term_id: j for j, t in enumerate(transform.terms)}
        val = model.intercept
        for cid, coef in model.coef.items():
            j = pos[cid]
            val += coef * (row[0, j] - transform.means[j]) / transform.norms[j]
        member_vals.append(val)
    return float(ens.weights @ np.array(member_vals))


def test_single_model_raster_matches_pointwise_predict():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run = run_method2(data, plan, workers=1)
    grid = predict_raster(run.ensemble, rasters)
    # scalar-path oracle: recompute each pixel independently
    ens = run.ensemble
    mask = np.zeros(grid.values.size, dtype=bool)
    for name in ens.needed_covariates():
        mask |= rasters[name].nodata_mask().ravel()
    flat = grid.values.ravel()
    rng = np.random.default_rng(0)
    pixels = rng.choice(np.flatnonzero(~mask), size=40, replace=False)
    for pix in pixels:
        oracle = scalar_oracle(ens, rasters, pix)
        assert flat[pix] == pytest.approx(oracle, abs=1e-10)


def test_two_stage_raster_matches_scalar_oracle():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run3 = run_method3(data, plan, workers=1)
    stage1 = run3.stage1.ensemble
    pierced = stage1.needed_covariates()[0]
    rasters[pierced].values[2, 1] = rasters[pierced].nodata
    codes = {1.0: "B1", 2.0: "B2"}
    grid = predict_raster_two_stage(stage1, run3.stage2, rasters, site_grid, codes)
    site_values = site_grid.values.ravel()
    expected_bad = site_grid.nodata_mask().ravel() | rasters[pierced].nodata_mask().ravel()
    for code, site in codes.items():
        own = site_values == code
        for name in run3.stage2[site].needed_covariates():
            expected_bad |= own & rasters[name].nodata_mask().ravel()
    assert site_grid.nodata_mask().any()
    assert np.array_equal(grid.nodata_mask().ravel(), expected_bad)
    flat = grid.values.ravel()
    for pix in np.flatnonzero(~expected_bad):
        site = codes[site_values[pix]]
        oracle = scalar_oracle(stage1, rasters, pix)
        oracle += scalar_oracle(run3.stage2[site], rasters, pix)
        assert abs(flat[pix] - oracle) <= 1e-10


def test_nodata_closure_only_over_needed_covariates():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=4)
    run = run_method2(data, plan, workers=1)
    needed = run.ensemble.needed_covariates()
    unused = [n for n in rasters if n not in needed]
    # poke nodata into a needed raster and (if any) an unused raster
    target = needed[0]
    rasters[target].values[3, 4] = rasters[target].nodata
    if unused:
        rasters[unused[0]].values[5, 5] = rasters[unused[0]].nodata
    grid = predict_raster(run.ensemble, rasters)
    out_mask = grid.nodata_mask()
    expected = np.zeros_like(out_mask)
    for name in needed:
        expected |= rasters[name].nodata_mask()
    assert np.array_equal(out_mask, expected)
    assert out_mask[3, 4]
    if unused:
        assert not out_mask[5, 5]


def test_intercept_only_ensemble_gives_weighted_constant():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=4)
    run = run_method2(data, plan, workers=1)
    ens = run.ensemble
    for model in ens.models:
        model.coef = {}
        model.subset_size = 0
    grid = predict_raster(ens, rasters)
    expected = float(ens.weights @ np.array([m.intercept for m in ens.models]))
    valid = ~grid.nodata_mask()
    assert np.allclose(grid.values[valid], expected, atol=1e-12)


def test_grid_mismatch_and_missing_covariate_errors():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=4)
    run = run_method2(data, plan, workers=1)
    shifted = RasterGrid(
        ncols=rasters["cov0"].ncols,
        nrows=rasters["cov0"].nrows,
        xll=rasters["cov0"].xll + 1.0,
        yll=rasters["cov0"].yll,
        cellsize=rasters["cov0"].cellsize,
        nodata=rasters["cov0"].nodata,
        values=rasters["cov0"].values,
    )
    broken = dict(rasters)
    broken["cov0"] = shifted
    with pytest.raises(DataError, match="co-registered"):
        predict_raster(run.ensemble, broken)
    needed = run.ensemble.needed_covariates()
    partial = {k: v for k, v in rasters.items() if k != needed[0]}
    with pytest.raises(DataError, match=needed[0]):
        predict_raster(run.ensemble, partial)


def test_site_scoped_ensemble_needs_and_uses_site_information():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run = run_method4(data, plan, workers=1)
    if not run.ensemble.needs_site_information():
        pytest.skip("no scoped term survived selection in this toy")
    with pytest.raises(DataError, match="site"):
        predict_raster(run.ensemble, rasters)
    codes = {1.0: "B1", 2.0: "B2"}
    grid = predict_raster(run.ensemble, rasters, site_grid=site_grid, site_codes=codes)
    # oracle: evaluate the ensemble on the pixel rows with known sites
    mask = site_grid.nodata_mask().ravel()
    for name in run.ensemble.needed_covariates():
        mask |= rasters[name].nodata_mask().ravel()
    valid = np.flatnonzero(~mask)
    sites = np.where(
        site_grid.values.ravel()[valid] == 1.0, "B1", "B2"
    ).astype(object)
    cov = {n: g.values.ravel()[valid] for n, g in rasters.items()}
    rows = build_term_matrix(cov, sites, run.ensemble.terms)
    design = RawDesign(rows, list(run.ensemble.terms), sites)
    from sitelasso.ensemble import model_average

    oracle = model_average(run.ensemble, design)
    np.testing.assert_allclose(grid.values.ravel()[valid], oracle, atol=1e-10)
    # gap pixels (site nodata) must be nodata in the output
    assert np.array_equal(grid.nodata_mask().ravel(), mask)


def test_two_stage_raster_adds_site_amendments():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run3 = run_method3(data, plan, workers=1)
    codes = {1.0: "B1", 2.0: "B2"}
    combined = predict_raster_two_stage(
        run3.stage1.ensemble, run3.stage2, rasters, site_grid, codes
    )
    base = predict_raster(run3.stage1.ensemble, rasters)
    for site, code in (("B1", 1.0), ("B2", 2.0)):
        amend = predict_raster(run3.stage2[site], rasters, site=site)
        sel = (site_grid.values == code) & ~combined.nodata_mask()
        assert sel.any()
        np.testing.assert_allclose(
            combined.values[sel], base.values[sel] + amend.values[sel], atol=1e-12
        )
    # pixels without site identity are nodata
    gap = site_grid.nodata_mask()
    assert np.all(combined.values[gap] == combined.nodata)


def test_two_stage_raster_skips_stage2_of_a_site_without_pixels():
    # No pixel carries site B3, so its stage 2 is never evaluated and the
    # covariate it reads needs no raster.
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run3 = run_method3(data, plan, workers=1)
    ghost = TermSpec("poly", "ghost")
    unseen = Ensemble(
        models=[SelectedModel(0.0, {ghost.term_id: 1.0}, 1, 1.0, "")],
        transforms=[StandardizationTransform([ghost], [0.0], [1.0], [False], 3)],
        weights=np.ones(1),
        terms=[ghost],
        split_plan_ref="",
        validation_errors=[],
        validation_rows=[],
    )
    codes = {1.0: "B1", 2.0: "B2"}
    base = predict_raster_two_stage(
        run3.stage1.ensemble, run3.stage2, rasters, site_grid, codes
    )
    grid = predict_raster_two_stage(
        run3.stage1.ensemble, {**run3.stage2, "B3": unseen}, rasters, site_grid,
        {**codes, 3.0: "B3"},
    )
    assert np.array_equal(grid.values, base.values)


def test_raster_point_consistency():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run = run_method2(data, plan, workers=1)
    ens = run.ensemble
    grid = predict_raster(ens, rasters)
    # build a fake point whose covariates equal one pixel's values
    pix_row, pix_col = 4, 7
    cov = {
        name: np.array([rasters[name].values[pix_row, pix_col]]) for name in rasters
    }
    row = build_term_matrix(cov, np.array([""], dtype=object), ens.terms)
    design = RawDesign(row, list(ens.terms), np.array([""], dtype=object))
    from sitelasso.ensemble import model_average

    point_pred = model_average(ens, design)[0]
    assert grid.values[pix_row, pix_col] == point_pred
