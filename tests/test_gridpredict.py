import dataclasses
import tracemalloc

import numpy as np
import pytest
from _spec_route import build_term_matrix, members
from _toys import assembled

from sitelasso.ensemble import Ensemble, linear_form
from sitelasso.errors import DataError
from sitelasso.gridpredict import (
    check_registration,
    prediction_rows,
    site_specific,
    sites_from_raster,
)
from sitelasso.pipeline import RunDesigns, run_method2, run_method3, run_method4
from sitelasso.rasters import RasterGrid, write_ascii_grid, write_ascii_rows
from sitelasso.splits import make_splits
from sitelasso.standardize import StandardizationTransform
from sitelasso.synthetic import SyntheticSpec, default_fields, generate_synthetic
from sitelasso.terms import RawDesign, TermSpec


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
    for (intercept, coefs, _), transform in zip(members(ens), ens.transforms):
        pos = {t.term_id: j for j, t in enumerate(transform.terms)}
        val = intercept
        for cid, coef in coefs.items():
            j = pos[cid]
            val += coef * (row[0, j] - transform.means[j]) / transform.norms[j]
        member_vals.append(val)
    return float(ens.weights @ np.array(member_vals))


def test_single_model_raster_matches_pointwise_predict():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run = run_method2(RunDesigns(data), plan, workers=1)
    grid = assembled(*prediction_rows(run.stages, rasters))
    # scalar-path oracle: recompute each pixel independently
    ens = run.ensemble
    mask = np.zeros(grid.values.size, dtype=bool)
    for name in linear_form(ens).covariates:
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
    run3 = run_method3(RunDesigns(data), plan, workers=1)
    stage1 = run3.stage1.ensemble
    pierced = linear_form(stage1).covariates[0]
    rasters[pierced].values[2, 1] = rasters[pierced].nodata
    codes = {1.0: "B1", 2.0: "B2"}
    grid = assembled(*prediction_rows(run3.stages, rasters, sites_from_raster(site_grid, codes)))
    site_values = site_grid.values.ravel()
    expected_bad = site_grid.nodata_mask().ravel() | rasters[pierced].nodata_mask().ravel()
    for code, site in codes.items():
        own = site_values == code
        for name in linear_form(run3.stage2[site]).covariates:
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
    run = run_method2(RunDesigns(data), plan, workers=1)
    needed = linear_form(run.ensemble).covariates
    unused = [n for n in rasters if n not in needed]
    # poke nodata into a needed raster and (if any) an unused raster
    target = needed[0]
    rasters[target].values[3, 4] = rasters[target].nodata
    if unused:
        rasters[unused[0]].values[5, 5] = rasters[unused[0]].nodata
    grid = assembled(*prediction_rows(run.stages, rasters))
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
    run = run_method2(RunDesigns(data), plan, workers=1)
    ens = run.ensemble
    ens.coefs[:] = 0.0
    grid = assembled(*prediction_rows([(ens, None)], rasters))
    expected = float(ens.weights @ ens.intercepts)
    valid = ~grid.nodata_mask()
    assert np.allclose(grid.values[valid], expected, atol=1e-12)


def test_grid_mismatch_and_missing_covariate_errors():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=4)
    run = run_method2(RunDesigns(data), plan, workers=1)
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
    # cov0 is the reference grid, so the first raster that differs from it is named
    with pytest.raises(DataError, match="^raster cov1: xllcorner 0 differs from 1 in cov0$"):
        prediction_rows(run.stages, broken)
    needed = linear_form(run.ensemble).covariates
    partial = {k: v for k, v in rasters.items() if k != needed[0]}
    with pytest.raises(DataError, match=needed[0]):
        prediction_rows(run.stages, partial)


def test_site_scoped_ensemble_needs_and_uses_site_information():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run = run_method4(RunDesigns(data), plan, workers=1)
    if not linear_form(run.ensemble).sites:
        pytest.skip("no scoped term survived selection in this toy")
    with pytest.raises(DataError, match="site"):
        prediction_rows(run.stages, rasters)
    codes = {1.0: "B1", 2.0: "B2"}
    grid = assembled(*prediction_rows(run.stages, rasters, sites=sites_from_raster(site_grid, codes)))
    # oracle: evaluate the ensemble on the pixel rows with known sites
    mask = site_grid.nodata_mask().ravel()
    for name in linear_form(run.ensemble).covariates:
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
    run3 = run_method3(RunDesigns(data), plan, workers=1)
    codes = {1.0: "B1", 2.0: "B2"}
    combined = assembled(*prediction_rows(
        run3.stages, rasters, sites_from_raster(site_grid, codes)
    ))
    base = assembled(*prediction_rows(run3.stage1.stages, rasters))
    everywhere = np.zeros(site_grid.values.size, dtype=np.int8)
    for site, code in (("B1", 1.0), ("B2", 2.0)):
        amend = assembled(*prediction_rows([(run3.stage2[site], None)], rasters, sites=([site], everywhere)))
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
    run3 = run_method3(RunDesigns(data), plan, workers=1)
    ghost = TermSpec("poly", "ghost")
    unseen = Ensemble(
        intercepts=np.zeros(1),
        coefs=np.ones((1, 1)),
        sses=np.ones(1),
        transforms=[StandardizationTransform([ghost], [0.0], [1.0], [False], 3)],
        weights=np.ones(1),
        terms=[ghost],
        split_plan_ref="",
        validation_errors=[np.zeros(0)],
        validation_rows=[np.zeros(0, dtype=np.intp)],
    )
    codes = {1.0: "B1", 2.0: "B2"}
    base = assembled(*prediction_rows(
        run3.stages, rasters, sites_from_raster(site_grid, codes)
    ))
    ghost_run = dataclasses.replace(run3, stage2={**run3.stage2, "B3": unseen})
    grid = assembled(*prediction_rows(
        ghost_run.stages, rasters, sites_from_raster(site_grid, {**codes, 3.0: "B3"}),
    ))
    assert np.array_equal(grid.values, base.values)


def test_raster_point_consistency():
    data, rasters, site_grid, truth = synth_setup()
    plan = small_plan(data, n_splits=5)
    run = run_method2(RunDesigns(data), plan, workers=1)
    ens = run.ensemble
    grid = assembled(*prediction_rows([(ens, None)], rasters))
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


def test_site_codes_map_each_configured_value_and_name_the_smallest_unmapped():
    values = np.array([[2.0, 1.0, -9999.0], [np.nan, 7.0, 2.0]])
    grid = RasterGrid(3, 2, 0.0, 0.0, 1.0, -9999.0, values)
    # a code equal to the nodata value still leaves nodata cells at -1
    codes = {1.0: "B1", 2.0: "B2", -9999.0: "B1", 7.0: "A"}
    names, index = sites_from_raster(grid, codes)
    assert names == ["A", "B1", "B2"]
    assert index.dtype == np.int8
    assert index.tolist() == [2, 1, -1, -1, 0, 2]
    for missing, smallest in (({1.0: "B1"}, "2"), ({7.0: "A"}, "1"), ({2.0: "B2"}, "1")):
        with pytest.raises(DataError, match=f"^site raster value {smallest} has no site"):
            sites_from_raster(grid, missing)


def test_registration_error_names_the_raster_the_field_and_both_values():
    def grid(**geometry):
        fields = {"ncols": 3, "nrows": 2, "xll": 0.0, "yll": 0.0, "cellsize": 1.5, **geometry}
        return RasterGrid(nodata=-9999.0, values=np.zeros((fields["nrows"], fields["ncols"])), **fields)

    check_registration([])
    check_registration([("a.asc", grid()), ("b.asc", grid())])
    cases = [
        ({"xll": 1210.0}, "xllcorner 1210 differs from 0"),
        ({"yll": -0.25, "cellsize": 2.0}, "yllcorner -0.25 differs from 0"),
        ({"cellsize": 2.0}, "cellsize 2 differs from 1.5"),
        ({"ncols": 4}, "ncols 4 differs from 3"),
    ]
    for geometry, message in cases:
        grids = [("a.asc", grid()), ("b.asc", grid()), ("c.asc", grid(**geometry))]
        with pytest.raises(DataError, match=f"^raster c.asc: {message} in a.asc$"):
            check_registration(grids)


CODES = {1.0: "B1", 2.0: "B2"}


@pytest.fixture(scope="module")
def streamed_setup():
    """A 120x90 study (three row blocks) with nodata in a covariate every
    method reads and in the site raster's gap, and its m2, m3 and m4 runs."""
    data, rasters, site_grid, truth = synth_setup(ncols=120, nrows=90)
    designs = RunDesigns(data)
    plan = small_plan(data, n_splits=5)
    runs = {
        "m2": run_method2(designs, plan, workers=1),
        "m3": run_method3(designs, plan, workers=1),
        "m4": run_method4(designs, plan, workers=1),
    }
    assert linear_form(runs["m4"].ensemble).sites
    for name in ("cov0", "cov1"):
        rasters[name].values[[5, 40, 89], [0, 60, 119]] = rasters[name].nodata
    assert site_grid.nodata_mask().any()
    return rasters, site_grid, runs


def _whole_grid(form, rasters, pixels, site_index):
    """The form at the given flat pixels, in one evaluation over all of them."""
    cov = {name: rasters[name].values.ravel()[pixels] for name in form.covariates}
    return form.predict_covariates(cov, site_index)


@pytest.mark.parametrize("method", ["m2", "m3", "m4"])
def test_streamed_raster_equals_the_written_assembled_raster(streamed_setup, method, tmp_path):
    rasters, site_grid, runs = streamed_setup
    run = runs[method]
    sites = sites_from_raster(site_grid, CODES)
    assert site_specific(run.stages) == (method != "m2")
    stream = lambda: prediction_rows(run.stages, rasters, sites if method != "m2" else None)
    grid = assembled(*stream())
    header, blocks = stream()
    write_ascii_grid(tmp_path / "assembled.asc", grid)
    write_ascii_rows(tmp_path / "streamed.asc", header, blocks)
    assert (tmp_path / "streamed.asc").read_bytes() == (tmp_path / "assembled.asc").read_bytes()

    # the row blocks give the bits of one evaluation over every valid pixel
    flat = grid.values.ravel()
    valid = np.flatnonzero(~grid.nodata_mask().ravel())
    assert 0 < valid.size < flat.size
    names, codes = sites
    if method == "m3":
        stage1 = linear_form(run.stage1.ensemble)
        want = np.empty(valid.size)
        for code, name in enumerate(names):
            own = codes[valid] == code
            stage2 = linear_form(run.stage2[name])
            want[own] = _whole_grid(
                stage1, rasters, valid[own], np.full(own.sum(), stage1.site_index([name])[0])
            ) + _whole_grid(
                stage2, rasters, valid[own], np.full(own.sum(), stage2.site_index([name])[0])
            )
    else:
        form = linear_form(run.ensemble)
        index = form.site_index(names)[codes[valid]] if method == "m4" else np.zeros(valid.size, dtype=np.intp)
        want = _whole_grid(form, rasters, valid, index)
    assert flat[valid].tobytes() == want.tobytes()


def _stream_peak(path, run, n_rows):
    """tracemalloc peak of streaming m3's raster of an n_rows x 1000 grid to disk."""
    rng = np.random.default_rng(3)
    rasters = {
        name: RasterGrid(1000, n_rows, 0.0, 0.0, 1.0, -9999.0, rng.normal(size=(n_rows, 1000)))
        for name in ("cov0", "cov1", "cov2")
    }
    codes = np.repeat(np.array([0, 1, -1], dtype=np.int8), [n_rows * 400, n_rows * 500, n_rows * 100])
    tracemalloc.start()
    try:
        grid, blocks = prediction_rows(run.stages, rasters, (["B1", "B2"], codes))
        write_ascii_rows(path, grid, blocks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_prediction_memory_does_not_grow_with_the_grid(streamed_setup, tmp_path):
    run = streamed_setup[2]["m3"]
    write_ascii_grid(tmp_path / "first.asc", RasterGrid(1, 1, 0.0, 0.0, 1.0, -9999.0, np.ones((1, 1))))
    small = _stream_peak(tmp_path / "small.asc", run, 250)
    large = _stream_peak(tmp_path / "large.asc", run, 1000)
    assert large < 3e6  # the 1000x1000 output alone is 8 MB of float64
    assert large < 1.2 * small
