import numpy as np
import pytest
from _spec_route import build_term_matrix
from _toys import two_site_data

from sitelasso.ensemble import linear_form, model_average
from sitelasso.errors import DataError
from sitelasso.pipeline import (
    COMBINED,
    RunDesigns,
    _quartiles,
    covariate_support_report,
    evaluate_transfer,
    run_method1,
    run_method2,
    run_method3,
    run_method4,
    write_method_comparison_csv,
    write_support_csv,
)
from sitelasso.splits import make_splits
from sitelasso.models import FitMetrics
from sitelasso.pointdata import PointDataset
from sitelasso.terms import parse_term_id


@pytest.fixture(scope="module")
def setup():
    data = two_site_data(seed=5)
    plan = make_splits(data, {"A": 15, "B": 12}, n_splits=25, seed=7)
    return data, plan, RunDesigns(data)


def test_method1_fits_its_site_only(setup):
    data, plan, designs = setup
    run = run_method1(designs, "A", plan)
    assert run.method == "m1" and run.site == "A"
    assert np.array_equal(run.row_ids, data.site_rows("A"))
    assert set(run.metrics) == {"A"}
    assert run.metrics["A"].r2 > 0.6  # strong signal, should fit easily
    with pytest.raises(DataError):
        run_method1(designs, "nope", plan)


def test_method2_reports_all_targets(setup):
    data, plan, designs = setup
    run = run_method2(designs, plan)
    assert set(run.metrics) == {"A", "B", COMBINED}
    assert run.metrics[COMBINED].r2 > 0.6
    assert all(t.scope is None for t in run.terms)


def test_method4_contains_method2_columns(setup):
    data, plan, designs = setup
    m2 = run_method2(designs, plan)
    m4 = run_method4(designs, plan)
    w = len(m2.terms)
    assert len(m4.terms) == 3 * w
    assert [t.term_id for t in m4.terms[:w]] == [t.term_id for t in m2.terms]
    scopes = {t.scope for t in m4.terms[w:]}
    assert scopes == {"A", "B"}
    assert set(m4.metrics) == {"A", "B", COMBINED}


def test_method3_decomposes_into_stage_sums(setup):
    data, plan, designs = setup
    m2 = run_method2(designs, plan)
    m3 = run_method3(designs, plan, stage1=m2)
    assert m3.stage1 is m2  # supplied stage 1 is used, not refitted
    with pytest.raises(DataError, match="stage1"):
        run_method3(RunDesigns(data, threshold=0.5), plan, stage1=m2)
    # independent recomputation of the amendment per site
    for site, ens in m3.stage2.items():
        rows = data.site_rows(site)
        full_ids = [t.term_id for t in ens.terms]
        assert full_ids == [t.term_id for t in m2.terms]  # reused term set
        from sitelasso.features import expand_terms

        design = expand_terms(data).subset_terms(
            [i for i, cid in enumerate(expand_terms(data).column_ids) if cid in set(full_ids)]
        ).subset_rows(rows)
        amend = model_average(ens, design)
        gap = m3.predictions[rows] - m2.predictions[rows]
        assert np.allclose(gap, amend, atol=1e-12)
    assert set(m3.metrics) == {"A", "B", COMBINED}
    assert m3.metrics_oos is not None and m3.predictions_oos is not None
    # amending residuals in-sample can only tighten the combined fit
    assert m3.metrics[COMBINED].r2 >= m2.metrics[COMBINED].r2 - 1e-9


def test_transfer_uses_source_transforms_unchanged(setup):
    data, plan, designs = setup
    source = run_method1(designs, "A", plan)
    checksums_before = [t.transform_id for t in source.ensemble.transforms]
    weights_before = source.ensemble.weights.copy()
    target = data.subset(data.site_rows("B"))
    result = evaluate_transfer(source.ensemble, target)
    assert [t.transform_id for t in source.ensemble.transforms] == checksums_before
    assert np.array_equal(source.ensemble.weights, weights_before)
    assert result.target_site == "B"
    assert result.predictions.shape == (target.n_rows,)
    assert np.isfinite(result.metrics.r2)


def test_transfer_missing_covariate_errors(setup):
    data, plan, designs = setup
    source = run_method1(designs, "A", plan)
    target = data.subset(data.site_rows("B"))
    stripped = type(target)(
        target.site_ids,
        target.x,
        target.y,
        target.response,
        target.covariate_names[:1],
        target.covariate_values[:, :1],
    )
    needed = linear_form(source.ensemble).covariates
    if all(c == "c0" for c in needed):
        pytest.skip("models only used c0; cannot exercise the error")
    with pytest.raises(DataError, match="covariate"):
        evaluate_transfer(source.ensemble, stripped)


def test_support_report_flags_disjoint_ranges():
    data = two_site_data(seed=9, shift=25.0)  # site A far outside site B on c0
    report = covariate_support_report(
        (data, "A"), (data, "B"), [parse_term_id("c0"), parse_term_id("c1")]
    )
    by_key = {(r.term, r.site): r for r in report}
    assert by_key[("c0", "A")].outside_other_range
    assert by_key[("c0", "B")].outside_other_range
    assert not by_key[("c1", "A")].outside_other_range
    assert not by_key[("c1", "B")].outside_other_range
    # pooled standardization: mean 0, unit magnitude
    row = by_key[("c0", "A")]
    assert row.minimum < row.q25 <= row.median <= row.q75 < row.maximum


def test_support_report_needs_two_sites_with_rows():
    data = two_site_data(seed=9)
    terms = [parse_term_id("c0")]
    for first, second in (("A", "A"), ("A", "nope")):
        with pytest.raises(DataError, match="exactly two sites"):
            covariate_support_report((data, first), (data, second), terms)


def test_support_csv_and_comparison_csv(tmp_path):
    data = two_site_data(seed=11)
    report = covariate_support_report((data, "A"), (data, "B"), [parse_term_id("c0")])
    out = tmp_path / "support.csv"
    write_support_csv(out, report)
    text = out.read_text().splitlines()
    assert text[0].startswith("term,site,min,q25")
    assert len(text) == 3
    table = {
        "m1-a": {"A": FitMetrics(0.51, 0.11, 22)},
        "m2": {"A": FitMetrics(0.74, 0.1, 22), "B": FitMetrics(0.58, 0.2, 18), COMBINED: FitMetrics(0.7, 0.16, 40)},
    }
    cmp_path = tmp_path / "metrics.csv"
    write_method_comparison_csv(cmp_path, table, ["A", "B", COMBINED], ["m1-a", "m2"])
    lines = cmp_path.read_text().splitlines()
    assert lines[0] == "target,m1-a_r2,m1-a_rmse,m2_r2,m2_rmse"
    assert lines[1].split(",")[0] == "A"
    assert "NA" in lines[2]  # m1-a has no B entry


def test_support_quartiles_equal_three_separate_quantile_calls():
    rng = np.random.default_rng(4)
    sites = ["A"] * 7 + ["B"] * 8  # an odd and an even count
    values = np.round(rng.normal(size=(15, 2)), 1)  # rounding makes ties
    values[:4, 0] = values[4, 0]
    xy = np.arange(15.0)
    data = PointDataset(sites, xy, xy, rng.normal(size=15), ["c0", "c1"], values)
    terms = [parse_term_id(t) for t in ("c0", "c1", "c0^2", "c0:c1")]
    report = covariate_support_report((data, "A"), (data, "B"), terms)
    got = [(r.q25, r.median, r.q75) for r in report]
    want = []
    for term in terms:
        z = build_term_matrix(data.covariate_map(), data.site_ids, [term])[:, 0]
        z = z - z.mean()
        z = z / np.sqrt((z**2).sum())
        for site in ("A", "B"):
            v = z[data.site_mask(site)]
            want.append(tuple(float(np.quantile(v, q)) for q in (0.25, 0.5, 0.75)))
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_quartiles_match_numpy_quantile_bit_for_bit():
    # 4,200 arrays of 1 to 1,000 values: plain normals, a pool of signed zeros,
    # ties, infinities and nan, magnitudes near 1e+-300, and ties of +-0 and +-1
    rng = np.random.default_rng(12)
    pool = np.array(
        [0.0, -0.0, 1.0, -1.0, 2.5, 2.5, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 5e-324]
    )
    for k in range(4200):
        n = int(rng.integers(1, 1001))
        kind = k % 4
        if kind == 0:
            values = rng.normal(size=n)
        elif kind == 1:
            values = rng.choice(pool, size=n)
        elif kind == 2:
            values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n)
        else:
            values = rng.choice(pool[:4], size=n)
        with np.errstate(invalid="ignore"):
            want = np.quantile(values, (0.25, 0.5, 0.75))
        assert np.array(_quartiles(values)).tobytes() == want.tobytes(), (k, n)
