"""Release gate: one test per numbered acceptance criterion.

Each test is standalone and prints one summary line through the terminal
hook in conftest.py. Tolerances here are contractual — do not loosen them
to make a failing build green.

 1. Path solver agrees with a coordinate-descent oracle at every knot.
 2. Term expansion obeys the 4p + p(p-1)/2 count law (65 -> 2340).
 3. Site-block designs keep structural zeros bitwise through standardization.
 4. Collinearity filter postcondition and hierarchy honor.
 5. Standardization replay uses training constants; round-trip accuracy.
 6. Inverse-SSE weights: normalization and the exact two-model case.
 7. Two-stage decomposition identity per point on a full synthetic run.
 8. Selection recovery of planted terms on a noisy synthetic problem.
 9. Directional transfer asymmetry under nested covariate supports.
10. Raster predictions match the scalar path; nodata closure.
11. Worker count never changes CSV or raster outputs.
"""

import dataclasses
import filecmp
import os
import time

import numpy as np
from _cd_oracle import cd_lasso, kkt_residuals, lasso_objective
from _spec_route import build_term_matrix
from _toys import assembled

from sitelasso.errors import NumericalError
from sitelasso.cli import main
from sitelasso.ensemble import ensemble_weights, model_average, tally_selection
from sitelasso.features import assemble_site_blocks, expand_terms, filter_collinear
from sitelasso.gridpredict import prediction_rows
from sitelasso.lars import lar_lasso_path
from sitelasso.pipeline import (
    COMBINED,
    RunDesigns,
    evaluate_transfer,
    run_method1,
    run_method2,
    run_method3,
)
from sitelasso.pointdata import PointDataset
from sitelasso.splits import make_splits
from sitelasso.standardize import apply_transform, check_standardized, fit_transform
from sitelasso.synthetic import SyntheticSpec, default_fields, generate_synthetic
from sitelasso.terms import RawDesign


def standardized_instance(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    X /= np.sqrt((X**2).sum(axis=0))
    y = rng.normal(size=n)
    y -= y.mean()
    return X, y


def random_points(seed, n_a, n_b, p, response=None):
    rng = np.random.default_rng(seed)
    n = n_a + n_b
    cov = rng.normal(size=(n, p))
    y = rng.normal(size=n) if response is None else response(cov, rng)
    return PointDataset(
        np.array(["A"] * n_a + ["B"] * n_b, dtype=object),
        rng.uniform(0, 1000, size=n),
        rng.uniform(0, 1000, size=n),
        y,
        [f"c{j}" for j in range(p)],
        cov,
    )


def two_thirds_plan(data, n_splits, seed):
    quotas = {s: max(2, round(2 * len(data.site_rows(s)) / 3)) for s in data.sites()}
    return make_splits(data, quotas, n_splits=n_splits, seed=seed)


_CERT_TOL = 1e-9

# Sweeps after which criterion 01 hands a knot from CD to the certified
# fallback: CD's sweep count is heavy-tailed, with its tail on
# ill-conditioned active sets. Run alone on 2 shared cores, the
# criterion took 23.5 to 29.1 s at this cap, with 332 of 4,620 knots handed
# over and worst coefficient gaps of 1.2e-10 (CD) and 7.1e-11 (fallback);
# it took 34.2 s at 5,000 sweeps, 39.5 s at 10,000 and 89.2 s at the old
# 200,000. At 1,000 a lam = 0 knot with p > n - 1 reaches the fallback,
# whose support solve is singular there, so it cannot certify it.
_CD_HANDOVER = 2_000


def _certified_box_qp_oracle(X, y, lam, warm):
    """Independent lasso solution for a knot where direct CD stalls.

    CD zigzags forever when the active set spans the whole centred row
    space: the residual is then pinned by the active equations alone, every
    inactive correlation becomes exactly proportional to the penalty, and a
    column sitting at 0.9998 of the threshold stays there at every penalty
    value. The cure is a solver that moves all coordinates jointly: split
    beta into nonnegative parts, minimise the smooth bound-constrained
    quadratic with L-BFGS-B, and use that only to PROPOSE supports. Each
    proposal is re-solved exactly from its stationarity system and accepted
    solely on a full KKT certificate, so the answer never inherits
    L-BFGS-B's (or the path's) inaccuracies: by convexity any certified
    point is a global minimiser, unique at positive penalty for data in
    general position.
    """
    from scipy.optimize import minimize

    p = X.shape[1]
    gram_full = 2.0 * (X.T @ X)
    lin_full = 2.0 * (X.T @ y)

    def value_and_grad(q):
        beta = q[:p] - q[p:]
        resid = y - X @ beta
        grad = gram_full @ beta - lin_full
        value = float(resid @ resid) + lam * float(q.sum())
        return value, np.concatenate([grad + lam, -grad + lam])

    start = np.concatenate([np.clip(warm, 0.0, None), np.clip(-warm, 0.0, None)])
    result = minimize(
        value_and_grad,
        start,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * p),
        options={"maxiter": 500_000, "maxfun": 10_000_000, "ftol": 1e-18, "gtol": 1e-14},
    )
    proposal = result.x[:p] - result.x[p:]

    candidates = [np.abs(proposal) > tau for tau in (1e-8, 1e-6, 1e-4, 1e-10, 1e-2)]
    for keep in candidates:
        support = np.flatnonzero(keep)
        beta = np.zeros(p)
        if support.size:
            sub = X[:, support]
            signs = np.sign(proposal[support])
            gram = sub.T @ sub
            rhs = sub.T @ y - 0.5 * lam * signs
            try:
                coef = np.linalg.solve(gram, rhs)
                coef += np.linalg.solve(gram, rhs - gram @ coef)  # one refinement
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(coef) != signs):
                continue
            beta[support] = coef
        act, inact = kkt_residuals(X, y, beta, lam)
        if act <= _CERT_TOL and inact <= _CERT_TOL:
            return beta
    act, inact = kkt_residuals(X, y, proposal, lam)
    if act <= _CERT_TOL and inact <= _CERT_TOL:
        return proposal
    raise AssertionError(f"no certifiable oracle solution at lam={lam!r}")


def test_criterion_01_path_matches_coordinate_descent_oracle():
    start = time.monotonic()
    size_rng = np.random.default_rng(20260815)
    by_cd = by_fallback = 0
    for seed in range(200):
        n = int(size_rng.integers(8, 31))  # n <= 30
        p = int(size_rng.integers(2, 51))  # p <= 50
        X, y = standardized_instance(seed, n, p)
        path = lar_lasso_path(X, y)
        warm = np.zeros(p)
        for k, (lam, beta) in enumerate(zip(path.lambdas, path.coefs)):
            try:
                warm = cd_lasso(X, y, lam, beta_init=warm, max_sweeps=_CD_HANDOVER)
                by_cd += 1
            except NumericalError:
                warm = _certified_box_qp_oracle(X, y, lam, warm)
                by_fallback += 1
            if lam == 0.0 and p > n - 1:
                # With centered columns, rank(X) <= n-1 < p, so the lam=0
                # minimizer is a non-unique interpolant: compare the unique
                # quantities (fit and objective) instead of coefficients.
                fit_gap = float(np.max(np.abs(X @ beta - X @ warm)))
                assert fit_gap <= 1e-6, f"seed {seed} knot {k}: fit gap {fit_gap:.3e}"
                assert lasso_objective(X, y, beta, lam) <= 1e-12
                assert lasso_objective(X, y, warm, lam) <= 1e-12
            else:
                worst = float(np.max(np.abs(beta - warm)))
                assert worst <= 1e-6, f"seed {seed} knot {k}: coef gap {worst:.3e}"
            act, inact = kkt_residuals(X, y, beta, lam)
            assert act <= 1e-8, f"seed {seed} knot {k}: active KKT {act:.3e}"
            assert inact <= 1e-8, f"seed {seed} knot {k}: inactive KKT {inact:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s (budget 60s)"
    print(
        f"criterion 1: 200 instances / {by_cd + by_fallback} knots vs oracle "
        f"({by_cd} solved by CD, {by_fallback} by the certified box-QP fallback), "
        f"coef<=1e-6, KKT<=1e-8, {elapsed:.1f}s"
    )


def test_criterion_02_expansion_count_law():
    for p in (1, 5, 65):
        data = random_points(p, 4, 4, p)
        design = expand_terms(data)
        expected = 4 * p + p * (p - 1) // 2
        assert design.n_cols == expected, f"p={p}: {design.n_cols} != {expected}"
        assert len({t.term_id for t in design.terms}) == design.n_cols
    assert expand_terms(random_points(65, 4, 4, 65)).n_cols == 2340
    print("criterion 2: counts 4p+p(p-1)/2 hold for p=1,5,65; p=65 -> 2340")


def test_criterion_03_site_blocks_keep_structural_zeros_bitwise():
    data = random_points(3, 60, 56, 3)
    base = expand_terms(data)
    wide = assemble_site_blocks(base)
    assert wide.n_cols == 3 * base.n_cols

    by_scope = {}
    for j, term in enumerate(wide.terms):
        by_scope.setdefault(term.scope, []).append(j)
    assert sorted(s for s in by_scope if s) == ["A", "B"]
    for scope in ("A", "B"):
        other = wide.row_sites != scope
        cols = by_scope[scope]
        assert np.all(wide.values[np.ix_(other, cols)] == 0.0)

    matrix, transform = fit_transform(wide)
    assert not transform.dropped.any()
    check_standardized(matrix, [t.term_id for t in transform.retained_terms])
    position = {t.term_id: k for k, t in enumerate(transform.retained_terms)}
    for scope in ("A", "B"):
        other = wide.row_sites != scope
        cols = [position[wide.terms[j].term_id] for j in by_scope[scope]]
        block = matrix[np.ix_(other, cols)]
        assert np.all(block == 0.0), "standardization disturbed a structural zero"
    print(
        "criterion 3: 116-row site blocks width 3w, other-site zeros bitwise "
        "before and after standardization"
    )


def test_criterion_04_filter_postcondition_and_hierarchy():
    total_removed = 0
    for seed in range(50):
        rng = np.random.default_rng(seed + 300)
        data = random_points(seed, 20, 20, 8)
        # plant two near-duplicate covariates so violations always exist
        data.covariate_values[:, 6] = data.covariate_values[:, 0] + 0.01 * rng.normal(
            size=data.n_rows
        )
        data.covariate_values[:, 7] = data.covariate_values[:, 1] + 0.01 * rng.normal(
            size=data.n_rows
        )
        design = expand_terms(data)
        filtered, records = filter_collinear(design, threshold=0.95, seed=seed)
        total_removed += len(records)
        sub = filtered.values
        centred = sub - sub.mean(axis=0)
        unit = centred / np.sqrt((centred**2).sum(axis=0))
        corr = unit.T @ unit
        iu, ju = np.triu_indices(filtered.n_cols, k=1)
        worst = float(np.abs(corr[iu, ju]).max())
        assert worst <= 0.95, f"seed {seed}: residual |r|={worst:.6f}"
    assert total_removed > 0, "no violating pair in 50 instances; generator too tame"

    # hierarchy honor on a constructed rank conflict
    rng = np.random.default_rng(77)
    a = rng.normal(size=30)
    conflict = PointDataset(
        np.array(["A"] * 15 + ["B"] * 15, dtype=object),
        rng.uniform(0, 10, 30),
        rng.uniform(0, 10, 30),
        rng.normal(size=30),
        ["cova", "covb"],
        np.column_stack([a, a + 0.001 * rng.normal(size=30)]),
    )
    design = expand_terms(conflict)
    kept_b, _ = filter_collinear(design, 0.95, hierarchy={"covb": 1, "cova": 9})
    ids_b = {t.term_id for t in kept_b.terms}
    assert "covb" in ids_b and "cova" not in ids_b
    kept_a, _ = filter_collinear(design, 0.95, hierarchy={"cova": 1, "covb": 9})
    ids_a = {t.term_id for t in kept_a.terms}
    assert "cova" in ids_a and "covb" not in ids_a
    print(
        f"criterion 4: max residual |r|<=0.95 on 50 instances "
        f"({total_removed} removals); hierarchy rank decides rank conflicts"
    )


def test_criterion_05_standardization_replay_and_round_trip():
    data = random_points(5, 40, 36, 4)
    base = expand_terms(data)
    train = assemble_site_blocks(base)
    matrix, transform = fit_transform(train)
    assert not transform.dropped.any()

    # training columns: mean 0 and unit norm over the rows that carry them
    for k, term in enumerate(transform.retained_terms):
        col = matrix[:, k]
        rows = (
            np.ones(train.n_rows, dtype=bool)
            if term.scope is None
            else train.row_sites == term.scope
        )
        assert abs(col[rows].mean()) <= 1e-10
        assert abs(np.sqrt((col[rows] ** 2).sum()) - 1.0) <= 1e-10

    # validation replay must reuse training constants, not refit
    shifted = random_points(55, 12, 12, 4)
    shifted.covariate_values += 1.5  # move the validation distribution
    valid = assemble_site_blocks(expand_terms(shifted))
    replay = apply_transform(valid, transform)
    for k, term in enumerate(transform.retained_terms):
        j = [t.term_id for t in transform.terms].index(term.term_id)
        expected = np.zeros(valid.n_rows)
        rows = (
            np.ones(valid.n_rows, dtype=bool)
            if term.scope is None
            else valid.row_sites == term.scope
        )
        expected[rows] = (valid.values[rows, j] - transform.means[j]) / transform.norms[j]
        assert np.max(np.abs(replay[:, k] - expected)) <= 1e-10
    # shifted validation columns are NOT standardized under training constants
    global_cols = [k for k, t in enumerate(transform.retained_terms) if t.scope is None]
    means_after = np.abs(replay[:, global_cols].mean(axis=0))
    assert means_after.max() > 1e-3, "replay looks refitted on validation rows"

    # round-trip: invert the transform and recover the raw training design
    recovered = np.zeros_like(train.values)
    position = {t.term_id: k for k, t in enumerate(transform.retained_terms)}
    for j, term in enumerate(transform.terms):
        k = position[term.term_id]
        rows = (
            np.ones(train.n_rows, dtype=bool)
            if term.scope is None
            else train.row_sites == term.scope
        )
        recovered[rows, j] = matrix[rows, k] * transform.norms[j] + transform.means[j]
    assert np.max(np.abs(recovered - train.values)) <= 1e-10
    print("criterion 5: replay within 1e-10 of training constants; round-trip <=1e-10")


def test_criterion_06_inverse_sse_weights():
    rng = np.random.default_rng(6)
    for _ in range(500):
        k = int(rng.integers(1, 40))
        sses = np.exp(rng.normal(size=k) * 3.0)
        w = ensemble_weights(sses)
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert (w > 0).all()
    w2 = ensemble_weights(np.array([1.0, 3.0]))
    assert w2[0] == 0.75 and w2[1] == 0.25
    print("criterion 6: 500 weight vectors sum to 1 within 1e-12; (1,3)->(0.75,0.25)")


def test_criterion_07_two_stage_decomposition_identity():
    spec = SyntheticSpec(seed=7, fields=default_fields(5),
                         coef_global={"cov0": 2.0, "cov1": 1.1, "cov0:cov1": 0.5},
                         coef_site={"B2": {"cov2": 1.0}}, noise_sd=0.25)
    data, _, _, _ = generate_synthetic(spec)
    plan = two_thirds_plan(data, n_splits=100, seed=7)
    run3 = run_method3(RunDesigns(data), plan, workers=1)
    stage1 = run3.stage1

    full = expand_terms(data, max_order=4)
    position = {cid: j for j, cid in enumerate(full.column_ids)}
    reused = full.subset_terms([position[t.term_id] for t in stage1.terms])
    worst = 0.0
    for site in data.sites():
        rows = data.site_rows(site)
        amend = model_average(run3.stage2[site], reused.subset_rows(rows))
        gap = np.abs(run3.predictions[rows] - (stage1.predictions[rows] + amend))
        worst = max(worst, float(gap.max()))
    assert worst <= 1e-12, f"decomposition gap {worst:.3e}"
    print(f"criterion 7: per-point |m3 - (stage1 + amendment)| <= 1e-12 (worst {worst:.1e})")


def test_criterion_08_selection_recovers_planted_terms():
    start = time.monotonic()
    planted = {"cov0": 2.0, "cov0^2": 0.9, "cov1": 1.5, "cov0:cov1": 0.8, "cov2": 1.2}
    noiseless = SyntheticSpec(
        seed=8, fields=default_fields(17), coef_global=planted, coef_site={},
        noise_sd=0.0,
    )
    _, _, _, truth0 = generate_synthetic(noiseless)
    spec = dataclasses.replace(noiseless, noise_sd=0.2 * truth0["signal_sd"])
    data, _, _, _ = generate_synthetic(spec)
    assert data.n_rows == 116
    assert expand_terms(data).n_cols == 204  # ~200 candidates

    plan = two_thirds_plan(data, n_splits=100, seed=8)
    run = run_method2(RunDesigns(data), plan, workers=1)
    freq, _sizes = tally_selection(run.ensemble)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    top10 = {term for term, _ in ranked[:10]}
    missing = sorted(set(planted) - top10)
    assert not missing, f"planted terms outside top 10: {missing}; top10={sorted(top10)}"
    r2 = run.metrics[COMBINED].r2
    assert r2 >= 0.7, f"in-sample R2 {r2:.3f} < 0.7"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"recovery run took {elapsed:.1f}s (budget 300s)"
    print(
        f"criterion 8: 5 planted terms in top 10 of 204 candidates, "
        f"R2={r2:.3f}, {elapsed:.1f}s"
    )


def test_criterion_09_transfer_asymmetry_under_nested_supports():
    fields = list(default_fields(6))
    fields[0] = dataclasses.replace(fields[0], site1_shift=1.2, site1_scale=0.25)
    spec = SyntheticSpec(
        seed=9, n_site1=55, n_site2=55, fields=tuple(fields),
        coef_global={"cov0": 1.0, "cov0^2": 1.6, "cov1": 0.9},
        coef_site={}, noise_sd=0.25,
    )
    data, _, _, _ = generate_synthetic(spec)
    narrow, wide = "B1", "B2"
    c_narrow = data.covariate("cov0")[data.site_rows(narrow)]
    c_wide = data.covariate("cov0")[data.site_rows(wide)]
    assert c_wide.min() < c_narrow.min() and c_narrow.max() < c_wide.max(), (
        "supports are not nested"
    )

    plan = two_thirds_plan(data, n_splits=60, seed=9)
    designs = RunDesigns(data)
    run_narrow = run_method1(designs, narrow, plan, workers=1)
    run_wide = run_method1(designs, wide, plan, workers=1)
    narrow_to_wide = evaluate_transfer(
        run_narrow.ensemble, data.subset(data.site_rows(wide))
    )
    wide_to_narrow = evaluate_transfer(
        run_wide.ensemble, data.subset(data.site_rows(narrow))
    )
    r2_nw = narrow_to_wide.metrics.r2
    r2_wn = wide_to_narrow.metrics.r2
    assert r2_nw < 0.0, f"narrow->wide transfer R2 {r2_nw:.3f} not negative"
    assert r2_wn > 0.0, f"wide->narrow transfer R2 {r2_wn:.3f} not positive"
    print(
        f"criterion 9: transfer R2 narrow->wide {r2_nw:.2f} < 0 < "
        f"wide->narrow {r2_wn:.2f}"
    )


def test_criterion_10_raster_matches_scalar_oracle_with_nodata_closure():
    spec = SyntheticSpec(
        seed=10, fields=default_fields(3), n_site1=34, n_site2=32,
        coef_global={"cov0": 1.8, "cov1": 1.0, "cov0^2": 0.6},
        coef_site={}, noise_sd=0.2, ncols=55, nrows=40,
    )
    data, rasters, _site, _truth = generate_synthetic(spec)
    assert rasters["cov0"].values.size == 2200
    plan = two_thirds_plan(data, n_splits=40, seed=10)
    run = run_method2(RunDesigns(data), plan, workers=1)
    ens = run.ensemble

    needed = ens.needed_covariates()
    rasters[needed[0]].values[7, 11] = rasters[needed[0]].nodata  # pierce one pixel
    unused = rasters[needed[0]].with_values(
        np.full_like(rasters[needed[0]].values, 3.25)
    )
    unused.values[20, 20] = unused.nodata
    all_rasters = dict(rasters)
    all_rasters["spare"] = unused  # present but never read by any model

    grid = assembled(*prediction_rows(ens, all_rasters))
    expected_mask = np.zeros_like(grid.nodata_mask())
    for name in needed:
        expected_mask |= rasters[name].nodata_mask()
    assert np.array_equal(grid.nodata_mask(), expected_mask), "nodata closure broken"
    assert grid.nodata_mask()[7, 11]
    assert not grid.nodata_mask()[20, 20], "an unread raster leaked nodata"

    flat = {name: g.values.ravel() for name, g in all_rasters.items()}
    out = grid.values.ravel()
    bad = expected_mask.ravel()
    no_site = np.array([""], dtype=object)
    worst = 0.0
    for pix in range(out.size):
        if bad[pix]:
            continue
        cov = {name: np.array([vals[pix]]) for name, vals in flat.items()}
        row = build_term_matrix(cov, no_site, ens.terms)
        oracle = model_average(ens, RawDesign(row, list(ens.terms), no_site))[0]
        worst = max(worst, abs(out[pix] - oracle))
    assert worst <= 1e-10, f"raster vs scalar oracle gap {worst:.3e}"
    print(
        f"criterion 10: {int((~bad).sum())} pixels match the scalar path "
        f"(worst {worst:.1e}); closure over needed rasters only"
    )


def test_criterion_11_worker_count_invariance(tmp_path):
    synth_dir = tmp_path / "data"
    spec = tmp_path / "synth.cfg"
    spec.write_text(
        "seed = 11\nn_site1 = 22\nn_site2 = 20\nn_covariates = 3\n"
        "noise_sd = 0.2\nncols = 14\nnrows = 10\n"
        "coef.cov0 = 2.0\ncoef.cov1 = 1.2\nsite_coef.B2.cov2 = 0.8\n"
        f"output_dir = {synth_dir}\n"
    )
    assert main(["synth", str(spec)]) == 0

    outputs = {}
    for workers in (1, 3):
        out_dir = tmp_path / f"run_w{workers}"
        cfg = tmp_path / f"run_w{workers}.cfg"
        cfg.write_text(
            f"points = {synth_dir / 'points.csv'}\n"
            f"output_dir = {out_dir}\n"
            f"rasters_dir = {synth_dir / 'rasters'}\n"
            f"site_raster = {synth_dir / 'site.asc'}\n"
            "site_codes = 1:B1, 2:B2\n"
            "n_splits = 12\nmax_order = 3\nseed = 11\n"
            f"workers = {workers}\n"
        )
        assert main(["run", str(cfg)]) == 0
        outputs[workers] = out_dir

    names = sorted(
        name
        for name in os.listdir(outputs[1])
        if name.endswith(".csv") or name.endswith(".asc")
    )
    assert names == sorted(
        name
        for name in os.listdir(outputs[3])
        if name.endswith(".csv") or name.endswith(".asc")
    )
    assert any(name.endswith(".asc") for name in names)
    different = [
        name
        for name in names
        if not filecmp.cmp(outputs[1] / name, outputs[3] / name, shallow=False)
    ]
    assert different == [], f"outputs differ across worker counts: {different}"
    print(
        f"criterion 11: {len(names)} CSV/raster outputs byte-identical for "
        "workers=1 vs workers=3"
    )
