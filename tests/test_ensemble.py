import json
import logging

import numpy as np
import pytest
from _spec_route import members, predict

from sitelasso import artifacts, standardize
from sitelasso.ensemble import (
    ensemble_weights,
    fit_ensemble,
    linear_form,
    member_predictions,
    model_average,
    select_knot,
    tally_selection,
)
from sitelasso.errors import DataError
from sitelasso.features import assemble_site_blocks, expand_terms
from sitelasso.lars import LassoPath, lar_lasso_path
from sitelasso.pointdata import PointDataset
from sitelasso.splits import make_splits
from sitelasso.standardize import apply_transform, fit_transform


def test_select_knot_brute_force_agreement():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(24, 6))
    y = rng.normal(size=24)
    train, rest = raw[:16], raw[16:]
    mu = train.mean(axis=0)
    nrm = np.sqrt(((train - mu) ** 2).sum(axis=0))
    X_train = (train - mu) / nrm
    path = lar_lasso_path(X_train, y[:16] - y[:16].mean(), intercept=y[:16].mean())
    X_valid = (rest - mu) / nrm
    y_valid = y[16:]
    coef, sse, resid = select_knot(path, X_valid, y_valid)
    # brute force over dense knot vectors
    sses = []
    for beta in path.coefs:
        pred = path.intercept + X_valid @ beta
        sses.append(float(((y_valid - pred) ** 2).sum()))
    assert sse == pytest.approx(min(sses), abs=1e-12)
    winners = [k for k, s in enumerate(sses) if s == min(sses)]
    assert np.count_nonzero(coef) == min(np.count_nonzero(path.coefs[k]) for k in winners)
    assert np.allclose(resid, y_valid - (path.intercept + X_valid @ path.coefs[winners[0]]))


def test_select_knot_tie_prefers_smaller_subset():
    # two knots with identical predictions on a crafted validation set
    coefs = np.array([[0.0, 0.0], [1.0, -1.0]])
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # coef (1,-1) cancels
    path = LassoPath(np.array([2.0, 1.0]), coefs, 0.7)
    coef, _, _ = select_knot(path, X, np.array([0.7, 0.7, 0.7]))
    assert np.array_equal(coef, [0.0, 0.0])


def test_intercept_only_knot_predicts_training_mean():
    path = LassoPath(np.array([0.0]), np.zeros((1, 1)), 5.5)
    X_valid = np.zeros((3, 1))
    coef, sse, resid = select_knot(path, X_valid, np.array([5.5, 6.5, 4.5]))
    assert np.array_equal(coef, [0.0]) and sse == 2.0
    assert np.allclose(resid, [0.0, 1.0, -1.0])


def test_select_knot_checks_the_matrix_against_the_path():
    path = LassoPath(np.array([1.0, 0.0]), np.zeros((2, 2)), 0.0)
    with pytest.raises(DataError, match="width"):
        select_knot(path, np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(DataError, match="length"):
        select_knot(path, np.zeros((3, 2)), np.zeros(4))


def test_ensemble_weights_contract_values():
    w = ensemble_weights(np.array([1.0, 3.0]))
    assert np.allclose(w, [0.75, 0.25], atol=1e-15)
    rng = np.random.default_rng(1)
    many = ensemble_weights(rng.uniform(0.1, 5.0, size=500))
    assert abs(many.sum() - 1.0) <= 1e-12
    # lower SSE always gets the larger weight
    sses = rng.uniform(0.1, 5.0, size=50)
    w = ensemble_weights(sses)
    order = np.argsort(sses)
    assert np.all(np.diff(w[order]) <= 1e-15)


def test_ensemble_weights_zero_sse_rule(caplog):
    with caplog.at_level(logging.WARNING, logger="sitelasso.ensemble"):
        w = ensemble_weights(np.array([0.0, 2.0, 0.0, 1.0]))
    assert np.allclose(w, [0.5, 0.0, 0.5, 0.0])
    assert "zero validation SSE" in caplog.text
    with pytest.raises(DataError):
        ensemble_weights(np.array([-1.0, 2.0]))
    with pytest.raises(DataError):
        ensemble_weights(np.array([]))


def site_dataset(seed=0, n_a=14, n_b=12, p=3):
    rng = np.random.default_rng(seed)
    n = n_a + n_b
    cov = rng.normal(size=(n, p))
    y = 2.0 + cov @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
    return PointDataset(
        np.array(["A"] * n_a + ["B"] * n_b, dtype=object),
        rng.uniform(size=n),
        rng.uniform(size=n),
        y,
        [f"c{j}" for j in range(p)],
        cov,
    )


def fitted_toy_ensemble(workers=1, n_splits=12, seed=0, site_blocks=False):
    data = site_dataset(seed)
    design = expand_terms(data, max_order=2)
    if site_blocks:
        design = assemble_site_blocks(design)
    plan = make_splits(data, {"A": 9, "B": 8}, n_splits=n_splits, seed=seed)
    splits = [plan.combined_split(i) for i in range(plan.n_splits)]
    ens = fit_ensemble(
        design,
        data.response,
        splits,
        np.arange(data.n_rows),
        split_plan_ref="toy",
        workers=workers,
    )
    return data, design, ens


@pytest.mark.parametrize("site_blocks", [False, True], ids=["global", "site_blocks"])
def test_model_average_matches_spec_route(site_blocks):
    # the collapsed linear form must equal the literal route: apply each
    # model's own transform to the shared raw design, predict, weight, sum
    data, design, ens = fitted_toy_ensemble(site_blocks=site_blocks)
    assert ens.needs_site_information() == site_blocks
    fast = model_average(ens, design)
    slow = np.zeros(design.n_rows)
    for member, transform, weight in zip(members(ens), ens.transforms, ens.weights):
        X = apply_transform(design, transform)
        slow += weight * predict(member, transform, X)
    assert np.max(np.abs(fast - slow)) <= 1e-10
    each = member_predictions(ens, design)
    assert np.max(np.abs(fast - ens.weights @ each)) <= 1e-12
    assert abs(ens.weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("site_blocks", [False, True], ids=["global", "site_blocks"])
def test_linear_form_equals_the_member_loop_bit_for_bit(site_blocks):
    # member by member: each read term in the ensemble's term order, one
    # subtraction from the intercept at a time
    _, _, ens = fitted_toy_ensemble(site_blocks=site_blocks)
    form = linear_form(ens)
    assert bool(form.sites) == site_blocks
    assert np.array_equal(form.columns, np.flatnonzero(ens.coefs.any(axis=0)))
    slopes = np.zeros(form.member_slopes.shape)
    intercepts = np.empty(form.member_intercepts.shape)
    for i, transform in enumerate(ens.transforms):
        intercepts[i] = ens.intercepts[i]
        for k, j in enumerate(form.columns):
            if ens.coefs[i, j] != 0:
                slopes[i, k] = ens.coefs[i, j] / transform.norms[j]
                scope = form.scope_index[k]
                target = slice(None) if scope == 0 else scope
                intercepts[i, target] -= slopes[i, k] * transform.means[j]
    assert slopes.tobytes() == form.member_slopes.tobytes()
    assert intercepts.tobytes() == form.member_intercepts.tobytes()
    assert (ens.weights @ slopes).tobytes() == form.slopes.tobytes()
    assert (ens.weights @ intercepts).tobytes() == form.intercepts.tobytes()


def test_linear_form_is_bitwise_stable_across_json_round_trip():
    # sorted JSON keys reorder each model's coefficient map, which changes
    # the bits of this ensemble's intercepts unless terms are visited in a
    # fixed order
    data, design, ens = fitted_toy_ensemble(seed=1, site_blocks=True)
    payload = json.loads(json.dumps(artifacts.ensemble_to_dict(ens), sort_keys=True))
    loaded = artifacts.ensemble_from_dict(payload)
    fitted_form, loaded_form = linear_form(ens), linear_form(loaded)
    assert fitted_form.slopes.tobytes() == loaded_form.slopes.tobytes()
    assert fitted_form.intercepts.tobytes() == loaded_form.intercepts.tobytes()
    fitted = model_average(ens, design)
    assert fitted.tobytes() == model_average(loaded, design).tobytes()
    payload["models"][0]["coef"]["c9"] = 1.0
    with pytest.raises(DataError, match="unknown terms"):
        artifacts.ensemble_from_dict(payload)


def test_member_predictions_shape_and_validation():
    data, design, ens = fitted_toy_ensemble()
    preds = member_predictions(ens, design)
    assert preds.shape == (ens.n_models, design.n_rows)
    with pytest.raises(DataError):
        member_predictions(ens, design.subset_terms(range(3)))


def test_tally_matches_brute_force():
    _, _, ens = fitted_toy_ensemble()
    freq, sizes = tally_selection(ens)
    assert sum(sizes.values()) == ens.n_models
    maps = [coef for _, coef, _ in members(ens)]
    assert set(freq) == {cid for coef in maps for cid in coef}
    for cid, count in freq.items():
        manual = sum(1 for coef in maps if cid in coef)
        assert manual == count
    for size, count in sizes.items():
        assert count == sum(1 for coef in maps if len(coef) == size)


def test_worker_count_does_not_change_results():
    _, _, seq = fitted_toy_ensemble(workers=1)
    _, _, par = fitted_toy_ensemble(workers=3)
    assert np.array_equal(seq.coefs, par.coefs)
    assert np.array_equal(seq.sses, par.sses)
    assert np.array_equal(seq.intercepts, par.intercepts)
    assert np.array_equal(seq.weights, par.weights)


@pytest.mark.parametrize("site_blocks", [False, True], ids=["global", "site_blocks"])
def test_knot_chosen_during_the_pass_equals_select_knot(site_blocks):
    # fit_ensemble scores each knot as the lockstep pass produces it; the
    # same path built alone by lar_lasso_path and scored afterwards by
    # select_knot must pick the same knot, with the same bits
    data, design, ens = fitted_toy_ensemble(site_blocks=site_blocks)
    plan = make_splits(data, {"A": 9, "B": 8}, n_splits=12, seed=0)
    for i, resid in enumerate(ens.validation_errors):
        train, valid = plan.combined_split(i)
        X_train, transform = fit_transform(design.subset_rows(train))
        assert not transform.dropped.any()  # the pass pads dropped columns
        y_train = data.response[train]
        ybar = float(y_train.mean())
        path = lar_lasso_path(X_train, y_train - ybar, intercept=ybar)
        X_valid = apply_transform(design.subset_rows(valid), transform)
        coef, sse, expected_resid = select_knot(path, X_valid, data.response[valid])
        assert ens.coefs[i].tobytes() == coef.tobytes()
        assert ens.sses[i] == sse and ens.intercepts[i] == path.intercept
        assert np.array_equal(resid, expected_resid)


def test_each_model_owns_its_transform():
    _, design, ens = fitted_toy_ensemble()
    refs = {t.transform_id for t in ens.transforms}
    assert len(refs) > 1  # different training rows give different constants
    stored = artifacts.ensemble_to_dict(ens)["models"]
    assert [m["transform_ref"] for m in stored] == [t.transform_id for t in ens.transforms]


def test_fitting_hashes_no_transform_and_writing_hashes_one_per_member(monkeypatch):
    # a transform's id is read only where an artifact is written or read
    calls = []
    sha1 = standardize.sha1

    def counting(*args):
        calls.append(args)
        return sha1(*args)

    monkeypatch.setattr(standardize, "sha1", counting)
    _, _, ens = fitted_toy_ensemble()
    assert calls == []
    artifacts.ensemble_to_dict(ens)
    assert len(calls) == ens.n_models
