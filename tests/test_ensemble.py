import json
import logging

import numpy as np
import pytest

from sitelasso import artifacts
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
from sitelasso.lars import LassoPath, PathKnot, lar_lasso_path
from sitelasso.models import predict
from sitelasso.pointdata import PointDataset
from sitelasso.splits import make_splits
from sitelasso.standardize import StandardizedMatrix, apply_transform, fit_transform
from sitelasso.terms import RawDesign, TermSpec


def toy_matrix(values, ref="xf-t"):
    terms = [TermSpec("poly", f"c{j}", 1) for j in range(values.shape[1])]
    return StandardizedMatrix(np.asarray(values, float), terms, ref)


def test_select_knot_brute_force_agreement():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(24, 6))
    y = rng.normal(size=24)
    train, rest = raw[:16], raw[16:]
    mu = train.mean(axis=0)
    nrm = np.sqrt(((train - mu) ** 2).sum(axis=0))
    X_train = (train - mu) / nrm
    path = lar_lasso_path(X_train, y[:16] - y[:16].mean(), intercept=y[:16].mean())
    X_valid = StandardizedMatrix(
        (rest - mu) / nrm,
        [type("T", (), {"term_id": f"x{j}"}) for j in range(6)],
        "xf-t",
    )
    y_valid = y[16:]
    model, resid = select_knot(path, X_valid, y_valid)
    # brute force over dense knot vectors
    sses = []
    for k in range(len(path)):
        pred = path.intercept + X_valid.values @ path.coef_vector(k)
        sses.append(float(((y_valid - pred) ** 2).sum()))
    assert model.validation_sse == pytest.approx(min(sses), abs=1e-12)
    winners = [k for k, s in enumerate(sses) if s == min(sses)]
    assert model.subset_size == min(path.knots[k].subset_size for k in winners)
    assert np.allclose(resid, y_valid - (path.intercept + X_valid.values @ path.coef_vector(winners[0])))


def test_select_knot_tie_prefers_smaller_subset():
    # two knots with identical predictions on a crafted validation set
    knots = [
        PathKnot(2.0, np.array([], dtype=int), np.array([])),
        PathKnot(1.0, np.array([0, 1], dtype=int), np.array([0.0, 0.0])),
    ]
    # coefficients of knot 1 are zero so both predict the intercept
    knots[1] = PathKnot(1.0, np.array([0, 1], dtype=int), np.array([1.0, -1.0]))
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # coef (1,-1) cancels
    path = LassoPath(knots, 0.7, ["c0", "c1"], 3, 2)
    model, _ = select_knot(path, toy_matrix(X), np.array([0.7, 0.7, 0.7]))
    assert model.subset_size == 0
    assert model.coef == {}


def test_intercept_only_knot_predicts_training_mean():
    path = LassoPath([PathKnot(0.0, np.array([], dtype=int), np.array([]))], 5.5, ["c0"], 4, 1)
    model, resid = select_knot(path, toy_matrix(np.zeros((3, 1))), np.array([5.5, 6.5, 4.5]))
    assert model.intercept == 5.5
    assert np.allclose(resid, [0.0, 1.0, -1.0])


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
    for model, transform, weight in zip(ens.models, ens.transforms, ens.weights):
        X = apply_transform(design, transform)
        slow += weight * predict(model, X)
    assert np.max(np.abs(fast - slow)) <= 1e-10
    members = member_predictions(ens, design)
    assert np.max(np.abs(fast - ens.weights @ members)) <= 1e-12
    assert abs(ens.weights.sum() - 1.0) <= 1e-12


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
    for cid, count in freq.items():
        manual = sum(1 for m in ens.models if cid in m.coef)
        assert manual == count
    for size, count in sizes.items():
        assert count == sum(1 for m in ens.models if m.subset_size == size)


def test_worker_count_does_not_change_results():
    _, _, seq = fitted_toy_ensemble(workers=1)
    _, _, par = fitted_toy_ensemble(workers=3)
    assert len(seq.models) == len(par.models)
    for a, b in zip(seq.models, par.models):
        assert a.coef == b.coef
        assert a.validation_sse == b.validation_sse
        assert a.intercept == b.intercept
    assert np.array_equal(seq.weights, par.weights)


def test_each_model_owns_its_transform():
    _, design, ens = fitted_toy_ensemble()
    refs = {t.transform_id for t in ens.transforms}
    assert len(refs) > 1  # different training rows give different constants
    for model, transform in zip(ens.models, ens.transforms):
        assert model.transform_ref == transform.transform_id
