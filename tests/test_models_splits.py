import json

import numpy as np
import pytest
from _spec_route import predict

from sitelasso.artifacts import write_json
from sitelasso.errors import ConfigError, DataError, NumericalError
from sitelasso.models import fit_metrics
from sitelasso.pointdata import PointDataset
from sitelasso.splits import make_splits, plan_to_dict
from sitelasso.standardize import StandardizationTransform
from sitelasso.terms import TermSpec


def identity_transform(ids):
    """A transform of columns ``ids`` with mean 0 and norm 1: rows pass unchanged."""
    p = len(ids)
    terms = [TermSpec("poly", i, 1) for i in ids]
    return StandardizationTransform(terms, np.zeros(p), np.ones(p), np.zeros(p, bool), 2)


def test_predict_uses_named_columns():
    transform = identity_transform(["a", "b"])
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    member = (0.5, {"b": 2.0}, transform.transform_id)
    assert np.allclose(predict(member, transform, X), [4.5, 8.5])


def test_predict_transform_mismatch_and_missing_column():
    transform = identity_transform(["a"])
    X = np.ones((3, 1))
    wrong_ref = (0.0, {"a": 1.0}, "xf-other")
    expected = f"built with transform '{transform.transform_id}', member expects 'xf-other'"
    with pytest.raises(DataError, match=expected):
        predict(wrong_ref, transform, X)
    missing = (0.0, {"zz": 1.0}, transform.transform_id)
    with pytest.raises(DataError, match="zz"):
        predict(missing, transform, X)
    with pytest.raises(DataError, match="width"):
        predict((0.0, {"a": 1.0}, transform.transform_id), transform, np.ones((3, 2)))


def test_intercept_only_model_predicts_constant():
    transform = identity_transform(["a", "b"])
    X = np.random.default_rng(0).normal(size=(6, 2))
    member = (3.25, {}, transform.transform_id)
    assert np.array_equal(predict(member, transform, X), np.full(6, 3.25))


def test_fit_metrics_known_values():
    obs = np.array([1.0, 2.0, 3.0, 4.0])
    pred = np.array([1.0, 2.0, 3.0, 4.0])
    perfect = fit_metrics(obs, pred)
    assert perfect.r2 == 1.0 and perfect.rmse == 0.0 and perfect.n == 4
    mean_pred = np.full(4, obs.mean())
    assert fit_metrics(obs, mean_pred).r2 == pytest.approx(0.0)
    worse = fit_metrics(obs, obs[::-1])
    assert worse.r2 < 0
    assert worse.rmse == pytest.approx(np.sqrt(np.mean((obs - obs[::-1]) ** 2)))


def test_fit_metrics_errors():
    with pytest.raises(NumericalError, match="constant"):
        fit_metrics(np.ones(5), np.zeros(5))
    with pytest.raises(DataError):
        fit_metrics(np.arange(3.0), np.arange(4.0))
    with pytest.raises(DataError):
        fit_metrics(np.array([1.0]), np.array([1.0]))


def two_site_points(n_a=9, n_b=7, seed=0):
    rng = np.random.default_rng(seed)
    n = n_a + n_b
    return PointDataset(
        np.array(["A"] * n_a + ["B"] * n_b, dtype=object),
        rng.uniform(size=n),
        rng.uniform(size=n),
        rng.normal(size=n),
        ["c0"],
        rng.normal(size=(n, 1)),
    )


def test_splits_are_unique_and_respect_quotas():
    data = two_site_points()
    plan = make_splits(data, {"A": 5, "B": 4}, n_splits=30, seed=3)
    for site, quota, size in (("A", 5, 9), ("B", 4, 7)):
        sp = plan.site_plans[site]
        seen = set()
        rows = set(data.site_rows(site).tolist())
        for tr, va in zip(sp.train, sp.validation):
            assert len(tr) == quota
            assert len(va) == size - quota
            assert set(tr.tolist()) | set(va.tolist()) == rows
            assert not set(tr.tolist()) & set(va.tolist())
            seen.add(tuple(tr.tolist()))
        assert len(seen) == 30


def test_combined_split_is_the_union():
    data = two_site_points()
    plan = make_splits(data, {"A": 5, "B": 4}, n_splits=10, seed=1)
    tr, va = plan.combined_split(4)
    tr_a, va_a = plan.site_split("A", 4)
    tr_b, va_b = plan.site_split("B", 4)
    assert set(tr.tolist()) == set(tr_a.tolist()) | set(tr_b.tolist())
    assert set(va.tolist()) == set(va_a.tolist()) | set(va_b.tolist())


def test_splits_deterministic_and_seed_sensitive():
    data = two_site_points()
    p1 = make_splits(data, {"A": 5, "B": 4}, n_splits=20, seed=9)
    p2 = make_splits(data, {"A": 5, "B": 4}, n_splits=20, seed=9)
    p3 = make_splits(data, {"A": 5, "B": 4}, n_splits=20, seed=10)
    same = all(
        np.array_equal(a, b)
        for s in ("A", "B")
        for a, b in zip(p1.site_plans[s].train, p2.site_plans[s].train)
    )
    assert same
    differs = any(
        not np.array_equal(a, b)
        for s in ("A", "B")
        for a, b in zip(p1.site_plans[s].train, p3.site_plans[s].train)
    )
    assert differs


def test_split_feasibility_bound():
    data = two_site_points(n_a=5, n_b=5)
    with pytest.raises(ConfigError, match="10 distinct"):
        make_splits(data, {"A": 2, "B": 2}, n_splits=11)
    with pytest.raises(ConfigError):
        make_splits(data, {"A": 5, "B": 2}, n_splits=2)
    with pytest.raises(ConfigError):
        make_splits(data, {"A": 2}, n_splits=2)


def test_plan_round_trips_through_dict(tmp_path):
    # splits.json is an output only: the written JSON must hold the plan exactly
    data = two_site_points()
    plan = make_splits(data, {"A": 5, "B": 4}, n_splits=8, seed=2)
    path = tmp_path / "splits.json"
    write_json(path, plan_to_dict(plan))
    with open(path, encoding="utf-8") as handle:
        back = json.load(handle)
    assert (back["seed"], back["n_splits"]) == (plan.seed, plan.n_splits)
    assert sorted(back["sites"]) == plan.sites
    for site, sp in plan.site_plans.items():
        body = back["sites"][site]
        assert body["quota"] == sp.quota
        assert body["train"] == [arr.tolist() for arr in sp.train]
        assert body["validation"] == [arr.tolist() for arr in sp.validation]
