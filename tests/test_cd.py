"""Validation of the coordinate-descent reference solver.

This solver is the oracle other lasso results are checked against, so it is
pinned down first, against closed forms that need no solver at all.
"""

import numpy as np
import pytest
from _cd_oracle import cd_lasso, kkt_residuals, lasso_objective

from sitelasso.errors import DataError


def soft(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def centred_instance(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    X /= np.sqrt((X**2).sum(axis=0))
    y = rng.normal(size=n)
    y -= y.mean()
    return X, y


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.4, 2.0, 50.0])
def test_single_column_closed_form(lam):
    # One unit-norm column: b = S(x.y, lam/2).
    rng = np.random.default_rng(7)
    x = rng.normal(size=40)
    x -= x.mean()
    x /= np.sqrt((x**2).sum())
    y = rng.normal(size=40)
    y -= y.mean()
    beta = cd_lasso(x[:, None], y, lam)
    expected = soft(np.array([x @ y]), 0.5 * lam)
    assert np.allclose(beta, expected, atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0, 10.0])
def test_orthonormal_design_closed_form(lam):
    # Orthonormal columns decouple: b_j = S(x_j.y, lam/2).
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.normal(size=(30, 8)))
    y = rng.normal(size=30)
    beta = cd_lasso(Q, y, lam)
    assert np.allclose(beta, soft(Q.T @ y, 0.5 * lam), atol=1e-11)


def test_zero_penalty_matches_least_squares():
    X, y = centred_instance(3, 60, 6)
    beta = cd_lasso(X, y, 0.0)
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(beta, ols, atol=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_kkt_holds_at_solution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 45))
    p = int(rng.integers(2, 30))
    X, y = centred_instance(seed + 100, n, p)
    lam_max = 2.0 * np.abs(X.T @ y).max()
    for frac in (0.75, 0.3, 0.05):
        lam = frac * lam_max
        beta = cd_lasso(X, y, lam)
        act, inact = kkt_residuals(X, y, beta, lam)
        assert act <= 1e-9
        assert inact <= 1e-9


def test_objective_not_worse_than_competitors():
    X, y = centred_instance(21, 40, 10)
    lam = 0.3 * 2.0 * np.abs(X.T @ y).max()
    beta = cd_lasso(X, y, lam)
    best = lasso_objective(X, y, beta, lam)
    rng = np.random.default_rng(5)
    for _ in range(50):
        probe = beta + rng.normal(scale=1e-3, size=beta.shape)
        assert lasso_objective(X, y, probe, lam) >= best - 1e-10
    assert best <= lasso_objective(X, y, np.zeros_like(beta), lam) + 1e-12


def test_warm_start_reaches_same_solution():
    X, y = centred_instance(33, 50, 12)
    lam = 0.2 * 2.0 * np.abs(X.T @ y).max()
    cold = cd_lasso(X, y, lam)
    rng = np.random.default_rng(1)
    warm = cd_lasso(X, y, lam, beta_init=rng.normal(size=12))
    assert np.allclose(cold, warm, atol=1e-9)


def test_rejects_bad_inputs():
    X, y = centred_instance(2, 20, 3)
    with pytest.raises(DataError):
        cd_lasso(X, y, -1.0)
    Xz = X.copy()
    Xz[:, 1] = 0.0
    with pytest.raises(DataError):
        cd_lasso(Xz, y, 0.1)
    with pytest.raises(DataError):
        cd_lasso(X, y[:-1], 0.1)

