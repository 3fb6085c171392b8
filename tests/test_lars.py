"""Path-solver contract tests, including the dual-route check against
coordinate descent (the full 200-instance sweep lives in the acceptance
suite; this file keeps a faster version plus the corner cases)."""

import numpy as np
import pytest
from _lars_loop import lar_steps_loop

from sitelasso.cd import cd_lasso, kkt_residuals
from sitelasso.errors import CollinearTermsError, DataError
from sitelasso.lars import _lar_steps, lar_lasso_path


def standardized_instance(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    X /= np.sqrt((X**2).sum(axis=0))
    y = rng.normal(size=n)
    y -= y.mean()
    return X, y


def unit_column(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x -= x.mean()
    x /= np.sqrt((x**2).sum())
    return x


def test_single_column_two_knots():
    x = unit_column(0, 12)
    c = 1.7
    path = lar_lasso_path(x[:, None], c * x)
    assert len(path) == 2
    assert path.knots[0].lam == pytest.approx(2 * c, abs=1e-12)
    assert path.knots[0].subset_size == 0
    assert abs(path.knots[1].lam) <= 1e-12
    assert path.knots[1].subset_size == 1
    assert path.knots[1].coefs[0] == pytest.approx(c, abs=1e-12)


def test_zero_response_single_empty_knot():
    x = unit_column(1, 10)
    path = lar_lasso_path(x[:, None], np.zeros(10))
    assert len(path) == 1
    assert path.knots[0].lam == 0.0
    assert path.knots[0].subset_size == 0


def test_duplicate_columns_raise():
    x = unit_column(2, 15)
    X = np.column_stack([x, x])
    with pytest.raises(CollinearTermsError):
        lar_lasso_path(X, x * 0.9 + unit_column(3, 15) * 0.1)


def test_mid_path_degeneracy_truncates_instead_of_aborting(monkeypatch):
    # The kernel reports degenerate active-set geometry via its status code.
    # With at least one completed movement step the path must end at the last
    # good knot (every emitted knot is a valid solution); with none it must
    # raise, since nothing was fitted. Stub the kernel to pin both branches.
    import sitelasso.lars as lars_mod

    X, y = standardized_instance(11, 12, 3)
    real = _lar_steps(X, y, 1e-12, 3, 50)

    def degenerate_after(n_keep):
        lambdas, coefs, n_knots, _ = real
        return lambda *a: (lambdas, coefs, min(n_keep, n_knots), lars_mod._DEGENERATE)

    monkeypatch.setattr(lars_mod, "_lar_steps", degenerate_after(2))
    path = lar_lasso_path(X, y)
    assert path.degenerate_stop
    assert not path.max_steps_reached
    assert len(path) == 2
    assert path.knots[1].lam < path.knots[0].lam

    monkeypatch.setattr(lars_mod, "_lar_steps", degenerate_after(1))
    with pytest.raises(CollinearTermsError, match="degenerate"):
        lar_lasso_path(X, y)


def test_rejects_unstandardized_and_uncentred():
    X, y = standardized_instance(4, 20, 5)
    bad = X.copy()
    bad[:, 2] *= 3.0
    with pytest.raises(DataError, match="x2"):
        lar_lasso_path(bad, y)
    shifted = X + 0.5
    with pytest.raises(DataError):
        lar_lasso_path(shifted, y)
    with pytest.raises(DataError):
        lar_lasso_path(X, y + 1.0)


def test_first_knot_empty_lambdas_decrease():
    for seed in range(8):
        n = 10 + seed
        X, y = standardized_instance(seed, n, 2 + 3 * seed)
        path = lar_lasso_path(X, y)
        assert path.knots[0].subset_size == 0
        lams = [k.lam for k in path.knots]
        assert all(b < a for a, b in zip(lams, lams[1:]))
        assert lams[0] == pytest.approx(2 * np.abs(X.T @ y).max(), rel=1e-12)


def kkt_ok_at_every_knot(X, y, path, tol=1e-8):
    for k in range(len(path)):
        beta = path.coef_vector(k)
        act, inact = kkt_residuals(X, y, beta, path.knots[k].lam)
        assert act <= tol, f"knot {k}: active violation {act}"
        assert inact <= tol, f"knot {k}: inactive violation {inact}"


@pytest.mark.parametrize("seed", range(15))
def test_kkt_at_every_knot(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 30))
    p = int(rng.integers(2, 40))
    X, y = standardized_instance(seed + 50, n, p)
    path = lar_lasso_path(X, y)
    kkt_ok_at_every_knot(X, y, path)


@pytest.mark.parametrize("seed", range(10))
def test_agrees_with_coordinate_descent(seed):
    rng = np.random.default_rng(seed + 1000)
    n = int(rng.integers(10, 30))
    p = int(rng.integers(2, 25))
    X, y = standardized_instance(seed + 2000, n, p)
    path = lar_lasso_path(X, y)
    warm = np.zeros(p)
    for k in range(len(path)):
        lam = path.knots[k].lam
        warm = cd_lasso(X, y, lam, beta_init=warm)
        assert np.allclose(path.coef_vector(k), warm, atol=1e-7), f"knot {k}"


def test_wide_problem_respects_active_cap():
    X, y = standardized_instance(77, 12, 300)
    path = lar_lasso_path(X, y)
    for knot in path.knots:
        assert knot.subset_size <= 11
        assert np.isfinite(knot.coefs).all()


def test_sign_drops_occur_and_stay_consistent():
    # scan seeds for a path where a variable leaves the active set, then
    # check the lasso solution at that knot against coordinate descent
    found = False
    for seed in range(60):
        X, y = standardized_instance(seed + 7, 25, 12)
        path = lar_lasso_path(X, y)
        sets = [set(k.active.tolist()) for k in path.knots]
        for prev, cur, idx in zip(sets, sets[1:], range(1, len(sets))):
            gone = prev - cur
            if gone:
                found = True
                lam = path.knots[idx].lam
                oracle = cd_lasso(X, y, lam)
                assert np.allclose(path.coef_vector(idx), oracle, atol=1e-7)
                for j in gone:
                    assert path.coef_vector(idx)[j] == 0.0
        if found:
            break
    assert found, "no sign drop in 60 seeded instances; tie tolerances suspect"


def test_exact_tie_enters_together():
    x1 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    x2 = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    y = x1 + x2
    path = lar_lasso_path(np.column_stack([x1, x2]), y)
    assert len(path) == 2
    assert path.knots[0].lam == pytest.approx(2.0)
    assert set(path.knots[1].active.tolist()) == {0, 1}
    assert np.allclose(path.knots[1].coefs, [1.0, 1.0], atol=1e-12)


def test_intercept_is_carried():
    X, y = standardized_instance(5, 18, 4)
    path = lar_lasso_path(X, y, intercept=3.25)
    assert path.intercept == 3.25


def test_sign_drops_under_a_binding_step_cap_keep_every_knot_optimal():
    # n close to p: this instance drops columns at 22 knots before the cap of
    # 80 steps cuts the path, so every drop and re-entry must leave the
    # active bookkeeping consistent with the coefficients
    X, y = standardized_instance(188, 40, 60)
    path = lar_lasso_path(X, y, max_steps=80)
    assert path.max_steps_reached
    assert len(path) == 81
    sets = [set(k.active.tolist()) for k in path.knots]
    assert sum(bool(prev - cur) for prev, cur in zip(sets, sets[1:])) >= 10
    lams = [k.lam for k in path.knots]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert max(k.subset_size for k in path.knots) <= min(40 - 1, 60)
    kkt_ok_at_every_knot(X, y, path)


def test_ties_beyond_the_free_slots_admit_the_lowest_indices():
    # six columns share the top correlation with y exactly, but five rows
    # leave room for four active columns: the first four of the six enter
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(np.column_stack([np.ones(5), rng.normal(size=(5, 4))]))[0]
    basis = basis[:, 1:]  # orthonormal, orthogonal to the constant
    w = rng.normal(size=(3, 6))
    w /= np.sqrt((w**2).sum(axis=0))
    t = 0.6
    tied = basis @ np.vstack([np.full(6, t), np.sqrt(1.0 - t * t) * w])
    weaker = basis @ np.array([0.3, np.sqrt(1.0 - 0.09), 0.0, 0.0])
    X = np.column_stack([weaker, tied])
    y = 2.0 * basis[:, 0]
    corr = np.abs(X.T @ y)
    assert np.ptp(corr[1:]) <= 1e-14 * corr.max() and corr[0] < corr[1]
    path = lar_lasso_path(X, y)
    assert path.knots[1].active.tolist() == [1, 2, 3, 4]


def tied_instance(seed):
    # small-integer entries give exact correlation ties; the last column
    # repeats the first, so some paths meet collinear or degenerate geometry
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(4, 30)), int(rng.integers(2, 60))
    X = rng.integers(-2, 3, size=(n, p)).astype(float)
    X[:, -1] = X[:, 0]
    X -= X.mean(axis=0)
    X /= np.maximum(np.sqrt((X**2).sum(axis=0)), 1.0)
    y = X[:, : max(1, p // 3)].sum(axis=1) if seed % 2 else rng.integers(-3, 4, size=n)
    return X, y - y.mean()


@pytest.mark.parametrize(
    "X, y, max_steps",
    [standardized_instance(seed + 300, 6 + 4 * seed, 3 + 9 * seed) + (None,) for seed in range(6)]
    # seeds: singular Gram, sign drops, tied entry with drops, tied entry,
    # degenerate stop after drops, degenerate stop
    + [tied_instance(seed) + (None,) for seed in (0, 5, 38, 44, 55, 346)]
    + [standardized_instance(188, 40, 60) + (80,)],
)
def test_kernel_reproduces_the_scalar_loop_bit_for_bit(X, y, max_steps):
    n, p = X.shape
    args = (X, y, 1e-12, min(n - 1, p), max_steps or 8 * min(n, p))
    try:
        expected = lar_steps_loop(*args)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _lar_steps(*args)
        return
    lambdas, coefs, n_knots, status = _lar_steps(*args)
    assert (n_knots, status) == expected[2:]
    assert np.array_equal(lambdas, expected[0])
    assert np.array_equal(coefs, expected[1])
