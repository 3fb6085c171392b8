"""Path-solver contract tests, including the dual-route check against
coordinate descent (the full 200-instance sweep lives in the acceptance
suite; this file keeps a faster version plus the corner cases)."""

import numpy as np
import pytest
from _cd_oracle import cd_lasso, kkt_residuals
from _lars_loop import gram_steps_loop, lar_steps_loop

from sitelasso.errors import CollinearTermsError, DataError
from sitelasso.lars import (
    LSQ_FLOOR,
    gram_system,
    lar_lasso_path,
    lockstep_paths,
    path_flags,
)


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
    assert path.coefs.shape == (2, 1)
    assert path.lambdas[0] == pytest.approx(2 * c, abs=1e-12)
    assert path.coefs[0, 0] == 0.0
    assert abs(path.lambdas[1]) <= 1e-12
    assert path.coefs[1, 0] == pytest.approx(c, abs=1e-12)


def test_zero_response_single_empty_knot():
    x = unit_column(1, 10)
    path = lar_lasso_path(x[:, None], np.zeros(10))
    assert path.coefs.shape == (1, 1)
    assert path.lambdas[0] == 0.0
    assert path.coefs[0, 0] == 0.0


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
    real = lars_mod.lockstep_paths

    def degenerate_after(n_keep):
        def stub(grams, xty, max_active, max_steps, on_knots):
            seen = []

            def first_knots(paths, lambdas, coefs):
                seen.append(lambdas[0])
                if len(seen) <= n_keep:
                    on_knots(paths, lambdas, coefs)

            real(grams, xty, max_active, max_steps, first_knots)
            return (
                np.array([lars_mod._DEGENERATE]),
                np.array([min(n_keep, len(seen))]),
                np.array([seen[min(n_keep, len(seen)) - 1]]),
            )

        return stub

    monkeypatch.setattr(lars_mod, "lockstep_paths", degenerate_after(2))
    path = lar_lasso_path(X, y)
    assert path.degenerate_stop
    assert not path.max_steps_reached
    assert len(path.lambdas) == 2
    assert path.lambdas[1] < path.lambdas[0]

    monkeypatch.setattr(lars_mod, "lockstep_paths", degenerate_after(1))
    with pytest.raises(CollinearTermsError, match="degenerate"):
        lar_lasso_path(X, y)


def least_squares_tail_instance():
    # two planted columns and a 1e-9 perturbation: the other four columns
    # enter at lambda / lambda_0 between 2e-9 and 2e-10, around LSQ_FLOOR
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 6))
    X -= X.mean(axis=0)
    X /= np.sqrt((X * X).sum(axis=0))
    y = X[:, :2] @ np.array([1.0, -0.5]) + 1e-9 * rng.normal(size=30)
    return X, y - y.mean()


def fail_step_after_knot(monkeypatch, last_knot):
    # the step that would follow knot ``last_knot`` gets a negative
    # equiangular denominator, as a rank-deficient active set gives
    import sitelasso.lars as lars_mod

    real = lars_mod._Lockstep.solve

    def solve(self):
        w, singular = real(self)
        return np.where((self.n_knots == last_knot + 1)[:, None], -w, w), singular

    monkeypatch.setattr(lars_mod._Lockstep, "solve", solve)


def test_a_path_that_degenerates_below_the_floor_ends_as_an_ordinary_end(
    monkeypatch, caplog
):
    X, y = least_squares_tail_instance()
    full = lar_lasso_path(X, y)
    ratio = full.lambdas / full.lambdas[0]
    assert ratio[2] > LSQ_FLOOR >= ratio[3] > 0.0
    fail_step_after_knot(monkeypatch, 3)
    path = lar_lasso_path(X, y)
    assert not path.degenerate_stop and not path.max_steps_reached
    assert caplog.text == ""
    # it ends at the same last knot, with every number as on the whole path
    assert np.array_equal(path.lambdas, full.lambdas[:4])
    assert np.array_equal(path.coefs, full.coefs[:4])
    act, inact = kkt_residuals(X, y, path.coefs[-1], path.lambdas[-1])
    assert act <= 1e-8 and inact <= 1e-8


def test_a_path_that_degenerates_just_above_the_floor_still_warns(monkeypatch, caplog):
    X, y = least_squares_tail_instance()
    full = lar_lasso_path(X, y)
    assert LSQ_FLOOR < full.lambdas[2] / full.lambdas[0] <= 2.0 * LSQ_FLOOR
    fail_step_after_knot(monkeypatch, 2)
    path = lar_lasso_path(X, y)
    assert path.degenerate_stop
    assert "degenerate after 3 knots" in caplog.text
    assert np.array_equal(path.lambdas, full.lambdas[:3])


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
        assert not path.coefs[0].any()
        lams = path.lambdas
        assert all(b < a for a, b in zip(lams, lams[1:]))
        assert lams[0] == pytest.approx(2 * np.abs(X.T @ y).max(), rel=1e-12)


def kkt_ok_at_every_knot(X, y, path, tol=1e-8):
    for k, (lam, beta) in enumerate(zip(path.lambdas, path.coefs)):
        act, inact = kkt_residuals(X, y, beta, lam)
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
    for k, (lam, beta) in enumerate(zip(path.lambdas, path.coefs)):
        warm = cd_lasso(X, y, lam, beta_init=warm)
        assert np.allclose(beta, warm, atol=1e-7), f"knot {k}"


def test_wide_problem_respects_active_cap():
    X, y = standardized_instance(77, 12, 300)
    path = lar_lasso_path(X, y)
    assert np.count_nonzero(path.coefs, axis=1).max() <= 11
    assert np.isfinite(path.coefs).all()


def test_sign_drops_occur_and_stay_consistent():
    # scan seeds for a path where a variable leaves the active set, then
    # check the lasso solution at that knot against coordinate descent
    found = False
    for seed in range(60):
        X, y = standardized_instance(seed + 7, 25, 12)
        path = lar_lasso_path(X, y)
        sets = [set(np.flatnonzero(beta).tolist()) for beta in path.coefs]
        for prev, cur, idx in zip(sets, sets[1:], range(1, len(sets))):
            gone = prev - cur
            if gone:
                found = True
                lam = path.lambdas[idx]
                oracle = cd_lasso(X, y, lam)
                assert np.allclose(path.coefs[idx], oracle, atol=1e-7)
                for j in gone:
                    assert path.coefs[idx, j] == 0.0
        if found:
            break
    assert found, "no sign drop in 60 seeded instances; tie tolerances suspect"


def test_exact_tie_enters_together():
    x1 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    x2 = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    y = x1 + x2
    path = lar_lasso_path(np.column_stack([x1, x2]), y)
    assert len(path.lambdas) == 2
    assert path.lambdas[0] == pytest.approx(2.0)
    assert path.coefs[1].all()
    assert np.allclose(path.coefs[1], [1.0, 1.0], atol=1e-12)


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
    assert len(path.lambdas) == 81
    sets = [set(np.flatnonzero(beta).tolist()) for beta in path.coefs]
    assert sum(bool(prev - cur) for prev, cur in zip(sets, sets[1:])) >= 10
    lams = path.lambdas
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert np.count_nonzero(path.coefs, axis=1).max() <= min(40 - 1, 60)
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
    assert np.flatnonzero(path.coefs[1]).tolist() == [1, 2, 3, 4]


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


def loop_tail_start(X, y, lambdas, knots):
    """First knot of the loop's ill-conditioned tail (its length if none).

    The tail starts at the first knot whose active columns, together with
    the columns tied with them at the top correlation, have a Gram matrix
    with condition number above 1e10 (a column repeating an active one is
    always tied with it). From there on rounding, not the data, picks the
    path, so two factorizations may part ways.
    """
    for k, row in enumerate(knots):
        corr = np.abs(X.T @ (y - X @ row))
        tied = row != 0.0
        if lambdas[k] > 0.0:  # at lambda 0 every column is trivially "tied"
            tied |= corr >= 0.5 * lambdas[k] * (1.0 - 1e-9)
        tied = np.flatnonzero(tied)
        if k and np.linalg.cond(X[:, tied].T @ X[:, tied]) > 1e10:
            return k
    return len(knots)


LOOP_CASES = (
    [standardized_instance(seed + 300, 6 + 4 * seed, 3 + 9 * seed) + (None,) for seed in range(6)]
    # seeds, as the column-form lar_steps_loop sees them: singular Gram, sign
    # drops, tied entry with drops, tied entry, degenerate stop after drops,
    # degenerate stop; in covariance form (gram_steps_loop and the kernel)
    # they end with statuses 4, 0, 4, 4, 0, 4, so none stops degenerate there
    + [tied_instance(seed) + (None,) for seed in (0, 5, 38, 44, 55, 346)]
    + [standardized_instance(188, 40, 60) + (80,)]
)

# tied seeds whose covariance-form paths end with a degenerate stop (status 3,
# after 24, 6 and 12 knots); lar_steps_loop raises LinAlgError on all three,
# so only the bit-for-bit test takes them
DEGENERATE_CASES = [tied_instance(seed) + (None,) for seed in (115, 139, 334)]


@pytest.mark.parametrize("X, y, max_steps", LOOP_CASES + DEGENERATE_CASES)
def test_kernel_reproduces_the_scalar_loop_bit_for_bit(X, y, max_steps):
    n, p = X.shape
    max_steps = max_steps or 8 * min(n, p)
    G, xty = gram_system(X, y)
    lambdas, coefs, n_knots, status = gram_steps_loop(G, xty, 1e-12, min(n - 1, p), max_steps)
    knots = []
    ends = lockstep_paths(G[None], xty[None], [min(n - 1, p)], [max_steps],
                          lambda paths, lam, beta: knots.append((lam[0], beta[0].copy())))
    assert (int(ends[0][0]), int(ends[1][0])) == (status, n_knots) == (status, len(knots))
    assert ends[2][0] == lambdas[n_knots - 1]
    assert np.array_equal([lam for lam, _ in knots], lambdas[:n_knots])
    assert np.array_equal([beta for _, beta in knots], coefs[:n_knots])
    # lar_lasso_path keeps the same rows, wherever its path is not refused
    try:
        path_flags(status, n_knots, lambdas[n_knots - 1])
    except CollinearTermsError:
        with pytest.raises(CollinearTermsError):
            lar_lasso_path(X, y, max_steps=max_steps)
        return
    path = lar_lasso_path(X, y, max_steps=max_steps)
    assert np.array_equal(path.lambdas, lambdas[:n_knots])
    assert np.array_equal(path.coefs, coefs[:n_knots])


@pytest.mark.parametrize("X, y, max_steps", LOOP_CASES)
def test_kernel_matches_the_scalar_loop_before_the_ill_conditioned_tail(X, y, max_steps):
    # the loop builds each step's Gram from the active columns; the kernel
    # reads it from X'X, so the two agree to rounding, not to the bit
    n, p = X.shape
    max_steps = max_steps or 8 * min(n, p)
    corr_tol = 1e-12 * np.abs(y @ X).max()  # the kernel's relative tolerance
    try:
        lambdas, coefs, n_knots, status = lar_steps_loop(X, y, corr_tol, min(n - 1, p), max_steps)
    except np.linalg.LinAlgError:
        with pytest.raises(CollinearTermsError):
            lar_lasso_path(X, y, max_steps=max_steps)
        return
    tail = loop_tail_start(X, y, lambdas, coefs[:n_knots])
    assert tail >= min(n_knots, 5)  # each case keeps its first knots out of the tail
    G, xty = gram_system(X, y)
    knots = []
    lockstep_paths(G[None], xty[None], [min(n - 1, p)], [max_steps],
                   lambda paths, lam, beta: knots.append((lam[0], beta[0].copy())))
    assert len(knots) >= tail
    for k, (lam, beta) in enumerate(knots[:tail]):
        assert abs(lam - lambdas[k]) <= 1e-9
        assert np.abs(beta - coefs[k]).max() <= 1e-9
    if tail == n_knots:
        path = lar_lasso_path(X, y, max_steps=max_steps)
        assert len(path.lambdas) == n_knots
        assert (path.max_steps_reached, path.degenerate_stop) == (status == 1, status == 3)


def splits_of_one_dataset(n_paths, seed):
    """Standardized training subsets of one tied, partly collinear dataset."""
    rng = np.random.default_rng(seed)
    n, p = 40, 30
    raw = rng.integers(-2, 3, size=(n, p)).astype(float)
    raw[:, 7] = raw[:, 3]  # a repeated column: paths that admit both stop
    response = raw[:, :6].sum(axis=1) + rng.normal(size=n)
    for _ in range(n_paths):
        rows = np.sort(rng.choice(n, size=int(rng.integers(12, 36)), replace=False))
        X = raw[rows] - raw[rows].mean(axis=0)
        X /= np.maximum(np.sqrt((X**2).sum(axis=0)), 1.0)
        y = response[rows] - response[rows].mean()
        yield X, y


def test_a_path_alone_equals_the_same_path_in_a_batch():
    paths = list(splits_of_one_dataset(40, seed=1))
    grams, xty = zip(*(gram_system(X, y) for X, y in paths))
    max_active = [min(X.shape[0] - 1, X.shape[1]) for X, _ in paths]
    # every fifth path gets a step cap short enough to bind
    max_steps = [6 if i % 5 == 0 else 8 * min(X.shape) for i, (X, _) in enumerate(paths)]

    def trace(indices):
        knots = {i: [] for i in indices}

        def keep(batch_paths, lambdas, coefs):
            for j, lam, row in zip(batch_paths, lambdas, coefs):
                knots[indices[j]].append((lam, row.copy()))

        ends = lockstep_paths(
            np.stack([grams[i] for i in indices]), np.stack([xty[i] for i in indices]),
            [max_active[i] for i in indices], [max_steps[i] for i in indices], keep,
        )
        return knots, {i: end for i, end in zip(indices, zip(*ends))}

    batch_knots, batch_ends = trace(list(range(40)))
    statuses = {int(end[0]) for end in batch_ends.values()}
    assert statuses == {0, 1, 3, 4}  # ended, step-capped, degenerate, singular
    for i in range(40):
        alone_knots, alone_ends = trace([i])
        assert alone_ends[i] == batch_ends[i]
        assert len(alone_knots[i]) == len(batch_knots[i])
        for (lam_a, row_a), (lam_b, row_b) in zip(alone_knots[i], batch_knots[i]):
            assert lam_a == lam_b and np.array_equal(row_a, row_b)


def test_path_flags_raise_only_for_paths_that_fitted_nothing(caplog):
    assert path_flags(1, 7, 0.5) == (True, False)
    assert path_flags(3, 7, 0.5) == (False, True)
    assert "degenerate after 7 knots" in caplog.text
    with pytest.raises(CollinearTermsError, match="degenerate"):
        path_flags(3, 1, 2.0)
    with pytest.raises(CollinearTermsError, match="singular"):
        path_flags(4, 5, 0.5)
