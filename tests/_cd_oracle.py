"""Cyclic coordinate descent for the lasso, the tests' reference solver.

Minimizes  sum_i (y_i - sum_j X_ij b_j)^2 + lam * sum_j |b_j|  for a fixed
lam, the same parametrization the path solver emits knots in (so a path knot
at lambda should reproduce coordinate descent run at that lambda). Kept
deliberately independent of the path solver: different algorithm, different
code, shared only by the objective.

Between full sweeps the solver cycles over the non-zero coefficients only
(Friedman, Hastie & Tibshirani, "Regularization Paths for Generalized Linear
Models via Coordinate Descent", JSS 33(1), 2010, section 2.6), a whole sweep
at a time in matrix form, so a slowly converging active set costs a few numpy
calls per sweep instead of one per coordinate.
"""

import numpy as np

from sitelasso.errors import DataError, NumericalError


def _cd_sweep(X, col_sq, y, half, beta):
    # One full cyclic sweep over every coordinate in index order, updating
    # beta in place. Returns the largest coefficient move.
    r = y - X @ beta
    worst = 0.0
    for j in range(X.shape[1]):
        old = beta[j]
        z = X[:, j] @ r + col_sq[j] * old
        if z > half:
            new = (z - half) / col_sq[j]
        elif z < -half:
            new = (z + half) / col_sq[j]
        else:
            new = 0.0
        step = new - old
        if step != 0.0:
            r -= X[:, j] * step
            beta[j] = new
        mag = abs(step)
        if mag > worst:
            worst = mag
    return worst


def _active_sweeps(gram, xty, half, beta, active, max_sweeps, tol):
    # Cyclic sweeps over the active coordinates in index order, with every
    # other coefficient at zero. While no active coefficient reaches zero or
    # changes sign, one such sweep is the Gauss-Seidel step
    #   beta_A += T^-1 (xty_A - half * s - G_AA beta_A)
    # with T the lower triangle of G_AA, diagonal included. A sweep that would
    # move a coefficient onto or through zero is not taken: the soft
    # threshold bites there, and the next full scalar sweep handles it.
    # Returns the number of sweeps taken; beta is updated in place.
    g = gram[np.ix_(active, active)]
    t_inv = np.linalg.inv(np.tril(g))
    s = np.sign(beta[active])
    rhs = xty[active] - half * s
    b = beta[active]
    taken = 0
    while taken < max_sweeps:
        step = t_inv @ (rhs - g @ b)
        new = b + step
        if (new * s).min() <= 0.0:
            break
        b = new
        taken += 1
        if np.abs(step).max() < tol:
            break
    beta[active] = b
    return taken


def cd_lasso(X, y, lam, beta_init=None, max_sweeps=200_000, tol=1e-12):
    """Solve the lasso at one penalty value by cyclic coordinate descent.

    Parameters
    ----------
    X : (n, p) array
        Design matrix. Columns need not be standardized, only non-zero.
    y : (n,) array
        Response; center it yourself if an intercept is wanted.
    lam : float
        Non-negative penalty weight on sum |b_j|.
    beta_init : (p,) array, optional
        Warm start; zeros by default.
    max_sweeps : int
        Full and active-set sweeps together; NumericalError beyond it.
    tol : float
        Convergence when no coefficient moves more than this in a full sweep.

    Returns
    -------
    (p,) coefficient array.
    """
    # column-major so the per-coordinate column reads are contiguous
    X = np.asfortranarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DataError("X must be (n, p) with y of length n")
    if lam < 0:
        raise DataError(f"penalty must be non-negative, got {lam}")
    col_sq = (X**2).sum(axis=0)
    if np.any(col_sq == 0.0):
        raise DataError("coordinate descent requires non-zero columns")
    beta = (
        np.zeros(X.shape[1])
        if beta_init is None
        else np.array(beta_init, dtype=np.float64, copy=True)
    )
    # converged means one full sweep over every coordinate moves nothing by
    # more than tol; between full sweeps, cycle over the active set alone
    gram = X.T @ X
    xty = X.T @ y
    half = 0.5 * float(lam)
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        if _cd_sweep(X, col_sq, y, half, beta) < tol:
            return beta
        active = np.flatnonzero(beta)
        if active.size:
            sweeps += _active_sweeps(
                gram, xty, half, beta, active, max_sweeps - sweeps, float(tol)
            )
    raise NumericalError(f"coordinate descent did not converge in {max_sweeps} sweeps")


def lasso_objective(X, y, beta, lam):
    """RSS plus lam times the L1 norm; the quantity both solvers minimize."""
    r = y - X @ beta
    return float(r @ r + lam * np.abs(beta).sum())


def kkt_residuals(X, y, beta, lam, zero_tol=0.0):
    """Stationarity violations at (beta, lam).

    For the objective above, optimality means |x_j.r| = lam/2 with matching
    sign where b_j is non-zero, and |x_j.r| <= lam/2 where b_j is zero.

    Returns
    -------
    (active_violation, inactive_violation) as max absolute excesses; both
    are 0 for an exact solution.
    """
    r = y - X @ beta
    corr = X.T @ r
    half = 0.5 * lam
    active = np.abs(beta) > zero_tol
    act_viol = 0.0
    if active.any():
        mag = np.abs(np.abs(corr[active]) - half)
        sign_bad = np.sign(corr[active]) != np.sign(beta[active])
        act_viol = float(mag.max())
        if sign_bad.any():
            # a sign mismatch is as bad as the full correlation magnitude
            act_viol = max(act_viol, float(np.abs(corr[active][sign_bad]).max()))
    inact_viol = 0.0
    if (~active).any():
        inact_viol = float(max(0.0, (np.abs(corr[~active]) - half).max()))
    return act_viol, inact_viol
