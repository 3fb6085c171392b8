"""Scalar-loop references for the path solver's kernel.

``lar_steps_loop`` traces one path one column at a time, in plain Python
loops, rebuilding each step's active Gram matrix from the active columns.
The covariance-form kernel (``sitelasso.lars.lockstep_paths``) reads that
matrix from X'X instead, so the two agree to rounding: the tests require
1e-9 on every knot before the path's ill-conditioned tail. ``corr_tol`` is
absolute here; pass the kernel's relative tolerance times max |X'y|.

``gram_steps_loop`` performs the floating-point operations of one path of
``sitelasso.lars.lockstep_paths`` one column at a time: the same X'X entries
in the same entry order, the same solve, product and sum calls, and the
scans and updates in plain Python. The kernel must reproduce it bit for bit,
so a change that reorders or fuses the arithmetic of a scan shows up as a
test failure.
"""

import numpy as np

from sitelasso.lars import (
    _ACTIVE_CAP,
    _DEGENERATE,
    _GAMMA_EPS_RTOL,
    _OK,
    _SINGULAR,
    _STEP_CAP,
    _TIE_RTOL,
)


def lar_steps_loop(X, y, corr_tol, max_active, max_steps):
    n, p = X.shape
    max_knots = max_steps + 2
    lambdas = np.zeros(max_knots)
    coefs = np.zeros((max_knots, p))
    beta = np.zeros(p)
    in_active = np.zeros(p, dtype=np.bool_)
    active = np.empty(p, dtype=np.int64)
    n_act = 0
    c = y @ X
    biggest = np.max(np.abs(c))
    lambdas[0] = 2.0 * biggest
    n_knots = 1
    status = _OK
    if biggest < corr_tol:
        lambdas[0] = 0.0
        return lambdas, coefs, n_knots, status
    just_dropped = False
    steps = 0
    while True:
        if steps >= max_steps:
            status = _STEP_CAP
            break
        steps += 1
        if not just_dropped:
            # admit every column tied at the top correlation, lowest index first
            tie_floor = biggest - max(biggest * _TIE_RTOL, 1e-300)
            for j in range(p):
                if n_act >= max_active:
                    break
                if not in_active[j] and abs(c[j]) >= tie_floor:
                    in_active[j] = True
                    active[n_act] = j
                    n_act += 1
        just_dropped = False
        k = n_act
        Xa = np.empty((n, k))
        s = np.empty(k)
        for t in range(k):
            Xa[:, t] = X[:, active[t]]
            s[t] = 1.0 if c[active[t]] >= 0.0 else -1.0
        gram = np.ascontiguousarray(Xa.T) @ Xa
        w = np.linalg.solve(gram, s)
        denom = s @ w
        ok = denom > 0.0
        for t in range(k):
            if not np.isfinite(w[t]):
                ok = False
        if not ok:
            status = _DEGENERATE
            break
        equi_norm = 1.0 / np.sqrt(denom)  # correlation decay rate along the move
        direction = equi_norm * w  # coefficient velocity of active columns
        u = Xa @ direction
        a = u @ X
        gamma_total = biggest / equi_norm
        gamma_eps = gamma_total * _GAMMA_EPS_RTOL
        gamma = gamma_total
        if n_act < max_active:
            for j in range(p):
                if in_active[j]:
                    continue
                d1 = equi_norm - a[j]
                if d1 > 0.0:
                    cand = (biggest - c[j]) / d1
                    if gamma_eps < cand < gamma:
                        gamma = cand
                d2 = equi_norm + a[j]
                if d2 > 0.0:
                    cand = (biggest + c[j]) / d2
                    if gamma_eps < cand < gamma:
                        gamma = cand
        # zero-crossing candidates from the pre-move coefficients; the same
        # values classify the removals after the move (re-deriving them from
        # updated coefficients would reintroduce rounding)
        sentinel = gamma_total * 4.0
        cross = np.full(k, sentinel)
        gamma_drop = sentinel
        for t in range(k):
            if direction[t] != 0.0:
                cand = -beta[active[t]] / direction[t]
                if gamma_eps < cand:
                    cross[t] = cand
                    if cand < gamma_drop:
                        gamma_drop = cand
        dropping = gamma_drop <= gamma
        if dropping:
            gamma = gamma_drop
        took_total = (not dropping) and gamma == gamma_total
        for j in range(p):
            c[j] -= gamma * a[j]
        if took_total:
            biggest = 0.0
        else:
            biggest = max(biggest - gamma * equi_norm, 0.0)
        # pin the active columns to the shared level the move puts them at;
        # this keeps the tie comparison exact for a column that just caught up
        for t in range(k):
            c[active[t]] = s[t] * biggest
        for t in range(k):
            beta[active[t]] += gamma * direction[t]
        if dropping:
            drop_ceiling = gamma * (1.0 + _TIE_RTOL)
            kept = 0
            for t in range(k):
                j = active[t]
                if cross[t] <= drop_ceiling:
                    beta[j] = 0.0
                    in_active[j] = False
                else:
                    active[kept] = j
                    kept += 1
            n_act = kept
            just_dropped = True
        if biggest < corr_tol:
            biggest = 0.0
        lambdas[n_knots] = 2.0 * biggest
        coefs[n_knots] = beta
        n_knots += 1
        if biggest <= 0.0:
            break
        if n_act >= max_active and not just_dropped:
            status = _ACTIVE_CAP
            break
    return lambdas, coefs, n_knots, status


def gram_steps_loop(G, xty, corr_tol, max_active, max_steps):
    """One path from X'X and X'y; ``corr_tol`` is relative to max |X'y|.

    Returns ``(lambdas, coefs, n_knots, status)`` like ``lar_steps_loop``;
    an exactly singular active Gram ends the path with ``_SINGULAR``.
    """
    p = xty.shape[0]
    max_knots = max_steps + 2
    lambdas = np.zeros(max_knots)
    coefs = np.zeros((max_knots, p))
    beta = np.zeros(p)
    signs = np.zeros(p)  # 0 where inactive
    active = []  # entry order; a dropped column's place goes to the last one
    c = np.array(xty, dtype=np.float64)
    biggest = max(abs(float(v)) for v in c)
    tol = corr_tol * biggest
    lambdas[0] = 2.0 * biggest
    n_knots = 1
    if biggest <= 0.0:
        return lambdas, coefs, n_knots, _OK
    just_dropped = False
    steps = 0
    while True:
        if steps >= max_steps:
            return lambdas, coefs, n_knots, _STEP_CAP
        steps += 1
        if not just_dropped:
            tie_floor = biggest - max(biggest * _TIE_RTOL, 1e-300)
            for j in range(p):
                if len(active) >= max_active:
                    break
                if signs[j] == 0.0 and abs(c[j]) >= tie_floor:
                    signs[j] = 1.0 if c[j] >= 0.0 else -1.0
                    active.append(j)
        k = len(active)
        gram = np.empty((k, k))
        for r in range(k):
            for t in range(k):
                gram[r, t] = G[active[r], active[t]]
        rhs = np.array([signs[j] for j in active])
        try:
            sol = np.linalg.solve(gram[None], rhs[None, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            return lambdas, coefs, n_knots, _SINGULAR
        w = np.zeros(p)
        for t in range(k):
            w[active[t]] = sol[t]
        denom = float((signs * w).sum())
        if not (0.0 < denom < np.inf):
            return lambdas, coefs, n_knots, _DEGENERATE
        equi_norm = 1.0 / np.sqrt(denom)
        direction = w * equi_norm
        a = np.matmul(G[None], direction[None, :, None])[0, :, 0]
        gamma_total = biggest / equi_norm
        gamma_eps = gamma_total * _GAMMA_EPS_RTOL
        gamma = gamma_total
        if k < max_active:
            for j in range(p):
                if signs[j] != 0.0:
                    continue
                for d, num in ((equi_norm - a[j], biggest - c[j]),
                               (equi_norm + a[j], biggest + c[j])):
                    if d > 0.0 and gamma_eps < num / d < gamma:
                        gamma = num / d
        cross = {}
        gamma_drop = np.inf
        for j in active:
            if direction[j] != 0.0 and gamma_eps < -beta[j] / direction[j]:
                cross[j] = -beta[j] / direction[j]
                gamma_drop = min(gamma_drop, cross[j])
        dropping = gamma_drop <= gamma
        if dropping:
            gamma = gamma_drop
        for j in range(p):
            c[j] -= gamma * a[j]
        if gamma == gamma_total and not dropping:
            biggest = 0.0
        else:
            biggest = max(biggest - gamma * equi_norm, 0.0)
        for j in active:
            c[j] = signs[j] * biggest
        for j in range(p):
            beta[j] += gamma * direction[j]
        if dropping:
            ceiling = gamma * (1.0 + _TIE_RTOL)
            for t in reversed(range(k)):
                j = active[t]
                if j in cross and cross[j] <= ceiling:
                    beta[j] = 0.0
                    signs[j] = 0.0
                    active[t] = active[-1]
                    active.pop()
        just_dropped = dropping
        if biggest < tol:
            biggest = 0.0
        lambdas[n_knots] = 2.0 * biggest
        coefs[n_knots] = beta
        n_knots += 1
        if biggest <= 0.0:
            return lambdas, coefs, n_knots, _OK
        if len(active) >= max_active and not just_dropped:
            return lambdas, coefs, n_knots, _ACTIVE_CAP
