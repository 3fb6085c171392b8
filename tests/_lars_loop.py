"""Scalar-loop reference for the path solver's kernel.

``lar_steps_loop`` performs the floating-point operations of
``sitelasso.lars._lar_steps`` one column at a time, in plain Python loops.
The whole-array kernel must reproduce it bit for bit, so a change that
reorders or fuses the arithmetic of a scan shows up as a test failure.
"""

import numpy as np

from sitelasso.lars import (
    _ACTIVE_CAP,
    _DEGENERATE,
    _GAMMA_EPS_RTOL,
    _OK,
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
