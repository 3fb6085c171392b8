"""Least angle regression with the lasso modification, in covariance form.

The path is reported as knots of the penalized objective

    sum_i (y_i - sum_j X_ij b_j)^2 + lambda * sum_j |b_j|

so a knot's lambda is twice the shared correlation magnitude |x_j . r| of the
active columns. Columns must be standardized (mean 0, unit L2 norm) and y
centred; the intercept is carried alongside, not fitted.

Behaviour pinned by contract:

- knot 0 is the all-zero solution at lambda = 2 * max |x_j . y|
- a coefficient crossing zero leaves the active set at that knot (sign drop)
- entry ties go to the lowest column index; exact ties enter together
- an exactly singular active Gram (exactly collinear active columns) raises
  CollinearTermsError; so does degenerate active-set geometry before any
  progress. Degenerate geometry encountered mid-path (a non-positive or
  non-finite equiangular denominator) ends the path at the last completed
  knot (sets degenerate_stop) — the knots already emitted are valid
  solutions, and aborting a long cross-validation run because one training
  subset turned singular helps nobody
- termination: max residual correlation below CORR_TOL * max |x_j . y|
  (relative to the path's own scale, so a path that has reached the
  least-squares fit stops there instead of stepping on through rounding
  noise), active set at min(n_rows - 1, n_cols), a step cap of
  8 * min(n, p) which sets max_steps_reached instead of raising (sign-drop
  cycles are pathological but should not abort), or a degenerate
  equiangular step at lambda <= LSQ_FLOOR * lambda_0: the path has reached
  the least-squares fit, where a rank-deficient active set is expected, and
  it ends at its last knot as an ordinary end (no degenerate_stop)

The solver works in covariance form (Efron, Hastie, Johnstone & Tibshirani,
Ann. Statist. 2004; Friedman, Hastie & Tibshirani, JSS 33(1), 2010, 2.2): a
path sees its data only through G = X'X and X'y, so no step touches the rows.
:func:`lockstep_paths` traces a batch of S such paths in lockstep, one step of
every live path per iteration: the admission, step-length and zero-crossing
scans and the correlation and coefficient updates are whole (S, p) array
operations, and the correlation decay a = G @ direction is one stacked
product. Each path keeps its active Gram across steps, copied from G: a row
and column are added when a column enters, and when one drops the last
active column takes its place. The solve is ``np.linalg.solve`` on that
matrix every step (an LU factorization with partial pivoting, as when the
Gram is built from the columns), stacked over the paths that share an
active size. Every reduction, product and solve runs over one path's own
row, with shapes that depend only on that path, so a path's bits do not
depend on which other paths share its batch. :func:`lar_lasso_path` is a
batch of one that keeps every knot, as dense ``(lambdas, coefs)`` arrays.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CollinearTermsError, DataError, NumericalError
from .standardize import check_standardized

log = logging.getLogger(__name__)

CORR_TOL = 1e-12  # residual correlation treated as zero, relative to max |x_j . y|
# A path whose equiangular step fails at lambda <= LSQ_FLOOR * lambda_0 ends as
# an ordinary end: it has reached the least-squares fit, where the lasso path
# ends (Efron, Hastie, Johnstone & Tibshirani 2004); glmnet likewise ends its
# paths at a floor relative to lambda_0. The degenerate steps seen on real
# designs fail far below it: in a 500-split m4 study of the quickstart data
# (split seed 1), five paths failed at 1.04 to 7.3 times CORR_TOL * lambda_0
# when terms were computed with pow, with 53 of 78 columns active and KKT
# residuals of at most 5.5e-14 at the last knot. With product-chain terms,
# three paths there and one of the quickstart run's fail at 1.02 to 7.0
# times, with KKT residuals of at most 2.7e-14.
LSQ_FLOOR = 1e-9
_TIE_RTOL = 1e-12
_GAMMA_EPS_RTOL = 1e-12

# path status codes
_OK = 0
_STEP_CAP = 1
_ACTIVE_CAP = 2
_DEGENERATE = 3
_SINGULAR = 4


def gram_system(X, y):
    """The covariance-form inputs of one path: ``(X'X, X'y)``.

    Every entry of X'X sums its products over the rows in the same order, so
    the matrix is exactly symmetric and exactly repeated columns give exactly
    repeated rows: an active set holding both is exactly singular, as it
    would be built from the columns themselves.
    """
    X = np.ascontiguousarray(X)
    return np.einsum("ki,kj->ij", X, X), y @ X


def shrink_rows(arr, keep):
    """Move rows ``keep`` (ascending) to the front in place; return that view.

    A large per-path stack is thus never copied whole when a path retires.
    """
    for dst, src in enumerate(keep):
        if dst != src:
            arr[dst] = arr[src]
    return arr[: len(keep)]


class _Lockstep:
    """State of the live paths of one batch, one row per path."""

    def __init__(self, grams, xty, max_active, max_steps):
        n_paths, p = xty.shape
        self.ids = np.arange(n_paths)  # batch index of each live row
        self.G = grams
        self.c = np.array(xty, dtype=np.float64)
        self.max_active = np.asarray(max_active, dtype=np.intp)
        self.max_steps = np.asarray(max_steps, dtype=np.intp)
        self.biggest = np.abs(self.c).max(axis=1)
        self.tol = CORR_TOL * self.biggest
        self.beta = np.zeros((n_paths, p))
        self.in_active = np.zeros((n_paths, p), dtype=np.bool_)
        # an active column's correlation keeps its sign while it stays active
        self.signs = np.zeros((n_paths, p))  # 0 where inactive
        self.just_dropped = np.zeros(n_paths, dtype=np.bool_)
        width = int(self.max_active.max()) if n_paths else 0
        self.k = np.zeros(n_paths, dtype=np.intp)
        self.order = np.zeros((n_paths, width), dtype=np.intp)  # entry order
        self.entry_signs = np.zeros((n_paths, width))  # signs in entry order
        self.gram = np.empty((n_paths, width, width))  # active Gram, entry order
        self.lam = 2.0 * self.biggest
        self.n_knots = np.ones(n_paths, dtype=np.intp)
        self.first_cap = self.max_steps.min() if n_paths else 0
        self.status = np.full(n_paths, _OK)
        self.knots = np.ones(n_paths, dtype=np.intp)
        self.last_lambda = self.lam.copy()

    def retire(self, mask, code):
        """End the masked paths with ``code`` (one, or one per row).

        Returns the mask of the rows kept.
        """
        if not mask.any():
            return ~mask
        gone = self.ids[mask]
        self.status[gone] = np.broadcast_to(code, mask.shape)[mask]
        self.knots[gone] = self.n_knots[mask]
        self.last_lambda[gone] = self.lam[mask]
        keep = np.flatnonzero(~mask)
        self.G = shrink_rows(self.G, keep)
        self.gram = shrink_rows(self.gram, keep)
        for name in ("ids", "c", "max_active", "max_steps", "biggest", "tol",
                     "beta", "in_active", "signs", "just_dropped", "k", "order",
                     "entry_signs", "lam", "n_knots"):
            setattr(self, name, getattr(self, name)[keep])
        self.first_cap = self.max_steps.min() if keep.size else 0
        return ~mask

    def admit(self):
        # every column tied at the top correlation enters, lowest index first,
        # up to the free slots; a path that just dropped admits nothing
        tie_floor = self.biggest - np.maximum(self.biggest * _TIE_RTOL, 1e-300)
        tie_floor[self.just_dropped] = np.inf
        tied = np.abs(self.c) >= tie_floor[:, None]
        tied &= ~self.in_active
        rows, cols = np.nonzero(tied)
        if not rows.size:
            return
        counts = np.bincount(rows, minlength=self.k.size)
        free = self.max_active - self.k
        if (counts > free).any():
            tied &= np.cumsum(tied, axis=1) <= free[:, None]
            rows, cols = np.nonzero(tied)
            counts = np.bincount(rows, minlength=self.k.size)
        pos = self.k[rows] + np.arange(rows.size) - np.searchsorted(rows, rows)
        signs = np.where(self.c[rows, cols] >= 0.0, 1.0, -1.0)
        self.in_active[rows, cols] = True
        self.signs[rows, cols] = signs
        self.order[rows, pos] = cols
        self.entry_signs[rows, pos] = signs
        self.k += counts
        if (self.k > self.max_active).any():
            raise NumericalError("active set exceeded min(n_rows - 1, n_cols)")
        border = self.G[rows[:, None], cols[:, None], self.order[rows]]
        self.gram[rows, pos] = border
        self.gram[rows, :, pos] = border

    def solve(self):
        """Solve every active Gram against its signs; also flags singular ones.

        Returns the solutions scattered to full width (0 where inactive).
        """
        w = np.zeros_like(self.signs)
        singular = np.zeros(self.k.size, dtype=np.bool_)
        sizes = set(self.k.tolist())
        for size in sizes:
            if size == 0:
                continue
            if len(sizes) == 1:
                rows = np.arange(self.k.size)
                sel = slice(None)  # every row: views instead of copies
            else:
                rows = sel = np.flatnonzero(self.k == size)
            gram = self.gram[sel, :size, :size]
            rhs = self.entry_signs[sel, :size, None]
            try:
                sol = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                # numpy rejects the whole stack; solve each path on its own
                sol = np.zeros(rhs.shape)
                for i, row in enumerate(rows):
                    try:
                        sol[i] = np.linalg.solve(gram[i : i + 1], rhs[i : i + 1])[0]
                    except np.linalg.LinAlgError:
                        singular[row] = True
            w[rows[:, None], self.order[sel, :size]] = sol[:, :, 0]
        return w, singular

    def drop(self, leaving):
        """Remove the leaving columns from their rows' order and active Gram.

        The last active column takes each leaving column's place, so a drop
        moves one row and one column of the active Gram.
        """
        self.beta[leaving] = 0.0
        self.in_active[leaving] = False
        self.signs[leaving] = 0.0
        rows = np.flatnonzero(leaving.any(axis=1))
        gone = leaving[rows[:, None], self.order[rows]]
        gone &= np.arange(self.order.shape[1]) < self.k[rows, None]
        # one leaving column per row is the rule; ties are taken one at a time,
        # the highest position first, so the last column is never one leaving
        while rows.size:
            last = self.k[rows] - 1
            t = gone.shape[1] - 1 - np.argmax(gone[:, ::-1], axis=1)
            gone[np.arange(rows.size), t] = False
            self.order[rows, t] = self.order[rows, last]
            self.entry_signs[rows, t] = self.entry_signs[rows, last]
            self.gram[rows, t] = self.gram[rows, last]
            self.gram[rows, :, t] = self.gram[rows, :, last]
            self.k[rows] = last
            more = gone.any(axis=1)
            rows, gone = rows[more], gone[more]


def lockstep_paths(grams, xty, max_active, max_steps, on_knots):
    """Trace S lasso paths in lockstep from their covariance-form inputs.

    Parameters
    ----------
    grams : (S, p, p) array
        Each path's X'X over standardized columns (see :func:`gram_system`).
        The solver moves its rows in place as paths end. A column that is
        all zero in G and X'y never enters, so paths with fewer columns can
        be padded to a common p.
    xty : (S, p) array
        Each path's X'y against its centred response.
    max_active, max_steps : (S,) integer arrays
        Per-path active-set cap, min(n_rows - 1, n_cols), and step cap.
    on_knots : callable
        ``on_knots(paths, lambdas, coefs)`` receives every knot as it is
        produced: the batch indices of the paths that produced one, in
        ascending order, their lambdas and their (len(paths), p) coefficient
        rows. Knot 0 comes first for every path. The rows are the solver's
        own state: copy what you keep.

    Returns
    -------
    (status, n_knots, last_lambda), one entry per path; feed each to
    :func:`path_flags`.
    """
    state = _Lockstep(grams, xty, max_active, max_steps)
    on_knots(state.ids, state.lam, state.beta)
    state.retire(state.biggest <= 0.0, _OK)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while state.ids.size:
            if steps >= state.first_cap:
                state.retire(steps >= state.max_steps, _STEP_CAP)
                if not state.ids.size:
                    break
            steps += 1
            if not state.just_dropped.all():
                state.admit()
            w, singular = state.solve()
            denom = (state.signs * w).sum(axis=1)
            # a non-finite solution shows as a non-finite denominator
            failed = ~(denom > 0.0) | (denom == np.inf) | singular
            if failed.any():
                # tol is CORR_TOL * biggest at lambda_0
                floor = state.tol * (LSQ_FLOOR / CORR_TOL)
                ended = np.where(state.biggest <= floor, _OK, _DEGENERATE)
                keep = state.retire(failed, np.where(singular, _SINGULAR, ended))
                w, denom = w[keep], denom[keep]
                if not state.ids.size:
                    break
            _step(state, w, denom)
            on_knots(state.ids, state.lam, state.beta)
            state.retire(state.biggest <= 0.0, _OK)
            state.retire((state.k >= state.max_active) & ~state.just_dropped, _ACTIVE_CAP)
    return state.status, state.knots, state.last_lambda


def _step(state, w, denom):
    # one move of every live path along its equiangular direction, to the
    # next knot: a column catching up, a coefficient crossing zero, or the
    # end of the path
    equi_norm = 1.0 / np.sqrt(denom)  # correlation decay rate along the move
    direction = w * equi_norm[:, None]  # coefficient velocity, 0 where inactive
    a = np.matmul(state.G, direction[:, :, None])[:, :, 0]
    biggest = state.biggest
    gamma_total = biggest / equi_norm
    gamma_eps = (gamma_total * _GAMMA_EPS_RTOL)[:, None]
    # the step at which an inactive column's correlation catches up; only
    # candidates inside (gamma_eps, gamma_total) count
    free = ~state.in_active
    full = state.k >= state.max_active
    if full.any():
        free[full] = False
    gamma = gamma_total
    rate, level = equi_norm[:, None], biggest[:, None]
    for d, num in ((rate - a, level - state.c), (rate + a, level + state.c)):
        cand = num / d
        ok = d > 0.0
        ok &= free
        ok &= cand > gamma_eps
        gamma = np.minimum(gamma, np.minimum.reduce(cand, axis=1, where=ok, initial=np.inf))
    # zero-crossing candidates from the pre-move coefficients; the same
    # values classify the removals after the move (re-deriving them from
    # updated coefficients would reintroduce rounding). An inactive column
    # has beta = direction = 0, whose nan quotient fails every comparison.
    cross = -state.beta / direction
    crossing = cross > gamma_eps
    gamma_drop = np.minimum.reduce(cross, axis=1, where=crossing, initial=np.inf)
    dropping = gamma_drop <= gamma
    any_drop = dropping.any()
    if any_drop:
        gamma = np.where(dropping, gamma_drop, gamma)
    # Correlations are tracked incrementally rather than recomputed from the
    # residual: a recompute carries absolute rounding noise from the response
    # scale, which late in the path (tiny lambda) swamps the relative tie
    # tolerance and makes a caught-up column miss admission, after which its
    # correlation is unbounded and the lambda sequence can stall or rise.
    state.c -= gamma[:, None] * a
    biggest = biggest - gamma * equi_norm
    np.maximum(biggest, 0.0, out=biggest)
    biggest[(gamma == gamma_total) & ~dropping] = 0.0  # took the whole way
    # pin the active columns to the shared level the move puts them at;
    # this keeps the tie comparison exact for a column that just caught up
    np.copyto(state.c, state.signs * biggest[:, None], where=state.in_active)
    state.beta += gamma[:, None] * direction
    if any_drop:
        crossing &= cross <= (gamma * (1.0 + _TIE_RTOL))[:, None]
        crossing &= dropping[:, None]
        state.drop(crossing)
    state.just_dropped = dropping
    biggest[biggest < state.tol] = 0.0
    lam = 2.0 * biggest
    if not (lam < state.lam).all():
        row = int(np.argmin(lam < state.lam))
        raise NumericalError(
            f"path lambdas failed to decrease ({state.lam[row]} -> {lam[row]})"
        )
    state.biggest, state.lam = biggest, lam
    state.n_knots += 1


def path_flags(status, n_knots, last_lambda):
    """Raise for a path that fitted nothing; else (max_steps_reached, degenerate_stop).

    A path that turned degenerate after at least one completed step, above
    LSQ_FLOOR * lambda_0, ends at its last knot, with a warning. One that
    turned degenerate at or below that floor has reached the least-squares
    fit: :func:`lockstep_paths` reports it as an ordinary end, so it sets
    neither flag and warns of nothing.
    """
    if status == _SINGULAR:
        raise CollinearTermsError(
            "exactly collinear columns in the active set: singular active Gram matrix"
        )
    if status == _DEGENERATE:
        if n_knots < 2:
            raise CollinearTermsError(
                "active-set geometry is degenerate (collinear candidate columns)"
            )
        log.warning(
            "path ended early at lambda=%g: active-set geometry turned "
            "degenerate after %d knots",
            float(last_lambda),
            int(n_knots),
        )
    return status == _STEP_CAP, status == _DEGENERATE


@dataclass
class LassoPath:
    """Full piecewise-linear lasso path plus the carried intercept."""

    lambdas: np.ndarray  # (K,) knot lambdas, decreasing
    coefs: np.ndarray  # (K, p) coefficients at each knot
    intercept: float
    max_steps_reached: bool = False
    # ended early on singular active-set geometry, above LSQ_FLOOR * lambda_0;
    # a path that degenerates below that floor has reached the least-squares
    # fit and ends without this flag
    degenerate_stop: bool = False


def lar_lasso_path(X, y_centered, intercept=0.0, max_steps=None):
    """Trace the lasso path of standardized X against centred y.

    Parameters
    ----------
    X : (n, p) array
        Columns with mean 0 and unit L2 norm (checked; column j is ``x<j>``).
    y_centered : (n,) array with mean 0 (checked).
    intercept : float
        Training response mean, stored on the path for prediction.
    max_steps : int, optional
        Step cap; defaults to 8 * min(n, p).

    Returns
    -------
    LassoPath
    """
    values = np.asarray(X, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] == 0:
        raise DataError("X must be a 2-d matrix with at least one column")
    n, p = values.shape
    if n < 2:
        raise DataError("the path solver needs at least two rows")
    y = np.ascontiguousarray(y_centered, dtype=np.float64)
    if y.shape != (n,):
        raise DataError("y length does not match X")
    if not np.isfinite(y).all():
        raise DataError("non-finite response values")
    scale = max(1.0, float(np.max(np.abs(y))))
    if abs(float(y.mean())) > 1e-8 * scale:
        raise DataError(f"response is not centred (mean {y.mean():.3e})")
    check_standardized(values, [f"x{j}" for j in range(p)])
    if max_steps is None:
        max_steps = 8 * min(n, p)
    gram, xty = gram_system(values, y)
    lambdas, coefs = [], []

    def keep(paths, lam, beta):
        lambdas.append(lam[0])
        coefs.append(beta[0].copy())

    status, n_knots, last_lambda = lockstep_paths(
        gram[None], xty[None], [min(n - 1, p)], [max_steps], keep
    )
    max_steps_reached, degenerate_stop = path_flags(status[0], n_knots[0], last_lambda[0])
    return LassoPath(
        lambdas=np.array(lambdas),
        coefs=np.array(coefs),
        intercept=float(intercept),
        max_steps_reached=max_steps_reached,
        degenerate_stop=degenerate_stop,
    )
