"""Least angle regression with the lasso modification, emitting the full path.

The path is reported as knots of the penalized objective

    sum_i (y_i - sum_j X_ij b_j)^2 + lambda * sum_j |b_j|

so a knot's lambda is twice the shared correlation magnitude |x_j . r| of the
active columns. Columns must be standardized (mean 0, unit L2 norm) and y
centred; the intercept is carried alongside, not fitted.

Behaviour pinned by contract:

- knot 0 is the all-zero solution at lambda = 2 * max |x_j . y|
- a coefficient crossing zero leaves the active set at that knot (sign drop)
- entry ties go to the lowest column index; exact ties enter together
- exactly collinear candidates before any progress raise CollinearTermsError;
  degenerate active-set geometry encountered mid-path ends the path at the
  last completed knot (sets degenerate_stop) — the knots already emitted are
  valid solutions, and aborting a long cross-validation run because one
  training subset turned singular helps nobody
- termination: max residual correlation < corr_tol, active set at
  min(n_rows - 1, n_cols), or a step cap of 8 * min(n, p) which sets
  max_steps_reached instead of raising (sign-drop cycles are pathological
  but should not abort)

The solver is plain numpy, with no compiled mode: each step rebuilds and
solves the active Gram system and runs every per-column scan (admission, step
length, zero crossings, correlation update) as one whole-array operation.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import CollinearTermsError, DataError, NumericalError
from .standardize import StandardizedMatrix, check_standardized

log = logging.getLogger(__name__)

DEFAULT_CORR_TOL = 1e-12
_TIE_RTOL = 1e-12
_GAMMA_EPS_RTOL = 1e-12

# kernel status codes
_OK = 0
_STEP_CAP = 1
_ACTIVE_CAP = 2
_DEGENERATE = 3


def _lar_steps(X, y, corr_tol, max_active, max_steps):
    # Plain-numpy kernel: every per-column scan is one whole-array operation
    # with the same floating-point operations as a scalar loop would perform.
    # Returns (lambdas, coefficient rows, knot count, status). Correlations
    # are tracked incrementally (c -= gamma * a) rather than recomputed from
    # the residual: a recompute carries absolute rounding noise from the
    # response scale, which late in the path (tiny lambda) swamps the relative
    # tie tolerance and makes a caught-up column miss admission, after which
    # its correlation is unbounded and the lambda sequence can stall or rise.
    # Incremental tracking keeps ties on the same arithmetic at every scale.
    p = X.shape[1]
    max_knots = max_steps + 2
    lambdas = np.zeros(max_knots)
    coefs = np.zeros((max_knots, p))
    beta = np.zeros(p)
    in_active = np.zeros(p, dtype=np.bool_)
    active = np.empty(0, dtype=np.int64)  # entry order
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
            tied = np.flatnonzero(~in_active & (np.abs(c) >= tie_floor))
            entering = tied[: max_active - len(active)]
            in_active[entering] = True
            active = np.concatenate((active, entering))
        just_dropped = False
        k = len(active)
        # C order keeps the Gram product and Xa @ direction on the same BLAS
        # kernels for every k; fancy indexing alone yields a Fortran array
        Xa = np.ascontiguousarray(X[:, active])
        s = np.where(c[active] >= 0.0, 1.0, -1.0)
        gram = np.ascontiguousarray(Xa.T) @ Xa
        w = np.linalg.solve(gram, s)
        denom = s @ w
        if not (denom > 0.0 and np.isfinite(w).all()):
            status = _DEGENERATE
            break
        equi_norm = 1.0 / np.sqrt(denom)  # correlation decay rate along the move
        direction = equi_norm * w  # coefficient velocity of active columns
        u = Xa @ direction
        a = u @ X
        gamma_total = biggest / equi_norm
        gamma_eps = gamma_total * _GAMMA_EPS_RTOL
        gamma = gamma_total
        if k < max_active:
            # the step at which an inactive column's correlation catches up
            free = ~in_active
            for d, num in ((equi_norm - a, biggest - c), (equi_norm + a, biggest + c)):
                ok = free & (d > 0.0)
                cand = num[ok] / d[ok]
                cand = cand[(gamma_eps < cand) & (cand < gamma)]
                if cand.size:
                    gamma = cand.min()
        # zero-crossing candidates from the pre-move coefficients; the same
        # values classify the removals after the move (re-deriving them from
        # updated coefficients would reintroduce rounding)
        sentinel = gamma_total * 4.0
        cross = np.divide(
            -beta[active], direction, out=np.full(k, sentinel), where=direction != 0.0
        )
        cross[~(gamma_eps < cross)] = sentinel
        gamma_drop = cross.min()
        dropping = gamma_drop <= gamma
        if dropping:
            gamma = gamma_drop
        took_total = (not dropping) and gamma == gamma_total
        c -= gamma * a
        if took_total:
            biggest = 0.0
        else:
            biggest = max(biggest - gamma * equi_norm, 0.0)
        # pin the active columns to the shared level the move puts them at;
        # this keeps the tie comparison exact for a column that just caught up
        c[active] = s * biggest
        beta[active] += gamma * direction
        if dropping:
            leaving = cross <= gamma * (1.0 + _TIE_RTOL)
            gone = active[leaving]
            beta[gone] = 0.0
            in_active[gone] = False
            active = active[~leaving]
            just_dropped = True
        if biggest < corr_tol:
            biggest = 0.0
        lambdas[n_knots] = 2.0 * biggest
        coefs[n_knots] = beta
        n_knots += 1
        if biggest <= 0.0:
            break
        if len(active) >= max_active and not just_dropped:
            status = _ACTIVE_CAP
            break
    return lambdas, coefs, n_knots, status


@dataclass(frozen=True)
class PathKnot:
    """One breakpoint of the lasso path."""

    lam: float
    active: np.ndarray  # column indices with non-zero coefficients
    coefs: np.ndarray  # values aligned with ``active``

    @property
    def subset_size(self):
        return len(self.active)


@dataclass
class LassoPath:
    """Full piecewise-linear lasso path plus the carried intercept."""

    knots: list
    intercept: float
    column_ids: list
    n_rows: int
    n_cols: int
    max_steps_reached: bool = False
    degenerate_stop: bool = False  # ended early on singular active-set geometry

    def __len__(self):
        return len(self.knots)

    def coef_vector(self, knot_index):
        """Dense coefficient vector at one knot."""
        full = np.zeros(self.n_cols)
        knot = self.knots[knot_index]
        full[knot.active] = knot.coefs
        return full


def _as_matrix(X):
    if isinstance(X, StandardizedMatrix):
        return X.values, X.column_ids
    arr = np.asarray(X, dtype=np.float64)
    return arr, [f"x{j}" for j in range(arr.shape[1])]


def lar_lasso_path(
    X,
    y_centered,
    intercept=0.0,
    corr_tol=DEFAULT_CORR_TOL,
    max_steps=None,
    validate=True,
):
    """Trace the lasso path of standardized X against centred y.

    Parameters
    ----------
    X : StandardizedMatrix or (n, p) array
        Columns with mean 0 and unit L2 norm (checked when ``validate``).
    y_centered : (n,) array with mean 0.
    intercept : float
        Training response mean, stored on the path for prediction.
    corr_tol : float
        Residual-correlation level treated as zero.
    max_steps : int, optional
        Step cap; defaults to 8 * min(n, p).
    validate : bool
        Check standardization and centring preconditions.

    Returns
    -------
    LassoPath
    """
    values, column_ids = _as_matrix(X)
    if values.ndim != 2 or values.shape[1] == 0:
        raise DataError("X must be a 2-d matrix with at least one column")
    n, p = values.shape
    if n < 2:
        raise DataError("the path solver needs at least two rows")
    y = np.ascontiguousarray(y_centered, dtype=np.float64)
    if y.shape != (n,):
        raise DataError("y length does not match X")
    if validate:
        if not np.isfinite(y).all():
            raise DataError("non-finite response values")
        scale = max(1.0, float(np.max(np.abs(y))) if n else 1.0)
        if abs(float(y.mean())) > 1e-8 * scale:
            raise DataError(f"response is not centred (mean {y.mean():.3e})")
        check_standardized(StandardizedMatrix(values, _IdTerms(column_ids), ""))
    max_active = min(n - 1, p)
    if max_steps is None:
        max_steps = 8 * min(n, p)
    try:
        lambdas, coefs, n_knots, status = _lar_steps(
            np.ascontiguousarray(values),
            y,
            float(corr_tol),
            int(max_active),
            int(max_steps),
        )
    except np.linalg.LinAlgError as exc:
        raise CollinearTermsError(
            f"exactly collinear columns in the active set: {exc}"
        ) from None
    if status == _DEGENERATE and n_knots < 2:
        raise CollinearTermsError(
            "active-set geometry is degenerate (collinear candidate columns)"
        )
    if status == _DEGENERATE:
        log.warning(
            "path ended early at lambda=%g: active-set geometry turned "
            "degenerate after %d knots",
            float(lambdas[n_knots - 1]),
            int(n_knots),
        )
    knots = []
    for k in range(n_knots):
        row = coefs[k]
        nz = np.flatnonzero(row)
        knots.append(PathKnot(float(lambdas[k]), nz, row[nz].copy()))
    for earlier, later in zip(knots, knots[1:]):
        if not later.lam < earlier.lam:
            raise NumericalError(
                f"path lambdas failed to decrease ({earlier.lam} -> {later.lam})"
            )
    for knot in knots:
        if knot.subset_size > max_active:
            raise NumericalError("active set exceeded min(n_rows - 1, n_cols)")
    return LassoPath(
        knots=knots,
        intercept=float(intercept),
        column_ids=list(column_ids),
        n_rows=n,
        n_cols=p,
        max_steps_reached=status == _STEP_CAP,
        degenerate_stop=status == _DEGENERATE,
    )


class _IdTerms(list):
    """Adapter giving bare arrays the term interface check_standardized wants."""

    def __init__(self, ids):
        super().__init__(_FakeTerm(i) for i in ids)


@dataclass(frozen=True)
class _FakeTerm:
    term_id: str
