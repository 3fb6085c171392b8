"""Fit quality metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError


@dataclass(frozen=True)
class FitMetrics:
    r2: float
    rmse: float
    n: int


def fit_metrics(observed, predicted):
    """R-squared and RMSE of predictions against observations.

    R-squared is 1 - SSE/SST with SST about the observed mean, so values
    below zero mean the predictions do worse than a constant.
    """
    obs = np.asarray(observed, dtype=np.float64)
    pred = np.asarray(predicted, dtype=np.float64)
    if obs.shape != pred.shape or obs.ndim != 1:
        raise DataError("observed/predicted must be 1-d arrays of equal length")
    if obs.size < 2:
        raise DataError("metrics need at least two observations")
    if not (np.isfinite(obs).all() and np.isfinite(pred).all()):
        raise DataError("non-finite values in metrics input")
    # one n-sized buffer: the centred observations, then the residuals, each
    # squared in place
    squares = obs - obs.mean()
    sst = float(np.square(squares, out=squares).sum())
    if sst == 0.0:
        raise NumericalError("undefined R2: observed values are constant")
    np.subtract(obs, pred, out=squares)
    np.square(squares, out=squares)
    sse = float(squares.sum())
    return FitMetrics(
        r2=1.0 - sse / sst,
        rmse=float(np.sqrt(squares.mean())),
        n=obs.size,
    )
