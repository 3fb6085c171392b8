"""The literal prediction route of a selected model, the tests' reference.

The package predicts through each ensemble's collapsed raw-space linear form
(``sitelasso.ensemble.linear_form``). ``predict`` instead takes one member
model and a matrix standardized with that model's own transform, as the
method is specified, so tests can check the collapsed form against it.
"""

import numpy as np

from sitelasso.errors import DataError, TransformMismatchError
from sitelasso.standardize import StandardizedMatrix


def predict(model, X):
    """Predict from a matrix standardized with the model's own transform.

    Parameters
    ----------
    model : SelectedModel
    X : StandardizedMatrix
        Must carry the model's transform_ref and contain every column the
        model has a coefficient for (extra columns are fine).

    Returns
    -------
    (n,) prediction array.
    """
    if not isinstance(X, StandardizedMatrix):
        raise DataError("predict needs a StandardizedMatrix")
    if X.transform_ref != model.transform_ref:
        raise TransformMismatchError(
            f"matrix was built with transform {X.transform_ref!r}, "
            f"model expects {model.transform_ref!r}"
        )
    out = np.full(X.n_rows, model.intercept, dtype=np.float64)
    if not model.coef:
        return out
    positions = {cid: j for j, cid in enumerate(X.column_ids)}
    missing = [cid for cid in model.coef if cid not in positions]
    if missing:
        raise DataError(f"matrix lacks model columns: {missing[:8]}")
    cols = np.array([positions[cid] for cid in model.coef], dtype=np.intp)
    weights = np.array(list(model.coef.values()), dtype=np.float64)
    out += X.values[:, cols] @ weights
    return out
