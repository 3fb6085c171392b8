"""The literal prediction route of one ensemble member, the tests' reference.

The package predicts through each ensemble's collapsed raw-space linear form
(``sitelasso.ensemble.linear_form``). ``predict`` instead takes one member
and a matrix standardized with that member's own transform, as the method
is specified, so tests can check the collapsed form against it.
"""

import numpy as np

from sitelasso.errors import DataError
from sitelasso.standardize import StandardizedMatrix


def members(ensemble):
    """Each member's (intercept, {column_id: coef}, transform_ref)."""
    for intercept, row, transform in zip(
        ensemble.intercepts, ensemble.coefs, ensemble.transforms
    ):
        coef = {cid: float(c) for cid, c in zip(ensemble.column_ids, row) if c != 0}
        yield float(intercept), coef, transform.transform_id


def predict(member, X):
    """Predict from a matrix standardized with the member's own transform.

    Parameters
    ----------
    member : (intercept, {column_id: coef}, transform_ref)
    X : StandardizedMatrix
        Must carry the member's transform_ref and contain every column the
        member has a coefficient for (extra columns are fine).

    Returns
    -------
    (n,) prediction array.
    """
    intercept, coef, transform_ref = member
    if not isinstance(X, StandardizedMatrix):
        raise DataError("predict needs a StandardizedMatrix")
    if X.transform_ref != transform_ref:
        raise DataError(
            f"matrix was built with transform {X.transform_ref!r}, "
            f"member expects {transform_ref!r}"
        )
    out = np.full(X.n_rows, intercept, dtype=np.float64)
    if not coef:
        return out
    positions = {cid: j for j, cid in enumerate(X.column_ids)}
    missing = [cid for cid in coef if cid not in positions]
    if missing:
        raise DataError(f"matrix lacks member columns: {missing[:8]}")
    cols = np.array([positions[cid] for cid in coef], dtype=np.intp)
    weights = np.array(list(coef.values()), dtype=np.float64)
    out += X.values[:, cols] @ weights
    return out
