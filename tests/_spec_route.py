"""The literal prediction route of one ensemble member, the tests' reference.

The package predicts through each ensemble's collapsed raw-space linear form
(``sitelasso.ensemble.linear_form``). This module instead builds the raw
term matrix column by column (``build_term_matrix``) and predicts one
member from rows standardized with that member's own transform
(``predict``), as the method is specified, so tests can check the collapsed
form against it.
"""

import numpy as np

from sitelasso.errors import DataError
from sitelasso.terms import evaluate_term


def build_term_matrix(covariate_values, row_sites, terms):
    """Assemble a raw design matrix for ``terms``.

    Site-scoped columns carry the term value on matching-site rows and exact
    0.0 elsewhere. ``row_sites`` may be None when every term is global.
    """
    first = next(iter(covariate_values.values()), None)
    if first is None:
        raise DataError("no covariates supplied")
    n = len(first)
    out = np.zeros((n, len(terms)), dtype=np.float64)
    sites = None if row_sites is None else np.asarray(row_sites)
    for j, term in enumerate(terms):
        values = evaluate_term(term, covariate_values)
        if values.shape != (n,):
            raise DataError(f"covariate arrays for {term.term_id} have mixed lengths")
        if term.scope is None:
            out[:, j] = values
        else:
            if sites is None:
                raise DataError(
                    f"term {term.term_id} is site-scoped but no row sites were given"
                )
            mask = sites == term.scope
            out[mask, j] = values[mask]
    return out


def members(ensemble):
    """Each member's (intercept, {column_id: coef}, transform_ref)."""
    for intercept, row, transform in zip(
        ensemble.intercepts, ensemble.coefs, ensemble.transforms
    ):
        coef = {cid: float(c) for cid, c in zip(ensemble.column_ids, row) if c != 0}
        yield float(intercept), coef, transform.transform_id


def predict(member, transform, X):
    """Predict from rows standardized with the member's own transform.

    Parameters
    ----------
    member : (intercept, {column_id: coef}, transform_ref)
    transform : StandardizationTransform
        The transform ``X`` was standardized with. Its id must be the
        member's transform_ref, and its retained terms must include every
        column the member has a coefficient for (extra columns are fine).
    X : (n, q) array over ``transform.retained_terms``, in order.

    Returns
    -------
    (n,) prediction array.
    """
    intercept, coef, transform_ref = member
    if transform.transform_id != transform_ref:
        raise DataError(
            f"matrix was built with transform {transform.transform_id!r}, "
            f"member expects {transform_ref!r}"
        )
    X = np.asarray(X, dtype=np.float64)
    positions = {t.term_id: j for j, t in enumerate(transform.retained_terms)}
    if X.ndim != 2 or X.shape[1] != len(positions):
        raise DataError("matrix width does not match the transform's retained terms")
    out = np.full(X.shape[0], intercept, dtype=np.float64)
    if not coef:
        return out
    missing = [cid for cid in coef if cid not in positions]
    if missing:
        raise DataError(f"matrix lacks member columns: {missing[:8]}")
    cols = np.array([positions[cid] for cid in coef], dtype=np.intp)
    weights = np.array(list(coef.values()), dtype=np.float64)
    out += X[:, cols] @ weights
    return out
