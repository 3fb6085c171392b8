"""Cross-validated knot selection and inverse-SSE model averaging."""

import csv
import logging
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lars import lar_lasso_path
from .models import SelectedModel
from .pointdata import format_float
from .standardize import apply_transform, fit_transform
from .terms import evaluate_term

log = logging.getLogger(__name__)


def select_knot(path, X_valid, y_valid):
    """Pick the path knot with minimum validation SSE.

    Ties go to the smaller subset size, then to the earlier (larger lambda)
    knot. The empty knot predicts the training mean carried on the path.

    Returns
    -------
    (SelectedModel, validation_errors) where the errors are observed minus
    predicted at the winning knot.
    """
    y_valid = np.asarray(y_valid, dtype=np.float64)
    if y_valid.shape != (X_valid.n_rows,):
        raise DataError("validation response length does not match the matrix")
    if list(X_valid.column_ids) != list(path.column_ids):
        raise DataError("validation matrix columns do not match the fitted path")
    best = None
    for k, knot in enumerate(path.knots):
        pred = np.full(X_valid.n_rows, path.intercept)
        if knot.subset_size:
            pred += X_valid.values[:, knot.active] @ knot.coefs
        resid = y_valid - pred
        sse = float(resid @ resid)
        key = (sse, knot.subset_size, k)
        if best is None or key < best[0]:
            best = (key, k, resid)
    (sse, size, k), knot_index, resid = best
    knot = path.knots[knot_index]
    coef = {path.column_ids[j]: float(v) for j, v in zip(knot.active, knot.coefs)}
    model = SelectedModel(
        intercept=path.intercept,
        coef=coef,
        subset_size=size,
        validation_sse=sse,
        transform_ref=X_valid.transform_ref,
    )
    return model, resid


def ensemble_weights(validation_sses):
    """Inverse-SSE weights, normalized to sum to one.

    Any model with exactly zero validation SSE is a degenerate perfect fit;
    such models share the weight equally and everything else gets zero
    (logged), since inverse error is unbounded there.
    """
    sses = np.asarray(validation_sses, dtype=np.float64)
    if sses.ndim != 1 or sses.size == 0:
        raise DataError("need a non-empty 1-d array of validation SSEs")
    if np.any(sses < 0) or not np.isfinite(sses).all():
        raise DataError("validation SSEs must be finite and non-negative")
    zero = sses == 0.0
    if zero.any():
        log.warning(
            "%d of %d models have zero validation SSE; weight shared among them",
            int(zero.sum()),
            sses.size,
        )
        weights = np.zeros_like(sses)
        weights[zero] = 1.0 / zero.sum()
        return weights
    inv = 1.0 / sses
    return inv / inv.sum()


@dataclass
class Ensemble:
    """The cross-validation ensemble for one method and one design."""

    models: list
    transforms: list
    weights: np.ndarray
    terms: list  # fit-time term list of the shared raw design
    split_plan_ref: str
    validation_errors: list  # per-split residual arrays at the chosen knot
    validation_rows: list  # per-split dataset row ids of the validation set

    @property
    def n_models(self):
        return len(self.models)

    @property
    def column_ids(self):
        return [t.term_id for t in self.terms]

    def needed_covariates(self):
        """Covariates any member model actually reads."""
        return linear_form(self).covariates

    def needs_site_information(self):
        return bool(linear_form(self).sites)


@dataclass(frozen=True)
class LinearForm:
    """An ensemble as one raw-space linear function per site.

    Member i predicts b_i + sum_j c_ij (x_j - m_ij) / s_ij, where a
    site-scoped term reads 0 on rows of other sites. Expanding the bracket
    gives a slope c_ij / s_ij per term and an intercept per site,
    b_i - sum_j c_ij m_ij / s_ij over the global terms and that site's
    scoped terms. The weighted average of the members has the same form,
    with weighted slopes and intercepts. Only the active terms, those some
    member reads, appear.

    Site index 0 stands for every site that scopes no active term, and
    index k > 0 for ``sites[k - 1]``.
    """

    terms: list  # active terms, in the ensemble's term order
    columns: np.ndarray  # their positions in the ensemble's term list
    scope_index: np.ndarray  # per active term: 0 if global, else its site index
    sites: tuple  # scopes of the active site-scoped terms, sorted
    member_slopes: np.ndarray  # (n_models, n_active)
    member_intercepts: np.ndarray  # (n_models, 1 + n_sites)
    slopes: np.ndarray  # (n_active,) weighted member slopes
    intercepts: np.ndarray  # (1 + n_sites,) weighted member intercepts

    @property
    def covariates(self):
        return sorted({name for term in self.terms for name in term.covariates})

    def site_index(self, row_sites):
        """Per-row site index for an array of site names."""
        row_sites = np.asarray(row_sites)
        index = np.zeros(row_sites.shape, dtype=np.intp)
        for k, site in enumerate(self.sites, start=1):
            index[row_sites == site] = k
        return index

    def _scoped(self, columns, site_index):
        for scope, values in zip(self.scope_index, columns):
            yield values if scope == 0 else np.where(site_index == scope, values, 0.0)

    def predict(self, columns, site_index):
        """Ensemble prediction from the raw values of the active terms.

        ``columns`` yields one raw column per active term, in ``terms``
        order; scoped columns are zeroed on rows of other sites here.
        Every row is computed on its own with the same operations, so a
        row's result does not depend on which other rows come with it.
        """
        out = self.intercepts[site_index]
        for slope, values in zip(self.slopes, self._scoped(columns, site_index)):
            out += slope * values
        return out

    def predict_covariates(self, covariates, site_index):
        """:meth:`predict` from covariate arrays (name -> value per row)."""
        return self.predict(
            (evaluate_term(t, covariates) for t in self.terms), site_index
        )

    def member_predict(self, columns, site_index):
        """(n_models, n_rows) predictions of every member, as one product."""
        X = np.empty((len(self.terms), len(site_index)))
        for k, values in enumerate(self._scoped(columns, site_index)):
            X[k] = values
        return self.member_slopes @ X + self.member_intercepts[:, site_index]


def linear_form(ensemble):
    """Derive the ensemble's raw-space linear form from its members alone.

    Terms are visited in the ensemble's term order, whatever the order of a
    model's coefficient map, so a fitted ensemble and its JSON round trip
    give the same bits.
    """
    position = {cid: j for j, cid in enumerate(ensemble.column_ids)}
    columns = sorted({position[cid] for model in ensemble.models for cid in model.coef})
    terms = [ensemble.terms[j] for j in columns]
    sites = tuple(sorted({t.scope for t in terms if t.scope is not None}))
    scope_index = np.array(
        [0 if t.scope is None else 1 + sites.index(t.scope) for t in terms],
        dtype=np.intp,
    )
    slot = {j: k for k, j in enumerate(columns)}
    slopes = np.zeros((ensemble.n_models, len(columns)))
    intercepts = np.empty((ensemble.n_models, 1 + len(sites)))
    for i, (model, transform) in enumerate(zip(ensemble.models, ensemble.transforms)):
        intercepts[i] = model.intercept
        for cid in sorted(model.coef, key=position.get):
            j = position[cid]
            k = slot[j]
            slope = model.coef[cid] / transform.norms[j]
            slopes[i, k] = slope
            # a global term's offset applies to every site, a scoped one's to its own
            target = slice(None) if scope_index[k] == 0 else scope_index[k]
            intercepts[i, target] -= slope * transform.means[j]
    return LinearForm(
        terms=terms,
        columns=np.asarray(columns, dtype=np.intp),
        scope_index=scope_index,
        sites=sites,
        member_slopes=slopes,
        member_intercepts=intercepts,
        slopes=ensemble.weights @ slopes,
        intercepts=ensemble.weights @ intercepts,
    )


def _design_columns(ensemble, design):
    if design.column_ids != ensemble.column_ids:
        raise DataError("design columns do not match the ensemble's term list")
    form = linear_form(ensemble)
    columns = (design.values[:, j] for j in form.columns)
    return form, columns, form.site_index(design.row_sites)


def member_predictions(ensemble, design):
    """Predictions of every member model on a shared raw design.

    Each member reads the raw columns through its own training transform
    (training means/norms only), folded into its raw-space slopes and
    intercepts.

    Returns
    -------
    (n_models, n_rows) array.
    """
    form, columns, site_index = _design_columns(ensemble, design)
    return form.member_predict(columns, site_index)


def model_average(ensemble, design):
    """Weighted-average prediction of the ensemble on raw data.

    ``design`` is a RawDesign over exactly the ensemble's term list. The
    prediction is the ensemble's linear form, evaluated on the active terms.
    """
    form, columns, site_index = _design_columns(ensemble, design)
    return form.predict(columns, site_index)


def tally_selection(ensemble):
    """Count how often each term carries a non-zero coefficient, plus the
    subset-size histogram.

    Returns
    -------
    (dict term_id -> count, dict size -> count)
    """
    freq = Counter()
    sizes = Counter()
    for model in ensemble.models:
        sizes[model.subset_size] += 1
        for cid in model.coef:
            freq[cid] += 1
    total = sum(sizes.values())
    if total != ensemble.n_models:
        raise DataError("tally saw a different number of models than the ensemble")
    return dict(freq), dict(sizes)


def write_selection_csv(path, freq):
    rows = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["term", "count"])
        writer.writerows(rows)


def write_size_histogram_csv(path, sizes):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["subset_size", "count"])
        for size in sorted(sizes):
            writer.writerow([size, sizes[size]])


# ---------------------------------------------------------------------------
# split-level fitting driver


def _positions(row_ids, wanted):
    pos = np.searchsorted(row_ids, wanted)
    if np.any(pos >= row_ids.size) or np.any(row_ids[pos] != wanted):
        raise DataError("split references rows outside the design")
    return pos


def _fit_one_split(design, y, row_ids, train_ids, valid_ids):
    tr = _positions(row_ids, train_ids)
    va = _positions(row_ids, valid_ids)
    train_design = design.subset_rows(tr)
    X_train, transform = fit_transform(train_design)
    y_train = y[tr]
    ybar = float(y_train.mean())
    path = lar_lasso_path(X_train, y_train - ybar, intercept=ybar, validate=False)
    X_valid = apply_transform(design.subset_rows(va), transform)
    model, resid = select_knot(path, X_valid, y[va])
    return model, transform, resid


def _fit_chunk(args):
    design, y, row_ids, split_pairs = args
    return [
        _fit_one_split(design, y, row_ids, tr, va) for tr, va in split_pairs
    ]


def fit_ensemble(design, response, splits, row_ids, split_plan_ref="", workers=1):
    """Fit one model per split and assemble the weighted ensemble.

    Parameters
    ----------
    design : RawDesign aligned to ``row_ids`` (dataset row ids, ascending).
    response : response values aligned to the design rows.
    splits : list of (train_row_ids, validation_row_ids) pairs.
    row_ids : ascending dataset row ids of the design rows.
    split_plan_ref : opaque tag recorded on the ensemble.
    workers : number of processes; results are identical for any value.
    """
    y = np.asarray(response, dtype=np.float64)
    row_ids = np.asarray(row_ids, dtype=np.intp)
    if y.shape != (design.n_rows,) or row_ids.shape != (design.n_rows,):
        raise DataError("response/row_ids must align with the design rows")
    if np.any(np.diff(row_ids) <= 0):
        raise DataError("row_ids must be strictly ascending")
    results = []
    if workers <= 1 or len(splits) < 2:
        results = _fit_chunk((design, y, row_ids, splits))
    else:
        workers = min(workers, len(splits))
        bounds = np.linspace(0, len(splits), workers + 1).astype(int)
        chunks = [
            (design, y, row_ids, splits[a:b])
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_fit_chunk, chunks):
                results.extend(part)
    models = [r[0] for r in results]
    transforms = [r[1] for r in results]
    residuals = [r[2] for r in results]
    weights = ensemble_weights(np.array([m.validation_sse for m in models]))
    return Ensemble(
        models=models,
        transforms=transforms,
        weights=weights,
        terms=list(design.terms),
        split_plan_ref=split_plan_ref,
        validation_errors=residuals,
        validation_rows=[np.asarray(va, dtype=np.intp) for _, va in splits],
    )
