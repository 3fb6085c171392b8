"""Cross-validated knot selection and inverse-SSE model averaging."""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lars import gram_system, lockstep_paths, path_flags, shrink_rows
from .pointdata import write_csv
from .standardize import apply_transform, fit_transform
from .terms import evaluate_term

log = logging.getLogger(__name__)


class _KnotScorer:
    """Each path's best knot on its validation rows, kept as the knots arrive.

    The best knot has the least validation SSE, then the smaller subset size,
    then the earlier (larger lambda) position. An empty knot predicts the
    training mean carried as the path's intercept. Call it with the knots of
    a :func:`lockstep_paths` batch, or one path's knots in order.
    """

    def __init__(self, X_valid, y_valid, intercepts):
        n_paths, _, p = X_valid.shape
        self.X = X_valid  # (paths, rows, p); shrinks as paths retire
        self.y = y_valid
        self.rows = np.arange(n_paths)  # batch index of each row of X and y
        self.intercepts = intercepts
        self.sse = np.full(n_paths, np.inf)
        self.size = np.zeros(n_paths, dtype=np.intp)
        self.coef = np.zeros((n_paths, p))
        self.resid = np.zeros(y_valid.shape)

    def __call__(self, paths, lambdas, coefs):
        if paths.size < self.rows.size:
            keep = np.flatnonzero(np.isin(self.rows, paths))
            self.X = shrink_rows(self.X, keep)
            self.y = self.y[keep]
            self.rows = paths
        pred = self.intercepts[paths][:, None] + np.matmul(self.X, coefs[:, :, None])[:, :, 0]
        resid = self.y - pred
        sse = (resid * resid).sum(axis=1)
        size = np.count_nonzero(coefs, axis=1)
        best = self.sse[paths]
        better = (sse < best) | ((sse == best) & (size < self.size[paths]))
        if better.any():
            won = paths[better]
            self.sse[won] = sse[better]
            self.size[won] = size[better]
            self.coef[won] = coefs[better]
            self.resid[won] = resid[better]


def select_knot(path, X_valid, y_valid):
    """Pick the path knot with minimum validation SSE.

    Ties go to the smaller subset size, then to the earlier (larger lambda)
    knot. The empty knot predicts the training mean carried on the path.
    Knots are scored exactly as :func:`fit_ensemble` scores them during the
    path pass. ``X_valid`` is an array of the validation rows over the path's
    columns, standardized as its training rows were.

    Returns
    -------
    (coef, validation_sse, validation_errors) of the winning knot: its
    coefficients over the path's columns, and the observed minus predicted
    values on the validation rows.
    """
    X_valid = np.asarray(X_valid, dtype=np.float64)
    y_valid = np.asarray(y_valid, dtype=np.float64)
    if X_valid.ndim != 2 or X_valid.shape[1] != path.coefs.shape[1]:
        raise DataError("validation matrix width does not match the fitted path")
    if y_valid.shape != (X_valid.shape[0],):
        raise DataError("validation response length does not match the matrix")
    scorer = _KnotScorer(X_valid[None], y_valid[None], np.array([path.intercept]))
    first = np.zeros(1, dtype=np.intp)
    for lam, coefs in zip(path.lambdas, path.coefs):
        scorer(first, lam[None], coefs[None])
    return scorer.coef[0], float(scorer.sse[0]), scorer.resid[0]


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
    """The cross-validation ensemble for one method and one design.

    Member i predicts intercepts[i] + sum_j coefs[i, j] (x_j - m_ij) / s_ij
    over the terms j it reads (coefs[i, j] != 0), where m_ij and s_ij are
    the training mean and norm of term j in transforms[i], and a site-scoped
    term reads 0 on rows of other sites. The ensemble predicts the members'
    average under ``weights``.
    """

    intercepts: np.ndarray  # (n_models,) training response means
    coefs: np.ndarray  # (n_models, n_terms) chosen knots, 0 where unread
    sses: np.ndarray  # (n_models,) validation SSE at the chosen knot
    transforms: list
    weights: np.ndarray
    terms: list  # fit-time term list of the shared raw design
    split_plan_ref: str
    validation_errors: list  # per-split residual arrays at the chosen knot
    validation_rows: list  # per-split dataset row ids of the validation set

    def __post_init__(self):
        n = len(self.intercepts)
        if n == 0:
            raise DataError("ensemble has no models")
        counts = {
            "coefficient row": len(self.coefs),
            "SSE": len(self.sses),
            "transform": len(self.transforms),
            "weight": len(self.weights),
            "validation row": len(self.validation_rows),
            "validation error": len(self.validation_errors),
        }
        for name, count in counts.items():
            if count != n:
                raise DataError(
                    f"ensemble has mismatched {name}/model counts ({count} for {n} models)"
                )
        if self.weights.ndim != 1 or self.coefs.shape[1:] != (len(self.terms),):
            raise DataError("ensemble weights or coefficients have the wrong shape")
        if np.any(self.sses < 0):
            raise DataError("validation SSE cannot be negative")

    @property
    def n_models(self):
        return len(self.intercepts)

    @property
    def column_ids(self):
        return [t.term_id for t in self.terms]


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

    Each member's intercept takes its terms' offsets one at a time, in the
    ensemble's term order, so a fitted ensemble and its JSON round trip give
    the same bits.
    """
    columns = np.flatnonzero((ensemble.coefs != 0).any(axis=0))
    terms = [ensemble.terms[j] for j in columns]
    sites = tuple(sorted({t.scope for t in terms if t.scope is not None}))
    scope_index = np.array(
        [0 if t.scope is None else 1 + sites.index(t.scope) for t in terms],
        dtype=np.intp,
    )
    coefs = ensemble.coefs[:, columns]
    reads = coefs != 0
    means = np.stack([t.means[columns] for t in ensemble.transforms])
    norms = np.stack([t.norms[columns] for t in ensemble.transforms])
    # a column that a member's transform drops can have norm 0; it never reads
    # it. The slopes are C-ordered, since the sums of `weights @ slopes` below
    # follow the memory layout.
    slopes = np.divide(coefs, norms, out=np.zeros(coefs.shape), where=reads)
    offsets = slopes * means
    intercepts = np.repeat(ensemble.intercepts[:, None], 1 + len(sites), axis=1)
    for k, scope in enumerate(scope_index):
        # a global term's offset applies to every site, a scoped one's to its own
        target = intercepts if scope == 0 else intercepts[:, scope : scope + 1]
        column = slice(k, k + 1)
        np.subtract(target, offsets[:, column], out=target, where=reads[:, column])
    return LinearForm(
        terms=terms,
        columns=columns,
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
    reads = ensemble.coefs != 0
    by_term = reads.sum(axis=0)
    by_size = np.bincount(reads.sum(axis=1))
    freq = {ensemble.column_ids[j]: int(by_term[j]) for j in np.flatnonzero(by_term)}
    return freq, {int(s): int(by_size[s]) for s in np.flatnonzero(by_size)}


def write_selection_csv(path, freq):
    rows = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    write_csv(path, ["term", "count"], rows)


def write_size_histogram_csv(path, sizes):
    write_csv(path, ["subset_size", "count"], ((s, sizes[s]) for s in sorted(sizes)))


# ---------------------------------------------------------------------------
# split-level fitting driver


def _positions(row_ids, wanted):
    pos = np.searchsorted(row_ids, wanted)
    if np.any(pos >= row_ids.size) or np.any(row_ids[pos] != wanted):
        raise DataError("split references rows outside the design")
    return pos


# Cap on the stacked per-path state of one lockstep batch: each path's Gram
# (p x p), active Gram (up to p x p) and validation rows (n_valid x p). The
# stacks live while the batch runs, so they add to the run's peak memory.
# On the `fit` workload (quickstart data, 40 splits, up to 78 columns), one
# `run` took 3.27, 1.38, 1.15, 1.20 and 1.14 s of CPU with budgets of one
# path and of 1, 2, 4 and 8 MiB, at peak RSS 42.3, 42.5, 43.4, 45.7 and
# 47.0 MB, against 2.09 s at 43.6 MB for the one-path-at-a-time solver this
# replaced. 2 MiB (16 of those paths) keeps most of the gain under that peak.
_BATCH_BYTES = 2 << 20


def _split_bytes(p, n_train, n_valid):
    k = min(n_train - 1, p)
    return 8 * (p * p + k * k + n_valid * p)


def _batches(split_pairs, p):
    """Consecutive splits with one validation size, within the byte budget."""
    batch, used = [], 0
    for train_ids, valid_ids in split_pairs:
        size = _split_bytes(p, len(train_ids), len(valid_ids))
        if batch and (len(valid_ids) != len(batch[0][1]) or used + size > _BATCH_BYTES):
            yield batch
            batch, used = [], 0
        batch.append((train_ids, valid_ids))
        used += size
    if batch:
        yield batch


def _fit_batch(design, y, row_ids, batch):
    """Fit one lockstep batch of splits.

    Returns the transforms and the scorer's rows: intercepts, chosen
    coefficients, validation SSEs and validation residuals, one per split.
    Every path runs over all design columns: a column that standardization
    drops for a split stays zero in its Gram and never enters.
    """
    n_paths, p, n_valid = len(batch), design.n_cols, len(batch[0][1])
    grams = np.zeros((n_paths, p, p))
    xty = np.zeros((n_paths, p))
    X_valid = np.zeros((n_paths, n_valid, p))
    y_valid = np.empty((n_paths, n_valid))
    intercepts = np.empty(n_paths)
    max_active = np.empty(n_paths, dtype=np.intp)
    max_steps = np.empty(n_paths, dtype=np.intp)
    transforms = []
    for i, (train_ids, valid_ids) in enumerate(batch):
        tr = _positions(row_ids, train_ids)
        va = _positions(row_ids, valid_ids)
        X_train, transform = fit_transform(design.subset_rows(tr))
        kept = transform.retained_indices
        y_train = y[tr]
        intercepts[i] = float(y_train.mean())
        gram, xty[i, kept] = gram_system(X_train, y_train - intercepts[i])
        grams[i][np.ix_(kept, kept)] = gram
        X_valid[i][:, kept] = apply_transform(design.subset_rows(va), transform)
        y_valid[i] = y[va]
        n, q = X_train.shape
        max_active[i], max_steps[i] = min(n - 1, q), 8 * min(n, q)
        transforms.append(transform)
        del X_train, gram  # only the Gram stays
    scorer = _KnotScorer(X_valid, y_valid, intercepts)
    for outcome in zip(*lockstep_paths(grams, xty, max_active, max_steps, scorer)):
        path_flags(*outcome)
    return transforms, intercepts, scorer.coef, scorer.sse, list(scorer.resid)


def _fit_chunk(args):
    design, y, row_ids, split_pairs = args
    batches = _batches(split_pairs, design.n_cols)
    return [_fit_batch(design, y, row_ids, batch) for batch in batches]


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
    if workers <= 1 or len(splits) < 2:
        batches = _fit_chunk((design, y, row_ids, splits))
    else:
        # imported here so that only a multi-worker fit loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(splits))
        bounds = np.linspace(0, len(splits), workers + 1).astype(int)
        chunks = [
            (design, y, row_ids, splits[a:b])
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = [batch for part in pool.map(_fit_chunk, chunks) for batch in part]
    transforms, intercepts, coefs, sses, residuals = zip(*batches)
    sses = np.concatenate(sses)
    return Ensemble(
        intercepts=np.concatenate(intercepts),
        coefs=np.concatenate(coefs),
        sses=sses,
        transforms=[t for part in transforms for t in part],
        weights=ensemble_weights(sses),
        terms=list(design.terms),
        split_plan_ref=split_plan_ref,
        validation_errors=[e for part in residuals for e in part],
        validation_rows=[np.asarray(va, dtype=np.intp) for _, va in splits],
    )
