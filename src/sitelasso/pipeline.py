"""The four site-handling strategies, transfer evaluation, and support reports.

All four methods share one split plan and the same expansion/filter settings:

- method 1: one ensemble per site, fitted to that site's rows alone
- method 2: one ensemble on the combined rows, global columns only
- method 3: method 2 plus per-site ensembles fitted to its residuals
- method 4: combined rows over [global | site-1 | site-2] column blocks

A run expands its covariates once and filters once per row set (each site,
and the combined rows) in a :class:`RunDesigns`, not once per method: method
1 reads its site's filtered design; methods 2, 3 and 4 share the combined
one. Method 4's site blocks copy the combined survivors, so method 2's
columns are always a subset of method 4's.
"""

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import fit_ensemble, linear_form, member_predictions, model_average
from .errors import DataError
from .features import assemble_site_blocks, expand_terms, filter_collinear
from .models import fit_metrics
from .pointdata import format_float
from .terms import evaluate_term

log = logging.getLogger(__name__)

COMBINED = "combined"


@dataclass
class MethodRun:
    """Everything one method produced: ensemble(s), predictions, metrics."""

    method: str
    site: str  # None except for method 1
    ensemble: object  # None for method 3 (see stage1/stage2)
    row_ids: np.ndarray  # dataset rows the predictions align with
    predictions: np.ndarray
    metrics: dict  # target -> FitMetrics
    removal_records: list
    stage1: object = None  # method 3: the underlying method-2 run
    stage2: dict = None  # method 3: site -> residual Ensemble
    predictions_oos: np.ndarray = None  # method 3 only, labelled variant
    metrics_oos: dict = None

    @property
    def terms(self):
        if self.ensemble is not None:
            return self.ensemble.terms
        return self.stage1.terms

    def ensembles_by_label(self):
        """(label, ensemble) pairs for serialization and tallies."""
        if self.method == "m3":
            out = [("stage2_" + site, ens) for site, ens in sorted(self.stage2.items())]
            return out
        return [("", self.ensemble)]


def _plan_ref(plan):
    return f"splits-seed{plan.seed}-n{plan.n_splits}"


def _metric_targets(site_of, obs, predictions):
    """FitMetrics per site, plus the combined rows when there are two or more sites."""
    sites = sorted(set(site_of.tolist()))
    targets = {}
    for site in sites:
        mask = site_of == site
        targets[site] = fit_metrics(obs[mask], predictions[mask])
    if len(sites) > 1:
        targets[COMBINED] = fit_metrics(obs, predictions)
    return targets


class RunDesigns:
    """The candidate terms of one run: expanded once, filtered once per row set.

    Every method of a run trains on the same expansion of ``data``. The
    collinearity filter runs the first time a method asks for a row set
    (one site's rows, or every row) and its result is kept for the rest of
    the run, so methods that train on the same rows share one filtered
    design and one removal log.
    """

    def __init__(self, data, threshold=0.95, hierarchy=None, max_order=4, filter_seed=0):
        self.data = data
        self.threshold = threshold
        self.hierarchy = hierarchy
        self.filter_seed = filter_seed
        self.full = expand_terms(data, max_order=max_order)
        self._filtered = {}

    def filtered(self, site=None):
        """(RawDesign, removal records) for one site's rows, or every row."""
        if site not in self._filtered:
            design = self.full
            if site is not None:
                design = design.subset_rows(self.data.site_rows(site))
            self._filtered[site] = filter_collinear(
                design, self.threshold, self.hierarchy, self.filter_seed
            )
        return self._filtered[site]


def _fit_run(method, designs, site, design, plan, workers, records, response=None):
    """Fit one ensemble to ``design`` and average it over the rows it trained on.

    ``site`` None trains on every row with the plan's combined splits, a site
    on that site's rows with its site splits. ``response`` replaces the
    observations as the full-length target; a run fitted to it reports no
    metrics.
    """
    data = designs.data
    if site is None:
        rows = np.arange(data.n_rows)
        splits = [plan.combined_split(i) for i in range(plan.n_splits)]
    else:
        rows = data.site_rows(site)
        splits = [plan.site_split(site, i) for i in range(plan.n_splits)]
    fitted = (data.response if response is None else response)[rows]
    ens = fit_ensemble(design, fitted, splits, rows, _plan_ref(plan), workers)
    preds = model_average(ens, design)
    metrics = None
    if response is None:
        metrics = _metric_targets(data.site_ids[rows], fitted, preds)
    return MethodRun(
        method=method,
        site=site,
        ensemble=ens,
        row_ids=rows,
        predictions=preds,
        metrics=metrics,
        removal_records=records,
    )


def run_method1(designs, site, plan, workers=1):
    """Site-specific ensemble fitted to one site's rows only."""
    if site not in designs.data.sites():
        raise DataError(f"no site {site!r} in the data")
    filtered, records = designs.filtered(site)
    return _fit_run("m1", designs, site, filtered, plan, workers, records)


def run_method2(designs, plan, workers=1):
    """Combined-site ensemble over global columns."""
    filtered, records = designs.filtered()
    return _fit_run("m2", designs, None, filtered, plan, workers, records)


def run_method4(designs, plan, workers=1):
    """Combined-site ensemble over global plus per-site column blocks."""
    filtered, records = designs.filtered()
    wide = assemble_site_blocks(filtered)
    return _fit_run("m4", designs, None, wide, plan, workers, records)


def _oos_predictions(ens, design, row_ids, fallback):
    """Per-point predictions averaged over models that held the point out.

    Points that never land in a validation set (possible with tiny plans)
    fall back to the full-ensemble prediction.
    """
    preds = member_predictions(ens, design)
    held_out = np.array([np.isin(row_ids, rows) for rows in ens.validation_rows])
    weight_mass = ens.weights @ held_out
    weighted = (ens.weights[:, None] * held_out * preds).sum(axis=0)
    out = np.where(weight_mass > 0, weighted / np.where(weight_mass > 0, weight_mass, 1.0), fallback)
    if np.any(weight_mass == 0):
        log.info(
            "%d points never held out; out-of-sample falls back to in-sample there",
            int((weight_mass == 0).sum()),
        )
    return out


def run_method3(designs, plan, workers=1, stage1=None):
    """Two-stage method: combined-site ensemble, then per-site residual
    ensembles that amend its predictions.

    Stage 2 fits stage 1's filtered design (no re-filtering) restricted to
    each site's rows, and earns its own inverse-SSE weights from the
    residual fits. Reported twice: in-sample stage-2 amendments (the
    headline numbers) and an out-of-sample variant where each point's
    amendment comes only from splits that held it out.
    """
    combined, _ = designs.filtered()
    if stage1 is None:
        stage1 = run_method2(designs, plan, workers)
    elif stage1.method != "m2" or stage1.terms != combined.terms:
        raise DataError("stage1 must be a method-2 run on these designs")
    data = designs.data
    residual = data.response - stage1.predictions
    stage2 = {}
    preds = stage1.predictions.copy()
    preds_oos = stage1.predictions.copy()
    for site in data.sites():
        site_design = combined.subset_rows(data.site_rows(site))
        amend = _fit_run("m3", designs, site, site_design, plan, workers, [], residual)
        stage2[site] = amend.ensemble
        preds[amend.row_ids] += amend.predictions
        preds_oos[amend.row_ids] += _oos_predictions(
            amend.ensemble, site_design, amend.row_ids, amend.predictions
        )
    rows_all = np.arange(data.n_rows)
    return MethodRun(
        method="m3",
        site=None,
        ensemble=None,
        row_ids=rows_all,
        predictions=preds,
        metrics=_metric_targets(data.site_ids, data.response, preds),
        removal_records=list(stage1.removal_records),
        stage1=stage1,
        stage2=stage2,
        predictions_oos=preds_oos,
        metrics_oos=_metric_targets(data.site_ids, data.response, preds_oos),
    )


@dataclass(frozen=True)
class TransferResult:
    target_site: str
    metrics: object
    predictions: np.ndarray


# Target rows evaluated per block, so the term values of one block are the
# only temporaries of a prediction, however many rows the target has.
_BLOCK_ROWS = 1 << 14


def evaluate_transfer(ensemble, target_data):
    """Predict another site's observations with a method-1 ensemble.

    Evaluates the ensemble's linear form, built from its members' training
    transforms and weights unchanged; nothing is refitted.
    Rows are evaluated a block at a time; ``LinearForm.predict`` computes
    each row on its own, so the blocks do not change the bits.
    Raises DataError if the target lacks a covariate the members read.
    """
    form = linear_form(ensemble)
    covariates = target_data.covariate_map()
    preds = np.empty(target_data.n_rows)
    for start in range(0, target_data.n_rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        preds[block] = form.predict_covariates(
            {name: values[block] for name, values in covariates.items()},
            form.site_index(target_data.site_ids[block]),
        )
    target_sites = target_data.sites()
    label = target_sites[0] if len(target_sites) == 1 else COMBINED
    return TransferResult(
        target_site=label,
        metrics=fit_metrics(target_data.response, preds),
        predictions=preds,
    )


@dataclass(frozen=True)
class SupportRow:
    term: str
    site: str
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float
    outside_other_range: bool


def _quartiles(values):
    """``np.quantile(values, (0.25, 0.5, 0.75)).tolist()``, bit for bit.

    numpy's default linear rule, restated because ``np.quantile`` sorts its
    partition indices with ``np.unique``, which imports ``numpy.ma`` (about
    1.3 MB of RSS). A copy of ``values`` is partitioned at the indices numpy
    passes, in numpy's order, so ties and signed zeros land where they do
    there; a nan sorts last and then stands for every quartile, and each
    quartile interpolates its two neighbours as numpy's ``_lerp`` does.
    """
    arr = np.array(values, dtype=np.float64)
    last = arr.size - 1
    bounds = []
    for q in (0.25, 0.5, 0.75):
        virtual = last * q
        below = -1 if virtual >= last else math.floor(virtual)
        bounds.append((virtual, below, -1 if below == -1 else below + 1))
    arr.partition(sorted({0, -1, *(b for _, b, _ in bounds), *(a for _, _, a in bounds)}))
    if math.isnan(arr[-1]):
        return [float(arr[-1])] * 3
    out = []
    for virtual, below, above in bounds:
        a, b, t = float(arr[below]), float(arr[above]), virtual - below
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def covariate_support_report(first, second, terms):
    """Per-site spread of each term's values after pooled standardization.

    ``first`` and ``second`` are ``(PointDataset, site)`` pairs: the rows of
    one site of each dataset (the same dataset may appear twice). Only the
    covariates both datasets carry are read. Term values are computed
    ignoring site scope (the question is how the underlying quantity is
    distributed), pooled over both sites' rows (``first``'s rows first),
    recentred to mean zero and rescaled to unit L2 norm, then summarized per
    site, in site order. A site's row is flagged when its interquartile range
    lies entirely outside the other site's full range, the extrapolation
    signature.

    Each term is evaluated from the site rows of the covariates it reads, on
    each side; no combined dataset and no copy of a site's covariate table
    is built, so the report's temporaries are a few columns of one term.
    """
    (data_a, site_a), (data_b, site_b) = first, second
    shared = [n for n in data_a.covariate_names if n in data_b.covariate_names]
    sides = [
        (data.site_rows(site), {n: data.covariate(n) for n in shared})
        for data, site in (first, second)
    ]
    n_a = len(sides[0][0])
    if site_a == site_b or not (n_a and len(sides[1][0])):
        raise DataError("support report compares exactly two sites")
    if terms and not shared:
        raise DataError("no covariates supplied")
    rows = []
    for term in terms:
        base = term.unscoped()
        # each side's rows of only the covariates this term reads
        values = np.concatenate(
            [
                evaluate_term(base, {n: cov[n][index] for n in base.covariates if n in cov})
                for index, cov in sides
            ]
        )
        values -= values.mean()
        norm = float(np.sqrt(np.square(values).sum()))
        if norm > 0:
            values /= norm
        stats = {}
        for site, v in ((site_a, values[:n_a]), (site_b, values[n_a:])):
            q25, med, q75 = _quartiles(v)
            stats[site] = (float(v.min()), q25, med, q75, float(v.max()))
        for site, other in sorted([(site_a, site_b), (site_b, site_a)]):
            lo, q25, med, q75, hi = stats[site]
            o_lo, _, _, _, o_hi = stats[other]
            flagged = q75 < o_lo or q25 > o_hi
            rows.append(SupportRow(base.term_id, site, lo, q25, med, q75, hi, flagged))
    return rows


def write_support_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["term", "site", "min", "q25", "median", "q75", "max", "outside_other_range"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.term,
                    r.site,
                    format_float(r.minimum),
                    format_float(r.q25),
                    format_float(r.median),
                    format_float(r.q75),
                    format_float(r.maximum),
                    int(r.outside_other_range),
                ]
            )


def write_residuals_csv(path, data, row_ids, predictions):
    """Per-point observed/predicted/residual CSV aligned with a method run."""
    idx = np.asarray(row_ids, dtype=np.intp)
    preds = np.asarray(predictions, dtype=np.float64)
    if idx.shape != preds.shape:
        raise DataError("row ids and predictions have mixed lengths")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["site", "x", "y", "observed", "predicted", "residual"])
        for i, pred in zip(idx, preds):
            obs = float(data.response[i])
            writer.writerow(
                [
                    data.site_ids[i],
                    format_float(float(data.x[i])),
                    format_float(float(data.y[i])),
                    format_float(obs),
                    format_float(float(pred)),
                    format_float(obs - float(pred)),
                ]
            )


def write_method_comparison_csv(path, table, targets, methods):
    """Wide CSV: one row per prediction target, R2/RMSE per method.

    ``table`` maps method label -> target -> FitMetrics; missing cells are
    written as NA.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        header = ["target"]
        for m in methods:
            header += [f"{m}_r2", f"{m}_rmse"]
        writer.writerow(header)
        for target in targets:
            row = [target]
            for m in methods:
                cell = table.get(m, {}).get(target)
                if cell is None:
                    row += ["NA", "NA"]
                else:
                    row += [format_float(cell.r2), format_float(cell.rmse)]
            writer.writerow(row)
