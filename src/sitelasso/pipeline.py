"""The four site-handling strategies, transfer evaluation, and support reports.

All four methods share one split plan and the same expansion/filter settings:

- method 1: one ensemble per site, fitted to that site's rows alone
- method 2: one ensemble on the combined rows, global columns only
- method 3: method 2 plus per-site ensembles fitted to its residuals
- method 4: combined rows over [global | site-1 | site-2] column blocks

Filtering runs once per method on the rows the method trains on; method 4
filters at the global-copy level and the site blocks inherit the surviving
terms, so method 2's columns are always a subset of method 4's.
"""

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .ensemble import fit_ensemble, linear_form, member_predictions, model_average
from .errors import DataError
from .features import assemble_site_blocks, expand_terms, filter_collinear
from .models import fit_metrics
from .pointdata import format_float
from .terms import build_term_matrix

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
    plan: object
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


def _metric_targets(data, row_ids, predictions, per_site=True, combined=True):
    targets = {}
    sites = sorted(set(np.asarray(data.site_ids[row_ids]).tolist()))
    obs = data.response[row_ids]
    site_of = data.site_ids[row_ids]
    if per_site:
        for site in sites:
            mask = site_of == site
            targets[site] = fit_metrics(obs[mask], predictions[mask])
    if combined and len(sites) > 1:
        targets[COMBINED] = fit_metrics(obs, predictions)
    return targets


def run_method1(
    data,
    site,
    plan,
    threshold=0.95,
    hierarchy=None,
    max_order=4,
    filter_seed=0,
    workers=1,
):
    """Site-specific ensemble fitted to one site's rows only."""
    if site not in data.sites():
        raise DataError(f"no site {site!r} in the data")
    full = expand_terms(data, max_order=max_order)
    rows = data.site_rows(site)
    site_design = full.subset_rows(rows)
    filtered, records = filter_collinear(site_design, threshold, hierarchy, filter_seed)
    splits = [plan.site_split(site, i) for i in range(plan.n_splits)]
    ens = fit_ensemble(
        filtered, data.response[rows], splits, rows, _plan_ref(plan), workers
    )
    preds = model_average(ens, filtered)
    return MethodRun(
        method="m1",
        site=site,
        ensemble=ens,
        row_ids=rows,
        predictions=preds,
        metrics=_metric_targets(data, rows, preds, combined=False),
        removal_records=records,
        plan=plan,
    )


def _combined_design(data, threshold, hierarchy, max_order, filter_seed):
    full = expand_terms(data, max_order=max_order)
    return filter_collinear(full, threshold, hierarchy, filter_seed)


def run_method2(
    data,
    plan,
    threshold=0.95,
    hierarchy=None,
    max_order=4,
    filter_seed=0,
    workers=1,
):
    """Combined-site ensemble over global columns."""
    filtered, records = _combined_design(data, threshold, hierarchy, max_order, filter_seed)
    rows = np.arange(data.n_rows)
    splits = [plan.combined_split(i) for i in range(plan.n_splits)]
    ens = fit_ensemble(filtered, data.response, splits, rows, _plan_ref(plan), workers)
    preds = model_average(ens, filtered)
    return MethodRun(
        method="m2",
        site=None,
        ensemble=ens,
        row_ids=rows,
        predictions=preds,
        metrics=_metric_targets(data, rows, preds),
        removal_records=records,
        plan=plan,
    )


def run_method4(
    data,
    plan,
    threshold=0.95,
    hierarchy=None,
    max_order=4,
    filter_seed=0,
    workers=1,
):
    """Combined-site ensemble over global plus per-site column blocks."""
    filtered, records = _combined_design(data, threshold, hierarchy, max_order, filter_seed)
    wide = assemble_site_blocks(filtered)
    rows = np.arange(data.n_rows)
    splits = [plan.combined_split(i) for i in range(plan.n_splits)]
    ens = fit_ensemble(wide, data.response, splits, rows, _plan_ref(plan), workers)
    preds = model_average(ens, wide)
    return MethodRun(
        method="m4",
        site=None,
        ensemble=ens,
        row_ids=rows,
        predictions=preds,
        metrics=_metric_targets(data, rows, preds),
        removal_records=records,
        plan=plan,
    )


def _oos_predictions(ens, design, row_ids, fallback):
    """Per-point predictions averaged over models that held the point out.

    Points that never land in a validation set (possible with tiny plans)
    fall back to the full-ensemble prediction.
    """
    preds = member_predictions(ens, design)
    held_out = np.zeros((ens.n_models, len(row_ids)), dtype=bool)
    position = {rid: k for k, rid in enumerate(row_ids)}
    for i, rows in enumerate(ens.validation_rows):
        for rid in rows:
            k = position.get(int(rid))
            if k is not None:
                held_out[i, k] = True
    weight_mass = ens.weights @ held_out
    weighted = (ens.weights[:, None] * held_out * preds).sum(axis=0)
    out = np.where(weight_mass > 0, weighted / np.where(weight_mass > 0, weight_mass, 1.0), fallback)
    if np.any(weight_mass == 0):
        log.info(
            "%d points never held out; out-of-sample falls back to in-sample there",
            int((weight_mass == 0).sum()),
        )
    return out


def run_method3(
    data,
    plan,
    threshold=0.95,
    hierarchy=None,
    max_order=4,
    filter_seed=0,
    workers=1,
    stage1=None,
):
    """Two-stage method: combined-site ensemble, then per-site residual
    ensembles that amend its predictions.

    Stage 2 reuses stage 1's filtered term set (no re-expansion or
    re-filtering) restricted to each site's rows, and earns its own
    inverse-SSE weights from the residual fits. Reported twice: in-sample
    stage-2 amendments (the headline numbers) and an out-of-sample variant
    where each point's amendment comes only from splits that held it out.
    """
    if stage1 is None:
        stage1 = run_method2(
            data, plan, threshold, hierarchy, max_order, filter_seed, workers
        )
    elif stage1.method != "m2":
        raise DataError("stage1 must be a method-2 run")
    residual = data.response - stage1.predictions
    stage2 = {}
    preds = stage1.predictions.copy()
    preds_oos = stage1.predictions.copy()
    full = expand_terms(data, max_order=max_order)
    position = {cid: j for j, cid in enumerate(full.column_ids)}
    keep = [position[t.term_id] for t in stage1.terms]
    reused = full.subset_terms(keep)
    for site in data.sites():
        rows = data.site_rows(site)
        site_design = reused.subset_rows(rows)
        splits = [plan.site_split(site, i) for i in range(plan.n_splits)]
        ens = fit_ensemble(
            site_design, residual[rows], splits, rows, _plan_ref(plan), workers
        )
        stage2[site] = ens
        amend = model_average(ens, site_design)
        preds[rows] += amend
        preds_oos[rows] += _oos_predictions(ens, site_design, rows, amend)
    rows_all = np.arange(data.n_rows)
    return MethodRun(
        method="m3",
        site=None,
        ensemble=None,
        row_ids=rows_all,
        predictions=preds,
        metrics=_metric_targets(data, rows_all, preds),
        removal_records=list(stage1.removal_records),
        plan=plan,
        stage1=stage1,
        stage2=stage2,
        predictions_oos=preds_oos,
        metrics_oos=_metric_targets(data, rows_all, preds_oos),
    )


@dataclass(frozen=True)
class TransferResult:
    source_site: str
    target_site: str
    metrics: object
    predictions: np.ndarray


def evaluate_transfer(source_run, target_data):
    """Predict another site's observations with a method-1 ensemble.

    Evaluates the source ensemble's linear form, built from the source
    models' training transforms and weights unchanged; nothing is refitted.
    Raises DataError if the target lacks a covariate the source models read.
    """
    if source_run.method != "m1":
        raise DataError("transfer needs a method-1 (single site) source run")
    form = linear_form(source_run.ensemble)
    preds = form.predict_covariates(
        target_data.covariate_map(), form.site_index(target_data.site_ids)
    )
    target_sites = target_data.sites()
    label = target_sites[0] if len(target_sites) == 1 else COMBINED
    return TransferResult(
        source_site=source_run.site,
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


def covariate_support_report(data, terms):
    """Per-site spread of each term's values after pooled standardization.

    Term values are computed ignoring site scope (the question is how the
    underlying quantity is distributed), pooled over all rows, recentred to
    mean zero and rescaled to unit L2 norm, then summarized per site. A
    site's row is flagged when its interquartile range lies entirely outside
    the other site's full range, the extrapolation signature.
    """
    sites = data.sites()
    if len(sites) != 2:
        raise DataError("support report compares exactly two sites")
    cov = data.covariate_map()
    rows = []
    masks = {s: data.site_mask(s) for s in sites}
    for term in terms:
        base = term.unscoped()
        values = build_term_matrix(cov, data.site_ids, [base])[:, 0]
        centred = values - values.mean()
        norm = float(np.sqrt((centred**2).sum()))
        z = centred / norm if norm > 0 else centred
        stats = {}
        for site in sites:
            v = z[masks[site]]
            stats[site] = (
                float(v.min()),
                float(np.quantile(v, 0.25)),
                float(np.quantile(v, 0.5)),
                float(np.quantile(v, 0.75)),
                float(v.max()),
            )
        for site in sites:
            other = sites[1] if site == sites[0] else sites[0]
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
