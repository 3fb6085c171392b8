"""Whole-array reference for ``sitelasso transfer``'s two output files.

It scores the saved method-1 ensembles as one prediction over every target
row and builds the support report from one combined two-site dataset: the
source site's rows, then the target site's rows, over the covariates both
files carry. It reads points with the token-at-a-time reference reader. It
defines the contract of ``sitelasso.cli.cmd_transfer``, which holds each
target value once: the same ``transfer_metrics.csv`` and
``support_report.csv`` bytes, and the same error message.
"""

import glob
import os

import numpy as np
from _reference_readers import read_points_csv
from _spec_route import build_term_matrix

from sitelasso import artifacts
from sitelasso.ensemble import linear_form
from sitelasso.errors import DataError, NumericalError
from sitelasso.models import FitMetrics
from sitelasso.pipeline import COMBINED, SupportRow, write_support_csv
from sitelasso.pointdata import PointDataset, format_float


def fit_metrics(obs, pred):
    if obs.size < 2:
        raise DataError("metrics need at least two observations")
    if not (np.isfinite(obs).all() and np.isfinite(pred).all()):
        raise DataError("non-finite values in metrics input")
    sst = float(((obs - obs.mean()) ** 2).sum())
    if sst == 0.0:
        raise NumericalError("undefined R2: observed values are constant")
    resid = obs - pred
    sse = float((resid**2).sum())
    return FitMetrics(1.0 - sse / sst, float(np.sqrt((resid**2).mean())), obs.size)


def combined_for_support(source_data, source_site, target_data, target_site):
    """One two-site dataset from the source site's rows plus the target's."""
    names = [n for n in source_data.covariate_names if n in target_data.covariate_names]
    src = source_data.subset(source_data.site_rows(source_site))
    tgt = target_data.subset(target_data.site_rows(target_site))
    return PointDataset(
        site_ids=np.concatenate([src.site_ids, tgt.site_ids]),
        x=np.concatenate([src.x, tgt.x]),
        y=np.concatenate([src.y, tgt.y]),
        response=np.concatenate([src.response, tgt.response]),
        covariate_names=names,
        covariate_values=np.column_stack(
            [np.concatenate([src.covariate(n), tgt.covariate(n)]) for n in names]
        )
        if names
        else np.empty((len(src.site_ids) + len(tgt.site_ids), 0)),
    )


def covariate_support_report(data, terms):
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
            q25, med, q75 = np.quantile(v, (0.25, 0.5, 0.75)).tolist()
            stats[site] = (float(v.min()), q25, med, q75, float(v.max()))
        for site in sites:
            other = sites[1] if site == sites[0] else sites[0]
            lo, q25, med, q75, hi = stats[site]
            o_lo, _, _, _, o_hi = stats[other]
            flagged = q75 < o_lo or q25 > o_hi
            rows.append(SupportRow(base.term_id, site, lo, q25, med, q75, hi, flagged))
    return rows


def transfer(run_dir, target_path, out_dir):
    """Write what ``sitelasso transfer run_dir target_path`` writes into ``out_dir``."""
    target = read_points_csv(target_path)
    paths = sorted(glob.glob(os.path.join(run_dir, "ensemble_m1_*.json")))
    source_data = read_points_csv(os.path.join(run_dir, "points.csv"))
    os.makedirs(out_dir, exist_ok=True)
    target_sites = target.sites()
    label = target_sites[0] if len(target_sites) == 1 else COMBINED
    rows = []
    support_written = False
    for path in paths:
        payload = artifacts.read_json(path)
        ens = artifacts.ensemble_from_dict(payload)
        source_site = payload["site"]
        form = linear_form(ens)
        preds = form.predict_covariates(target.covariate_map(), form.site_index(target.site_ids))
        metrics = fit_metrics(target.response, preds)
        rows.append((source_site, label, metrics.r2, metrics.rmse, metrics.n))
        if not support_written:
            for tsite in target_sites:
                if tsite == source_site or source_site not in source_data.sites():
                    continue
                combined = combined_for_support(source_data, source_site, target, tsite)
                report = covariate_support_report(combined, ens.terms)
                write_support_csv(os.path.join(out_dir, "support_report.csv"), report)
                support_written = True
                break
    with open(os.path.join(out_dir, "transfer_metrics.csv"), "w", newline="\n") as handle:
        handle.write("source_site,target,r2,rmse,n\n")
        for source_site, tgt, r2, rmse, n in rows:
            handle.write(f"{source_site},{tgt},{format_float(r2)},{format_float(rmse)},{n}\n")
