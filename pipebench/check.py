"""Output checker: is a finished synth -> run -> transfer sequence correct?

Works only from the files the commands wrote, with the numpy evaluator in
evaluator.py. sitelasso itself is used for one thing, its manifest
verification. Every check appends a line to a list of failures; an empty list
means the outputs passed. Tolerances:

- predictions against residuals_*.csv: 1e-9 relative
- R2 and RMSE in metrics.csv and transfer_metrics.csv: 1e-9 relative
- weights against normalised inverse validation SSE, and their sum: 1e-12
- lasso optimality (KKT) of sampled splits: 1e-8, as acceptance criterion 01
- sampled raster cells against the evaluator: 1e-10, as criterion 10
"""

import json
import os

import numpy as np

from evaluator import EnsembleModel, read_csv_rows, read_grid, read_points, term_values

PRED_RTOL = 1e-9
METRIC_RTOL = 1e-9
WEIGHT_TOL = 1e-12
KKT_TOL = 1e-8
RASTER_TOL = 1e-10
STANDARDIZE_RTOL = 1e-9
ZERO_NORM_RTOL = 1e-12  # sitelasso's constant-column rule
RMSE_NOISE_MULTIPLE = 3.0  # in-sample RMSE of m2, m3, m4 over the planted noise_sd


def _tag(label):
    return label.replace("-", "_")


def _r2_rmse(obs, pred):
    resid = obs - pred
    sse = float(resid @ resid)
    sst = float(((obs - obs.mean()) ** 2).sum())
    return 1.0 - sse / sst, float(np.sqrt(sse / obs.size))


class Checker:
    """Runs every check over one finished iteration and collects failures."""

    def __init__(self, study_dir, target_dir, run_dir, transfer_dir, site_codes,
                 seed, pixel_sample=400, kkt_sample=3):
        self.study_dir = study_dir
        self.target_dir = target_dir
        self.run_dir = run_dir
        self.transfer_dir = transfer_dir
        self.site_codes = dict(site_codes)
        self.rng = np.random.default_rng(seed)
        self.pixel_sample = pixel_sample
        self.kkt_sample = kkt_sample
        self.failures = []

    # -- helpers ------------------------------------------------------------

    def fail(self, message):
        self.failures.append(message)

    def close(self, what, got, want, rtol):
        """Record a failure where any |got - want| > rtol * max(1, |want|)."""
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape} != {want.shape}")
            return
        excess = np.abs(got - want) - rtol * np.maximum(1.0, np.abs(want))
        if excess.size and excess.max() > 0:
            k = int(np.argmax(excess))
            self.fail(
                f"{what}: element {k} is {got.flat[k]!r}, expected {want.flat[k]!r}"
            )

    def run_file(self, name):
        return os.path.join(self.run_dir, name)

    # -- entry point --------------------------------------------------------

    def check(self):
        """Failures found in one finished iteration; empty when all checks pass."""
        self.check_manifests()
        self.points = read_points(os.path.join(self.study_dir, "points.csv"))
        self.sites = sorted(set(self.points.sites.tolist()))
        with open(self.run_file("splits.json"), encoding="utf-8") as handle:
            self.splits = json.load(handle)
        self.load_ensembles()
        self.predict_points()
        for name, ens in self.ensembles.items():
            self.check_ensemble(name, ens)
        self.check_residual_files()
        self.check_metrics_csv()
        self.check_rasters()
        self.check_transfer()
        self.check_truth()
        return self.failures

    def check_manifests(self):
        from sitelasso.artifacts import verify_manifest

        for directory in (self.study_dir, self.target_dir, self.run_dir):
            for problem in verify_manifest(directory):
                self.fail(f"manifest of {directory}: {problem}")
        with open(self.run_file("manifest.json"), encoding="utf-8") as handle:
            listed = set(json.load(handle)["outputs"])
        present = set(os.listdir(self.run_dir)) - {"manifest.json"}
        for name in sorted(present - listed):
            self.fail(f"manifest of {self.run_dir} does not list {name}")
        with open(os.path.join(self.study_dir, "points.csv"), "rb") as a, open(
            self.run_file("points.csv"), "rb"
        ) as b:
            if a.read() != b.read():
                self.fail("the run's points.csv differs from its input")

    # -- ensembles and point predictions -------------------------------------

    def load_ensembles(self):
        b1, b2 = self.sites
        names = {
            "m1_b1": "ensemble_m1_b1.json",
            "m1_b2": "ensemble_m1_b2.json",
            "m2": "ensemble_m2.json",
            "m4": "ensemble_m4.json",
            f"m3_{b1}": f"ensemble_m3_stage2_{b1}.json",
            f"m3_{b2}": f"ensemble_m3_stage2_{b2}.json",
        }
        self.ensembles = {k: EnsembleModel(self.run_file(v)) for k, v in names.items()}
        self.m1_site = {"m1_b1": b1, "m1_b2": b2}

    def predict_points(self):
        """Member predictions of every ensemble on every study point, and the
        response each ensemble was fitted to."""
        pts = self.points
        self.members = {
            name: ens.members(pts.cov, pts.sites) for name, ens in self.ensembles.items()
        }
        self.pred = {
            name: self.ensembles[name].weights @ m for name, m in self.members.items()
        }
        m2 = self.pred["m2"]
        self.response = {name: pts.response for name in self.ensembles}
        m3 = m2.copy()
        m3_oos = m2.copy()
        for site in self.sites:
            name = f"m3_{site}"
            self.response[name] = pts.response - m2
            rows = np.flatnonzero(pts.sites == site)
            amend = self.pred[name][rows]
            m3[rows] += amend
            sub = pts.rows(rows)
            m3_oos[rows] += self.ensembles[name].predict_held_out(
                sub.cov, sub.sites, rows, amend
            )
        self.pred["m3"] = m3
        self.pred["m3_oos"] = m3_oos

    def train_rows(self, name, split):
        plans = self.splits["sites"]
        if name.startswith("m1_"):
            return np.asarray(plans[self.m1_site[name]]["train"][split], dtype=np.intp)
        if name.startswith("m3_"):
            return np.asarray(plans[name[3:]]["train"][split], dtype=np.intp)
        return np.concatenate(
            [np.asarray(plans[s]["train"][split], dtype=np.intp) for s in sorted(plans)]
        )

    def check_ensemble(self, name, ens):
        y = self.response[name]
        members = self.members[name]
        if ens.n_models != self.splits["n_splits"]:
            self.fail(f"{name}: {ens.n_models} models for {self.splits['n_splits']} splits")
            return
        for i, rows in enumerate(ens.validation_rows):
            resid = y[rows] - members[i, rows]
            self.close(f"{name} split {i} validation errors", ens.validation_errors[i],
                       resid, PRED_RTOL)
            self.close(f"{name} split {i} validation SSE", ens.sses[i],
                       float(resid @ resid), PRED_RTOL)
        if np.all(ens.sses > 0):
            inv = 1.0 / ens.sses
            expected = inv / inv.sum()
        else:
            zero = ens.sses == 0
            expected = zero / zero.sum()
        if np.max(np.abs(ens.weights - expected)) > WEIGHT_TOL:
            self.fail(f"{name}: weights are not normalised inverse validation SSE")
        if abs(ens.weights.sum() - 1.0) > WEIGHT_TOL:
            self.fail(f"{name}: weights sum to {ens.weights.sum()!r}")
        picks = self.rng.choice(ens.n_models, size=min(self.kkt_sample, ens.n_models),
                                replace=False)
        for split in sorted(picks.tolist()):
            self.check_lasso_optimality(name, ens, split, y)

    def check_lasso_optimality(self, name, ens, split, y):
        """Rebuild the standardized training matrix of one split and test the
        stored means/norms, the intercept and the KKT conditions."""
        where = f"{name} split {split}"
        rows = self.train_rows(name, split)
        sub = self.points.rows(rows)
        y_train = y[rows]
        means, norms, dropped = ens.means[split], ens.norms[split], ens.dropped[split]
        columns, coefs = [], []
        coef = ens.coefs[split]
        for j, term in enumerate(ens.terms):
            raw = term_values(term, sub.cov, sub.sites)
            match = np.ones(len(rows), bool) if term.scope is None else sub.sites == term.scope
            if not match.any():
                if not dropped[j]:
                    self.fail(f"{where}: {ens.term_ids[j]} has no training rows but is kept")
                continue
            vals = raw[match]
            mean = vals.mean()
            norm = float(np.sqrt(((vals - mean) ** 2).sum()))
            peak = float(np.abs(vals).max())
            if abs(means[j] - mean) > STANDARDIZE_RTOL * max(peak, 1e-300):
                self.fail(f"{where}: stored mean of {ens.term_ids[j]} is {means[j]!r}, "
                          f"training rows give {mean!r}")
            if (norm <= ZERO_NORM_RTOL * peak) != dropped[j]:
                self.fail(f"{where}: drop flag of {ens.term_ids[j]} disagrees with its norm")
            if dropped[j]:
                if ens.term_ids[j] in coef:
                    self.fail(f"{where}: dropped column {ens.term_ids[j]} has a coefficient")
                continue
            if abs(norms[j] - norm) > STANDARDIZE_RTOL * norm:
                self.fail(f"{where}: stored norm of {ens.term_ids[j]} is {norms[j]!r}, "
                          f"training rows give {norm!r}")
            z = np.zeros(len(rows))
            z[match] = (vals - means[j]) / norms[j]
            columns.append(z)
            coefs.append(coef.get(ens.term_ids[j], 0.0))
        ybar = float(y_train.mean())
        if abs(ens.intercepts[split] - ybar) > 1e-12 * max(1.0, abs(ybar)):
            self.fail(f"{where}: intercept {ens.intercepts[split]!r} != training mean {ybar!r}")
        X = np.column_stack(columns)
        beta = np.asarray(coefs)
        corr = X.T @ ((y_train - ens.intercepts[split]) - X @ beta)
        top = float(np.abs(corr).max())
        active = beta != 0.0
        if active.any():
            gap = np.abs(corr[active] - np.sign(beta[active]) * top)
            if gap.max() > KKT_TOL:
                self.fail(f"{where}: active |x.r| misses the maximum by {gap.max():.3e}")
        if (~active).any() and (np.abs(corr[~active]) - top).max() > KKT_TOL:
            self.fail(f"{where}: an inactive |x.r| exceeds the maximum")

    # -- run-directory tables -------------------------------------------------

    def method_rows(self, label):
        if label.startswith("m1-"):
            site = self.m1_site[_tag(label)]
            return np.flatnonzero(self.points.sites == site)
        return np.arange(self.points.n)

    def check_residual_files(self):
        pts = self.points
        files = {"m1-b1": "m1_b1", "m1-b2": "m1_b2", "m2": "m2", "m3": "m3",
                 "m3_oos": "m3_oos", "m4": "m4"}
        for label, key in files.items():
            path = f"residuals_{_tag(label)}.csv"
            rows = self.method_rows(label)
            header, body = read_csv_rows(self.run_file(path))
            if header != ["site", "x", "y", "observed", "predicted", "residual"]:
                self.fail(f"{path}: header {header}")
                continue
            if len(body) != rows.size:
                self.fail(f"{path}: {len(body)} rows, expected {rows.size}")
                continue
            if [r[0] for r in body] != pts.sites[rows].tolist():
                self.fail(f"{path}: site column does not follow the points")
            nums = np.array([r[1:] for r in body], dtype=np.float64)
            for k, col in enumerate(("x", "y")):
                if not np.array_equal(nums[:, k], getattr(pts, col)[rows]):
                    self.fail(f"{path}: {col} column does not follow the points")
            if not np.array_equal(nums[:, 2], pts.response[rows]):
                self.fail(f"{path}: observed column does not follow the points")
            self.close(f"{path} predicted", nums[:, 3], self.pred[key][rows], PRED_RTOL)
            self.close(f"{path} residual", nums[:, 4], nums[:, 2] - nums[:, 3], 1e-12)

    def expected_metrics(self):
        """(method column, target) -> (observed, predicted) of every cell."""
        pts = self.points
        cells = {}
        for key in ("m1_b1", "m1_b2"):
            label = key.replace("_", "-")
            for site in self.sites:
                rows = np.flatnonzero(pts.sites == site)
                cells[label, site] = (pts.response[rows], self.pred[key][rows])
        for label, key in (("m2", "m2"), ("m3", "m3"), ("m3-oos", "m3_oos"), ("m4", "m4")):
            for site in self.sites:
                rows = np.flatnonzero(pts.sites == site)
                cells[label, site] = (pts.response[rows], self.pred[key][rows])
            cells[label, "combined"] = (pts.response, self.pred[key])
        return cells

    def check_metrics_csv(self):
        header, body = read_csv_rows(self.run_file("metrics.csv"))
        table = {row[0]: dict(zip(header[1:], row[1:])) for row in body}
        expected = self.expected_metrics()
        labels = ["m1-b1", "m1-b2", "m2", "m3", "m3-oos", "m4"]
        if header != ["target"] + [f"{m}_{k}" for m in labels for k in ("r2", "rmse")]:
            self.fail(f"metrics.csv: header {header}")
            return
        for target in self.sites + ["combined"]:
            for label in labels:
                cell = expected.get((label, target))
                got = table.get(target, {})
                r2_text, rmse_text = got.get(f"{label}_r2"), got.get(f"{label}_rmse")
                if cell is None:
                    if (r2_text, rmse_text) != ("NA", "NA"):
                        self.fail(f"metrics.csv {label}/{target}: expected NA")
                    continue
                if r2_text in (None, "NA") or rmse_text in (None, "NA"):
                    self.fail(f"metrics.csv {label}/{target}: missing")
                    continue
                r2, rmse = _r2_rmse(*cell)
                self.close(f"metrics.csv {label}/{target} R2", float(r2_text), r2, METRIC_RTOL)
                self.close(f"metrics.csv {label}/{target} RMSE", float(rmse_text), rmse,
                           METRIC_RTOL)

    # -- rasters --------------------------------------------------------------

    def check_rasters(self):
        rasters_dir = os.path.join(self.study_dir, "rasters")
        grids = {
            os.path.splitext(f)[0]: read_grid(os.path.join(rasters_dir, f))
            for f in sorted(os.listdir(rasters_dir))
        }
        site_grid = read_grid(os.path.join(self.study_dir, "site.asc"))
        geometry = site_grid.geometry()
        cov = {name: g.values.ravel() for name, g in grids.items()}
        cov_bad = {name: g.mask().ravel() for name, g in grids.items()}
        codes = site_grid.values.ravel()
        site_bad = site_grid.mask().ravel()
        pixel_sites = np.full(codes.size, "", dtype=object)
        for code, site in self.site_codes.items():
            pixel_sites[(codes == code) & ~site_bad] = site
        pixel_sites = pixel_sites.astype(str)

        def bad_for(ens):
            out = np.zeros(codes.size, dtype=bool)
            for name in ens.needed_covariates():
                out |= cov_bad[name]
            return out

        for label in ("m1_b1", "m1_b2", "m2", "m3", "m4"):
            path = f"prediction_{label}.asc"
            grid = read_grid(self.run_file(path))
            if grid.geometry() != geometry:
                self.fail(f"{path}: geometry {grid.geometry()} != {geometry}")
                continue
            if label == "m3":
                m2 = self.ensembles["m2"]
                expected_bad = bad_for(m2) | site_bad
                for site in self.sites:
                    on_site = pixel_sites == site
                    expected_bad |= on_site & bad_for(self.ensembles[f"m3_{site}"])
            else:
                ens = self.ensembles[label]
                expected_bad = bad_for(ens)
                if ens.uses_site_terms():
                    expected_bad |= site_bad
            got_bad = grid.mask().ravel()
            if not np.array_equal(got_bad, expected_bad):
                self.fail(f"{path}: nodata mask differs from the covariates' and site's "
                          f"masks at {int((got_bad != expected_bad).sum())} cells")
                continue
            valid = np.flatnonzero(~expected_bad)
            if valid.size == 0:
                continue
            take = np.sort(self.rng.choice(valid, size=min(self.pixel_sample, valid.size),
                                           replace=False))
            pix_cov = {name: v[take] for name, v in cov.items()}
            pix_sites = pixel_sites[take]
            if label == "m3":
                want = self.ensembles["m2"].predict(pix_cov, pix_sites)
                for site in self.sites:
                    on = pix_sites == site
                    sub_cov = {name: v[on] for name, v in pix_cov.items()}
                    want[on] += self.ensembles[f"m3_{site}"].predict(sub_cov, pix_sites[on])
            else:
                want = self.ensembles[label].predict(pix_cov, pix_sites)
            got = grid.values.ravel()[take]
            worst = float(np.max(np.abs(got - want)))
            if worst > RASTER_TOL:
                self.fail(f"{path}: sampled cell off the evaluator by {worst:.3e}")

    # -- transfer and recovery ----------------------------------------------

    def check_transfer(self):
        target = read_points(os.path.join(self.target_dir, "points.csv"))
        header, body = read_csv_rows(os.path.join(self.transfer_dir, "transfer_metrics.csv"))
        if header != ["source_site", "target", "r2", "rmse", "n"]:
            self.fail(f"transfer_metrics.csv: header {header}")
            return
        target_sites = sorted(set(target.sites.tolist()))
        label = target_sites[0] if len(target_sites) == 1 else "combined"
        by_source = {ens.site: ens for key, ens in self.ensembles.items() if key.startswith("m1_")}
        if sorted(r[0] for r in body) != sorted(by_source):
            self.fail(f"transfer_metrics.csv: sources {[r[0] for r in body]}")
            return
        for source, tgt, r2_text, rmse_text, n_text in body:
            if tgt != label or int(n_text) != target.n:
                self.fail(f"transfer_metrics.csv {source}: target {tgt} n {n_text}")
                continue
            pred = by_source[source].predict(target.cov, target.sites)
            r2, rmse = _r2_rmse(target.response, pred)
            self.close(f"transfer_metrics.csv {source} R2", float(r2_text), r2, METRIC_RTOL)
            self.close(f"transfer_metrics.csv {source} RMSE", float(rmse_text), rmse,
                       METRIC_RTOL)

    def check_truth(self):
        with open(os.path.join(self.study_dir, "truth.json"), encoding="utf-8") as handle:
            truth = json.load(handle)
        for key in ("m2", "m4"):
            ens = self.ensembles[key]
            for term in truth["coef_global"]:
                names = {term} | {f"{s}@{term}" for s in self.sites}
                share = np.mean([bool(names & set(c)) for c in ens.coefs])
                if share <= 0.5:
                    self.fail(f"{key}: planted term {term} selected in {share:.0%} of splits")
        for site, terms in truth["coef_site"].items():
            for term in terms:
                share = np.mean([f"{site}@{term}" in c for c in self.ensembles["m4"].coefs])
                if share <= 0.5:
                    self.fail(f"m4: planted term {site}@{term} selected in {share:.0%} of splits")
        limit = RMSE_NOISE_MULTIPLE * truth["noise_sd"]
        for key in ("m2", "m3", "m4"):
            _, rmse = _r2_rmse(self.points.response, self.pred[key])
            if rmse > limit:
                self.fail(f"{key}: in-sample RMSE {rmse:.4f} exceeds {limit:.4f}")
