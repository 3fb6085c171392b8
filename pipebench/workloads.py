"""Workload recipes: the synth and run configs each workload feeds sitelasso.

The study data of every workload is synthesized with DATA_SEED, the seed of
configs/synth_quickstart.cfg, so each workload studies one fixed dataset whose
planted terms the lasso recovers; the benchmark seed is the seed of the split
plan. The transfer target is the study recipe with the same seed and
TARGET_POINTS points per site, so its covariates come from the same random
fields as the study points.
"""

from dataclasses import dataclass, field

METHODS = "m1-b1, m1-b2, m2, m3, m4"
SITE_CODES = {1.0: "B1", 2.0: "B2"}
TARGET_POINTS = 20000
DATA_SEED = 42

# The quickstart study of configs/synth_quickstart.cfg.
QUICKSTART = {
    "n_site1": 80,
    "n_site2": 70,
    "site_names": "B1, B2",
    "n_covariates": 5,
    "length_scale": 150,
    "ncols": 120,
    "nrows": 90,
    "cellsize": 10,
    "gap_cols": 6,
    "coef.cov0": 2.0,
    "coef.cov1": 1.2,
    "coef.cov0^2": 0.7,
    "coef.cov0:cov1": 0.5,
    "site_coef.B2.cov2": 1.0,
    "noise_sd": 0.3,
    "intercept": 1.5,
    "shift.cov0": 0.4,
    "scale.cov0": 0.8,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_splits: int
    synth: dict = field(default_factory=dict)  # overrides of QUICKSTART

    def study_spec(self):
        return {"seed": DATA_SEED, **QUICKSTART, **self.synth}

    def target_spec(self):
        spec = self.study_spec()
        spec["n_site1"] = spec["n_site2"] = TARGET_POINTS
        return spec

    def run_config(self, seed, study_dir):
        return {
            "points": f"{study_dir}/points.csv",
            "methods": METHODS,
            "n_splits": self.n_splits,
            "seed": seed,
            "max_order": 4,
            "correlation_threshold": 0.95,
            "rasters_dir": f"{study_dir}/rasters",
            "site_raster": f"{study_dir}/site.asc",
            "site_codes": ", ".join(f"{int(k)}: {v}" for k, v in SITE_CODES.items()),
            "workers": 1,
        }


# The quickstart extent (1200 x 900) at 3 instead of 10 units per cell: the same
# area and fields with 11x the cells.
_FINE_GRID = {"ncols": 400, "nrows": 300, "cellsize": 3, "gap_cols": 20}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit",
            "quickstart study, many short lasso paths: per-path and per-split cost",
            n_splits=40,
        ),
        Workload(
            "raster",
            "quickstart study on a 400x300 grid, 5 splits: raster prediction and ASCII I/O dominate",
            n_splits=5,
            synth=_FINE_GRID,
        ),
        Workload(
            "wide",
            "10 covariates (85 terms, 255 in m4), 210 points, 3 splits: few long lasso paths",
            n_splits=3,
            synth={"n_site1": 110, "n_site2": 100, "n_covariates": 10},
        ),
    )
}


def write_kv(path, mapping):
    """Write a sitelasso key = value config file."""
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in mapping.items():
            handle.write(f"{key} = {value}\n")
