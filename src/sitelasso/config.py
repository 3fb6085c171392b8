"""Plain key-value configuration files for the command-line entry points.

Format: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored. Every tunable the pipeline exposes has an explicit
default here so the effective configuration can be echoed verbatim into the
run manifest.
"""

import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .features import MAX_RANK
from .terms import MAX_ORDER

ENV_OUTPUT_DIR = "SITELASSO_OUTPUT_DIR"

METHOD_LABELS = ("m1-b1", "m1-b2", "m2", "m3", "m4")


def parse_kv_file(path):
    """Read a key-value file into an ordered dict of raw strings."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def _to_int(kv, key, default):
    if key not in kv:
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {kv[key]!r}")


def _to_float(kv, key, default):
    if key not in kv:
        return default
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {kv[key]!r}")


def _to_list(value):
    return [item.strip() for item in value.split(",") if item.strip()]


@dataclass
class RunConfig:
    """Effective configuration of one ``run`` invocation."""

    points: str
    output_dir: str
    methods: list = field(default_factory=lambda: list(METHOD_LABELS))
    n_splits: int = 500
    train_quota: int = 0  # 0 = two thirds of each site's rows
    train_quota_by_site: dict = field(default_factory=dict)
    correlation_threshold: float = 0.95
    max_order: int = MAX_ORDER
    seed: int = 0
    workers: int = 1
    rasters_dir: str = ""
    site_raster: str = ""
    site_codes: dict = field(default_factory=dict)  # raster value -> site name
    hierarchy: dict = field(default_factory=dict)  # covariate -> rank

    def validate(self):
        if not self.points:
            raise ConfigError("points is required")
        if not os.path.exists(self.points):
            raise ConfigError(f"points file not found: {self.points}")
        if not self.output_dir:
            raise ConfigError("output_dir is required")
        bad = [m for m in self.methods if m not in METHOD_LABELS]
        if bad:
            raise ConfigError(
                f"unknown method {bad[0]!r}; choose from {', '.join(METHOD_LABELS)}"
            )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method labels")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        if self.n_splits < 1:
            raise ConfigError("n_splits must be >= 1")
        if self.train_quota < 0:
            raise ConfigError("train_quota must be >= 0 (0 means two thirds per site)")
        for site, quota in self.train_quota_by_site.items():
            if quota < 1:
                raise ConfigError(f"train_quota.{site} must be positive")
        if not 0.0 < self.correlation_threshold <= 1.0:
            raise ConfigError("correlation_threshold must be in (0, 1]")
        if not 1 <= self.max_order <= MAX_ORDER:
            raise ConfigError(f"max_order must be in 1..{MAX_ORDER}, got {self.max_order}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.rasters_dir and not os.path.isdir(self.rasters_dir):
            raise ConfigError(f"rasters_dir not found: {self.rasters_dir}")
        if self.site_raster and not os.path.exists(self.site_raster):
            raise ConfigError(f"site_raster not found: {self.site_raster}")
        for cov, rank in self.hierarchy.items():
            if not 1 <= rank <= MAX_RANK:
                raise ConfigError(f"hierarchy rank for {cov!r} must be 1..{MAX_RANK}")
        return self

    def echo(self):
        """JSON-ready view of every effective setting."""
        return {
            "points": self.points,
            "output_dir": self.output_dir,
            "methods": list(self.methods),
            "n_splits": self.n_splits,
            "train_quota": self.train_quota,
            "train_quota_by_site": dict(sorted(self.train_quota_by_site.items())),
            "correlation_threshold": self.correlation_threshold,
            "max_order": self.max_order,
            "seed": self.seed,
            "workers": self.workers,
            "rasters_dir": self.rasters_dir,
            "site_raster": self.site_raster,
            "site_codes": {str(k): v for k, v in sorted(self.site_codes.items())},
            "hierarchy": dict(sorted(self.hierarchy.items())),
        }


_RUN_KEYS = {
    "points",
    "output_dir",
    "methods",
    "n_splits",
    "train_quota",
    "correlation_threshold",
    "max_order",
    "seed",
    "workers",
    "rasters_dir",
    "site_raster",
    "site_codes",
    "hierarchy",
}


def load_run_config(path, output_dir_override=None):
    kv = parse_kv_file(path)
    for key in kv:
        base = key.split(".", 1)[0]
        if base not in _RUN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if "." in key and base != "train_quota":
            raise ConfigError(f"unknown config key {key!r}")
    quotas = {}
    for key, value in kv.items():
        if key.startswith("train_quota."):
            site = key.split(".", 1)[1]
            try:
                quotas[site] = int(value)
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {value!r}")
    site_codes = {}
    if "site_codes" in kv:
        for item in _to_list(kv["site_codes"]):
            if ":" not in item:
                raise ConfigError("site_codes entries look like '1:SITE'")
            code, _, name = item.partition(":")
            try:
                site_codes[float(code)] = name.strip()
            except ValueError:
                raise ConfigError(f"site_codes value {code!r} is not a number")
    hierarchy = {}
    if "hierarchy" in kv:
        for item in _to_list(kv["hierarchy"]):
            if ":" not in item:
                raise ConfigError("hierarchy entries look like 'covariate:rank'")
            cov, _, rank = item.partition(":")
            try:
                hierarchy[cov.strip()] = int(rank)
            except ValueError:
                raise ConfigError(f"hierarchy rank {rank!r} is not an integer")
    output_dir = (
        output_dir_override
        or os.environ.get(ENV_OUTPUT_DIR, "")
        or kv.get("output_dir", "")
    )
    config = RunConfig(
        points=kv.get("points", ""),
        output_dir=output_dir,
        methods=_to_list(kv["methods"]) if "methods" in kv else list(METHOD_LABELS),
        n_splits=_to_int(kv, "n_splits", 500),
        train_quota=_to_int(kv, "train_quota", 0),
        train_quota_by_site=quotas,
        correlation_threshold=_to_float(kv, "correlation_threshold", 0.95),
        max_order=_to_int(kv, "max_order", MAX_ORDER),
        seed=_to_int(kv, "seed", 0),
        workers=_to_int(kv, "workers", 1),
        rasters_dir=kv.get("rasters_dir", ""),
        site_raster=kv.get("site_raster", ""),
        site_codes=site_codes,
        hierarchy=hierarchy,
    )
    return config.validate()


_SYNTH_KEYS = {
    "output_dir",
    "seed",
    "n_site1",
    "n_site2",
    "site_names",
    "n_covariates",
    "length_scale",
    "noise_sd",
    "intercept",
    "ncols",
    "nrows",
    "cellsize",
    "xllcorner",
    "yllcorner",
    "gap_cols",
    "coef",
    "site_coef",
    "shift",
    "scale",
}


def load_synth_spec(path, output_dir_override=None):
    """Read a generator spec file; returns (SyntheticSpec, output_dir)."""
    from .synthetic import FieldSpec, SyntheticSpec, default_fields

    kv = parse_kv_file(path)
    for key in kv:
        base = key.split(".", 1)[0]
        if base not in _SYNTH_KEYS:
            raise ConfigError(f"unknown spec key {key!r}")
        if "." not in key and base in {"coef", "site_coef", "shift", "scale"}:
            raise ConfigError(f"key {key!r} needs a suffix, e.g. {key}.cov0")
    site_names = tuple(_to_list(kv["site_names"])) if "site_names" in kv else ("B1", "B2")
    if len(site_names) != 2:
        raise ConfigError("site_names must list exactly two names")
    n_cov = _to_int(kv, "n_covariates", 6)
    if n_cov < 1:
        raise ConfigError("n_covariates must be >= 1")
    length_scale = _to_float(kv, "length_scale", 150.0)
    fields = list(default_fields(n_cov, length_scale=length_scale))
    shift = {}
    scale = {}
    coef_global = {}
    coef_site = {}
    for key, value in kv.items():
        if key.startswith("shift."):
            shift[key.split(".", 1)[1]] = _to_float({key: value}, key, None)
        elif key.startswith("scale."):
            scale[key.split(".", 1)[1]] = _to_float({key: value}, key, None)
        elif key.startswith("coef."):
            coef_global[key.split(".", 1)[1]] = _to_float({key: value}, key, None)
        elif key.startswith("site_coef."):
            rest = key.split(".", 1)[1]
            if "." not in rest:
                raise ConfigError(f"{key!r} should be site_coef.<site>.<term>")
            site, _, term = rest.partition(".")
            coef_site.setdefault(site, {})[term] = _to_float({key: value}, key, None)
    by_name = {f.name: f for f in fields}
    for name in list(shift) + list(scale):
        if name not in by_name:
            raise ConfigError(f"shift/scale names unknown covariate {name!r}")
    fields = [
        FieldSpec(
            name=f.name,
            length_scale=f.length_scale,
            amplitude=f.amplitude,
            site1_shift=shift.get(f.name, 0.0),
            site1_scale=scale.get(f.name, 1.0),
            n_waves=f.n_waves,
        )
        for f in fields
    ]
    kwargs = {
        "seed": _to_int(kv, "seed", 0),
        "n_site1": _to_int(kv, "n_site1", 60),
        "n_site2": _to_int(kv, "n_site2", 56),
        "site_names": site_names,
        "fields": tuple(fields),
        "noise_sd": _to_float(kv, "noise_sd", 0.3),
        "intercept": _to_float(kv, "intercept", 1.2),
        "ncols": _to_int(kv, "ncols", 50),
        "nrows": _to_int(kv, "nrows", 44),
        "cellsize": _to_float(kv, "cellsize", 25.0),
        "xll": _to_float(kv, "xllcorner", 0.0),
        "yll": _to_float(kv, "yllcorner", 0.0),
        "gap_cols": _to_int(kv, "gap_cols", 2),
    }
    if coef_global:
        kwargs["coef_global"] = coef_global
    if coef_site:
        kwargs["coef_site"] = coef_site
    elif coef_global:
        kwargs["coef_site"] = {}
    elif site_names != ("B1", "B2"):
        # keep the built-in default truth usable under renamed sites
        kwargs["coef_site"] = {site_names[1]: {"cov2": 1.0}}
    spec = SyntheticSpec(**kwargs)
    output_dir = (
        output_dir_override
        or os.environ.get(ENV_OUTPUT_DIR, "")
        or kv.get("output_dir", "")
    )
    if not output_dir:
        raise ConfigError("output_dir is required")
    return spec, output_dir
