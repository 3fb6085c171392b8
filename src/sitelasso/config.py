"""Plain key-value configuration files for the command-line entry points.

Format: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored. A file sets only the keys it holds; every other
setting keeps the default of its dataclass field (``RunConfig`` here,
``SyntheticSpec`` for synth spec files), so the effective configuration can
be echoed verbatim into the run manifest.
"""

import os
from dataclasses import dataclass, field, fields, replace

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


def check_output_dir(path):
    """Reject an output directory that cannot be made.

    ``path``, or its nearest parent that exists, must be a directory.
    """
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(
            f"output directory {path} cannot be made: {existing} is not a directory"
        )


# Each parser reads one file value's text. int and float report a ValueError
# as a ConfigError naming the key; the others raise their own.
_EXPECTED = {int: "an integer", float: "a number"}


def _list(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def _pairs(key, text, shape):
    """The ``a:b`` entries of a list as (a, b) string pairs."""
    for item in _list(text):
        if ":" not in item:
            raise ConfigError(f"{key} entries look like '{shape}'")
        first, _, second = item.partition(":")
        yield first, second


def _site_codes(text):
    codes = {}
    for code, name in _pairs("site_codes", text, "1:SITE"):
        try:
            codes[float(code)] = name.strip()
        except ValueError:
            raise ConfigError(f"site_codes value {code!r} is not a number") from None
    return codes


def _hierarchy(text):
    ranks = {}
    for cov, rank in _pairs("hierarchy", text, "covariate:rank"):
        try:
            ranks[cov.strip()] = int(rank)
        except ValueError:
            raise ConfigError(f"hierarchy rank {rank!r} is not an integer") from None
    return ranks


def _site_names(text):
    names = tuple(_list(text))
    if len(names) != 2:
        raise ConfigError("site_names must list exactly two names")
    return names


def _read(kv, table, kind):
    """Parse the values of ``kv`` by ``table``, file key -> (target, parser).

    Every key is checked before any value is parsed. A table key that ends
    in ``.`` names a family: ``<key><name> = value`` sets entry ``name`` of
    the target's dict. Returns {target: value} for the keys ``kv`` holds.
    """
    table_keys = {}
    for key in kv:
        prefix, dot, _ = key.partition(".")
        table_keys[key] = prefix + dot if dot else key
        if table_keys[key] not in table:
            if key + "." in table:
                raise ConfigError(f"key {key!r} needs a suffix, e.g. {key}.cov0")
            raise ConfigError(f"unknown {kind} key {key!r}")
    values = {}
    for key, table_key in table_keys.items():
        target, parse = table[table_key]
        try:
            value = parse(kv[key])
        except ValueError:
            raise ConfigError(f"{key} must be {_EXPECTED[parse]}, got {kv[key]!r}") from None
        if table_key.endswith("."):
            values.setdefault(target, {})[key[len(table_key) :]] = value
        else:
            values[target] = value
    return values


@dataclass
class RunConfig:
    """Effective configuration of one ``run`` invocation.

    Each field is one setting: the file key of its name, read by its type,
    or the ``key`` and ``parse`` of its metadata where it has them.
    """

    points: str = ""
    output_dir: str = ""
    methods: list = field(
        default_factory=lambda: list(METHOD_LABELS), metadata={"parse": _list}
    )
    n_splits: int = 500
    train_quota: int = 0  # 0 = two thirds of each site's rows
    train_quota_by_site: dict = field(
        default_factory=dict, metadata={"parse": int, "key": "train_quota."}
    )
    correlation_threshold: float = 0.95
    max_order: int = MAX_ORDER
    seed: int = 0
    workers: int = 1
    rasters_dir: str = ""
    site_raster: str = ""
    site_codes: dict = field(  # raster value -> site name
        default_factory=dict, metadata={"parse": _site_codes}
    )
    hierarchy: dict = field(  # covariate -> rank
        default_factory=dict, metadata={"parse": _hierarchy}
    )

    def validate(self):
        if not self.points:
            raise ConfigError("points is required")
        if not os.path.exists(self.points):
            raise ConfigError(f"points file not found: {self.points}")
        if not self.output_dir:
            raise ConfigError("output_dir is required")
        check_output_dir(self.output_dir)
        copy = os.path.join(self.output_dir, "points.csv")
        if os.path.exists(copy) and os.path.samefile(self.points, copy):
            raise ConfigError(
                f"points {self.points} is {copy}, where run writes its copy of the points"
            )
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
        if self.site_raster and not self.site_codes:
            # a site raster's codes cannot be read off the points file
            raise ConfigError("site_raster needs site_codes, e.g. site_codes = 1: B1, 2: B2")
        for cov, rank in self.hierarchy.items():
            if not 1 <= rank <= MAX_RANK:
                raise ConfigError(f"hierarchy rank for {cov!r} must be 1..{MAX_RANK}")
        return self

    def check_sites(self, sites):
        """Reject a site name that the points file, with ``sites``, does not have."""
        named = [("site_codes", name) for name in self.site_codes.values()]
        named += [(f"train_quota.{site}", site) for site in self.train_quota_by_site]
        for key, site in named:
            if site not in sites:
                raise ConfigError(
                    f"{key} names site {site!r}, which {self.points} does not have "
                    f"(its sites: {', '.join(sites)})"
                )

    def echo(self):
        """JSON-ready view of every effective setting; dicts sorted, with string keys."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {str(k): v for k, v in sorted(value.items())}
            out[f.name] = value
        return out


_RUN_SETTINGS = {
    f.metadata.get("key", f.name): (f.name, f.metadata.get("parse", f.type))
    for f in fields(RunConfig)
}


def _override_output_dir(values, override):
    """The command line's output_dir, else the environment's, wins over the file's."""
    override = override or os.environ.get(ENV_OUTPUT_DIR)
    if override:
        values["output_dir"] = override


def load_run_config(path, output_dir_override=None):
    values = _read(parse_kv_file(path), _RUN_SETTINGS, "config")
    _override_output_dir(values, output_dir_override)
    return RunConfig(**values).validate()


# synth spec file key -> (SyntheticSpec field, default_fields argument or
# FieldSpec field, parser); shift.<covariate> and scale.<covariate> set the
# site-1 transform of that covariate's field
_SYNTH_SETTINGS = {
    "output_dir": ("output_dir", str),
    "seed": ("seed", int),
    "n_site1": ("n_site1", int),
    "n_site2": ("n_site2", int),
    "site_names": ("site_names", _site_names),
    "n_covariates": ("n_fields", int),
    "length_scale": ("length_scale", float),
    "noise_sd": ("noise_sd", float),
    "intercept": ("intercept", float),
    "ncols": ("ncols", int),
    "nrows": ("nrows", int),
    "cellsize": ("cellsize", float),
    "xllcorner": ("xll", float),
    "yllcorner": ("yll", float),
    "gap_cols": ("gap_cols", int),
    "coef.": ("coef_global", float),
    "site_coef.": ("coef_site", float),
    "shift.": ("site1_shift", float),
    "scale.": ("site1_scale", float),
}


def load_synth_spec(path, output_dir_override=None):
    """Read a generator spec file; returns (SyntheticSpec, output_dir)."""
    from .synthetic import SyntheticSpec, default_fields

    values = _read(parse_kv_file(path), _SYNTH_SETTINGS, "spec")
    field_args = {k: values.pop(k) for k in ("n_fields", "length_scale") if k in values}
    by_field = {}
    for attr in ("site1_shift", "site1_scale"):
        for name, value in values.pop(attr, {}).items():
            by_field.setdefault(name, {})[attr] = value
    if field_args or by_field:
        covariates = default_fields(**field_args)
        if not covariates:
            raise ConfigError("n_covariates must be >= 1")
        known = {f.name for f in covariates}
        for name in by_field:
            if name not in known:
                raise ConfigError(f"shift/scale names unknown covariate {name!r}")
        values["fields"] = tuple(replace(f, **by_field.get(f.name, {})) for f in covariates)
    if "coef_site" in values:
        coef_site = {}
        for site_term, coef in values["coef_site"].items():
            site, dot, term = site_term.partition(".")
            if not dot:
                raise ConfigError(f"'site_coef.{site_term}' should be site_coef.<site>.<term>")
            coef_site.setdefault(site, {})[term] = coef
        values["coef_site"] = coef_site
    elif "coef_global" in values:
        values["coef_site"] = {}  # planted global terms alone: no site truth
    _override_output_dir(values, output_dir_override)
    output_dir = values.pop("output_dir", None)
    if not output_dir:
        raise ConfigError("output_dir is required")
    # synth writes into output_dir and its rasters directory: checking the
    # latter checks both
    check_output_dir(os.path.join(output_dir, "rasters"))
    return SyntheticSpec(**values), output_dir
