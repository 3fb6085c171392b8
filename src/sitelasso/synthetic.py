"""Seeded synthetic two-site datasets with known ground truth.

Covariates are smooth random-Fourier fields (Rahimi and Recht, NIPS 2007),
sums of cosine waves, evaluated both at sampled point locations and on a
co-registered raster grid. A point evaluates each wave at the point; the grid
splits each wave into a column and a row factor by angle addition, so point
and raster views of a covariate agree to rounding. The study area is split
into a left and a right site region separated by a nodata gap; per-field
shift and scale knobs applied only inside the first site's region create
controllable between-site support offsets (wider, narrower, or disjoint value
ranges).

Everything is a pure function of the spec: same spec, same bytes. The noise
realization is drawn as unit normals and multiplied by noise_sd, so changing
only the noise level rescales, rather than redraws, the noise.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .pointdata import PointDataset
from .rasters import DEFAULT_NODATA, RasterGrid
from .terms import evaluate_term, parse_term_id


@dataclass(frozen=True)
class FieldSpec:
    """One smooth covariate field.

    site1_shift and site1_scale transform the field inside the first site's
    region only: value = base * site1_scale + site1_shift.
    """

    name: str
    length_scale: float = 150.0
    amplitude: float = 1.0
    site1_shift: float = 0.0
    site1_scale: float = 1.0
    n_waves: int = 32


def default_fields(n_fields=6, length_scale=FieldSpec.length_scale):
    """n_fields plain fields named cov0..cov{n-1} with staggered scales."""
    return tuple(
        FieldSpec(name=f"cov{i}", length_scale=length_scale * (1.0 + 0.35 * (i % 4)))
        for i in range(n_fields)
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Complete recipe for one synthetic dataset."""

    seed: int = 0
    n_site1: int = 60
    n_site2: int = 56
    site_names: tuple = ("B1", "B2")
    fields: tuple = field(default_factory=default_fields)
    intercept: float = 1.2
    coef_global: dict = field(
        default_factory=lambda: {
            "cov0": 2.0,
            "cov0^2": 0.8,
            "cov1": 1.5,
            "cov0:cov1": 0.6,
        }
    )
    coef_site: dict = None  # None: cov2 = 1.0 on the second site
    noise_sd: float = 0.3
    ncols: int = 50
    nrows: int = 44
    cellsize: float = 25.0
    xll: float = 0.0
    yll: float = 0.0
    gap_cols: int = 2
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        if self.coef_site is None:
            # the second site's; a spec without one fails validation instead
            truth = {site: {"cov2": 1.0} for site in self.site_names[1:2]}
            object.__setattr__(self, "coef_site", truth)


def _finite_settings(spec):
    """(name in error messages, value) of every float setting of ``spec``."""
    yield from (
        ("noise_sd", spec.noise_sd),
        ("intercept", spec.intercept),
        ("cellsize", spec.cellsize),
        ("xllcorner", spec.xll),
        ("yllcorner", spec.yll),
        ("nodata", spec.nodata),
    )
    for f in spec.fields:
        yield f"field {f.name}: length_scale", f.length_scale
        yield f"field {f.name}: amplitude", f.amplitude
        yield f"shift.{f.name}", f.site1_shift
        yield f"scale.{f.name}", f.site1_scale
    for term_id, coef in spec.coef_global.items():
        yield f"coef.{term_id}", coef
    for site, coefs in spec.coef_site.items():
        for term_id, coef in coefs.items():
            yield f"site_coef.{site}.{term_id}", coef


def _validate_spec(spec):
    for key, value in _finite_settings(spec):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if spec.cellsize <= 0:
        raise ConfigError(f"cellsize must be positive, got {spec.cellsize}")
    if spec.n_site1 < 1 or spec.n_site2 < 1:
        raise ConfigError("both sites need at least one observation")
    if len(spec.fields) == 0:
        raise ConfigError("at least one covariate field is required")
    if len(spec.site_names) != 2 or spec.site_names[0] == spec.site_names[1]:
        raise ConfigError("exactly two distinct site names are required")
    names = [f.name for f in spec.fields]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate covariate field names")
    for f in spec.fields:
        if f.length_scale <= 0:
            raise ConfigError(f"field {f.name}: length_scale must be positive")
        if f.n_waves < 1:
            raise ConfigError(f"field {f.name}: n_waves must be >= 1")
    if spec.noise_sd < 0:
        raise ConfigError("noise_sd must be >= 0")
    if spec.gap_cols < 0:
        raise ConfigError("gap_cols must be >= 0")
    if spec.ncols < spec.gap_cols + 2:
        raise ConfigError("grid too narrow for two site regions plus the gap")
    if spec.nrows < 1:
        raise ConfigError("grid needs at least one row")
    known = set(names)
    for term_id in spec.coef_global:
        term = parse_term_id(term_id)
        missing = [c for c in term.covariates if c not in known]
        if missing:
            raise ConfigError(f"true term {term_id} uses unknown covariate {missing[0]!r}")
    for site, coefs in spec.coef_site.items():
        if site not in spec.site_names:
            raise ConfigError(f"site coefficient block for unknown site {site!r}")
        for term_id in coefs:
            term = parse_term_id(term_id)
            missing = [c for c in term.covariates if c not in known]
            if missing:
                raise ConfigError(
                    f"true term {site}@{term_id} uses unknown covariate {missing[0]!r}"
                )


@dataclass(frozen=True)
class _Waves:
    wx: np.ndarray
    wy: np.ndarray
    phase: np.ndarray


def _draw_waves(rng, spec_field):
    scale = 1.0 / spec_field.length_scale
    wx = rng.normal(0.0, scale, size=spec_field.n_waves)
    wy = rng.normal(0.0, scale, size=spec_field.n_waves)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=spec_field.n_waves)
    return _Waves(wx=wx, wy=wy, phase=phase)


def _eval_field(spec_field, waves, x, y, in_site1):
    base = np.zeros_like(x)
    for k in range(spec_field.n_waves):
        base += np.cos(waves.wx[k] * x + waves.wy[k] * y + waves.phase[k])
    base *= spec_field.amplitude * math.sqrt(2.0 / spec_field.n_waves)
    out = base.copy()
    if spec_field.site1_scale != 1.0 or spec_field.site1_shift != 0.0:
        out[in_site1] = base[in_site1] * spec_field.site1_scale + spec_field.site1_shift
    return out


def _eval_grid_field(spec_field, waves, gx, gy, site1_cols):
    """``_eval_field`` over the cell-centre mesh of ``gx`` and ``gy``, to rounding.

    Wave k's argument splits into a column part a = wx[k] * gx + phase[k] and
    a row part b = wy[k] * gy, and cos(a + b) = cos b cos a - sin b sin a. The
    sum over the K waves is then one (nrows, 2K) @ (2K, ncols) product of
    [cos b, sin b] and [cos a; -sin a]: 2K (nrows + ncols) sines and cosines
    instead of K nrows ncols. Site 1 holds the first ``site1_cols`` columns.
    """
    a = np.multiply.outer(waves.wx, gx) + waves.phase[:, None]
    b = np.multiply.outer(waves.wy, gy)
    rows = np.vstack([np.cos(b), np.sin(b)])
    cols = np.vstack([np.cos(a), -np.sin(a)])
    base = rows.T @ cols
    base *= spec_field.amplitude * math.sqrt(2.0 / spec_field.n_waves)
    if spec_field.site1_scale != 1.0 or spec_field.site1_shift != 0.0:
        site1 = base[:, :site1_cols]
        site1[...] = site1 * spec_field.site1_scale + spec_field.site1_shift
    return base


def _site_regions(spec):
    """x ranges of the two site regions and the gap, in whole columns."""
    usable = spec.ncols - spec.gap_cols
    left_cols = usable // 2
    right_start = left_cols + spec.gap_cols
    x0 = spec.xll
    x1 = spec.xll + left_cols * spec.cellsize
    x2 = spec.xll + right_start * spec.cellsize
    x3 = spec.xll + spec.ncols * spec.cellsize
    return (x0, x1), (x2, x3), left_cols, right_start


def _truth_signal(spec, cov_map, site_ids):
    signal = np.full(len(site_ids), float(spec.intercept))
    for term_id, coef in sorted(spec.coef_global.items()):
        signal += coef * evaluate_term(parse_term_id(term_id), cov_map)
    for site in sorted(spec.coef_site):
        mask = site_ids == site
        for term_id, coef in sorted(spec.coef_site[site].items()):
            signal[mask] += coef * evaluate_term(parse_term_id(term_id), cov_map)[mask]
    return signal


def generate_synthetic(spec):
    """Build one dataset from a spec.

    Returns (points, covariate_rasters, site_raster, truth) where
    covariate_rasters maps field name to a RasterGrid co-registered with the
    site raster, and truth records everything an oracle check needs.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(spec.seed)
    (s1_lo, s1_hi), (s2_lo, s2_hi), left_cols, right_start = _site_regions(spec)
    waves = [_draw_waves(rng, f) for f in spec.fields]

    # sample locations, one cell of margin inside each region so 25 m squares
    # centred on points remain interior
    margin = spec.cellsize
    y_lo = spec.yll + margin
    y_hi = spec.yll + spec.nrows * spec.cellsize - margin
    n1, n2 = spec.n_site1, spec.n_site2
    px1 = rng.uniform(s1_lo + margin, s1_hi - margin, size=n1)
    py1 = rng.uniform(y_lo, y_hi, size=n1)
    px2 = rng.uniform(s2_lo + margin, s2_hi - margin, size=n2)
    py2 = rng.uniform(y_lo, y_hi, size=n2)
    px = np.concatenate([px1, px2])
    py = np.concatenate([py1, py2])
    site_ids = np.array(
        [spec.site_names[0]] * n1 + [spec.site_names[1]] * n2, dtype=object
    )
    in_site1_pts = np.zeros(n1 + n2, dtype=bool)
    in_site1_pts[:n1] = True

    cov_names = [f.name for f in spec.fields]
    cov_points = np.column_stack(
        [
            _eval_field(f, w, px, py, in_site1_pts)
            for f, w in zip(spec.fields, waves)
        ]
    )
    cov_map = {name: cov_points[:, j] for j, name in enumerate(cov_names)}
    signal = _truth_signal(spec, cov_map, site_ids)
    unit_noise = rng.normal(0.0, 1.0, size=n1 + n2)
    response = signal + spec.noise_sd * unit_noise

    points = PointDataset(
        site_ids=site_ids,
        x=px,
        y=py,
        response=response,
        covariate_names=cov_names,
        covariate_values=cov_points,
    )

    # co-registered rasters at cell centers
    gx = spec.xll + (np.arange(spec.ncols) + 0.5) * spec.cellsize
    gy = spec.yll + (spec.nrows - np.arange(spec.nrows) - 0.5) * spec.cellsize
    col_idx = np.arange(spec.ncols)
    in_site1_cols = col_idx < left_cols
    in_gap_cols = (col_idx >= left_cols) & (col_idx < right_start)

    def _grid(values):
        return RasterGrid(
            ncols=spec.ncols,
            nrows=spec.nrows,
            xll=spec.xll,
            yll=spec.yll,
            cellsize=spec.cellsize,
            nodata=spec.nodata,
            values=values,
        )

    rasters = {
        f.name: _grid(_eval_grid_field(f, w, gx, gy, left_cols))
        for f, w in zip(spec.fields, waves)
    }

    site_values = np.where(in_site1_cols, 1.0, 2.0)
    site_values = np.where(in_gap_cols, spec.nodata, site_values)
    site_raster = _grid(np.tile(site_values, (spec.nrows, 1)))

    truth = {
        "seed": spec.seed,
        "site_names": list(spec.site_names),
        "n_per_site": {spec.site_names[0]: n1, spec.site_names[1]: n2},
        "intercept": spec.intercept,
        "coef_global": dict(sorted(spec.coef_global.items())),
        "coef_site": {
            site: dict(sorted(coefs.items()))
            for site, coefs in sorted(spec.coef_site.items())
        },
        "noise_sd": spec.noise_sd,
        "fields": [asdict(f) for f in spec.fields],
        "grid": {
            "ncols": spec.ncols,
            "nrows": spec.nrows,
            "xll": spec.xll,
            "yll": spec.yll,
            "cellsize": spec.cellsize,
            "nodata": spec.nodata,
        },
        "site_regions": {
            spec.site_names[0]: [s1_lo, s1_hi],
            spec.site_names[1]: [s2_lo, s2_hi],
        },
        "site_codes": {"1": spec.site_names[0], "2": spec.site_names[1]},
        "signal_sd": float(np.std(signal)),
    }
    return points, rasters, site_raster, truth
